"""The instruction-at-a-time IR interpreter, kept as a differential oracle.

``repro.runtime.interp`` lowers IR to generated Python code that charges
steps and cycles per basic block. This module keeps the interpreter it
replaced: one ``if kind is ...`` dispatch per instruction, charging each
instruction as it runs. The tests run both on the same programs and
require the same output, cycles, steps, task effects and errors.
"""

from __future__ import annotations

import contextlib
import io as _io
import math
from typing import Dict, List, Optional, Tuple
from unittest import mock

from repro.ir import costs
from repro.ir import instructions as ir
from repro.lang.errors import RuntimeBambooError
from repro.runtime.interp import (
    DEFAULT_MAX_STEPS,
    NewObjectRecord,
    TaskEffects,
    _int_div,
    _int_rem,
    _MAX_CALL_DEPTH,
    _TaskExitSignal,
)
from repro.runtime.objects import BArray, BObject, Heap, TagInstance, default_field_value
from repro.sema import builtins
from repro.sema.symbols import ProgramInfo


class ReferenceInterpreter:
    """The instruction-at-a-time interpreter, kept as a test oracle."""

    def __init__(
        self,
        ir_program: ir.IRProgram,
        info: ProgramInfo,
        heap: Optional[Heap] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        bounds_checks: bool = False,
    ):
        self.ir_program = ir_program
        self.info = info
        self.heap = heap if heap is not None else Heap()
        self.max_steps = max_steps
        #: When True, every array access pays BOUNDS_CHECK_COST extra cycles
        #: (the paper's optional safety mode, §5.5). The interpreter always
        #: *performs* the check — Python-level safety — so the flag only
        #: affects cost accounting, exactly like enabling the emitted checks
        #: in the paper's generated C code.
        self._array_access_cost_extra = (
            costs.BOUNDS_CHECK_COST if bounds_checks else 0
        )
        self.steps = 0
        self.stdout = _io.StringIO()
        self._builtin_cache: Dict[str, builtins.BuiltinFunction] = {
            fn.key: fn for fn in builtins.all_builtins()
        }
        # Per-run state:
        self._cycles = 0
        self._new_objects: List[NewObjectRecord] = []

    # -- public API ----------------------------------------------------------

    def run_method(self, qualified_name: str, args: List[object]) -> Tuple[object, int]:
        """Runs a method/constructor; returns ``(return value, cycles)``."""
        func = self.ir_program.methods[qualified_name]
        start = self._cycles
        value = self._run(func, list(args), depth=0)
        return value, self._cycles - start

    def run_task(self, task_name: str, params: List[BObject]) -> TaskEffects:
        """Runs a task body on the given parameter objects.

        Returns the exit point taken, the cycle cost of the body, the objects
        it allocated (with their allocation sites, already carrying their
        initial flags), and the resolved taskexit tag actions. Flag updates
        from the exit spec are **not** applied here — the runtime commits
        them (and pays :data:`repro.ir.costs.FLAG_UPDATE_COST`) so that
        dispatch policy stays out of the interpreter.
        """
        func = self.ir_program.tasks[task_name]
        start_cycles = self._cycles
        saved_new = self._new_objects
        self._new_objects = []
        exit_state = self._run(func, list(params), depth=0)
        assert isinstance(exit_state, _TaskExitSignal)
        effects = TaskEffects(
            exit_id=exit_state.exit_id,
            cycles=self._cycles - start_cycles,
            new_objects=self._new_objects,
            tag_actions=exit_state.tag_actions,
        )
        self._new_objects = saved_new
        return effects

    def output(self) -> str:
        return self.stdout.getvalue()

    # -- execution core ---------------------------------------------------------

    def _run(self, func: ir.IRFunction, args: List[object], depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise RuntimeBambooError(f"call depth exceeded in {func.name}")
        regs: List[object] = [None] * func.num_regs
        for index, value in enumerate(args):
            regs[index] = value

        block = func.blocks[func.entry]
        instr_index = 0
        instructions = block.instructions
        heap = self.heap

        while True:
            self.steps += 1
            if self.steps > self.max_steps:
                raise RuntimeBambooError(
                    f"instruction budget exhausted in {func.name}"
                )
            instr = instructions[instr_index]
            instr_index += 1
            kind = type(instr)

            if kind is ir.Move:
                self._cycles += costs.MOVE_COST
                src = instr.src
                regs[instr.dst.index] = (
                    regs[src.index] if type(src) is ir.Reg else src.value
                )
            elif kind is ir.BinOp:
                self._cycles += costs.binop_cost(instr.op, instr.kind)
                a = instr.a
                b = instr.b
                left = regs[a.index] if type(a) is ir.Reg else a.value
                right = regs[b.index] if type(b) is ir.Reg else b.value
                regs[instr.dst.index] = self._binop(instr.op, instr.kind, left, right)
            elif kind is ir.UnOp:
                self._cycles += costs.instruction_cost(instr)
                a = instr.a
                value = regs[a.index] if type(a) is ir.Reg else a.value
                regs[instr.dst.index] = self._unop(instr.op, instr.kind, value)
            elif kind is ir.Load:
                self._cycles += costs.LOAD_COST
                obj = self._operand(regs, instr.obj)
                if obj is None:
                    raise RuntimeBambooError(
                        f"null dereference loading .{instr.field_name} in {func.name}"
                    )
                regs[instr.dst.index] = obj.fields[instr.field_index]
            elif kind is ir.Store:
                self._cycles += costs.STORE_COST
                obj = self._operand(regs, instr.obj)
                if obj is None:
                    raise RuntimeBambooError(
                        f"null dereference storing .{instr.field_name} in {func.name}"
                    )
                obj.fields[instr.field_index] = self._operand(regs, instr.src)
            elif kind is ir.ALoad:
                self._cycles += costs.ALOAD_COST + self._array_access_cost_extra
                array = self._operand(regs, instr.array)
                index = self._operand(regs, instr.index)
                self._check_array(array, index, func)
                regs[instr.dst.index] = array.values[index]
            elif kind is ir.AStore:
                self._cycles += costs.ASTORE_COST + self._array_access_cost_extra
                array = self._operand(regs, instr.array)
                index = self._operand(regs, instr.index)
                self._check_array(array, index, func)
                array.values[index] = self._operand(regs, instr.src)
            elif kind is ir.ArrLen:
                self._cycles += costs.ARRLEN_COST
                array = self._operand(regs, instr.array)
                if array is None:
                    raise RuntimeBambooError(f"null array length in {func.name}")
                regs[instr.dst.index] = len(array.values)
            elif kind is ir.NewObj:
                self._cycles += costs.NEWOBJ_COST
                regs[instr.dst.index] = self._new_object(instr)
            elif kind is ir.NewArr:
                dims = [self._operand(regs, d) for d in instr.dims]
                regs[instr.dst.index] = self._new_array(instr, dims)
            elif kind is ir.Call:
                self._cycles += costs.CALL_OVERHEAD
                callee = self.ir_program.methods[instr.target]
                call_args = [self._operand(regs, a) for a in instr.args]
                result = self._run(callee, call_args, depth + 1)
                if instr.dst is not None:
                    regs[instr.dst.index] = result
            elif kind is ir.CallBuiltin:
                fn = self._builtin_cache[instr.key]
                self._cycles += fn.cost
                call_args = [self._operand(regs, a) for a in instr.args]
                result = self._call_builtin(fn, call_args)
                if instr.dst is not None:
                    regs[instr.dst.index] = result
            elif kind is ir.NewTag:
                self._cycles += costs.NEWTAG_COST
                regs[instr.dst.index] = heap.new_tag(instr.tag_type)
            elif kind is ir.BindTag:
                self._cycles += costs.BINDTAG_COST
                obj = self._operand(regs, instr.obj)
                tag = self._operand(regs, instr.tag)
                obj.bind_tag(tag)
            elif kind is ir.Jump:
                self._cycles += costs.JUMP_COST
                block = func.blocks[instr.target]
                instructions = block.instructions
                instr_index = 0
            elif kind is ir.Branch:
                self._cycles += costs.BRANCH_COST
                cond = self._operand(regs, instr.cond)
                target = instr.true_target if cond else instr.false_target
                block = func.blocks[target]
                instructions = block.instructions
                instr_index = 0
            elif kind is ir.Ret:
                self._cycles += costs.RET_COST
                if instr.src is None:
                    return None
                return self._operand(regs, instr.src)
            elif kind is ir.Exit:
                self._cycles += costs.EXIT_COST
                spec = func.exits[instr.exit_id]
                tag_actions: Dict[int, List[Tuple[str, TagInstance]]] = {}
                for param_index, actions in spec.tag_updates.items():
                    resolved = []
                    for action in actions:
                        tag = regs[action.tag_reg.index]
                        if not isinstance(tag, TagInstance):
                            raise RuntimeBambooError(
                                "taskexit tag action on an unbound tag variable"
                            )
                        resolved.append((action.op, tag))
                    tag_actions[param_index] = resolved
                return _TaskExitSignal(exit_id=instr.exit_id, tag_actions=tag_actions)
            elif kind is ir.Trap:
                raise RuntimeBambooError(instr.message)
            else:  # pragma: no cover - exhaustive over instruction set
                raise RuntimeBambooError(f"unknown instruction {instr!r}")

    @staticmethod
    def _operand(regs: List[object], operand: ir.Operand):
        return regs[operand.index] if type(operand) is ir.Reg else operand.value

    def _check_array(self, array, index, func: ir.IRFunction) -> None:
        if array is None:
            raise RuntimeBambooError(f"null array access in {func.name}")
        if not isinstance(index, int) or not (0 <= index < len(array.values)):
            raise RuntimeBambooError(
                f"array index {index} out of bounds "
                f"(length {len(array.values)}) in {func.name}"
            )

    def _binop(self, op: str, kind: str, left, right):
        if kind == "int":
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return _int_div(left, right)
            if op == "%":
                return _int_rem(left, right)
        elif kind == "float":
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0.0:
                    raise RuntimeBambooError("float division by zero")
                return left / right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "==":
            return self._ref_eq(left, right) if kind == "ref" else left == right
        if op == "!=":
            return not self._ref_eq(left, right) if kind == "ref" else left != right
        if op == "concat":
            return left + right
        if op in ("&&", "||"):
            # Only produced by non-short-circuit contexts (none today), keep
            # strict semantics for completeness.
            return (left and right) if op == "&&" else (left or right)
        raise RuntimeBambooError(f"unknown {kind} operator '{op}'")

    @staticmethod
    def _ref_eq(left, right) -> bool:
        if isinstance(left, str) or isinstance(right, str):
            return left == right
        return left is right

    @staticmethod
    def _unop(op: str, kind: str, value):
        if op == "neg":
            return -value
        if op == "not":
            return not value
        if op == "i2f":
            return float(value)
        if op == "f2i":
            return math.trunc(value)
        if op == "tostr":
            if kind == "bool":
                return "true" if value else "false"
            if kind == "float":
                return repr(float(value))
            return str(value)
        raise RuntimeBambooError(f"unknown unary operator '{op}'")

    def _call_builtin(self, fn: builtins.BuiltinFunction, args: List[object]):
        result = fn.impl(self.stdout, *args)
        if isinstance(result, list):  # String.split returns a Python list
            return BArray(elem_type="String", values=result)
        return result

    def _new_object(self, instr: ir.NewObj) -> BObject:
        class_info = self.info.class_info(instr.class_name)
        obj = self.heap.new_object(instr.class_name, len(class_info.fields))
        for fld in class_info.fields.values():
            obj.fields[fld.index] = default_field_value(str(fld.type))
        site = self.ir_program.alloc_sites[instr.site_id]
        for flag, value in site.flag_inits.items():
            obj.set_flag(flag, value)
        self._new_objects.append(NewObjectRecord(obj=obj, site_id=instr.site_id))
        return obj

    def _new_array(self, instr: ir.NewArr, dims: List[int]) -> BArray:
        return self._alloc_array_level(instr.elem_type, dims, instr.extra_dims, 0)

    def _alloc_array_level(
        self, elem_type: str, dims: List[int], extra_dims: int, level: int
    ) -> BArray:
        length = dims[level]
        if not isinstance(length, int) or length < 0:
            raise RuntimeBambooError(f"invalid array length {length}")
        self._cycles += costs.NEWARR_BASE_COST + costs.NEWARR_PER_ELEM_COST * length
        if level + 1 < len(dims):
            values = [
                self._alloc_array_level(elem_type, dims, extra_dims, level + 1)
                for _ in range(length)
            ]
            return BArray(elem_type=elem_type, values=values)
        fill = default_field_value(elem_type) if extra_dims == 0 else None
        return BArray(elem_type=elem_type, values=[fill] * length)


@contextlib.contextmanager
def interpreter_class(cls):
    """Makes ``run_sequential`` and the machine build ``cls`` interpreters."""
    from repro.core import api
    from repro.runtime import machine

    with mock.patch.object(api, "Interpreter", cls), mock.patch.object(
        machine, "Interpreter", cls
    ):
        yield
