"""IR interpreter with cycle accounting.

This stands in for the machine code the paper's compiler emits for the
TILEPro64: executing a task or method yields both its *result* (heap effects,
exit point taken, objects allocated) and its *cost* in simulated cycles under
the :mod:`repro.ir.costs` model.

Each IR program is lowered once per bounds-check setting to Python source,
run through :func:`compile`: one generated function per task or method, with
the IR registers as its local variables and its basic blocks as the leaves
of a dispatch tree. Operands, operators, callees and builtins are resolved
while lowering. Each block charges its instruction count to the step budget
once and its pre-summed static cycles (:func:`repro.ir.costs.instruction_cost`)
once, so the per-instruction cost model is unchanged but paid per block.
Only a builtin's implementation, an array allocation's length-dependent
cost and callee bodies are left to run time. Every entered block runs to its
terminator unless it raises, and a raise aborts the run, so completed runs
charge exactly the steps and cycles of executing one instruction at a time.

The lowered code is cached by the identity of the IR program, outside it,
and dropped with it: it never reaches a pickle or a digest of the compiled
program, and a long-lived process holds code only for live programs.

The interpreter is deliberately independent of the many-core machine — the
machine simulator calls :meth:`Interpreter.run_task` / ``run_method`` and
spends the returned cycles on a core's clock, while the sequential baseline
harness calls ``run_method`` directly (no runtime overhead), mirroring the
paper's single-core C versions.
"""

from __future__ import annotations

import io as _io
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..lang.errors import RuntimeBambooError
from ..sema import builtins
from ..sema.symbols import ProgramInfo
from ..ir import costs
from ..ir import instructions as ir
from .objects import BArray, BObject, Heap, TagInstance, default_field_value

#: Hard limit on interpreted instructions per top-level run, to turn infinite
#: loops in user programs into errors instead of hangs.
DEFAULT_MAX_STEPS = 500_000_000

_MAX_CALL_DEPTH = 400


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise RuntimeBambooError("integer division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _int_rem(a: int, b: int) -> int:
    return a - b * _int_div(a, b)


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        raise RuntimeBambooError("float division by zero")
    return a / b


def _ref_eq(left, right) -> bool:
    if isinstance(left, str) or isinstance(right, str):
        return left == right
    return left is right


def _check_array(array, index, func_name: str) -> None:
    if array is None:
        raise RuntimeBambooError(f"null array access in {func_name}")
    if not isinstance(index, int) or not (0 <= index < len(array.values)):
        raise RuntimeBambooError(
            f"array index {index} out of bounds "
            f"(length {len(array.values)}) in {func_name}"
        )


@dataclass
class NewObjectRecord:
    """An object allocated during one task invocation, with its site."""

    obj: BObject
    site_id: int


@dataclass
class TaskEffects:
    """Everything the runtime needs to commit after a task invocation."""

    exit_id: int
    cycles: int
    new_objects: List[NewObjectRecord] = field(default_factory=list)
    #: Resolved tag actions per parameter index: (op, tag instance).
    tag_actions: Dict[int, List[Tuple[str, TagInstance]]] = field(default_factory=dict)


@dataclass
class _TaskExitSignal:
    exit_id: int
    tag_actions: Dict[int, List[Tuple[str, TagInstance]]]


def _task_exit(exit_id: int, updates) -> _TaskExitSignal:
    """Resolves an exit's tag actions; ``updates`` pairs each parameter
    index with its ``(op, tag register value)`` actions."""
    tag_actions: Dict[int, List[Tuple[str, TagInstance]]] = {}
    for param_index, actions in updates:
        resolved = []
        for op, tag in actions:
            if not isinstance(tag, TagInstance):
                raise RuntimeBambooError(
                    "taskexit tag action on an unbound tag variable"
                )
            resolved.append((op, tag))
        tag_actions[param_index] = resolved
    return _TaskExitSignal(exit_id=exit_id, tag_actions=tag_actions)


class Interpreter:
    """Executes IR functions against a shared heap."""

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
        self._code = lowered_program(ir_program, bounds_checks)
        self.steps = 0
        self.stdout = _io.StringIO()
        # Per-run state:
        self._cycles = 0
        self._new_objects: List[NewObjectRecord] = []

    # -- public API ----------------------------------------------------------

    def run_method(self, qualified_name: str, args: List[object]) -> Tuple[object, int]:
        """Runs a method/constructor; returns ``(return value, cycles)``."""
        function = self._code.methods[qualified_name]
        start = self._cycles
        value = function(self, 0, *args)
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
        function = self._code.tasks[task_name]
        start_cycles = self._cycles
        saved_new = self._new_objects
        self._new_objects = []
        exit_state = function(self, 0, *params)
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

    # -- run-time support for the lowered code ----------------------------------

    def _new_object(self, class_name: str, site_id: int) -> BObject:
        class_info = self.info.class_info(class_name)
        obj = self.heap.new_object(class_name, len(class_info.fields))
        for fld in class_info.fields.values():
            obj.fields[fld.index] = default_field_value(str(fld.type))
        site = self.ir_program.alloc_sites[site_id]
        for flag, value in site.flag_inits.items():
            obj.set_flag(flag, value)
        self._new_objects.append(NewObjectRecord(obj=obj, site_id=site_id))
        return obj

    def _new_array(self, elem_type: str, dims: List[int], extra_dims: int) -> BArray:
        return self._alloc_array_level(elem_type, dims, extra_dims, 0)

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


def make_startup_object(
    heap: Heap, info: ProgramInfo, args: List[str]
) -> BObject:
    """Creates the StartupObject in the ``initialstate`` abstract state."""
    class_info = info.class_info(builtins.STARTUP_CLASS)
    obj = heap.new_object(builtins.STARTUP_CLASS, len(class_info.fields))
    args_field = class_info.fields[builtins.STARTUP_ARGS_FIELD]
    obj.fields[args_field.index] = BArray(elem_type="String", values=list(args))
    obj.set_flag(builtins.STARTUP_FLAG, True)
    return obj


# ---------------------------------------------------------------------------
# Lowering: IR program -> generated Python functions
# ---------------------------------------------------------------------------


@dataclass
class LoweredProgram:
    """The generated function of every task and method, by name.

    A generated function takes ``(interpreter, call depth, *arguments)``,
    and adds its cycles to ``interpreter._cycles`` and its instruction
    count to ``interpreter.steps`` when it returns.
    """

    tasks: Dict[str, Callable]
    methods: Dict[str, Callable]


#: (id of the IR program, bounds checks) -> (weak reference to it, its code)
_LOWERED: Dict[Tuple[int, bool], Tuple[weakref.ref, LoweredProgram]] = {}


def lowered_program(ir_program: ir.IRProgram, bounds_checks: bool) -> LoweredProgram:
    """Returns the lowered code of ``ir_program``, lowering it on first use.

    The entry lives as long as the IR program: a weak reference removes it
    when the program is collected. The IR must not be edited after it has
    been run.
    """
    key = (id(ir_program), bounds_checks)
    entry = _LOWERED.get(key)
    if entry is not None and entry[0]() is ir_program:
        return entry[1]
    code = _Lowering(bounds_checks).program(ir_program)
    ref = weakref.ref(ir_program, lambda _, key=key: _LOWERED.pop(key, None))
    _LOWERED[key] = (ref, code)
    return code


def _binop_expr(op: str, kind: str, a: str, b: str) -> Optional[str]:
    """Python expression for ``a op b``; None for an unknown operator."""
    if op in ("+", "-", "*") and kind in ("int", "float"):
        return f"{a} {op} {b}"
    if op == "/" and kind == "int":
        return f"_int_div({a}, {b})"
    if op == "%" and kind == "int":
        return f"_int_rem({a}, {b})"
    if op == "/" and kind == "float":
        return f"_float_div({a}, {b})"
    if op in ("<", ">", "<=", ">="):
        return f"{a} {op} {b}"
    if op == "==":
        return f"_ref_eq({a}, {b})" if kind == "ref" else f"{a} == {b}"
    if op == "!=":
        return f"not _ref_eq({a}, {b})" if kind == "ref" else f"{a} != {b}"
    if op == "concat":
        return f"{a} + {b}"
    if op == "&&":
        # Only produced by non-short-circuit contexts (none today), keep
        # strict semantics for completeness.
        return f"({a} and {b})"
    if op == "||":
        return f"({a} or {b})"
    return None


def _unop_expr(op: str, kind: str, a: str) -> Optional[str]:
    """Python expression for ``op a``; None for an unknown operator."""
    if op == "neg":
        return f"-{a}"
    if op == "not":
        return f"not {a}"
    if op == "i2f":
        return f"float({a})"
    if op == "f2i":
        return f"_trunc({a})"
    if op == "tostr":
        if kind == "bool":
            return f"'true' if {a} else 'false'"
        if kind == "float":
            return f"repr(float({a}))"
        return f"str({a})"
    return None


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


class _Lowering:
    """Generates the source of one IR program and compiles it."""

    def __init__(self, bounds_checks: bool):
        self.bounds_checks = bounds_checks
        self.namespace: Dict[str, object] = {
            "_Error": RuntimeBambooError,
            "_BArray": BArray,
            "_int_div": _int_div,
            "_int_rem": _int_rem,
            "_float_div": _float_div,
            "_ref_eq": _ref_eq,
            "_check_array": _check_array,
            "_trunc": math.trunc,
            "_task_exit": _task_exit,
        }
        self._constants = 0
        self._builtins: Dict[str, str] = {}
        #: qualified method name -> generated function name
        self._methods: Dict[str, str] = {}

    def program(self, ir_program: ir.IRProgram) -> LoweredProgram:
        self._methods = {name: f"m{i}" for i, name in enumerate(ir_program.methods)}
        tasks = {name: f"t{i}" for i, name in enumerate(ir_program.tasks)}
        for names, functions in ((self._methods, ir_program.methods), (tasks, ir_program.tasks)):
            for qualified, func in functions.items():
                # One compile per function keeps the peak memory of parsing
                # the generated source small.
                source = "\n".join(self.function(func, names[qualified]))
                exec(compile(source, f"<lowered {func.name}>", "exec"), self.namespace)
        return LoweredProgram(
            tasks={qualified: self.namespace[name] for qualified, name in tasks.items()},
            methods={
                qualified: self.namespace[name] for qualified, name in self._methods.items()
            },
        )

    # -- operands ----------------------------------------------------------------

    def operand(self, operand: ir.Operand) -> str:
        if type(operand) is ir.Reg:
            return f"r{operand.index}"
        value = operand.value
        if value is None or type(value) is bool:
            return repr(value)
        if type(value) is int:
            return repr(value) if value >= 0 else f"({value!r})"
        # Floats, strings and anything else are bound as the very object
        # the IR holds (no literal round trip, no merging 0.0 with -0.0).
        name = f"k{self._constants}"
        self._constants += 1
        self.namespace[name] = value
        return name

    def builtin(self, fn: builtins.BuiltinFunction) -> str:
        name = self._builtins.get(fn.key)
        if name is None:
            name = self._builtins[fn.key] = f"b{len(self._builtins)}"
            self.namespace[name] = fn.impl
        return name

    # -- functions -----------------------------------------------------------------

    def function(self, func: ir.IRFunction, name: str) -> List[str]:
        num_params = len(func.param_names)
        params = "".join(f", r{index}=None" for index in range(num_params))
        body = [
            f"if depth > {_MAX_CALL_DEPTH}:",
            *_indent(_raise(f"call depth exceeded in {func.name}")),
        ]
        # A register read before any write holds None, as in a fresh frame.
        read = {
            operand.index
            for _, instr in func.all_instructions()
            for operand in instr.operands()
            if type(operand) is ir.Reg
        }
        for spec in func.exits.values():
            for actions in spec.tag_updates.values():
                read.update(action.tag_reg.index for action in actions)
        unset = sorted(index for index in read if index >= num_params)
        if unset:
            body.append(" = ".join(f"r{index}" for index in unset) + " = None")
        body += ["steps = I.steps", "limit = I.max_steps", "c = 0"]

        targets = {target for block in func.blocks for target in block.successors()}
        looped = list(range(len(func.blocks)))
        if func.entry not in targets:
            # Nothing jumps back to the entry block: run it before the loop.
            body += self.block(func, func.blocks[func.entry])
            looped.remove(func.entry)
        if looped:
            if func.entry in targets:
                body.append(f"block = {func.entry}")
            body.append("while True:")
            body += _indent(self.dispatch(func, looped))
        return [f"def {name}(I, depth{params}):", *_indent(body), ""]

    def dispatch(self, func: ir.IRFunction, indices: List[int]) -> List[str]:
        """A binary tree of tests on ``block`` over the sorted ``indices``."""
        if len(indices) == 1:
            return self.block(func, func.blocks[indices[0]])
        middle = len(indices) // 2
        return (
            [f"if block < {indices[middle]}:"]
            + _indent(self.dispatch(func, indices[:middle]))
            + ["else:"]
            + _indent(self.dispatch(func, indices[middle:]))
        )

    def block(self, func: ir.IRFunction, block: ir.BasicBlock) -> List[str]:
        instructions = block.instructions
        lines = [
            f"steps += {len(instructions)}",
            "if steps > limit:",
            *_indent(_raise(f"instruction budget exhausted in {func.name}")),
        ]
        cycles = sum(costs.instruction_cost(i, self.bounds_checks) for i in instructions)
        if cycles:
            lines.append(f"c += {cycles}")
        for instr in instructions:
            lines += self.instruction(func, instr)
        return lines

    # -- instructions: one method per kind, each returning source lines ------------

    def instruction(self, func: ir.IRFunction, instr: ir.Instr) -> List[str]:
        lower = _LOWER_BY_KIND.get(type(instr))
        if lower is None:
            return _raise(f"unknown instruction {instr!r}")
        return lower(self, func, instr)

    def move(self, func: ir.IRFunction, instr: ir.Move) -> List[str]:
        return [f"r{instr.dst.index} = {self.operand(instr.src)}"]

    def binop(self, func: ir.IRFunction, instr: ir.BinOp) -> List[str]:
        a, b = self.operand(instr.a), self.operand(instr.b)
        expr = _binop_expr(instr.op, instr.kind, a, b)
        if expr is None:
            return _raise(f"unknown {instr.kind} operator '{instr.op}'")
        return [f"r{instr.dst.index} = {expr}"]

    def unop(self, func: ir.IRFunction, instr: ir.UnOp) -> List[str]:
        expr = _unop_expr(instr.op, instr.kind, self.operand(instr.a))
        if expr is None:
            return _raise(f"unknown unary operator '{instr.op}'")
        return [f"r{instr.dst.index} = {expr}"]

    def field(self, func: ir.IRFunction, instr) -> List[str]:
        """``Load`` or ``Store``."""
        obj = self.operand(instr.obj)
        slot = f"{obj}.fields[{instr.field_index}]"
        if type(instr) is ir.Load:
            verb, access = "loading", f"r{instr.dst.index} = {slot}"
        else:
            verb, access = "storing", f"{slot} = {self.operand(instr.src)}"
        message = f"null dereference {verb} .{instr.field_name} in {func.name}"
        return [f"if {obj} is None:", *_indent(_raise(message)), access]

    def element(self, func: ir.IRFunction, instr) -> List[str]:
        """``ALoad`` or ``AStore``: a failed fast check defers to
        ``_check_array``, which raises the exact error (or passes a bool
        index, as ``isinstance(index, int)`` does)."""
        array, index = self.operand(instr.array), self.operand(instr.index)
        valid = f"0 <= {index} < len({array}.values)"
        if not (type(instr.index) is ir.Const and type(instr.index.value) is int):
            valid = f"{index}.__class__ is int and {valid}"
        slot = f"{array}.values[{index}]"
        if type(instr) is ir.ALoad:
            access = f"r{instr.dst.index} = {slot}"
        else:
            access = f"{slot} = {self.operand(instr.src)}"
        return [
            f"if {array} is None or not ({valid}):",
            f"    _check_array({array}, {index}, {func.name!r})",
            access,
        ]

    def arrlen(self, func: ir.IRFunction, instr: ir.ArrLen) -> List[str]:
        array = self.operand(instr.array)
        return [
            f"if {array} is None:",
            *_indent(_raise(f"null array length in {func.name}")),
            f"r{instr.dst.index} = len({array}.values)",
        ]

    def newobj(self, func: ir.IRFunction, instr: ir.NewObj) -> List[str]:
        return [f"r{instr.dst.index} = I._new_object({instr.class_name!r}, {instr.site_id!r})"]

    def newarr(self, func: ir.IRFunction, instr: ir.NewArr) -> List[str]:
        dims = ", ".join(self.operand(d) for d in instr.dims)
        return [
            f"r{instr.dst.index} = I._new_array("
            f"{instr.elem_type!r}, [{dims}], {instr.extra_dims!r})"
        ]

    def call(self, func: ir.IRFunction, instr: ir.Call) -> List[str]:
        callee = self._methods.get(instr.target)
        if callee is None:
            return [f"raise KeyError({instr.target!r})"]
        args = "".join(f", {self.operand(a)}" for a in instr.args)
        call = f"{callee}(I, depth + 1{args})"
        if instr.dst is not None:
            call = f"r{instr.dst.index} = {call}"
        # The callee charges the shared budget, so hand it the count.
        return ["I.steps = steps", call, "steps = I.steps"]

    def call_builtin(self, func: ir.IRFunction, instr: ir.CallBuiltin) -> List[str]:
        impl = self.builtin(builtins.builtin_by_key(instr.key))
        call = f"{impl}(I.stdout{''.join(f', {self.operand(a)}' for a in instr.args)})"
        if instr.dst is None:
            return [call]
        dst = f"r{instr.dst.index}"
        return [
            f"{dst} = {call}",
            f"if isinstance({dst}, list):",  # String.split
            f"    {dst} = _BArray(elem_type='String', values={dst})",
        ]

    def newtag(self, func: ir.IRFunction, instr: ir.NewTag) -> List[str]:
        return [f"r{instr.dst.index} = I.heap.new_tag({instr.tag_type!r})"]

    def bindtag(self, func: ir.IRFunction, instr: ir.BindTag) -> List[str]:
        return [f"{self.operand(instr.obj)}.bind_tag({self.operand(instr.tag)})"]

    def jump(self, func: ir.IRFunction, instr: ir.Jump) -> List[str]:
        return [f"block = {instr.target}"]

    def branch(self, func: ir.IRFunction, instr: ir.Branch) -> List[str]:
        if type(instr.cond) is ir.Const:
            target = instr.true_target if instr.cond.value else instr.false_target
            return [f"block = {target}"]
        cond = self.operand(instr.cond)
        return [f"block = {instr.true_target} if {cond} else {instr.false_target}"]

    def ret(self, func: ir.IRFunction, instr: ir.Ret) -> List[str]:
        value = "None" if instr.src is None else self.operand(instr.src)
        return ["I._cycles += c", "I.steps = steps", f"return {value}"]

    def exit(self, func: ir.IRFunction, instr: ir.Exit) -> List[str]:
        updates = "".join(
            f"({param_index!r}, ("
            + "".join(f"({a.op!r}, r{a.tag_reg.index}), " for a in actions)
            + ")), "
            for param_index, actions in func.exits[instr.exit_id].tag_updates.items()
        )
        return [
            "I._cycles += c",
            "I.steps = steps",
            f"return _task_exit({instr.exit_id!r}, ({updates}))",
        ]

    def trap(self, func: ir.IRFunction, instr: ir.Trap) -> List[str]:
        return _raise(instr.message)


_LOWER_BY_KIND = {
    ir.Move: _Lowering.move,
    ir.BinOp: _Lowering.binop,
    ir.UnOp: _Lowering.unop,
    ir.Load: _Lowering.field,
    ir.Store: _Lowering.field,
    ir.ALoad: _Lowering.element,
    ir.AStore: _Lowering.element,
    ir.ArrLen: _Lowering.arrlen,
    ir.NewObj: _Lowering.newobj,
    ir.NewArr: _Lowering.newarr,
    ir.Call: _Lowering.call,
    ir.CallBuiltin: _Lowering.call_builtin,
    ir.NewTag: _Lowering.newtag,
    ir.BindTag: _Lowering.bindtag,
    ir.Jump: _Lowering.jump,
    ir.Branch: _Lowering.branch,
    ir.Ret: _Lowering.ret,
    ir.Exit: _Lowering.exit,
    ir.Trap: _Lowering.trap,
}


def _raise(message: str) -> List[str]:
    return [f"raise _Error({message!r})"]
