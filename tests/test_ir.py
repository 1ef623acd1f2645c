"""IR lowering, verification, CFG, and cost-model tests."""

import pytest

from repro.ir import cfg, costs, instructions as ir
from repro.ir.builder import lower_program
from repro.ir.verify import verify_function, verify_program
from repro.lang.errors import LoweringError
from repro.lang.parser import parse_program
from repro.sema import analyze, builtins


def lower(source: str) -> ir.IRProgram:
    info = analyze(parse_program(source))
    program = lower_program(info)
    verify_program(program)
    return program


def lower_task(body: str) -> ir.IRFunction:
    program = lower(
        "task t(StartupObject s in initialstate) { %s }" % body
    )
    return program.tasks["t"]


def instrs_of(func: ir.IRFunction, kind) -> list:
    return [i for _, i in func.all_instructions() if isinstance(i, kind)]


class TestLowering:
    def test_every_block_terminated(self, keyword_compiled):
        for func in list(keyword_compiled.ir_program.methods.values()) + list(
            keyword_compiled.ir_program.tasks.values()
        ):
            assert verify_function(func) == []

    def test_implicit_exit_added(self):
        func = lower_task("int x = 1;")
        exits = instrs_of(func, ir.Exit)
        assert len(exits) == 1
        assert exits[0].exit_id == 0
        assert 0 in func.exits

    def test_explicit_exit_numbered_from_one(self):
        func = lower_task("taskexit(s: initialstate := false);")
        exits = instrs_of(func, ir.Exit)
        assert [e.exit_id for e in exits] == [1]
        spec = func.exits[1]
        assert spec.flag_updates == {0: {"initialstate": False}}

    def test_two_exits(self):
        func = lower_task(
            "if (1 < 2) taskexit(s: initialstate := false); taskexit();"
        )
        assert sorted(func.exits) == [1, 2]

    def test_short_circuit_lowered_to_branches(self):
        func = lower_task("boolean b = 1 < 2 && 3 < 4;")
        branches = instrs_of(func, ir.Branch)
        assert len(branches) >= 1

    def test_numeric_promotion_inserts_i2f(self):
        func = lower_task("float f = 1 + 2.0;")
        unops = [u for u in instrs_of(func, ir.UnOp) if u.op == "i2f"]
        assert unops

    def test_string_concat_inserts_tostr(self):
        func = lower_task('String s = "x" + 4;')
        unops = [u for u in instrs_of(func, ir.UnOp) if u.op == "tostr"]
        assert unops

    def test_while_loop_structure(self):
        func = lower_task("int i = 0; while (i < 3) { i = i + 1; }")
        assert instrs_of(func, ir.Branch)
        assert instrs_of(func, ir.Jump)

    def test_break_jumps_out(self):
        func = lower_task("while (true) { break; }")
        # terminates: exit block reachable
        assert 0 in cfg.reachable_exits(func)

    def test_constructor_call_follows_allocation(self):
        program = lower(
            "class A { int x; A(int x) { this.x = x; } } "
            "task t(StartupObject s in initialstate) { A a = new A(5); }"
        )
        func = program.tasks["t"]
        entry = func.blocks[func.entry].instructions
        new_index = next(
            i for i, instr in enumerate(entry) if isinstance(instr, ir.NewObj)
        )
        assert any(
            isinstance(instr, ir.Call) and instr.target == "A.<init>"
            for instr in entry[new_index + 1 :]
        )

    def test_missing_return_becomes_trap(self):
        program = lower("class A { int m() { if (true) return 1; } }")
        func = program.methods["A.m"]
        assert instrs_of(func, ir.Trap)

    def test_alloc_site_records_flags(self):
        program = lower(
            "class F { flag a; flag b; } "
            "task t(StartupObject s in initialstate) "
            "{ F f = new F(){a := true, b := false}; }"
        )
        sites = [s for s in program.alloc_sites.values() if s.class_name == "F"]
        assert len(sites) == 1
        assert sites[0].flag_inits == {"a": True, "b": False}
        assert sites[0].function == "t"

    def test_alloc_site_records_tag_types(self, tagged_compiled):
        sites = [
            s
            for s in tagged_compiled.ir_program.alloc_sites.values()
            if s.class_name == "Image"
        ]
        assert sites and sites[0].tag_types == ["saveop"]
        assert sites[0].has_tag_inits

    def test_tag_exit_action_carries_type(self, tagged_compiled):
        func = tagged_compiled.ir_program.tasks["startsave"]
        spec = func.exits[1]
        actions = spec.tag_updates[0]
        assert actions[0].op == "add"
        assert actions[0].tag_type == "saveop"

    def test_is_ref_flags_on_memory_ops(self):
        program = lower(
            "class A { int x; int[] a; A other; "
            "  void m() { this.x = 1; this.a = new int[2]; this.other = null; } }"
        )
        func = program.methods["A.m"]
        stores = instrs_of(func, ir.Store)
        by_field = {s.field_name: s.is_ref for s in stores}
        assert by_field == {"x": False, "a": True, "other": True}


class TestCFG:
    def test_reachable_blocks_from_entry(self):
        func = lower_task("if (true) { int a = 1; } else { int b = 2; }")
        reachable = cfg.reachable_blocks(func)
        assert func.entry in reachable

    def test_unreachable_exit_not_reported(self):
        func = lower_task(
            "taskexit(s: initialstate := false); "
        )
        assert cfg.reachable_exits(func) == {1}

    def test_predecessors_inverse_of_successors(self):
        func = lower_task("int i = 0; while (i < 2) i = i + 1;")
        succ = cfg.successors(func)
        pred = cfg.predecessors(func)
        for block, targets in succ.items():
            for target in targets:
                assert block in pred[target]

    def test_topological_order_starts_at_entry(self):
        func = lower_task("if (1 < 2) { int a = 1; }")
        order = cfg.topological_order(func)
        assert order[0] == func.entry


class TestVerifier:
    def test_detects_missing_terminator(self):
        func = ir.IRFunction(
            name="bad",
            kind="method",
            param_names=[],
            num_regs=1,
            blocks=[ir.BasicBlock(0, [ir.Move(ir.Reg(0), ir.Const(1))])],
            entry=0,
        )
        problems = verify_function(func)
        assert any("terminator" in p for p in problems)

    def test_detects_bad_jump_target(self):
        func = ir.IRFunction(
            name="bad",
            kind="method",
            param_names=[],
            num_regs=0,
            blocks=[ir.BasicBlock(0, [ir.Jump(7)])],
            entry=0,
        )
        assert any("missing block" in p for p in verify_function(func))

    def test_detects_register_out_of_range(self):
        func = ir.IRFunction(
            name="bad",
            kind="method",
            param_names=[],
            num_regs=1,
            blocks=[ir.BasicBlock(0, [ir.Move(ir.Reg(5), ir.Const(1)), ir.Ret()])],
            entry=0,
        )
        assert any("out of range" in p for p in verify_function(func))

    def test_detects_exit_in_method(self):
        func = ir.IRFunction(
            name="bad",
            kind="method",
            param_names=[],
            num_regs=0,
            blocks=[ir.BasicBlock(0, [ir.Exit(0)])],
            entry=0,
        )
        assert any("non-task" in p for p in verify_function(func))

    def test_verify_program_raises(self):
        program = ir.IRProgram()
        program.methods["bad"] = ir.IRFunction(
            name="bad", kind="method", param_names=[], num_regs=0,
            blocks=[ir.BasicBlock(0, [])], entry=0,
        )
        with pytest.raises(LoweringError):
            verify_program(program)


class TestCosts:
    def test_every_instruction_has_positive_cost(self):
        samples = [
            ir.Move(ir.Reg(0), ir.Const(1)),
            ir.BinOp(ir.Reg(0), "+", ir.Const(1), ir.Const(2)),
            ir.BinOp(ir.Reg(0), "/", ir.Const(1.0), ir.Const(2.0), kind="float"),
            ir.UnOp(ir.Reg(0), "i2f", ir.Const(1)),
            ir.Load(ir.Reg(0), ir.Reg(0), "f", 0),
            ir.Store(ir.Reg(0), "f", 0, ir.Const(1)),
            ir.ALoad(ir.Reg(0), ir.Reg(0), ir.Const(0)),
            ir.AStore(ir.Reg(0), ir.Const(0), ir.Const(1)),
            ir.ArrLen(ir.Reg(0), ir.Reg(0)),
            ir.NewObj(ir.Reg(0), "A", 0),
            ir.Call(None, "A.m", []),
            ir.NewTag(ir.Reg(0), "g"),
            ir.BindTag(ir.Reg(0), ir.Reg(0)),
            ir.Jump(0),
            ir.Branch(ir.Const(True), 0, 0),
            ir.Ret(None),
            ir.Exit(0),
        ]
        for instr in samples:
            assert costs.instruction_cost(instr) >= 1

    def test_builtin_cost_charged_by_table(self):
        # A builtin call costs exactly its table entry.
        sqrt = builtins.builtin_by_key("Math.sqrt")
        assert costs.instruction_cost(ir.CallBuiltin(None, "Math.sqrt", [])) == sqrt.cost

    def test_array_allocation_and_trap_charge_nothing_statically(self):
        # NewArr pays per allocated level at run time; Trap raises.
        assert costs.instruction_cost(ir.NewArr(ir.Reg(0), "int", [ir.Const(3)])) == 0
        assert costs.instruction_cost(ir.Trap("x")) == 0

    def test_bounds_checks_add_to_array_accesses_only(self):
        access = ir.ALoad(ir.Reg(0), ir.Reg(0), ir.Const(0))
        store = ir.AStore(ir.Reg(0), ir.Const(0), ir.Const(1))
        for instr in (access, store):
            assert (
                costs.instruction_cost(instr, bounds_checks=True)
                == costs.instruction_cost(instr) + costs.BOUNDS_CHECK_COST
            )
        load = ir.Load(ir.Reg(0), ir.Reg(0), "f", 0)
        assert costs.instruction_cost(load, bounds_checks=True) == costs.LOAD_COST

    def test_float_ops_cost_more_than_int(self):
        assert costs.binop_cost("+", "float") > costs.binop_cost("+", "int")

    def test_division_expensive(self):
        assert costs.binop_cost("/", "int") > costs.binop_cost("*", "int")
