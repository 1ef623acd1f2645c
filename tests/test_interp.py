"""Interpreter semantics and cycle-accounting tests."""

import pytest

from repro.core import compile_program, run_sequential
from repro.lang.errors import RuntimeBambooError
from repro.runtime.interp import Interpreter, make_startup_object, _int_div, _int_rem
from repro.runtime.objects import Heap


def expr_source(body: str) -> str:
    """A program whose SeqMain.run has the given body."""
    return (
        "class SeqMain { SeqMain() { } void run(String[] args) { %s } }\n"
        "task startup(StartupObject s in initialstate) "
        "{ taskexit(s: initialstate := false); }" % body
    )


def run_expr_program(body: str, args=("0",)):
    """Runs SeqMain.run with the given body; returns (result, stdout)."""
    compiled = compile_program(expr_source(body))
    result = run_sequential(compiled, list(args))
    return result


#: Programs whose sequential run raises RuntimeBambooError, by what they do.
ERRORING_PROGRAMS = {
    "int_division_by_zero": expr_source("int x = 1 / 0;"),
    "int_modulo_by_zero": expr_source("int x = 1 % 0;"),
    "float_division_by_zero": expr_source("float x = 1.0 / 0.0;"),
    "index_out_of_bounds": expr_source("int[] a = new int[2]; int x = a[2];"),
    "negative_index": expr_source("int[] a = new int[2]; a[-1] = 0;"),
    "null_array_access": expr_source("int[] a = null; int x = a[0];"),
    "null_array_length": expr_source("int[] a = null; int n = a.length;"),
    "negative_array_length": expr_source("int n = 0 - 1; int[] a = new int[n];"),
    "null_field_access": (
        "class A { int x; } "
        "class SeqMain { SeqMain() { } void run(String[] args) "
        "{ A a = null; int v = a.x; } } "
        "task startup(StartupObject s in initialstate) "
        "{ taskexit(s: initialstate := false); }"
    ),
    "runaway_recursion": (
        "class SeqMain { SeqMain() { } "
        "int loop(int n) { return this.loop(n + 1); } "
        "void run(String[] args) { System.printInt(this.loop(0)); } } "
        "task startup(StartupObject s in initialstate) "
        "{ taskexit(s: initialstate := false); }"
    ),
}


def run_erroring(name: str):
    return run_sequential(compile_program(ERRORING_PROGRAMS[name]), ["0"])


def run_and_print(body: str, args=("0",)) -> str:
    return run_expr_program(body, args).stdout


class TestIntegerSemantics:
    def test_arithmetic(self):
        assert run_and_print("System.printInt(2 + 3 * 4 - 1);") == "13"

    def test_division_truncates_toward_zero(self):
        assert run_and_print("System.printInt(-7 / 2);") == "-3"
        assert run_and_print("System.printInt(7 / -2);") == "-3"

    def test_remainder_sign_follows_dividend(self):
        assert run_and_print("System.printInt(-7 % 2);") == "-1"
        assert run_and_print("System.printInt(7 % -2);") == "1"

    def test_division_by_zero_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_erroring("int_division_by_zero")

    def test_modulo_by_zero_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_erroring("int_modulo_by_zero")

    def test_int_div_helper_matches_java(self):
        assert _int_div(7, 2) == 3
        assert _int_div(-7, 2) == -3
        assert _int_div(7, -2) == -3
        assert _int_div(-7, -2) == 3
        assert _int_rem(-7, 2) == -1

    def test_comparison_chain(self):
        assert run_and_print("if (3 <= 3 && 3 != 4) System.printInt(1);") == "1"


class TestFloatSemantics:
    def test_float_arithmetic(self):
        out = run_and_print("System.printFloat(0.5 * 4.0);")
        assert float(out) == 2.0

    def test_float_division_by_zero_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_erroring("float_division_by_zero")

    def test_cast_truncates(self):
        assert run_and_print("System.printInt((int) 2.9);") == "2"
        assert run_and_print("System.printInt((int) -2.9);") == "-2"

    def test_promotion_in_mixed_expression(self):
        out = run_and_print("System.printFloat(1 + 0.5);")
        assert float(out) == 1.5

    def test_math_builtins(self):
        out = run_and_print("System.printFloat(Math.sqrt(16.0));")
        assert float(out) == 4.0


class TestStrings:
    def test_concat_renders_values(self):
        out = run_and_print('System.printString("v=" + 3 + " b=" + true);')
        assert out == "v=3 b=true"

    def test_length_and_charat(self):
        out = run_and_print('System.printInt("abc".length() + "a".charAt(0));')
        assert out == str(3 + ord("a"))

    def test_split(self):
        out = run_and_print(
            'String[] w = "a bb  ccc".split(); System.printInt(w.length);'
        )
        assert out == "3"

    def test_equals_compares_content(self):
        out = run_and_print(
            'String a = "x" + 1; if (a.equals("x1")) System.printInt(1);'
        )
        assert out == "1"

    def test_parse_int(self):
        out = run_and_print(
            "System.printInt(Integer.parseInt(args[0]) + 1);", args=("41",)
        )
        assert out == "42"


class TestArraysAndObjects:
    def test_array_defaults(self):
        out = run_and_print(
            "int[] a = new int[3]; float[] f = new float[1]; boolean[] b = new boolean[1];"
            "System.printInt(a[0]); System.printFloat(f[0]);"
        )
        assert out == "00.0"

    def test_2d_array(self):
        out = run_and_print(
            "int[][] m = new int[2][3]; m[1][2] = 7; System.printInt(m[1][2]);"
        )
        assert out == "7"

    def test_out_of_bounds_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_erroring("index_out_of_bounds")

    def test_negative_index_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_erroring("negative_index")

    def test_null_array_access_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_erroring("null_array_access")

    def test_null_field_access_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_erroring("null_field_access")

    def test_object_field_defaults(self):
        source = (
            "class A { int x; float y; boolean b; String s; } "
            "class SeqMain { SeqMain() { } void run(String[] args) { "
            "A a = new A(); System.printInt(a.x); "
            "if (a.s == null) System.printInt(1); } } "
            "task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }"
        )
        compiled = compile_program(source)
        assert run_sequential(compiled, ["0"]).stdout == "01"


class TestMethodsAndRecursion:
    def test_recursion(self):
        source = (
            "class SeqMain { SeqMain() { } "
            "int fib(int n) { if (n < 2) return n; "
            "return this.fib(n - 1) + this.fib(n - 2); } "
            "void run(String[] args) { System.printInt(this.fib(10)); } } "
            "task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }"
        )
        compiled = compile_program(source)
        assert run_sequential(compiled, ["0"]).stdout == "55"

    def test_runaway_recursion_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_erroring("runaway_recursion")

    def test_mutual_calls(self):
        out = run_and_print("System.printInt(1);")
        assert out == "1"


class TestCycleAccounting:
    def test_cycles_positive_and_monotone_in_work(self):
        small = run_expr_program(
            "int acc = 0; for (int i = 0; i < 10; i++) acc = acc + i;"
        )
        large = run_expr_program(
            "int acc = 0; for (int i = 0; i < 100; i++) acc = acc + i;"
        )
        assert 0 < small.cycles < large.cycles

    def test_deterministic_cycles(self):
        first = run_expr_program("float x = Math.sin(1.0) * 2.0;")
        second = run_expr_program("float x = Math.sin(1.0) * 2.0;")
        assert first.cycles == second.cycles

    def test_float_work_costs_more_than_int(self):
        int_run = run_expr_program(
            "int acc = 0; for (int i = 0; i < 50; i++) acc = acc + 3;"
        )
        float_run = run_expr_program(
            "float acc = 0.0; for (int i = 0; i < 50; i++) acc = acc + 3.0;"
        )
        assert float_run.cycles > int_run.cycles


class TestTaskExecution:
    def test_task_effects(self, keyword_compiled):
        heap = Heap()
        interp = Interpreter(keyword_compiled.ir_program, keyword_compiled.info, heap)
        startup = make_startup_object(heap, keyword_compiled.info, ["3"])
        effects = interp.run_task("startup", [startup])
        assert effects.exit_id == 1
        assert effects.cycles > 0
        classes = sorted({r.obj.class_name for r in effects.new_objects})
        assert classes == ["Results", "Text"]
        texts = [r for r in effects.new_objects if r.obj.class_name == "Text"]
        assert len(texts) == 3
        # Allocation-site flags applied at creation time.
        assert all("process" in r.obj.flags for r in texts)

    def test_flag_updates_not_applied_by_interpreter(self, keyword_compiled):
        heap = Heap()
        interp = Interpreter(keyword_compiled.ir_program, keyword_compiled.info, heap)
        startup = make_startup_object(heap, keyword_compiled.info, ["1"])
        interp.run_task("startup", [startup])
        # The runtime commits flag changes, not the interpreter.
        assert "initialstate" in startup.flags

    def test_startup_object_args(self, keyword_compiled):
        heap = Heap()
        startup = make_startup_object(heap, keyword_compiled.info, ["a", "b"])
        args_field = startup.fields[0]
        assert args_field.values == ["a", "b"]
        assert startup.flags == {"initialstate"}
