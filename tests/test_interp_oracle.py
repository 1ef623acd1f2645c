"""Differential tests: the lowered interpreter against the reference loop.

``tests/interp_reference.py`` keeps the instruction-at-a-time interpreter
that lowering replaced. Every run here is made twice, once with each, and
must agree on output, cycles, steps, every task invocation's effects, the
final heap and the errors raised. The step budget and the lifetime of the
lowered code are tested here too.
"""

import gc
import pickle
import weakref

import pytest

from interp_reference import ReferenceInterpreter, interpreter_class
from test_benchmarks import SMALL_ARGS
from test_interp import ERRORING_PROGRAMS

from repro.bench import benchmark_names, load_benchmark, load_source
from repro.core import (
    RunOptions,
    compile_program,
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
)
from repro.lang.errors import RuntimeBambooError
from repro.runtime import interp
from repro.runtime.interp import Interpreter
from repro.runtime.machine import MachineConfig
from repro.runtime.objects import BArray, BObject, Heap, TagInstance

RUN_KINDS = ["seq", "one", "profile"]


def _value(value):
    """A comparable rendering of a runtime value (objects by id)."""
    if isinstance(value, BObject):
        return ("obj", value.obj_id)
    if isinstance(value, BArray):
        return ("arr", value.elem_type, tuple(_value(v) for v in value.values))
    if isinstance(value, TagInstance):
        return ("tag", value.tag_id, value.tag_type)
    if isinstance(value, float):
        return ("float", repr(value))
    return value


def _object(obj: BObject):
    return (
        obj.obj_id,
        obj.class_name,
        tuple(_value(v) for v in obj.fields),
        tuple(sorted(obj.flags)),
        tuple((t, tuple(_value(x) for x in tags)) for t, tags in sorted(obj.tags.items())),
    )


def _recording(base):
    """A subclass of ``base`` that keeps its instances and, per task
    invocation, the effects it returned (new objects as allocated)."""
    made = []

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.invocations = []
            made.append(self)

        def run_task(self, task_name, params):
            effects = super().run_task(task_name, params)
            self.invocations.append(
                (
                    task_name,
                    effects.exit_id,
                    effects.cycles,
                    tuple((r.site_id, _object(r.obj)) for r in effects.new_objects),
                    tuple(
                        (index, tuple((op, _value(tag)) for op, tag in actions))
                        for index, actions in effects.tag_actions.items()
                    ),
                )
            )
            return effects

    return Recording, made


def _run(kind, compiled, args, bounds_checks):
    if kind == "seq":
        result = run_sequential(compiled, args, bounds_checks=bounds_checks)
        return result.stdout, result.cycles, _value(result.value), None
    if kind == "profile" and not bounds_checks:
        return None, None, None, pickle.dumps(profile_program(compiled, args))
    options = RunOptions(bounds_checks=bounds_checks, collect_profile=kind == "profile")
    result = run_layout(compiled, single_core_layout(compiled), args, options=options)
    return result.stdout, result.total_cycles, None, pickle.dumps(result.profile)


def _observe(base, kind, compiled, args, bounds_checks):
    """Everything observable about one run made with ``base`` interpreters."""
    recording, made = _recording(base)
    with interpreter_class(recording):
        outcome = _run(kind, compiled, args, bounds_checks)
    return outcome, [
        (i.steps, i.output(), i.invocations, [_object(o) for o in i.heap.objects.values()])
        for i in made
    ]


def _error(base, source):
    with interpreter_class(base):
        with pytest.raises(RuntimeBambooError) as info:
            run_sequential(compile_program(source), ["0"])
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bounds_checks", [False, True], ids=["plain", "checked"])
@pytest.mark.parametrize("kind", RUN_KINDS)
@pytest.mark.parametrize("name", benchmark_names())
def test_lowered_matches_reference(name, kind, bounds_checks):
    compiled = load_benchmark(name)
    args = SMALL_ARGS[name]
    lowered = _observe(Interpreter, kind, compiled, args, bounds_checks)
    reference = _observe(ReferenceInterpreter, kind, compiled, args, bounds_checks)
    assert lowered == reference
    assert lowered[1] and lowered[1][0][0] > 0  # it ran, and counted steps


def test_bounds_checks_cost_cycles():
    compiled = load_benchmark("Series")
    plain = run_sequential(compiled, SMALL_ARGS["Series"])
    checked = run_sequential(compiled, SMALL_ARGS["Series"], bounds_checks=True)
    assert checked.stdout == plain.stdout
    assert checked.cycles > plain.cycles


@pytest.mark.parametrize("program", sorted(ERRORING_PROGRAMS))
def test_errors_match_reference(program):
    source = ERRORING_PROGRAMS[program]
    assert _error(Interpreter, source) == _error(ReferenceInterpreter, source)


class TestStepBudget:
    """Per-block charging keeps the budget exact for completed runs: a run
    of T steps completes with ``max_steps=T`` and raises with T-1."""

    NAME = "Series"

    def _sequential(self, cls, max_steps):
        compiled = load_benchmark(self.NAME)
        heap = Heap()
        runner = cls(compiled.ir_program, compiled.info, heap, max_steps=max_steps)
        receiver = heap.new_object("SeqMain", len(compiled.info.class_info("SeqMain").fields))
        runner.run_method("SeqMain.<init>", [receiver])
        argv = BArray(elem_type="String", values=list(SMALL_ARGS[self.NAME]))
        runner.run_method("SeqMain.run", [receiver, argv])
        return runner.steps

    def test_budget_on_the_interpreter(self):
        total = self._sequential(ReferenceInterpreter, interp.DEFAULT_MAX_STEPS)
        assert self._sequential(Interpreter, total) == total
        with pytest.raises(RuntimeBambooError, match="instruction budget exhausted"):
            self._sequential(Interpreter, total - 1)

    def _machine(self, cls, max_steps):
        compiled = load_benchmark(self.NAME)
        recording, made = _recording(cls)
        options = RunOptions(machine=MachineConfig(interp_max_steps=max_steps))
        with interpreter_class(recording):
            run_layout(compiled, single_core_layout(compiled), SMALL_ARGS[self.NAME], options)
        return made[0].steps

    def test_budget_through_the_machine_config(self):
        total = self._machine(ReferenceInterpreter, interp.DEFAULT_MAX_STEPS)
        assert self._machine(Interpreter, total) == total
        with pytest.raises(RuntimeBambooError, match="instruction budget exhausted"):
            self._machine(Interpreter, total - 1)


class TestLoweredCode:
    def test_runs_leave_the_pickled_program_unchanged(self):
        # Compiled programs travel pickled to dist and evaluator workers and
        # are digested as job keys: lowered code must stay off them.
        compiled = compile_program(load_source("Series"))
        before = pickle.dumps(compiled)
        run_sequential(compiled, SMALL_ARGS["Series"])
        run_layout(compiled, single_core_layout(compiled), SMALL_ARGS["Series"])
        assert pickle.dumps(compiled) == before

    def test_lowered_once_per_program_and_bounds_setting(self):
        compiled = load_benchmark("Keyword")
        plain = interp.lowered_program(compiled.ir_program, False)
        assert interp.lowered_program(compiled.ir_program, False) is plain
        assert interp.lowered_program(compiled.ir_program, True) is not plain

    def test_lowered_code_is_dropped_with_its_program(self):
        gc.collect()
        cached = len(interp._LOWERED)
        compiled = compile_program(load_source("Keyword"))
        run_sequential(compiled, SMALL_ARGS["Keyword"])
        run_sequential(compiled, SMALL_ARGS["Keyword"], bounds_checks=True)
        assert len(interp._LOWERED) == cached + 2
        program = weakref.ref(compiled.ir_program)
        del compiled
        gc.collect()
        assert program() is None
        assert len(interp._LOWERED) == cached
