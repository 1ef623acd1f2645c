"""Scheduling simulator tests (paper §4.4)."""

import json
import os
import random
import subprocess
import sys

import pytest

from repro.analysis.astate import AState, guard_matches
from repro.bench import PAPER_BENCHMARKS, benchmark_names, load_benchmark
from repro.core import run_layout, single_core_layout
from repro.lang.errors import ScheduleError
from repro.runtime.profiler import ProfileData
from repro.schedule.coregroup import task_is_replicable
from repro.schedule import simulator
from repro.schedule.layout import Layout, match_consumers
from repro.schedule.mapping import with_instance_added, with_instance_moved
from repro.schedule.simulator import (
    ExitChooser,
    SimSession,
    _ProgramTables,
    simulate,
)
from repro.sema import builtins

from test_search import small_profile


def quad_layout(compiled):
    mapping = {t: [0] for t in compiled.info.tasks}
    mapping["processText"] = [0, 1, 2, 3]
    return Layout.make(4, mapping)


class TestExitChooser:
    @staticmethod
    def profile_with(task, sequence):
        profile = ProfileData()
        for exit_id in sequence:
            profile.record_invocation(task, exit_id, 10)
        return profile

    def test_single_exit(self):
        profile = self.profile_with("t", [1, 1, 1])
        chooser = ExitChooser(profile)
        assert chooser.choose("t", None) == 1

    def test_sequence_replayed_exactly(self):
        sequence = [2, 2, 2, 1, 2, 2, 3]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        assert [chooser.choose("t", None) for _ in sequence] == sequence

    def test_terminal_exit_at_period_boundary(self):
        # The keyword/merge pattern: 7 continues then one finish.
        sequence = [2] * 7 + [1]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        picks = [chooser.choose("t", None) for _ in range(8)]
        assert picks == sequence

    def test_beyond_sequence_falls_back_proportionally(self):
        sequence = [2] * 9 + [1]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        picks = [chooser.choose("t", None) for _ in range(30)]
        # After the recorded sequence, the chooser keeps the 9:1 mix.
        assert picks[:10] == sequence
        tail = picks[10:]
        assert tail.count(1) in (1, 2, 3)
        assert tail.count(2) > tail.count(1)

    def test_per_object_hint_tracks_objects_independently(self):
        sequence = [2, 1] * 5
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile, hints={"t": "per_object"})
        first_obj = [chooser.choose("t", 100) for _ in range(2)]
        second_obj = [chooser.choose("t", 200) for _ in range(2)]
        assert first_obj == second_obj


class TestEstimates:
    def test_single_core_estimate_close_to_real(
        self, keyword_compiled, keyword_profile
    ):
        layout = single_core_layout(keyword_compiled)
        estimate = simulate(keyword_compiled, layout, keyword_profile)
        real = run_layout(keyword_compiled, layout, ["6"])
        error = abs(estimate.total_cycles - real.total_cycles) / real.total_cycles
        assert error < 0.05

    def test_multi_core_estimate_close_to_real(
        self, keyword_compiled, keyword_profile
    ):
        layout = quad_layout(keyword_compiled)
        estimate = simulate(keyword_compiled, layout, keyword_profile)
        real = run_layout(keyword_compiled, layout, ["6"])
        error = abs(estimate.total_cycles - real.total_cycles) / real.total_cycles
        assert error < 0.15

    def test_invocation_counts_match_profile(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.invocations == {
            "startup": 1,
            "processText": 6,
            "mergeIntermediateResult": 6,
        }

    def test_simulation_terminates_and_is_finished(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.finished
        assert 0 < result.utilization <= 1

    def test_deterministic(self, keyword_compiled, keyword_profile):
        layout = quad_layout(keyword_compiled)
        first = simulate(keyword_compiled, layout, keyword_profile)
        second = simulate(keyword_compiled, layout, keyword_profile)
        assert first.total_cycles == second.total_cycles


class TestTrace:
    def test_trace_events_well_formed(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.trace
        for event in result.trace:
            assert event.end > event.start
            assert event.data_ready <= event.start
            assert 0 <= event.core < 4

    def test_no_core_overlap(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        for core in range(4):
            events = result.events_on_core(core)
            for before, after in zip(events, events[1:]):
                assert before.end <= after.start

    def test_data_edges_reference_earlier_events(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        by_id = {e.event_id: e for e in result.trace}
        for event in result.trace:
            for producer_id, _ in event.inputs:
                if producer_id is not None:
                    assert by_id[producer_id].end <= event.start

    def test_total_is_last_end(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.total_cycles == max(e.end for e in result.trace)


    def test_trace_records_are_immutable_tuples(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        for event in result.trace:
            for values in (event.param_objects, event.inputs, event.produced):
                assert isinstance(values, tuple)
            with pytest.raises(AttributeError):
                event.end = 0


def _state_model_dump(names):
    """Every program's interned states, in sid order, as plain data."""
    dump = {}
    for name in names:
        tables = _ProgramTables(load_benchmark(name), small_profile(name))
        dump[name] = [
            (class_name, sorted(state.flags), state.tags)
            for class_name, state in tables.states
        ]
    return dump


class TestStateModel:
    """The finite state model the engine runs on: every (class, state) an
    object can reach is interned, and the sid-indexed tables agree with
    the AState-level rules they replace."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_closure_is_closed_under_exits_and_allocations(self, name):
        compiled = load_benchmark(name)
        profile = small_profile(name)
        info = compiled.info
        tables = _ProgramTables(compiled, profile)
        states = tables.states
        count = len(states)
        assert len(set(states)) == count
        assert states[0] == (
            builtins.STARTUP_CLASS, AState.make([builtins.STARTUP_FLAG])
        )
        assert len(tables.consumers) == len(tables.remote) == count
        reached = set()
        for sid, (class_name, state) in enumerate(states):
            assert tables.state_id(class_name, state) == sid
            assert list(tables.consumers[sid]) == match_consumers(
                info, class_name, state
            )
            for task, rec in tables.recs.items():
                params = info.task_info(task).decl.params
                for index, param in enumerate(params):
                    assert rec.accepts[index][sid] == (
                        param.param_type.name == class_name
                        and guard_matches(param, state)
                    )
            for task, param_index in tables.consumers[sid]:
                reached.add(task)
                rec = tables.recs[task]
                for exit_id, exit_info in rec.exits.items():
                    spec = compiled.ir_program.tasks[task].exits.get(exit_id)
                    after, _ = simulator._transition(spec, param_index, state)
                    move = exit_info.moves[param_index][sid]
                    assert move is not None
                    assert states[move[0]] == (class_name, after)
        for task, rec in tables.recs.items():
            if task not in reached:
                assert rec.exits is None
                continue
            for exit_id, exit_info in rec.exits.items():
                assert all(len(moves) == count for moves in exit_info.moves)
                sites = sorted(profile.avg_allocs(task, exit_id).items())
                expected = []
                for site_id, avg in sites:
                    site = compiled.ir_program.alloc_sites[site_id]
                    flags = [f for f, v in site.flag_inits.items() if v]
                    tags = {t: 1 for t in site.tag_types}
                    expected.append(
                        (avg, (site.class_name, AState.make(flags, tags)))
                    )
                assert [
                    (avg, states[sid]) for _, avg, sid, _ in exit_info.allocs
                ] == expected
        assert reached, name

    def test_state_outside_the_model_is_a_schedule_error(self):
        compiled = load_benchmark("Keyword")
        tables = _ProgramTables(compiled, small_profile("Keyword"))
        class_name, state = tables.states[-1]
        unreachable = state.with_flag("no_such_flag", True)
        for bad in ((class_name, unreachable), ("NoSuchClass", state)):
            with pytest.raises(ScheduleError, match="outside"):
                tables.state_id(*bad)

    def test_numbering_does_not_depend_on_hash_order(self):
        """The closure walks consumers in task-name order and exits and
        allocation sites sorted, so sids are the same in every process."""
        names = benchmark_names()
        script = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_simulator import _state_model_dump; "
            "print(json.dumps(_state_model_dump(sys.argv[2:])))"
        )
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        dumps = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            out = subprocess.run(
                [sys.executable, "-c", script, tests_dir, *names],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            dumps.append(json.loads(out))
        assert dumps[0] == dumps[1]
        assert dumps[0] == json.loads(json.dumps(_state_model_dump(names)))


class TestStaleHandling:
    def test_max_events_marks_unfinished(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled,
            single_core_layout(keyword_compiled),
            keyword_profile,
            max_events=3,
        )
        assert not result.finished


def trace_data(result):
    """A SimResult's complete observable content, as comparable data."""
    return (
        result.total_cycles,
        result.finished,
        result.pruned,
        repr(result.utilization),
        sorted(result.core_busy.items()),
        sorted(result.invocations.items()),
        [
            (e.event_id, e.task, e.core, e.start, e.end, e.exit_id,
             e.data_ready, tuple(e.param_objects), tuple(e.inputs),
             tuple(e.produced))
            for e in result.trace
        ],
    )


def neighbour_chain(compiled, start, steps, seed=0):
    """``steps`` layouts, each one instance move or replica addition away
    from the one before — the shape of an annealing trajectory."""
    rng = random.Random(seed)
    layout = start
    chain = []
    while len(chain) < steps:
        task = rng.choice(layout.tasks())
        to_core = rng.randrange(layout.num_cores)
        try:
            if task_is_replicable(compiled.info, task) and rng.random() < 0.3:
                neighbour = with_instance_added(layout, task, to_core)
            else:
                from_core = rng.choice(layout.cores_of(task))
                neighbour = with_instance_moved(layout, task, from_core, to_core)
            neighbour.validate(compiled.info)
        except ScheduleError:
            continue
        chain.append(neighbour)
        layout = neighbour
    return chain


@pytest.fixture(scope="module")
def tracking_context():
    compiled = load_benchmark("Tracking")
    return compiled, small_profile("Tracking")


class TestSimSession:
    def test_facade_rejects_per_call_knobs_with_session(
        self, tracking_context
    ):
        compiled, profile = tracking_context
        session = SimSession(compiled, profile)
        layout = Layout.make(4, {t: [0] for t in compiled.info.tasks})
        other_profile = ProfileData()
        with pytest.raises(ScheduleError, match="session"):
            simulate(compiled, layout, other_profile, session=session)
        with pytest.raises(ScheduleError, match="session"):
            simulate(
                compiled, layout, session=session, hints={"x": "per_object"}
            )
        with pytest.raises(ScheduleError, match="profile"):
            simulate(compiled, layout)

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_facade_with_session_matches_sessionless(self, name):
        compiled = load_benchmark(name)
        profile = small_profile(name)
        session = SimSession(compiled, profile)
        layout = Layout.make(4, {t: [0] for t in compiled.info.tasks})
        with_session = simulate(compiled, layout, session=session)
        without = simulate(compiled, layout, profile)
        assert trace_data(with_session) == trace_data(without)

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_neighbour_chain_matches_sessionless(self, name):
        """One session simulating a chain of neighbouring layouts (as the
        annealer does) must agree, trace for trace, with fresh
        sessionless simulations: the shared tables carry no state
        from one layout into the next."""
        compiled = load_benchmark(name)
        profile = small_profile(name)
        session = SimSession(compiled, profile)
        start = Layout.make(4, {t: [0] for t in compiled.info.tasks})
        for layout in [start] + neighbour_chain(compiled, start, 12):
            assert trace_data(session.simulate(layout)) == trace_data(
                simulate(compiled, layout, profile)
            )

    def test_neighbour_chain_under_cutoff_matches_sessionless(
        self, tracking_context
    ):
        compiled, profile = tracking_context
        session = SimSession(compiled, profile)
        start = Layout.make(4, {t: [0] for t in compiled.info.tasks})
        cutoff = simulate(compiled, start, profile).total_cycles // 2
        for layout in [start] + neighbour_chain(compiled, start, 12, seed=1):
            got = session.simulate(layout, cutoff=cutoff)
            fresh = simulate(compiled, layout, profile, cutoff=cutoff)
            assert trace_data(got) == trace_data(fresh)

    def test_all_public_symbols_import(self):
        import repro
        import repro.schedule
        import repro.search
        import repro.serve

        for module in (repro, repro.schedule, repro.search, repro.serve):
            for name in module.__all__:
                assert not name.startswith("_"), (module.__name__, name)
                assert hasattr(module, name), (module.__name__, name)
        # The session API is part of the top-level surface.
        for name in ("simulate", "SimSession", "SimResult"):
            assert name in repro.__all__
            assert name in repro.schedule.__all__
