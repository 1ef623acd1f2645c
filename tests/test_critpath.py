"""Critical path analysis tests (paper §4.5.1)."""

import random

import pytest

from test_search import small_profile
from test_sim_oracle import candidate_layouts

from repro.bench import load_benchmark
from repro.core import annotated_cstg
from repro.schedule.critpath import (
    Move,
    compute_critical_path,
    spare_cores_during,
    suggest_moves,
)
from repro.schedule.layout import Layout
from repro.schedule.simulator import SimResult, TraceEvent, simulate


def make_event(event_id, task, core, start, end, data_ready=None, inputs=()):
    return TraceEvent(
        event_id=event_id,
        task=task,
        core=core,
        start=start,
        end=end,
        exit_id=1,
        data_ready=data_ready if data_ready is not None else start,
        inputs=list(inputs),
    )


def make_result(trace, num_cores=4):
    total = max(e.end for e in trace)
    busy = {}
    for event in trace:
        busy[event.core] = busy.get(event.core, 0) + event.duration
    return SimResult(
        total_cycles=total,
        finished=True,
        trace=trace,
        core_busy=busy,
        invocations={},
        utilization=0.5,
    )


class TestSyntheticTraces:
    def test_pure_chain_is_whole_path(self):
        # a -> b -> c linked by data edges across cores.
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 1, 12, 20, data_ready=12, inputs=[(0, 2)]),
            make_event(2, "c", 2, 22, 30, data_ready=22, inputs=[(1, 2)]),
        ]
        path = compute_critical_path(make_result(trace))
        assert [s.event.task for s in path.steps] == ["a", "b", "c"]
        assert path.total == 30
        assert [s.bound for s in path.steps] == ["start", "data", "data"]

    def test_resource_bound_detected(self):
        # b's data was ready at 0 but core 0 was busy with a until 10.
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 0, 10, 25, data_ready=0),
        ]
        path = compute_critical_path(make_result(trace))
        assert [s.event.task for s in path.steps] == ["a", "b"]
        assert path.steps[1].bound == "resource"
        assert path.steps[1].delay == 10

    def test_key_events(self):
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 1, 12, 30, data_ready=12, inputs=[(0, 2)]),
        ]
        path = compute_critical_path(make_result(trace))
        assert path.key_event_ids() == {0}

    def test_empty_trace(self):
        result = SimResult(
            total_cycles=0,
            finished=True,
            trace=[],
            core_busy={},
            invocations={},
            utilization=0.0,
        )
        path = compute_critical_path(result)
        assert path.steps == []

    def test_format_renders(self):
        trace = [make_event(0, "a", 0, 0, 10)]
        text = compute_critical_path(make_result(trace)).format()
        assert "critical path" in text and "a" in text


class TestSpareCores:
    def test_idle_core_detected(self):
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 1, 0, 5),
        ]
        layout = Layout.make(4, {"a": [0], "b": [1]})
        spare = spare_cores_during(make_result(trace), layout, 0, 10)
        assert spare == [2, 3]

    def test_partial_overlap_excludes(self):
        trace = [make_event(0, "a", 2, 5, 15)]
        layout = Layout.make(4, {"a": [2]})
        assert 2 not in spare_cores_during(make_result(trace), layout, 0, 10)
        assert 2 in spare_cores_during(make_result(trace), layout, 16, 20)

    def test_matches_brute_force_on_random_intervals(self):
        """Overlapping, nested, zero-length and touching intervals: a core
        is spare iff none of its intervals overlaps the window."""
        rng = random.Random(3)
        layout = Layout.make(6, {"a": list(range(6))})
        for _ in range(200):
            trace = []
            for event_id in range(rng.randrange(1, 12)):
                start = rng.randrange(0, 40)
                trace.append(make_event(
                    event_id, "a", rng.randrange(6), start,
                    start + rng.randrange(0, 15),
                ))
            start = rng.randrange(0, 50)
            end = start + rng.randrange(0, 20)
            expected = [
                core for core in range(6)
                if not any(
                    e.start < end and start < e.end
                    for e in trace if e.core == core
                )
            ]
            assert spare_cores_during(
                make_result(trace, 6), layout, start, end
            ) == expected


class TestMoveSuggestions:
    def test_delayed_event_suggests_migration_to_spare_core(self):
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 0, 10, 40, data_ready=0),
        ]
        layout = Layout.make(4, {"a": [0], "b": [0]})
        moves = suggest_moves(make_result(trace), layout)
        assert moves
        migration = moves[0]
        assert migration.task == "b"
        assert migration.from_core == 0
        assert migration.to_core in (1, 2, 3)

    def test_no_moves_on_tight_schedule(self):
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 1, 12, 20, data_ready=12, inputs=[(0, 2)]),
        ]
        layout = Layout.make(2, {"a": [0], "b": [1]})
        moves = suggest_moves(make_result(trace), layout)
        assert moves == []


class TestRealTrace:
    def test_path_on_keyword_simulation(self, keyword_compiled, keyword_profile):
        layout = Layout.single_core(keyword_compiled.info.tasks)
        result = simulate(keyword_compiled, layout, keyword_profile)
        path = compute_critical_path(result)
        assert path.total == result.total_cycles
        assert path.steps[0].event.task == "startup"
        # On one core every event after the first is either resource-bound
        # or immediately follows its data.
        assert all(s.event.core == 0 for s in path.steps)


def rescanning_suggest_moves(result, layout, path, max_moves=8):
    """``suggest_moves`` as it was before its busy intervals were built
    once per call and its core loads read from ``result.core_busy``: the
    intervals are rebuilt per delayed step and each core's load is summed
    from the trace."""
    moves = []
    seen = set()
    keys = path.key_event_ids()

    def add(kind, task, from_core, to_core, reason):
        if from_core == to_core or (task, from_core, to_core) in seen:
            return
        seen.add((task, from_core, to_core))
        moves.append(Move(kind, task, from_core, to_core, reason))

    delayed = sorted((s for s in path.steps if s.is_delayed), key=lambda s: -s.delay)
    for step in delayed:
        event = step.event
        spare = spare_cores_during(
            result, layout, max(0, event.data_ready), event.start
        )
        for core in spare[:2]:
            add("migrate", event.task, event.core, core,
                f"delayed {step.delay} cycles waiting for core {event.core}")
        if len(moves) >= max_moves:
            return moves[:max_moves]
    least_loaded = sorted(
        range(layout.num_cores),
        key=lambda c: sum(e.duration for e in result.trace if e.core == c),
    )
    for current, nxt in zip(path.steps, path.steps[1:]):
        if (
            nxt.event.event_id in keys
            and current.event.event_id not in keys
            and current.event.core == nxt.event.core
        ):
            for core in least_loaded[:2]:
                add("migrate", current.event.task, current.event.core, core,
                    "non-key task delaying a key task")
        if len(moves) >= max_moves:
            break
    return moves[:max_moves]


class TestMovesOnRecordedTraces:
    @pytest.mark.parametrize("name", ["Tracking", "KMeans", "MonteCarlo", "Series"])
    def test_moves_unchanged(self, name):
        """On simulated traces (finished, pruned and truncated), the moves
        equal those of the rescanning implementation."""
        compiled = load_benchmark(name)
        profile = small_profile(name)
        results = []
        for cores in (16, 62):
            for layout in candidate_layouts(compiled, profile, cores, seed=cores):
                full = simulate(compiled, layout, profile)
                results += [
                    (layout, full),
                    (layout, simulate(compiled, layout, profile,
                                      cutoff=full.total_cycles // 2)),
                    (layout, simulate(compiled, layout, profile, max_events=90)),
                ]
        suggested = 0
        for layout, result in results:
            path = compute_critical_path(result)
            for max_moves in (2, 8):
                moves = suggest_moves(result, layout, path, max_moves=max_moves)
                assert moves == rescanning_suggest_moves(
                    result, layout, path, max_moves=max_moves
                )
                suggested += len(moves)
        assert suggested
