"""Differential tests: the scheduling simulator against the reference engine.

``tests/sim_reference.py`` keeps the engine that kick batching replaced:
one heap entry per kicked core, a scan of every core per dispatch and
per-simulation routing memos. Every simulation here is made with both and
must agree event for event — makespan, finished/pruned flags, per-core
busy cycles, invocation counts, utilization and every trace event field —
unobserved and under an active profiler, through one shared
:class:`SimSession` per context as the search uses it.
"""

import dataclasses
import random

import pytest

from sim_reference import reference_simulate
from test_search import small_profile
from test_simulator import trace_data

from repro.bench import benchmark_names, load_benchmark
from repro.core import profile_program, single_core_layout
from repro.core.api import annotated_cstg
from repro.obs import prof
from repro.schedule.coregroup import build_group_graph
from repro.schedule.layout import TOPOLOGIES
from repro.schedule.mapping import random_layouts, seed_layouts
from repro.schedule import simulator
from repro.schedule.rules import replica_choice_sets, suggest_replicas
from repro.schedule.simulator import SimSession


def candidate_layouts(compiled, profile, cores, count=3, seed=0):
    """The seed layouts plus ``count`` random ones: the candidates a DSA
    search starts from."""
    info = compiled.info
    graph = build_group_graph(info, annotated_cstg(compiled, profile), profile)
    suggestions = suggest_replicas(info, graph, profile, cores)
    layouts = seed_layouts(info, graph, suggestions, cores)
    layouts += random_layouts(
        info,
        graph,
        replica_choice_sets(suggestions, graph, cores),
        cores,
        count=count,
        rng=random.Random(seed),
    )
    return layouts


def assert_matches_reference(compiled, profile, layouts, cutoff=None, **knobs):
    """Simulates every layout with one session, unobserved and profiled,
    and compares each result with the reference engine's."""
    session = SimSession(compiled, profile, **knobs)
    observed = SimSession(compiled, profile, **knobs)
    for layout in layouts:
        expected = trace_data(
            reference_simulate(compiled, layout, profile, cutoff=cutoff, **knobs)
        )
        got = session.simulate(layout, cutoff=cutoff, observe=False)
        assert trace_data(got) == expected, layout
        with prof.profiled():
            got = observed.simulate(layout, cutoff=cutoff)
        assert trace_data(got) == expected, layout


@pytest.mark.parametrize("name", benchmark_names())
def test_single_core_and_candidates_on_every_topology(name):
    compiled = load_benchmark(name)
    profile = small_profile(name)
    layouts = [single_core_layout(compiled)]
    for cores in (16, 62):
        for layout in candidate_layouts(compiled, profile, cores):
            layouts += [
                dataclasses.replace(layout, topology=topology)
                for topology in TOPOLOGIES
            ]
    assert_matches_reference(compiled, profile, layouts)


@pytest.mark.parametrize(
    "name, args", [("Tracking", ["200", "24"]), ("KMeans", ["40", "62", "3"])]
)
def test_larger_profiles(name, args):
    """Hundreds of invocations: deep parameter sets for the tag-matched
    tasks and many cores waiting with ready work at once."""
    compiled = load_benchmark(name)
    profile = profile_program(compiled, args)
    layouts = candidate_layouts(compiled, profile, 16, seed=6)
    layouts += candidate_layouts(compiled, profile, 62, seed=6)
    assert_matches_reference(compiled, profile, layouts)


@pytest.mark.parametrize("name", ["Tracking", "KMeans", "Series"])
def test_cutoffs(name):
    """Pruned runs stop at the same event, with the same lower bound."""
    compiled = load_benchmark(name)
    profile = small_profile(name)
    layouts = candidate_layouts(compiled, profile, 16, seed=1)
    finish = min(
        reference_simulate(compiled, layout, profile).total_cycles
        for layout in layouts
    )
    for fraction in (0.3, 0.7, 1.0):
        assert_matches_reference(
            compiled, profile, layouts, cutoff=int(finish * fraction)
        )


@pytest.mark.parametrize("name", ["Tracking", "MonteCarlo", "Keyword"])
def test_counts_exit_policy(name):
    compiled = load_benchmark(name)
    profile = small_profile(name)
    layouts = candidate_layouts(compiled, profile, 16, seed=2)
    assert_matches_reference(compiled, profile, layouts, exit_policy="counts")


@pytest.mark.parametrize("name", ["Tracking", "FilterBank", "Keyword"])
def test_per_object_hints(name):
    compiled = load_benchmark(name)
    profile = small_profile(name)
    hints = {task: "per_object" for task in compiled.info.tasks}
    layouts = candidate_layouts(compiled, profile, 16, seed=3)
    assert_matches_reference(compiled, profile, layouts, hints=hints)


@pytest.mark.parametrize("name", ["Tracking", "KMeans", "Fractal"])
def test_heterogeneous_core_speeds(name):
    compiled = load_benchmark(name)
    profile = small_profile(name)
    speeds = {core: 1.0 + (core % 3) * 0.5 for core in range(62)}
    layouts = candidate_layouts(compiled, profile, 16, seed=4)
    layouts += candidate_layouts(compiled, profile, 62, seed=4)
    assert_matches_reference(compiled, profile, layouts, core_speeds=speeds)


def test_tiny_max_events_truncate_at_the_same_event(monkeypatch):
    """``max_events`` counts every kicked core, so a budget that runs out
    inside a batch of kicks stops where the reference stopped. The sweep
    must cut at least one batch of several kicks part way, in the
    unobserved drain and in the profiled one: both take the rule from
    ``_SimEngine._kick``."""
    compiled = load_benchmark("Fractal")
    profile = small_profile("Fractal")
    layout = candidate_layouts(compiled, profile, 16, seed=5)[2]
    cut = {False: [], True: []}
    kick = simulator._SimEngine._kick

    def recording_kick(self, core, others, time, processed):
        room = self.max_events - processed
        if others and 0 < room < len(others):
            cut[prof.active() is not None].append((len(others), room))
        return kick(self, core, others, time, processed)

    monkeypatch.setattr(simulator._SimEngine, "_kick", recording_kick)
    for max_events in range(1, 260):
        assert_matches_reference(
            compiled, profile, [layout], max_events=max_events
        )
    assert cut[False] and cut[True]
    assert cut[False] == cut[True]
