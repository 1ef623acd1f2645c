"""search-dsa: the scheduling simulator and the layout search.

Set-up compiles and profiles MonteCarlo, Series and KMeans. One round is
one serial ``synthesize_layout`` for each (program, cores) pair of
{MonteCarlo, Series, KMeans} x {16, 62 on the 8-wide mesh}, in an order
and with anneal seeds drawn from the workload seed. Each synthesis is
followed by a machine run of its layout, timed apart from the synthesis,
which checks the layout and measures its real cycles. The interpreter
runs only in those checking runs.
"""

from __future__ import annotations

import random
import time

import common
from common import Measurement, paused, timed

clock = time.process_time
#: nominal CPU seconds of one round; a run makes ``--seconds`` / this many
ROUND_SECONDS = 15
#: a set-up profiles KMeans, the costliest step of any set-up, so two
#: set-ups (not three) keep the run short; ``setup_s`` is their median
SETUPS = 2
COMBOS = [(name, cores) for name in common.SEARCH_PROGRAMS for cores in common.SEARCH_CORES]


def setup():
    from repro.bench import get_spec, load_source
    from repro.core import api
    from repro.schedule import simulator

    golden = common.load_data("search.json")["programs"]
    state = {}
    for name in common.SEARCH_PROGRAMS:
        spec = get_spec(name)
        compiled = api.compile_program(load_source(name), spec.filename)
        profile = api.profile_program(compiled, golden[name]["args"])
        state[name] = (compiled, profile, golden[name])
    # Warm-up: the first simulation pays for lazy imports and tables.
    simulator.simulate(compiled, api.single_core_layout(compiled), profile)
    return state


def _synthesize(state, name: str, cores: int, seed: int):
    from repro.core import pipeline

    compiled, profile, _ = state[name]
    return pipeline.synthesize_layout(
        compiled, profile, cores, options=common.search_options(name, cores, seed)
    )


def measure(state, seed: int, seconds: float, tracer) -> Measurement:
    from repro.core import api

    m = Measurement()
    rng = random.Random(seed)
    for name, (_, profile, golden) in state.items():
        if profile.run_cycles != golden["one_cycles"]:
            m.add("runtime.machine.cycle_diffs")
    syntheses = 0
    for _ in range(common.units(seconds, ROUND_SECONDS)):
        order = list(COMBOS)
        rng.shuffle(order)
        searching = checking = 0.0
        for name, cores in order:
            anneal_seed = rng.choice(common.SEARCH_SEED_POOL)
            compiled, profile, golden = state[name]
            m.attempted += 1
            try:
                report, spent = timed(
                    clock, tracer, _synthesize, state, name, cores, anneal_seed
                )
                searching += spent
                syntheses += 1
                m.calibrate()
                run, run_spent = timed(
                    clock, tracer, api.run_layout, compiled, report.layout,
                    golden["args"],
                )
                checking += run_spent
                m.calibrate()
            except Exception as exc:  # a crash is a failed operation
                m.fail(f"{name}/{cores}/{anneal_seed}: {exc!r}")
                continue
            m.add("search.requested", report.requested_evaluations)
            m.add("search.evaluations", report.evaluations)
            m.add("search.cache_hits", report.cache_hits)
            with paused(tracer):
                expected = golden["layouts"][f"{cores}/{anneal_seed}"]
                if common.digest(run.stdout) != golden["stdout_sha256"]:
                    m.fail(f"{name}/{cores}/{anneal_seed}: stdout differs from golden")
                    continue
                if run.total_cycles != expected["machine_cycles"]:
                    m.add("runtime.machine.cycle_diffs")
                instances = {t: list(c) for t, c in report.layout.as_dict().items()}
                if instances != expected["layout"]["instances"]:
                    m.add("search.layout_diffs")
                m.speedups.append(profile.run_cycles / run.total_cycles)
                m.est_errors.append(
                    abs(report.estimated_cycles / run.total_cycles - 1)
                )
        m.latencies.append(searching)
        m.passes.append(checking)
    m.per_s = syntheses / max(sum(m.latencies), 1e-9)
    return m
