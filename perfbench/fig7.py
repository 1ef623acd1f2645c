"""machine-fig7: the interpreter and the many-core machine.

The six paper programs at ``Input_original``. One pass runs every
program's profile run (a 1-core machine run that also collects the
profile) and its 62-core run on the frozen layout stored in
``data/fig7.json``, plus the sequential and plain 1-core runs of the
three cheapest programs. The pass is the same on every seed; the seed
orders it. No search runs, so a simulator or search change predicts no
change here.
"""

from __future__ import annotations

import random
import time

import common
from common import Measurement, paused, timed

#: programs whose sequential and plain 1-core runs are in the pass
CHEAP = ["Tracking", "MonteCarlo", "Series"]
PASS = (
    [(name, "profile") for name in common.FIG7_PROGRAMS]
    + [(name, "many") for name in common.FIG7_PROGRAMS]
    + [(name, kind) for name in CHEAP for kind in ("seq", "one")]
)

clock = time.process_time
#: a set-up only compiles, so it is cheap and noisy: take the median of many
SETUPS = 9
#: nominal CPU seconds of one pass; a run makes ``--seconds`` / this many
PASS_SECONDS = 20


def setup():
    from repro.bench import get_spec, load_source
    from repro.core import api
    from repro.schedule.layout import Layout

    golden = common.load_data("fig7.json")["programs"]
    state = {}
    for name in common.FIG7_PROGRAMS:
        spec = get_spec(name)
        compiled = api.compile_program(load_source(name), spec.filename)
        frozen = golden[name]["layout"]
        layout = Layout.make(
            frozen["num_cores"], frozen["instances"],
            mesh_width=frozen["mesh_width"], topology=frozen["topology"],
        )
        layout.validate(compiled.info)
        state[name] = (compiled, layout, golden[name])
    return state


def _run(state, name: str, kind: str):
    from repro.core import api

    compiled, layout, golden = state[name]
    args = golden["args"]
    if kind == "seq":
        return api.run_sequential(compiled, args)
    if kind == "one":
        return api.run_layout(compiled, api.single_core_layout(compiled), args)
    if kind == "profile":
        return api.profile_program(compiled, args)
    return api.run_layout(compiled, layout, args)


def _check(m: Measurement, golden, name: str, kind: str, result) -> None:
    """Checks one run against the golden data."""
    if kind == "profile":
        invocations = {t: s.invocations for t, s in result.tasks.items()}
        if invocations != golden["profile_invocations"]:
            m.fail(f"{name} profile: task invocations differ from golden")
        cycles, expected = result.run_cycles, golden["profile_cycles"]
    else:
        if common.digest(result.stdout) != golden["stdout_sha256"]:
            m.fail(f"{name} {kind}: stdout differs from golden")
        cycles = result.cycles if kind == "seq" else result.total_cycles
        expected = golden[f"{kind}_cycles"]
    if cycles != expected:
        m.add("runtime.machine.cycle_diffs")
    return cycles


def measure(state, seed: int, seconds: float, tracer) -> Measurement:
    from repro.bench import get_spec
    from repro.schedule import simulator

    m = Measurement()
    rng = random.Random(seed)
    profile_extra = 0.0
    runs = 0
    for _ in range(common.units(seconds, PASS_SECONDS)):
        order = list(PASS)
        rng.shuffle(order)
        cpu = {}
        outputs = {}
        for name, kind in order:
            m.attempted += 1
            m.calibrate()
            try:
                result, spent = timed(clock, tracer, _run, state, name, kind)
            except Exception as exc:  # a crash is a failed operation
                m.fail(f"{name} {kind}: {exc!r}")
                continue
            m.calibrate()
            cpu[name, kind] = spent
            outputs[name, kind] = result
            with paused(tracer):
                _check(m, state[name][2], name, kind, result)
        runs += len(cpu)
        m.latencies.append(sum(cpu.values()))
        m.passes.append(sum(cpu.values()))
        profile_extra += sum(
            cpu[name, "profile"] - cpu[name, "one"]
            for name in CHEAP
            if (name, "profile") in cpu and (name, "one") in cpu
        )
        with paused(tracer):
            for name in common.FIG7_PROGRAMS:
                profile = outputs.get((name, "profile"))
                many = outputs.get((name, "many"))
                if profile is None or many is None:
                    continue
                compiled, layout, _ = state[name]
                estimate = simulator.simulate(
                    compiled, layout, profile, hints=get_spec(name).hints
                ).total_cycles
                m.speedups.append(profile.run_cycles / many.total_cycles)
                m.est_errors.append(abs(estimate / many.total_cycles - 1))
    m.per_s = runs / max(sum(m.passes), 1e-9)
    m.add("runtime.profiler.extra_s", profile_extra / max(len(m.passes), 1))
    return m
