"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload machine-fig7 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same workload twice, untraced and then with spans
recorded around each layer's entry points, and prints the per-layer
metrics, the time no layer accounts for, and the tracing overhead on
every end-to-end metric. The last line of stdout is one JSON object;
the lines before it are a readable summary. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys

import common

#: per workload: its default seed and the seed held out for confirming
#: claims made on the default one
SEEDS = {
    "machine-fig7": (1, 7919),
    "search-dsa": (2, 7927),
    "serve-mix": (3, 7933),
}
#: per layer (longest matching prefix): the end-to-end metric it should
#: move and the workloads it is heavy / light in, printed by ``--trace 1``
MOVES = {
    "lang": "setup_s | set-up of all three / never in timed operations",
    "sema": "setup_s | set-up of all three / never in timed operations",
    "ir": "setup_s | set-up",
    "ir.instructions": "setup_s, run_s | set-up",
    "analysis": "setup_s | set-up",
    "runtime.interp": "run_s | machine-fig7 / search-dsa checks, not serve-mix",
    "runtime.machine": "run_s | 62-core runs / 1-core and sequential runs",
    "runtime.machine.sim_cycles": "speedup_geomean | 62-core runs",
    "runtime.profiler": "run_s on machine-fig7, setup_s elsewhere | machine-fig7",
    "schedule.simulator": "req_p50_ms on search-dsa, req_tail_ms on serve-mix | search-dsa / not machine-fig7",
    "schedule": "req_p50_ms on search-dsa (search quality: speedup_geomean, est_error_pct) | search-dsa",
    "search": "req_p50_ms: misses on search-dsa, hits on serve-mix | search-dsa / serve-mix",
    "serve": "req_p50_ms, req_tail_ms, req_per_s | serve-mix only",
    "ops": "attribution of the operations' time | all",
    "unattributed_s": "attribution: operation time no layer covers | all",
    "trace_overhead": "tracing overhead on that end-to-end metric | all",
}


def _workload(name: str):
    import fig7
    import search
    import serve

    return {"machine-fig7": fig7, "search-dsa": search, "serve-mix": serve}[name]


def run_phase(module, seed: int, seconds: float, tracer):
    """Sets the workload up ``module.SETUPS`` times, then measures it once.
    Returns ``(set-up seconds, measurement, set-up spans)``; the set-up
    times are already scaled to the reference host."""
    teardown = getattr(module, "teardown", lambda state: None)
    setups = []
    samples = []
    state = None
    try:
        for _ in range(module.SETUPS):
            if state is not None:
                teardown(state)
                state = None
            samples.append(common.calibrate())
            start = module.clock()
            state = module.setup()
            setups.append(module.clock() - start)
            samples.append(common.calibrate())
        setups = [spent * common.cpu_scale(samples) for spent in setups]
        setup_spans = tracer.take() if tracer else None
        # Collect the set-up's garbage now and keep the collector from
        # rescanning long-lived set-up state inside the timed window.
        gc.collect()
        gc.freeze()
        measurement = module.measure(state, seed, seconds, tracer)
    finally:
        if state is not None:
            with common.paused(tracer):
                teardown(state)
    return setups, measurement, setup_spans


def tail(latencies):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are too few samples for one above the median);
    returns ``(value, percentile)``."""
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) >= 22 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(setups, m) -> dict:
    """Times are scaled to the reference host (``Measurement.cpu_scale``)."""
    latencies = m.latencies or [0.0]
    scale = m.cpu_scale()
    return {
        "setup_s": statistics.median(setups),
        "run_s": scale * statistics.median(m.passes) if m.passes else 0.0,
        "req_p50_ms": scale * 1000 * statistics.median(latencies),
        "req_tail_ms": scale * 1000 * tail(latencies)[0],
        "req_per_s": m.per_s / scale,
        "speedup_geomean": (
            math.exp(statistics.fmean(math.log(s) for s in m.speedups))
            if m.speedups else 0.0
        ),
        "est_error_pct": 100 * statistics.fmean(m.est_errors) if m.est_errors else 0.0,
        "ok_frac": (m.attempted - m.failed) / max(m.attempted, 1),
        "peak_rss_mb": common.peak_rss_mb() + m.extra_rss_mb,
    }


def per_layer(setups, spans, window, m, untraced, traced) -> dict:
    """Per-layer metrics of the traced phase: front-end layers per
    set-up, every other layer over the timed window."""
    n = len(setups)
    busy, own, calls, counts = (window[k] for k in ("busy", "self", "calls", "counts"))
    counts = dict(counts, **m.layer)

    def get(table, key):
        return table.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = get(counts, "runtime.interp.steps")
    invocations = get(counts, "runtime.machine.invocations")
    wasted = get(counts, "runtime.machine.lock_failures") + get(
        counts, "runtime.machine.stale_invocations"
    )
    events = get(counts, "schedule.simulator.trace_events")
    requested = get(counts, "search.requested")
    values = {
        "lang.busy_s": get(spans["busy"], "lang") / n,
        "lang.tokens": get(spans["counts"], "lang.tokens") / n,
        "sema.busy_s": get(spans["busy"], "sema") / n,
        "ir.busy_s": get(spans["busy"], "ir") / n,
        "ir.instructions": get(spans["counts"], "ir.instructions") / n,
        "analysis.busy_s": get(spans["busy"], "analysis") / n,
        "analysis.cstg_nodes": get(spans["counts"], "analysis.cstg_nodes") / n,
        "runtime.interp.busy_s": get(busy, "runtime.interp"),
        "runtime.interp.steps": steps,
        "runtime.interp.steps_per_s": ratio(steps, get(busy, "runtime.interp")),
        "runtime.interp.calls": get(calls, "runtime.interp"),
        "runtime.machine.self_s": get(own, "runtime.machine"),
        "runtime.machine.invocations": invocations,
        "runtime.machine.messages": get(counts, "runtime.machine.messages"),
        "runtime.machine.lock_failures": get(counts, "runtime.machine.lock_failures"),
        "runtime.machine.useful_ratio": ratio(invocations, invocations + wasted),
        "runtime.machine.sim_cycles": get(counts, "runtime.machine.sim_cycles"),
        "runtime.machine.cycle_diffs": get(counts, "runtime.machine.cycle_diffs"),
        "runtime.profiler.extra_s": get(counts, "runtime.profiler.extra_s"),
        "runtime.profiler.setup_s": get(spans["busy"], "runtime.profiler") / n,
        "schedule.simulator.busy_s": get(busy, "schedule.simulator"),
        "schedule.simulator.calls": get(calls, "schedule.simulator"),
        "schedule.simulator.trace_events": events,
        "schedule.simulator.events_per_s": ratio(events, get(busy, "schedule.simulator")),
        "schedule.simulator.pruned": get(counts, "schedule.simulator.pruned"),
        "schedule.anneal.self_s": get(own, "schedule.anneal"),
        "schedule.anneal.iterations": get(counts, "schedule.anneal.iterations"),
        "schedule.critpath.busy_s": get(busy, "schedule.critpath"),
        "schedule.critpath.calls": get(calls, "schedule.critpath"),
        "schedule.prep_s": get(busy, "schedule.prep"),
        "search.requested": requested,
        "search.evaluations": get(counts, "search.evaluations"),
        "search.cache_hits": get(counts, "search.cache_hits"),
        "search.cache_hit_ratio": ratio(get(counts, "search.cache_hits"), requested),
        "search.cache.busy_s": get(busy, "search.cache"),
        "search.layout_diffs": get(counts, "search.layout_diffs"),
        "serve.busy_s": get(busy, "serve"),
        "serve.server_ms": get(counts, "serve.server_ms"),
        "serve.overhead_ms": get(counts, "serve.overhead_ms"),
        "serve.cache_hit_ratio": get(counts, "serve.cache_hit_ratio"),
        "serve.coalesced": get(counts, "serve.coalesced"),
        "serve.rejected": get(counts, "serve.rejected"),
        "serve.memo_hits": get(counts, "serve.memo_hits"),
        "serve.result_diffs": get(counts, "serve.result_diffs"),
        "ops.count": get(calls, "op"),
        "ops.tail_pct": tail(m.latencies or [0.0])[1],
        "ops.busy_s": get(busy, "op"),
        "unattributed_s": get(own, "op"),
    }
    for name, base in untraced.items():
        values[f"trace_overhead.{name}"] = 100 * ratio(traced[name] - base, base)
    return values


def host_metadata() -> dict:
    sha = "unknown (not a git checkout)"
    git_dir = os.path.join(common.ROOT, ".git")
    if os.path.isdir(git_dir):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, env=dict(os.environ, GIT_DIR=git_dir),
            ).stdout.strip() or sha
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the daemon serve-mix started is
    # shut down and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and the daemon it starts: the calibration
    # loop then times the CPU the measured work runs on, whose speed can
    # drift apart from the other CPU's on a shared host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seed = SEEDS[args.workload][0] if args.seed is None else args.seed

    if not os.path.isdir(os.path.join(common.SRC_DIR, "repro")):
        print(f"perfbench: no repro package under {common.SRC_DIR}", file=sys.stderr)
        return 2
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    common.use_repo_sources()
    module = _workload(args.workload)

    setups, m, _ = run_phase(module, seed, args.seconds, None)
    values = end_to_end(setups, m)
    attempted, failed = m.attempted, m.failed
    declared_metrics = declared["end_to_end"]
    if args.trace:
        import tracer as tracing

        spans = tracing.Tracer(clock=module.clock)
        uninstall = tracing.install(spans)
        try:
            traced_setups, traced, setup_spans = run_phase(module, seed, args.seconds, spans)
        finally:
            uninstall()
        attempted += traced.attempted
        failed += traced.failed
        window = spans.take()
        # Span times in the same reference-host seconds as run_s.
        for table in (window, setup_spans):
            for kind in ("busy", "self"):
                table[kind] = {k: v * traced.cpu_scale() for k, v in table[kind].items()}
        values = per_layer(
            traced_setups, setup_spans, window, traced, values,
            end_to_end(traced_setups, traced),
        )
        declared_metrics = declared["per_layer"]

    print(f"perfbench: {args.workload} seed={seed} seconds={args.seconds:g} "
          f"trace={args.trace} {json.dumps(host_metadata())}")
    print(f"perfbench: CPU scale to the reference host {m.cpu_scale():.4f} "
          f"(calibration loop median of {len(m.calibration)} samples)")
    print(f"perfbench: {len(m.latencies)} operations, tail is p{tail(m.latencies or [0.0])[1]:.1f}")
    metrics = {}
    for spec in declared_metrics:
        name = spec["name"]
        value = float(values[name])
        metrics[name] = {"value": value, "unit": spec["unit"]}
        moves = ""
        if args.trace:
            prefix = max((p for p in MOVES if name == p or name.startswith(p + ".")), key=len)
            moves = "  -> " + MOVES[prefix]
        print(f"  {name:34s} {value:16.6f} {spec['unit']:6s}{moves}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
