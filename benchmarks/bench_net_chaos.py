"""What the serve-layer failure story costs: a timed net-chaos sweep.

One sweep of :func:`repro.serve.netchaos.run_net_chaos` (4 seeded plans
against a real daemon subprocess; plan 0 is the fault-free control)
measures the wall-clock price of the full failure machinery: proxy
faults (resets, truncations, garbage, delays) absorbed by the retrying
client, an injected flush failure with degradation reporting, and a
mid-request SIGKILL with restart + cache durability check.

The invariants the harness machine-checks (typed outcomes, result
bit-identity, daemon liveness, cache durability, degradation honesty,
fault/retry accounting) are re-asserted here; the telemetry document
(``benchmarks/out/net_chaos.json``) records the per-plan fault and
retry accounting plus the sweep wall time for trend tracking.
"""

import time

from conftest import emit
from repro.serve import run_net_chaos
from repro.viz import render_table
from telemetry import write_telemetry

BENCH = "Keyword"
NUM_CORES = 4
PLANS = 4  # control, flush_fail+proxy, kill+proxy, proxy-only


def run_sweep(workdir):
    started = time.perf_counter()
    report = run_net_chaos(
        plans=PLANS,
        base_seed=0,
        workdir=workdir,
        bench=BENCH,
        cores=NUM_CORES,
        client_timeout=1.0,
        delay_seconds=1.6,
    )
    wall = time.perf_counter() - started
    return report, wall


def test_net_chaos_sweep_cost(benchmark, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("netchaos"))
    report, wall = benchmark.pedantic(
        run_sweep, args=(workdir,), iterations=1, rounds=1
    )

    # Every machine-checked invariant held, and the sweep was not a
    # no-op: faults fired and each fired fault forced at least one
    # client retry, while the control plan touched nothing.
    assert report.ok, report.describe()
    assert report.shutdown_exit == 0
    assert report.total("fired") >= 1
    assert report.total("retries") >= report.total("fired")
    control = report.runs[0]
    assert control.plan.is_empty()
    assert control.retries == 0 and not control.fired

    rows = [
        [
            f"plan {run.index}",
            run.plan.describe().replace("net chaos: ", ""),
            run.calls,
            len(run.fired),
            run.retries,
            len(run.typed_errors),
            "ok" if run.ok else "VIOLATED",
        ]
        for run in report.runs
    ]
    table = render_table(
        ["Run", "Plan", "Calls", "Fired", "Retries", "Typed errors", "Verdict"],
        rows,
    )
    kills = sum(1 for run in report.runs if run.plan.kill)
    flush_fails = sum(1 for run in report.runs if run.plan.flush_fail)
    emit(
        f"Net chaos: serve-layer failure story ({BENCH}, {NUM_CORES} cores)",
        table
        + f"\n\nsweep wall time:  {wall:.2f}s for {PLANS} plan(s)"
        + f"\nproxy faults:     {report.total('fired')} fired, "
        f"{report.total('retries')} client retries"
        + f"\ndaemon kills:     {kills} (restart + cache durability checked)"
        + f"\nflush failures:   {flush_fails} (degradation reporting checked)"
        + f"\nshutdown exit:    {report.shutdown_exit}"
        + "\nall invariants held: True",
        artifact="net_chaos.txt",
    )
    write_telemetry(
        "net_chaos",
        {
            "benchmark": BENCH,
            "num_cores": NUM_CORES,
            "plans": PLANS,
            "wall_seconds": wall,
            "daemon_kills": kills,
            "flush_failures": flush_fails,
            "report": report.as_dict(),
        },
    )
