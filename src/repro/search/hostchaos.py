"""Host-level chaos: seeded worker crashes and hangs, checked invariants.

The mirror image of :mod:`repro.resilience.chaos`, one level up: instead
of injecting faults into the *simulated* TILEPro64 machine, this harness
injects them into the *host* processes that evaluate candidate layouts —
a worker calls ``os._exit`` mid-task (OOM-killer stand-in) or sleeps past
its deadline (hang stand-in) — and checks the supervision invariants:

* **Termination** — every chaos synthesis returns (no lost runs, no
  hangs; bounded retries guarantee it by construction).
* **Result bit-identity** — the chaos run's :class:`SynthesisReport` is
  identical to the fault-free baseline in every deterministic field
  (layout, cycles, history, budget accounting). Supervision may only
  *rescue* work, never change it.
* **Counter consistency** — retry/rebuild counters match the injected
  plan: every fired fault forced at least one retry and at least one
  pool rebuild happened; plan 0 (empty, the control) fired nothing and
  its counters are all zero.

Wall-clock timing decides *how many collateral* tasks a pool failure
takes down, so counter invariants are inequalities; the search result
itself is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from .. import chaos as kernel


@dataclass(frozen=True)
class HostChaosPlan:
    """A seeded set of host faults for one supervised synthesis.

    Each fault's ``key`` indexes the supervisor's global dispatch counter
    (retries included) and its ``kind`` is ``"crash"`` or ``"hang"``, so a
    plan is pure data: the same plan against the same workload designates
    the same simulations.
    """

    faults: Tuple[kernel.Fault, ...]
    seed: int = 0

    @classmethod
    def make(
        cls,
        index: int,
        seed: int,
        horizon: int,
        max_crashes: int = 2,
        max_hangs: int = 1,
    ) -> "HostChaosPlan":
        """Builds the ``index``-th plan of a sweep. Plan 0 is always
        empty — the control. ``horizon`` should be the fault-free
        supervised run's dispatch count (the control's
        ``supervision["dispatches"]``) so designated ids actually fire.
        The supervisor dispatches chunks of layouts, so the run's
        evaluation count would overshoot it."""
        if index == 0:
            return cls(faults=(), seed=seed)
        rng = random.Random(seed)
        horizon = max(1, horizon)
        crashes = rng.randint(1, max(1, min(max_crashes, horizon)))
        hangs = rng.randint(0, max_hangs)
        picks = rng.sample(range(horizon), min(horizon, crashes + hangs))
        faults = tuple(
            kernel.Fault(key=pick, kind="crash" if i < crashes else "hang")
            for i, pick in enumerate(picks)
        )
        return cls(faults=faults, seed=seed)

    def is_empty(self) -> bool:
        return not self.faults

    def describe(self) -> str:
        return kernel.describe_plan("host chaos", self.faults)


@dataclass
class HostChaosRun(kernel.ChaosRun):
    """Outcome of one plan."""

    CONTROL_ZERO: ClassVar[Tuple[str, ...]] = (
        "injected_crashes",
        "injected_hangs",
        "worker_retries",
        "pool_rebuilds",
    )

    #: the run's SynthesisReport
    report: Optional[object] = field(default=None, metadata=kernel.NOT_JSON)
    supervision: Optional[Dict[str, object]] = None

    def counters(self) -> Dict[str, object]:
        return self.supervision or {}


@dataclass
class HostChaosReport(kernel.ChaosReport):
    """Outcome of a full host-chaos sweep."""

    SCHEMA: ClassVar[str] = "repro.search/host-chaos-report-v1"
    INVARIANTS: ClassVar[str] = (
        "termination, result bit-identity, retry/rebuild accounting"
    )

    baseline: object = None  # SynthesisReport

    def headline(self) -> List[str]:
        injected = sum(len(run.plan.faults) for run in self.runs)
        return [
            f"host chaos: {len(self.runs)} plan(s), {injected} fault(s) "
            f"planned, {self.total('injected_crashes')} crash(es) + "
            f"{self.total('injected_hangs')} hang(s) fired, "
            f"{self.total('worker_retries')} retry(ies), "
            f"{self.total('pool_rebuilds')} pool rebuild(s)"
        ]


def _report_key(report) -> Tuple:
    """Every deterministic field of a SynthesisReport, as comparable data
    (wall-clock excluded)."""
    return (
        report.estimated_cycles,
        report.layout.as_dict(),
        report.layout.num_cores,
        report.history,
        report.evaluations,
        report.cache_hits,
        report.requested_evaluations,
        report.pruned_evaluations,
        report.iterations,
    )


def _check_run(run: HostChaosRun, baseline) -> None:
    """Applies the per-plan invariants; violations land on ``run``.
    The control plan's zero-activity check is the sweep's."""
    report = run.report
    stats = run.supervision or {}
    if _report_key(report) != _report_key(baseline):
        run.violations.append(
            "chaos result diverged from fault-free baseline "
            f"({report.estimated_cycles} vs {baseline.estimated_cycles} "
            "cycles)"
        )
    if run.plan.is_empty():
        return
    fired = int(stats.get("injected_crashes", 0)) + int(
        stats.get("injected_hangs", 0)
    )
    retries = int(stats.get("worker_retries", 0))
    rebuilds = int(stats.get("pool_rebuilds", 0))
    kernel.check_fired(run, fired)
    if retries < fired:
        run.violations.append(
            f"{fired} fault(s) fired but only {retries} retry(ies) "
            "recorded"
        )
    if fired and rebuilds < 1:
        run.violations.append(
            f"{fired} fault(s) fired but the pool was never rebuilt"
        )
    if rebuilds > retries:
        run.violations.append(
            f"{rebuilds} rebuild(s) exceed {retries} retry(ies)"
        )


def run_host_chaos(
    compiled,
    profile,
    num_cores: int,
    options=None,
    runs: int = 4,
    base_seed: int = 0,
    workers: int = 2,
    policy=None,
) -> HostChaosReport:
    """Runs a full host-chaos sweep and returns the per-plan verdicts.

    ``options`` is the :class:`repro.SynthesisOptions` template for every
    run (anneal schedule, hints, ...); the harness forces ``workers=1``
    with supervision off for the baseline and ``workers``/supervision/
    chaos for the plans. Fault dispatch ids are drawn below the control
    plan's dispatch count. Like :func:`repro.resilience.chaos.run_chaos`,
    nothing raises on violation — the report carries the verdicts.
    """
    from dataclasses import replace

    from ..core.options import SynthesisOptions
    from ..core.pipeline import synthesize_layout
    from .supervise import RetryPolicy

    options = options if options is not None else SynthesisOptions()
    policy = policy or RetryPolicy()
    baseline = synthesize_layout(
        compiled, profile, num_cores,
        options=replace(
            options, workers=1, supervise=False, host_chaos=None,
        ),
    )

    def make_plan(index: int, seed: int, done) -> HostChaosPlan:
        control = (done[0].supervision if done else None) or {}
        return HostChaosPlan.make(
            index, seed, int(control.get("dispatches", 0))
        )

    def execute(run: HostChaosRun) -> None:
        run.report = synthesize_layout(
            compiled, profile, num_cores,
            options=replace(
                options,
                workers=max(2, workers),
                supervise=True,
                retry_policy=policy,
                host_chaos=None if run.plan.is_empty() else run.plan,
            ),
        )
        # Plan 0 also runs *with* supervision, so its zero-counter check
        # exercises the supervised path, not a disabled one.
        run.supervision = run.report.search_metrics.get("supervision") or {}
        _check_run(run, baseline)

    report_runs = kernel.sweep(
        runs, base_seed, make_plan, execute, run_type=HostChaosRun
    )
    return HostChaosReport(runs=report_runs, baseline=baseline)
