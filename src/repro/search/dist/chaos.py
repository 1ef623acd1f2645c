"""Distributed-search chaos: seeded multi-host fault plans, checked
invariants.

The top rung of the fault-layer ladder (``docs/RESILIENCE.md``): below
this, :mod:`repro.resilience.chaos` breaks the *simulated* machine,
:mod:`repro.search.hostchaos` breaks worker *processes* inside one
search, and :mod:`repro.serve.netchaos` breaks the daemon's *network*.
This harness breaks whole worker **hosts** and the links between them —
against real ``repro dist-worker`` subprocesses — and machine-checks:

* **Termination** — every chaos run completes (leases + bounded retries
  + local degradation guarantee it by construction).
* **Dist-vs-serial bit-identity** — the merged
  :class:`~repro.search.dist.shards.DistResult` key (every shard result,
  the incumbent trajectory, the winning layout) equals the single-host
  serial baseline's, whatever crashed, hung, dropped, or garbled.
* **Exactly-once shard accounting** — the
  :meth:`~repro.search.dist.coordinator.DistStats.check_accounting`
  identity holds: every dispatch reaches exactly one terminal state.
* **Control-plan zero activity** — plan 0 (empty) records no steals,
  retries, failures, duplicates, injections, or degradation.

A separate **interrupt + resume** phase abandons a coordinator
mid-frontier (no shutdown, exactly what SIGKILL leaves behind: the
checkpoint file) and checks that a resumed coordinator completes only
the missing shards and merges to the identical key — and that a
checkpoint from a *different* job is refused with a typed error.

Fault transport: dispatch faults (``crash_worker``/``hang_worker``/
``expire_lease``) ride shard messages through the coordinator's own
chaos hook; wire faults (``reset``/``garbage``) fire in the shared
:class:`repro.chaos.ChaosProxy` between workers and the coordinator (the
dist protocol pushes coordinator→worker messages unprompted, which the
proxy's full-duplex pumps allow); ``kill_worker`` is a literal
``SIGKILL`` of a worker subprocess mid-run.
"""

from __future__ import annotations

import functools
import os
import random
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Optional, Tuple

from ... import chaos as kernel
from .coordinator import DistCoordinator, DistError, DistStats, LeasePolicy
from .shards import JobContext, ShardSpec, run_serial_baseline
from .worker import spawn_worker_process

#: seconds before a chaos run is declared hung (a termination violation)
RUN_DEADLINE = 180.0

#: coordinator counters a fault-free run advances too
_PROGRESS_COUNTERS = (
    "workers_joined",
    "workers_left",
    "dispatches",
    "local_executions",
    "shards_completed",
    "frontier_checkpoints",
)

#: faults the coordinator injects itself, keyed by dispatch seq
DIST_DISPATCH_KINDS = ("crash_worker", "hang_worker", "expire_lease")
#: faults the chaos proxy injects in transit, keyed by downstream line
DIST_WIRE_KINDS = ("reset", "garbage")


@dataclass(frozen=True)
class DistChaosPlan:
    """A seeded set of faults for one distributed search — the host-chaos
    idea one level up: instead of misbehaving worker *processes* inside
    one search, whole worker *hosts* and their connections misbehave.

    Dispatch faults ride on shard messages (the worker crashes hard or
    hangs past its lease; the coordinator force-expires a lease) and are
    keyed by the coordinator's global dispatch sequence; wire faults fire
    in the proxy between the two (connection reset with an RST, a message
    replaced by garbage) and are keyed by the proxy's downstream line
    number; ``kill_worker`` tells the harness to SIGKILL one worker
    process externally mid-run. Plan 0 of every sweep is empty — the
    control.
    """

    dispatch_faults: Tuple[kernel.Fault, ...] = ()
    wire_faults: Tuple[kernel.Fault, ...] = ()
    kill_worker: bool = False
    seed: int = 0

    @classmethod
    def make(
        cls,
        index: int,
        seed: int,
        horizon: int,
        hang_seconds: float = 3.0,
        max_faults: int = 2,
    ) -> "DistChaosPlan":
        """Builds the ``index``-th plan of a sweep. ``horizon`` should be
        the shard count: with one dispatch per shard guaranteed, every
        designated dispatch id in ``1..horizon`` is reached, and with a
        job and a shard message per dispatch, so is every downstream line
        in ``0..horizon-1``. Fault families rotate on fixed strides (like
        :class:`repro.serve.netchaos.NetChaosPlan`) so even a 4-plan
        sweep exercises dispatch faults, wire faults, and an external
        worker SIGKILL."""
        if index == 0:
            return cls(seed=seed)
        rng = random.Random(seed)
        horizon = max(1, horizon)
        count = rng.randint(1, max(1, min(max_faults, horizon)))
        picks = rng.sample(range(1, horizon + 1), min(horizon, count))
        dispatch = tuple(
            kernel.Fault(
                key=pick,
                kind=rng.choice(DIST_DISPATCH_KINDS),
                param=hang_seconds,
            )
            for pick in sorted(picks)
        )
        wire: Tuple[kernel.Fault, ...] = ()
        if index % 2 == 0:
            wire = tuple(
                kernel.Fault(key=pick, kind=rng.choice(DIST_WIRE_KINDS))
                for pick in sorted(
                    rng.sample(range(horizon), min(horizon, 2))
                )
            )
        return cls(
            dispatch_faults=dispatch,
            wire_faults=wire,
            kill_worker=index % 3 == 2,
            seed=seed,
        )

    @classmethod
    def scripted(
        cls,
        crash=(),
        hang=(),
        expire=(),
        hang_seconds: float = 3.0,
    ) -> "DistChaosPlan":
        """A hand-written plan from explicit dispatch ids — what the
        CLI's ``--chaos-crash/--chaos-hang/--chaos-expire`` flags and the
        CI dist-smoke job build."""
        faults = tuple(
            [kernel.Fault(key=s, kind="crash_worker") for s in crash]
            + [
                kernel.Fault(key=s, kind="hang_worker", param=hang_seconds)
                for s in hang
            ]
            + [kernel.Fault(key=s, kind="expire_lease") for s in expire]
        )
        return cls(dispatch_faults=faults)

    def dispatch_fault(self, seq: int) -> Optional[Tuple[str, Optional[float]]]:
        """The coordinator's hook: the fault riding on dispatch ``seq``."""
        fault = kernel.fault_at(self.dispatch_faults, seq)
        return None if fault is None else (fault.kind, fault.param)

    def is_empty(self) -> bool:
        return not (
            self.dispatch_faults or self.wire_faults or self.kill_worker
        )

    def describe(self) -> str:
        return kernel.describe_plan(
            "dist chaos",
            self.dispatch_faults + self.wire_faults,
            *(["kill_worker"] if self.kill_worker else []),
        )


# -- sweep bookkeeping ---------------------------------------------------------


@dataclass
class DistChaosRun(kernel.ChaosRun):
    """Outcome of one plan."""

    #: every coordinator counter but the job's own progress
    CONTROL_ZERO: ClassVar[Tuple[str, ...]] = tuple(
        item.name
        for item in fields(DistStats)
        if item.name not in _PROGRESS_COUNTERS
    )

    stats: Optional[Dict[str, object]] = None
    wire_fired: List[Tuple[int, str]] = field(default_factory=list)

    def counters(self) -> Dict[str, object]:
        return self.stats or {}


@dataclass
class DistChaosReport(kernel.ChaosReport):
    """Outcome of a full dist-chaos sweep (plans + resume phase)."""

    SCHEMA: ClassVar[str] = "repro.search/dist-chaos-report-v2"
    SWEEP_LABEL: ClassVar[str] = "resume phase"
    INVARIANTS: ClassVar[str] = (
        "termination, dist-vs-serial bit-identity, exactly-once shard "
        "accounting, control-plan zero activity, checkpointed resume"
    )

    resumed_shards: int = 0

    def headline(self) -> List[str]:
        lines = [f"dist chaos: {len(self.runs)} plan(s)"]
        for run in self.runs:
            status = "ok" if run.ok else "FAIL"
            lines.append(f"  plan {run.index}: {run.plan.describe()} [{status}]")
        lines.append(
            f"totals: {self.total('dispatches')} dispatch(es), "
            f"{self.total('steals')} steal(s), "
            f"{self.total('retries')} retry(ies), "
            f"{self.total('duplicates_discarded')} duplicate(s) discarded, "
            f"{self.total('worker_crashes')} crash(es), "
            f"{self.total('worker_hangs')} hang(s), "
            f"{self.total('worker_disconnects')} disconnect(s), "
            f"{self.total('garbled_messages')} garbled"
        )
        lines.append(
            f"resume phase: {self.resumed_shards} shard(s) resumed from the "
            "frontier checkpoint"
        )
        return lines

    def summary(self) -> Dict[str, object]:
        return {"resumed_shards": self.resumed_shards}


def _check_run(run: DistChaosRun, result, baseline, check_accounting) -> None:
    """Applies the per-plan invariants; violations land on ``run``.
    The control plan's zero-activity check is the sweep's."""
    if result.key() != baseline.key():
        run.violations.append(
            "chaos result diverged from the serial baseline "
            f"({result.best_cycles} vs {baseline.best_cycles} cycles)"
        )
    run.violations.extend(check_accounting())
    if run.plan.is_empty():
        return
    stats = run.stats or {}
    kernel.check_all_fired(run, run.plan.wire_faults, run.wire_fired)
    kernel.check_fired(
        run,
        int(stats.get("injected_crashes", 0))
        + int(stats.get("injected_hangs", 0))
        + int(stats.get("forced_lease_expiries", 0))
        + len(run.wire_fired)
        + (1 if run.plan.kill_worker else 0),
    )


def _run_plan(
    run: DistChaosRun,
    context: JobContext,
    shards: List[ShardSpec],
    baseline,
    lease: LeasePolicy,
    workers: int,
    proxy: kernel.ChaosProxy,
) -> None:
    coordinator = DistCoordinator(
        context,
        shards,
        lease=lease,
        expect_workers=workers,
        degrade_after=30.0,
        chaos_plan=None if run.plan.is_empty() else run.plan,
    )
    proxy.arm(run.plan.wire_faults)
    _, port = coordinator.start()
    proxy.set_upstream(port)
    procs = []
    outcome: Dict[str, object] = {}

    def drive() -> None:
        try:
            outcome["result"] = coordinator.run()
        except Exception as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    def killer() -> None:
        # SIGKILL one whole worker once the job is demonstrably underway.
        deadline = time.monotonic() + RUN_DEADLINE
        while time.monotonic() < deadline:
            if coordinator.stats.shards_completed >= 1:
                break
            time.sleep(0.05)
        if procs and procs[0].poll() is None:
            os.kill(procs[0].pid, signal.SIGKILL)

    try:
        for number in range(workers):
            # Workers dial the proxy, not the coordinator.
            procs.append(
                spawn_worker_process(proxy.host, proxy.port, f"w{number}")
            )
        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        if run.plan.kill_worker:
            threading.Thread(target=killer, daemon=True).start()
        driver.join(timeout=RUN_DEADLINE)
        if driver.is_alive():
            run.error = f"did not terminate within {RUN_DEADLINE:.0f}s"
            return
    finally:
        coordinator.stop()
        run.wire_fired = proxy.disarm()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if "error" in outcome:
        raise outcome["error"]  # the sweep records it as the run's error
    run.stats = coordinator.stats.snapshot()
    result = outcome["result"]
    _check_run(run, result, baseline, coordinator.stats.check_accounting)


def _resume_phase(
    context: JobContext,
    shards: List[ShardSpec],
    baseline,
    lease: LeasePolicy,
    report: DistChaosReport,
) -> None:
    """Abandon a coordinator mid-frontier, resume from its checkpoint."""
    interrupt_after = min(2, len(shards) - 1)
    with tempfile.TemporaryDirectory(prefix="repro-dist-chaos-") as tmp:
        coordinator = functools.partial(
            DistCoordinator,
            context,
            lease=lease,
            checkpoint_path=os.path.join(tmp, "frontier.ckpt"),
            expect_workers=0,
        )
        first = coordinator(shards)
        # Complete a frontier prefix locally, then walk away without any
        # shutdown — the checkpoint file is all a SIGKILL would leave.
        while first.stats.shards_completed < interrupt_after:
            if not first._maybe_run_local():
                report.sweep_violations.append(
                    "interrupted coordinator ran out of local shards early"
                )
                return
        if first.stats.frontier_checkpoints < 1:
            report.sweep_violations.append(
                "no frontier checkpoint written before the interrupt"
            )
        second = coordinator(shards, resume=True)
        result = second.run()
        report.resumed_shards = second.stats.resumed_shards
        if second.stats.resumed_shards != interrupt_after:
            report.sweep_violations.append(
                f"expected {interrupt_after} resumed shard(s), got "
                f"{second.stats.resumed_shards}"
            )
        if result.key() != baseline.key():
            report.sweep_violations.append(
                "resumed result diverged from the serial baseline"
            )
        # A checkpoint from a *different* job must be refused, typed.
        try:
            coordinator(shards[:-1], resume=True)
        except DistError:
            pass
        else:
            report.sweep_violations.append(
                "a foreign job's frontier checkpoint was accepted"
            )


def run_dist_chaos(
    plans: int = 4,
    base_seed: int = 0,
    restarts: int = 6,
    workers: int = 2,
) -> DistChaosReport:
    """Runs a full dist-chaos sweep and returns the per-plan verdicts.

    Builds a small in-process workload (the ``Keyword`` benchmark), runs
    the single-host serial baseline once, then every plan against
    ``workers`` real worker subprocesses behind a fault-injecting proxy.
    Like the other chaos harnesses, nothing raises on violation — the
    report carries the verdicts.
    """
    import hashlib

    from ...bench import get_spec, load_source
    from ...core import compile_program, profile_program
    from ...schedule.anneal import AnnealConfig
    from .shards import make_restart_shards

    spec = get_spec("Keyword")
    source = load_source("Keyword")
    prog_args = ["8"]
    compiled = compile_program(source, spec.filename)
    profile = profile_program(compiled, prog_args)
    context = JobContext(
        compiled=compiled,
        profile=profile,
        num_cores=4,
        source_digest=hashlib.sha256(
            "\x00".join([source] + prog_args).encode("utf-8")
        ).hexdigest(),
    )
    template = AnnealConfig(
        initial_candidates=1,
        max_iterations=3,
        max_evaluations=30,
        patience=2,
        continue_probability=0.2,
    )
    shard_list = make_restart_shards(template, restarts, base_seed=1234)
    # A short lease floor so injected hangs (hang_seconds > floor) breach
    # their leases quickly; shards take well under a second each.
    lease = LeasePolicy(timeout_floor=2.0, timeout_mult=8.0)
    baseline = run_serial_baseline(context, shard_list)

    proxy = kernel.ChaosProxy(upstream_port=0)
    try:
        runs = kernel.sweep(
            plans,
            base_seed,
            lambda index, seed, _: DistChaosPlan.make(
                index, seed, horizon=restarts, hang_seconds=3.0
            ),
            lambda run: _run_plan(
                run, context, shard_list, baseline, lease, workers, proxy
            ),
            run_type=DistChaosRun,
        )
        report = DistChaosReport(runs=runs)
        _resume_phase(context, shard_list, baseline, lease, report)
    finally:
        proxy.close()
    return report
