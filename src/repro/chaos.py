"""The chaos kernel: what every fault-injection harness shares.

Four harnesses check one promise — a faulted run computes what the
fault-free run computes — at four layers: the simulated machine
(:mod:`repro.resilience.chaos`), the search's worker processes
(:mod:`repro.search.hostchaos`), the serve network
(:mod:`repro.serve.netchaos`) and the dist hosts
(:mod:`repro.search.dist.chaos`). Each harness keeps only its seeded plan
generator, its fault points and its invariants. This module holds the
rest:

* :class:`Fault` — one injected misbehavior keyed by a sequence id (a
  dispatch, a request, a downstream message), so a plan is pure data;
* :class:`ChaosRun` / :class:`ChaosReport` — per-plan verdicts, the
  ``plan i (seed s):`` violation lines, counter totals, the
  ``describe()`` frame and the JSON report;
* :func:`sweep` — the seeded loop: plan 0 is the empty control, plans
  are built lazily in index order, and an exception becomes that run's
  ``error`` while the sweep continues;
* :func:`check_control`, :func:`check_fired` and
  :func:`check_all_fired` — the control-plan zero-activity check and the
  planned-vs-fired checks;
* :class:`ChaosProxy` — a full-duplex, line-framed TCP proxy that injects
  wire faults on the server→client path;
* :func:`misbehave` and :func:`spawn_repro` — a victim process honoring a
  crash or hang token, and a ``repro`` subprocess on this source tree.

Nothing here raises on a violated invariant: the report carries the
verdicts, and callers (tests, the CLI) decide how to fail.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional
from typing import Sequence, Tuple, Type

#: wire fault kinds the proxy injects on a downstream line
WIRE_FAULT_KINDS = ("reset", "truncate", "garbage", "delay")


@dataclass(frozen=True)
class Fault:
    """One injected misbehavior, keyed by a harness-defined sequence id.

    ``param`` carries a kind-specific value (a hang's seconds, say).
    """

    key: int
    kind: str
    param: Optional[float] = None


def fault_at(faults: Sequence[Fault], key: int) -> Optional[Fault]:
    """The fault designated for sequence id ``key``, if any."""
    for fault in faults:
        if fault.key == key:
            return fault
    return None


def describe_plan(label: str, faults: Sequence[Fault], *flags: str) -> str:
    """``label: N fault(s): kind@key, ..., flag`` or the control line."""
    parts = [
        f"{fault.kind}@{fault.key}"
        for fault in sorted(faults, key=lambda f: (f.key, f.kind))
    ]
    parts.extend(flags)
    if not parts:
        return f"{label}: empty plan (control)"
    return f"{label}: {len(parts)} fault(s): {', '.join(parts)}"


#: field metadata keeping a run's field out of its JSON report entry
NOT_JSON: Mapping[str, object] = {"json": False}


@dataclass
class ChaosRun:
    """Outcome of one plan. Harnesses subclass it to add what they record."""

    #: counters that must all be zero on the control plan
    CONTROL_ZERO: ClassVar[Tuple[str, ...]] = ()

    index: int
    seed: int
    plan: Any
    error: Optional[str] = None
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def counters(self) -> Mapping[str, object]:
        """The run's activity counters (summed by :meth:`ChaosReport.total`)."""
        return {}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form: the plan's description, the verdict, and every
        field a harness adds unless it is marked ``metadata=NOT_JSON``."""
        payload: Dict[str, object] = {
            "index": self.index,
            "seed": self.seed,
            "plan": self.plan.describe(),
            "ok": self.ok,
        }
        for item in fields(self):
            if item.name not in payload and item.metadata.get("json", True):
                payload[item.name] = getattr(self, item.name)
        return payload


@dataclass
class ChaosReport:
    """Outcome of a full sweep. Harnesses subclass it for their headline."""

    #: the JSON report id
    SCHEMA: ClassVar[str] = "repro/chaos-report-v1"
    #: prefix of sweep-level violation lines
    SWEEP_LABEL: ClassVar[str] = "sweep"
    #: what "all invariants held" lists
    INVARIANTS: ClassVar[str] = ""

    runs: List[ChaosRun]
    #: violations of checks that span the sweep, not one plan
    sweep_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.sweep_violations and all(run.ok for run in self.runs)

    def violations(self) -> List[str]:
        lines: List[str] = []
        for run in self.runs:
            prefix = f"plan {run.index} (seed {run.seed}): "
            if run.error is not None:
                lines.append(prefix + run.error)
            lines.extend(prefix + violation for violation in run.violations)
        lines.extend(
            f"{self.SWEEP_LABEL}: {violation}"
            for violation in self.sweep_violations
        )
        return lines

    def total(self, counter: str) -> int:
        return sum(int(run.counters().get(counter, 0)) for run in self.runs)

    def headline(self) -> List[str]:
        """The harness's summary lines above the verdict."""
        return [f"chaos: {len(self.runs)} plan(s)"]

    def summary(self) -> Dict[str, object]:
        """Harness-specific top-level JSON fields."""
        return {}

    def describe(self) -> str:
        lines = self.headline()
        bad = self.violations()
        if bad:
            lines.append(f"INVARIANT VIOLATIONS ({len(bad)}):")
            lines.extend(f"  {line}" for line in bad)
        else:
            lines.append(f"all invariants held: {self.INVARIANTS}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form (the CLI's ``--report`` artifact)."""
        return {
            "schema": self.SCHEMA,
            "ok": self.ok,
            "plans": len(self.runs),
            **self.summary(),
            "violations": self.violations(),
            "runs": [run.as_dict() for run in self.runs],
        }


def check_control(run: ChaosRun) -> None:
    """The control plan must record zero of every ``CONTROL_ZERO`` counter."""
    counters = run.counters()
    activity = {
        name: int(counters.get(name, 0))
        for name in run.CONTROL_ZERO
        if int(counters.get(name, 0))
    }
    if activity:
        run.violations.append(f"control plan recorded activity: {activity}")


def check_fired(run: ChaosRun, fired: int) -> None:
    """A faulted plan must fire at least one of its faults."""
    if fired == 0:
        run.violations.append(
            "no planned fault fired (horizon too large for workload?)"
        )


def check_all_fired(
    run: ChaosRun, planned: Sequence[Fault], fired: Sequence[Tuple[int, str]]
) -> None:
    """Every planned fault fires exactly once (the proxy's faults are
    keyed by a sequence every plan is sized to reach)."""
    if sorted(fired) != sorted((fault.key, fault.kind) for fault in planned):
        run.violations.append(
            f"{len(planned)} fault(s) planned but {len(fired)} fired"
        )


def sweep(
    runs: int,
    base_seed: int,
    make_plan: Callable[[int, int, List[ChaosRun]], Any],
    execute: Callable[[ChaosRun], None],
    run_type: Type[ChaosRun] = ChaosRun,
) -> List[ChaosRun]:
    """Runs ``runs`` seeded plans in index order and returns their verdicts.

    Plan ``i`` has seed ``base_seed + i`` and is built only after plans
    ``0..i-1`` ran (``make_plan`` sees them), so a harness can size its
    faults from the control run. ``make_plan`` must return an empty plan
    for index 0. ``execute`` runs one plan and records its checks on the
    run; an exception it raises becomes the run's ``error``. A control run
    that completes is also held to :func:`check_control`.
    """
    done: List[ChaosRun] = []
    for index in range(runs):
        seed = base_seed + index
        run = run_type(index=index, seed=seed, plan=make_plan(index, seed, done))
        try:
            execute(run)
        except Exception as exc:  # noqa: BLE001 - verdict, not control flow
            run.error = f"{type(exc).__name__}: {exc}"
        else:
            if index == 0:
                check_control(run)
        done.append(run)
    return done


def misbehave(kind: Optional[str], seconds: float = 0.0) -> None:
    """Honors a fault token inside the victim process: ``crash`` dies like
    ``kill -9`` (no cleanup, no unwinding), ``hang`` sleeps ``seconds``."""
    if kind == "crash":
        os._exit(137)
    if kind == "hang":
        time.sleep(seconds)


def spawn_repro(args: Sequence[str], **popen: Any) -> subprocess.Popen:
    """Starts ``python -m repro ARGS`` on this source tree (prepended to
    ``PYTHONPATH``); the caller owns the process handle."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = source_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args], env=env, **popen
    )


# -- the fault-injecting proxy -------------------------------------------------

_GARBAGE = b"\x16\x03\x01 not a message \xff\xfe\n"


class ChaosProxy:
    """A full-duplex, line-framed TCP proxy that injects wire faults.

    Client→server bytes pass through raw. Server→client lines are
    numbered from 0 on one sequence shared across connections, so
    reconnects and retries advance it. When the armed faults designate
    the current line, the proxy misbehaves on it:

    * ``reset`` drops the client with an RST;
    * ``truncate`` sends the first half of the line, then closes;
    * ``garbage`` sends undecodable bytes instead, then closes;
    * ``delay`` holds the line ``delay_seconds``, then sends it.

    The server always sees and executes what the client sent. That is the
    hard case: the client must decide to re-send without knowing whether
    the work happened, and determinism makes that safe.

    ``set_upstream`` re-points the proxy at a restarted server; new
    connections reach the new one while old ones die with the old.
    """

    def __init__(
        self,
        upstream_port: int,
        host: str = "127.0.0.1",
        delay_seconds: float = 1.6,
    ):
        self.host = host
        self.delay_seconds = delay_seconds
        self._upstream_port = upstream_port
        self._faults: Tuple[Fault, ...] = ()
        self._lock = threading.Lock()
        self._sequence = 0
        #: (line, kind) pairs that actually fired since the last arm()
        self.fired: List[Tuple[int, str]] = []
        self._closing = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        ).start()

    def arm(self, faults: Sequence[Fault] = ()) -> None:
        """Installs a plan's wire faults and restarts the line numbering
        and the fired log (each plan numbers its own lines from 0)."""
        with self._lock:
            self._faults = tuple(faults)
            self._sequence = 0
            self.fired = []

    def disarm(self) -> List[Tuple[int, str]]:
        """Stops injecting and returns what fired since the last arm()."""
        with self._lock:
            self._faults = ()
            return list(self.fired)

    def set_upstream(self, port: int) -> None:
        with self._lock:
            self._upstream_port = port

    def close(self) -> None:
        self._closing = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass

    # -- internals -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle,
                args=(client,),
                name="chaos-proxy-conn",
                daemon=True,
            ).start()

    def _next_fault(self) -> Optional[str]:
        with self._lock:
            sequence = self._sequence
            self._sequence += 1
            fault = fault_at(self._faults, sequence)
            if fault is None:
                return None
            self.fired.append((sequence, fault.kind))
            return fault.kind

    def _handle(self, client: socket.socket) -> None:
        with self._lock:
            upstream_port = self._upstream_port
        try:
            upstream = socket.create_connection(
                (self.host, upstream_port), timeout=5.0
            )
        except OSError:
            # Server down (e.g. between kill and restart): drop the
            # client, which sees a clean connection failure and retries.
            client.close()
            return
        upstream.settimeout(None)

        def hang_up() -> None:
            # SHUT_RD wakes the other pump's blocked read; a bare close()
            # would leave the connection open until that read returned.
            for sock in (client, upstream):
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
                sock.close()

        def pump_up() -> None:
            try:
                while True:
                    chunk = client.recv(65536)
                    if not chunk:
                        break
                    upstream.sendall(chunk)
            except OSError:
                pass
            hang_up()

        threading.Thread(
            target=pump_up, name="chaos-proxy-up", daemon=True
        ).start()
        reader = upstream.makefile("rb")
        try:
            while True:
                line = reader.readline()
                if not line:
                    break
                kind = self._next_fault()
                if kind == "delay":
                    # Past the client's timeout, the late line lands on a
                    # connection the client already abandoned.
                    time.sleep(self.delay_seconds)
                    kind = None
                if kind is None:
                    client.sendall(line)
                    continue
                if kind == "reset":
                    # RST instead of FIN: the hard drop.
                    client.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                elif kind == "truncate":
                    client.sendall(line[: max(1, len(line) // 2)])
                else:  # "garbage"
                    client.sendall(_GARBAGE)
                break
        except OSError:
            pass
        finally:
            reader.close()
            hang_up()
