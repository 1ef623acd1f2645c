"""The shared chaos kernel (repro.chaos): sweep, verdicts, checks, proxy."""

import socket
import threading
from dataclasses import dataclass
from typing import ClassVar, Dict, Tuple

from repro.chaos import (
    ChaosProxy,
    ChaosReport,
    ChaosRun,
    Fault,
    check_all_fired,
    check_fired,
    describe_plan,
    sweep,
)


@dataclass(frozen=True)
class Plan:
    faults: Tuple[Fault, ...] = ()

    def is_empty(self):
        return not self.faults

    def describe(self):
        return describe_plan("toy chaos", self.faults)


def toy_plan(index, seed, _done):
    if index == 0:
        return Plan()
    return Plan(faults=(Fault(key=seed, kind="crash"),))


@dataclass
class CountingRun(ChaosRun):
    CONTROL_ZERO: ClassVar[Tuple[str, ...]] = ("crashes", "retries")

    stats: Dict[str, int] = None

    def counters(self):
        return self.stats or {}


class TestSweep:
    def test_plans_are_seeded_and_built_in_index_order(self):
        seen = []

        def make_plan(index, seed, done):
            seen.append((index, seed, [run.index for run in done]))
            return toy_plan(index, seed, done)

        runs = sweep(3, 10, make_plan, lambda run: None)
        assert [(run.index, run.seed) for run in runs] == [
            (0, 10), (1, 11), (2, 12)
        ]
        assert seen == [(0, 10, []), (1, 11, [0]), (2, 12, [0, 1])]
        assert runs[0].plan.is_empty()
        assert all(run.ok for run in runs)

    def test_a_raising_plan_becomes_its_error_and_the_sweep_continues(self):
        executed = []

        def execute(run):
            executed.append(run.index)
            if run.index == 1:
                raise RuntimeError("boom")

        runs = sweep(4, 0, toy_plan, execute)
        assert executed == [0, 1, 2, 3]
        assert runs[1].error == "RuntimeError: boom"
        assert not runs[1].ok
        assert [run.ok for run in runs] == [True, False, True, True]

    def test_control_with_any_nonzero_counter_is_flagged(self):
        for name in CountingRun.CONTROL_ZERO:
            def execute(run, name=name):
                run.stats = {"crashes": 0, "retries": 0, "dispatches": 9}
                if run.index == 0:
                    run.stats[name] = 1

            runs = sweep(2, 0, toy_plan, execute, run_type=CountingRun)
            assert runs[0].violations == [
                f"control plan recorded activity: {{'{name}': 1}}"
            ]
            # Only the control is held to zero activity.
            assert runs[1].ok

    def test_quiet_control_passes(self):
        def execute(run):
            run.stats = {"crashes": 0, "retries": 0, "dispatches": 9}

        runs = sweep(1, 0, toy_plan, execute, run_type=CountingRun)
        assert runs[0].ok


class TestReport:
    def _report(self):
        bad = ChaosRun(index=2, seed=7, plan=Plan(), violations=["v1", "v2"])
        crashed = ChaosRun(index=3, seed=8, plan=Plan(), error="Err: x")
        good = ChaosRun(index=0, seed=5, plan=Plan())
        return ChaosReport(
            runs=[good, bad, crashed], sweep_violations=["late"]
        )

    def test_violation_lines_carry_plan_and_seed_prefixes(self):
        assert self._report().violations() == [
            "plan 2 (seed 7): v1",
            "plan 2 (seed 7): v2",
            "plan 3 (seed 8): Err: x",
            "sweep: late",
        ]

    def test_sweep_violations_alone_fail_the_report(self):
        report = ChaosReport(runs=[ChaosRun(index=0, seed=0, plan=Plan())])
        assert report.ok
        report.sweep_violations.append("shutdown failed")
        assert not report.ok

    def test_describe_frame(self):
        text = self._report().describe()
        assert text.splitlines()[1] == "INVARIANT VIOLATIONS (4):"
        assert "  plan 2 (seed 7): v1" in text.splitlines()
        clean = ChaosReport(runs=[ChaosRun(index=0, seed=0, plan=Plan())])
        assert clean.describe().splitlines()[-1].startswith(
            "all invariants held:"
        )

    def test_as_dict_keys_the_report_id_as_schema(self):
        payload = self._report().as_dict()
        assert payload["schema"] == ChaosReport.SCHEMA
        assert payload["ok"] is False
        assert payload["plans"] == 3
        assert payload["runs"][2]["error"] == "Err: x"
        assert payload["runs"][0]["plan"] == "toy chaos: empty plan (control)"

    def test_total_sums_run_counters(self):
        runs = [
            CountingRun(index=i, seed=i, plan=Plan(), stats={"retries": i})
            for i in range(4)
        ]
        runs.append(CountingRun(index=4, seed=4, plan=Plan()))
        assert ChaosReport(runs=runs).total("retries") == 6


class TestChecks:
    def test_unfired_plan_is_flagged(self):
        run = ChaosRun(index=1, seed=1, plan=Plan())
        check_fired(run, 0)
        assert run.violations == [
            "no planned fault fired (horizon too large for workload?)"
        ]
        clean = ChaosRun(index=1, seed=1, plan=Plan())
        check_fired(clean, 2)
        assert clean.ok

    def test_planned_must_equal_fired(self):
        planned = (Fault(0, "reset"), Fault(2, "garbage"))
        run = ChaosRun(index=1, seed=1, plan=Plan())
        check_all_fired(run, planned, [(0, "reset"), (2, "garbage")])
        assert run.ok
        check_all_fired(run, planned, [(0, "reset")])
        assert run.violations == ["2 fault(s) planned but 1 fired"]

    def test_describe_plan_orders_faults_and_appends_flags(self):
        faults = (Fault(3, "hang"), Fault(1, "crash"))
        assert describe_plan("x", faults, "kill") == (
            "x: 3 fault(s): crash@1, hang@3, kill"
        )
        assert describe_plan("x", ()) == "x: empty plan (control)"


class _LineServer:
    """Answers each received line with ``ok <n>`` (n counts lines)."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as reader:
                for count, _ in enumerate(iter(reader.readline, b"")):
                    conn.sendall(b"ok %d\n" % count)


class TestChaosProxy:
    def test_downstream_lines_are_numbered_from_zero(self):
        server = _LineServer()
        proxy = ChaosProxy(server.port)
        try:
            proxy.arm((Fault(key=1, kind="truncate"),))
            with socket.create_connection((proxy.host, proxy.port)) as sock:
                sock.settimeout(10.0)
                reader = sock.makefile("rb")
                sock.sendall(b"a\n")
                assert reader.readline() == b"ok 0\n"
                sock.sendall(b"b\n")
                assert reader.readline() == b"ok"  # half a line, then EOF
                assert reader.readline() == b""
            assert proxy.disarm() == [(1, "truncate")]
        finally:
            proxy.close()
            server.listener.close()

    def test_reset_reaches_the_client_at_once(self):
        server = _LineServer()
        proxy = ChaosProxy(server.port)
        try:
            proxy.arm((Fault(key=0, kind="reset"),))
            with socket.create_connection((proxy.host, proxy.port)) as sock:
                sock.settimeout(10.0)
                sock.sendall(b"a\n")
                try:
                    data = sock.recv(64)
                except ConnectionResetError:
                    data = b""
                assert data == b""
            assert proxy.disarm() == [(0, "reset")]
        finally:
            proxy.close()
            server.listener.close()
