"""serve-mix: the layout search behind the synthesis daemon.

Set-up starts ``repro serve`` (default config) as its own process and
warms its compile/profile memo for Keyword, Tracking and Series; before
the window, one untimed search per (program, cores) pair warms each
context's cache. One client on one connection then runs a closed loop: each request is sent
when the previous reply arrives. The request sequence comes from the
workload seed. Each round of thirteen holds two ``synthesize`` requests
for new keys and two that repeat an earlier key (answered from the
daemon's cache), one ``simulate`` of a layout returned earlier, four
``compile`` and four ``profile`` requests, shuffled. Every kind walks the (program,
cores) pairs, or the programs, in seeded orders, so each seed sends the
same mix; new keys take anneal seeds from a small pool in a seeded
order. No interpreter work falls inside the timed window; the checks
run after it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time

import common
from common import Measurement, paused, timed

clock = time.perf_counter
#: a set-up starts a daemon and profiles two programs in it; two set-ups
#: (not three) keep the run inside its time budget
SETUPS = 2
#: nominal closed-loop rate; a run sends ``--seconds`` x this many requests
REQUESTS_PER_SECOND = 16
#: passes over the sampled layouts' checking runs; run_s is their median
CHECK_PASSES = 2
#: requests between calibration samples (the pauses are not timed)
CALIBRATE_EVERY = 16
#: anneal seed of the untimed searches that warm each context's cache
WARM_SEED = 100
#: one round of the closed loop. Memoized compile/profile requests are
#: most of it, so the median latency falls well inside their cluster
#: (the protocol and admission path) rather than on the edge between
#: clusters of different request kinds, where it would jump from run to
#: run; the synthesize misses make up the tail.
ROUND = ["new", "new", "repeat", "repeat", "simulate"] + ["compile", "profile"] * 4
COMBOS = [(name, cores) for name in common.SERVE_PROGRAMS for cores in common.SERVE_CORES]
_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


class Daemon:
    """One ``repro serve`` process and the client connected to it."""

    def __init__(self):
        from repro.serve import ServeClient

        env = dict(os.environ)
        env["PYTHONPATH"] = common.SRC_DIR
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=common.ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.log = []
        match = None
        for line in self.process.stderr:
            self.log.append(line)
            match = _LISTENING.search(line)
            if match:
                break
        if match is None:
            self.process.wait()
            raise RuntimeError("repro serve exited before listening: " + "".join(self.log))
        # Drain the rest of stderr so the daemon never blocks on it.
        threading.Thread(target=self.log.extend, args=(self.process.stderr,), daemon=True).start()
        self.client = ServeClient(match.group(1), int(match.group(2)))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self) -> None:
        try:
            self.client.call("shutdown")
            self.client.close()
            self.process.wait(timeout=30)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()


def setup():
    daemon = Daemon()
    try:
        profiles = {}
        for name in common.SERVE_PROGRAMS:
            params = common.program_params(name)
            daemon.client.call("compile", **params)
            profiles[name] = daemon.client.call("profile", **params)["result"]
        # Warm-up: the daemon's first simulation pays for lazy imports.
        params = common.program_params("Keyword")
        tasks = daemon.client.call("compile", **params)["result"]["tasks"]
        params.update(cores=1, layout={task: [0] for task in tasks})
        daemon.client.call("simulate", **params)
    except BaseException:
        daemon.close()
        raise
    return {"daemon": daemon, "profiles": profiles}


def teardown(state) -> None:
    state["daemon"].close()


class _Walk:
    """Cycles through seeded permutations of ``items``, so every item
    comes up equally often whatever the seed."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.left = []

    def next(self):
        if not self.left:
            self.left = self.rng.sample(self.items, len(self.items))
        return self.left.pop()


def plan(seed: int, count: int):
    """The seeded request sequence: ``(op, key)`` pairs, where a key is
    ``(program, cores, anneal seed)`` for synthesize/simulate and a
    program name for compile/profile."""
    rng = random.Random(seed)
    unused = {combo: rng.sample(common.SERVE_SEED_POOL, len(common.SERVE_SEED_POOL)) for combo in COMBOS}
    walks = {kind: _Walk(rng, COMBOS) for kind in ("new", "repeat", "simulate")}
    programs = {kind: _Walk(rng, common.SERVE_PROGRAMS) for kind in ("compile", "profile")}
    sent = {combo: [] for combo in COMBOS}
    requests = []
    while len(requests) < count:
        kinds = list(ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind in programs:
                requests.append((kind, programs[kind].next()))
                continue
            combo = walks[kind].next()
            if kind == "new" and unused[combo]:
                sent[combo].append(combo + (unused[combo].pop(),))
                requests.append(("synthesize", sent[combo][-1]))
            elif sent[combo]:
                op = "simulate" if kind == "simulate" else "synthesize"
                requests.append((op, rng.choice(sent[combo])))
    return requests[:count]


def _params(op: str, key, responses):
    if op in ("compile", "profile"):
        return common.program_params(key)
    name, cores, seed = key
    if op == "synthesize":
        return common.serve_params(name, cores, seed)
    result = responses[key]
    params = common.program_params(name)
    params.update(cores=cores, mesh_width=result["mesh_width"], layout=result["layout"])
    return params


def measure(state, seed: int, seconds: float, tracer) -> Measurement:
    m = Measurement()
    daemon = state["daemon"]
    client = daemon.client
    responses = {}  # synthesize key -> first result
    answered = []  # (op, key, params, result) of every reply
    server_ms = []
    overhead_ms = []
    hits = evaluations = 0
    # Untimed: one search per (program, cores) pair with a seed outside
    # the pool, so no request in the window meets a cold context cache.
    # The first miss of each pair would otherwise make the tail depend on
    # which key the seed happens to send first.
    with paused(tracer):
        for name, cores in COMBOS:
            client.call("synthesize", **common.serve_params(name, cores, WARM_SEED))
    paused_s = 0.0
    started = time.perf_counter()
    for index, (op, key) in enumerate(plan(seed, round(seconds * REQUESTS_PER_SECOND))):
        if index % CALIBRATE_EVERY == 0:
            pause = time.perf_counter()
            m.calibrate()
            paused_s += time.perf_counter() - pause
        if op == "simulate" and key not in responses:
            continue  # the layout it names was never returned
        params = _params(op, key, responses)
        m.attempted += 1
        try:
            reply, spent = timed(clock, tracer, client.call, op, **params)
        except Exception as exc:  # refused or broken: a failed request
            m.fail(f"{op} {key}: {exc!r}")
            continue
        m.latencies.append(spent)
        telemetry = reply.get("telemetry", {})
        server_ms.append(1000 * telemetry.get("wall_seconds", 0.0))
        overhead_ms.append(1000 * spent - server_ms[-1])
        if op == "synthesize":
            hits += telemetry.get("cache_hits", 0)
            evaluations += telemetry.get("evaluations", 0)
            if key in responses and reply["result"] != responses[key]:
                m.fail(f"repeated {key} answered differently")
            responses.setdefault(key, reply["result"])
        answered.append((op, key, params, reply["result"]))
    window = time.perf_counter() - started - paused_s
    m.per_s = len(m.latencies) / window

    with paused(tracer):
        metrics = client.call("metrics")["result"]
    counters = metrics.get("counters", {})
    memo = metrics.get("memo", {})
    m.extra_rss_mb = daemon.peak_rss_mb()
    m.add("serve.server_ms", statistics.median(server_ms or [0.0]))
    m.add("serve.overhead_ms", statistics.median(overhead_ms or [0.0]))
    m.add("serve.cache_hit_ratio", hits / max(hits + evaluations, 1))
    m.add("serve.coalesced", counters.get("serve_coalesced", 0))
    m.add("serve.rejected", counters.get("serve_shed", 0))
    m.add("serve.memo_hits", memo.get("compile_hits", 0) + memo.get("profile_hits", 0))
    m.add("search.requested", hits + evaluations)
    m.add("search.evaluations", evaluations)
    m.add("search.cache_hits", hits)
    with paused(tracer):
        _check(m, state, answered)
    return m


def _check(m: Measurement, state, answered) -> None:
    """Compares replies with the offline ``execute_*`` results for the
    same parameters, and runs one served layout per (program, cores)
    pair on the machine against the golden data."""
    from repro.core import api
    from repro.schedule.layout import Layout
    from repro.serve.service import (
        ProgramMemo,
        ProgramSpec,
        execute_compile,
        execute_profile,
        execute_simulate,
        execute_synthesize,
    )

    golden = common.load_data("serve.json")["programs"]
    memo = ProgramMemo()
    offline = {
        "compile": lambda params: execute_compile(params, memo=memo)[0],
        "profile": lambda params: execute_profile(params, memo=memo)[0],
        "simulate": lambda params: execute_simulate(params, memo=memo)[0],
        "synthesize": lambda params: execute_synthesize(params, memo=memo)[0],
    }
    checked = set()
    sampled = {}
    for op, key, params, result in answered:
        if op == "synthesize":
            name, cores, seed = key
            expected = golden[name]["synthesize"][f"{cores}/{seed}"]
            if common.result_digest(result) != expected["result_sha256"]:
                m.add("serve.result_diffs")
            if key in checked:
                continue  # repeats were compared with the first reply
            checked.add(key)
            if (name, cores) in sampled:
                continue  # one offline search per (program, cores) pair
            sampled[name, cores] = (key, result, expected)
        elif op == "profile":
            if common.result_digest(result) != golden[key]["profile_sha256"]:
                m.add("serve.result_diffs")
        if json.loads(json.dumps(offline[op](params))) != result:
            m.fail(f"{op} {key}: reply differs from the offline result")

    gc.collect()
    args = {name: common.program_params(name)["args"] for name in common.SERVE_PROGRAMS}
    runs = {}
    for _ in range(CHECK_PASSES):
        checking = 0.0
        for (name, cores), (key, result, expected) in sorted(sampled.items()):
            compiled = memo.compiled(ProgramSpec.parse(common.program_params(name)))
            layout = Layout.make(cores, result["layout"], mesh_width=result["mesh_width"])
            m.calibrate()
            run, spent = timed(time.process_time, None, api.run_layout, compiled, layout, args[name])
            checking += spent
            runs[name, cores] = run
        m.passes.append(checking)
    m.calibrate()
    for (name, cores), (key, result, expected) in sorted(sampled.items()):
        run = runs[name, cores]
        if common.digest(run.stdout) != golden[name]["stdout_sha256"]:
            m.fail(f"{key}: machine stdout differs from golden")
            continue
        if run.total_cycles != expected["machine_cycles"]:
            m.add("runtime.machine.cycle_diffs")
        m.speedups.append(state["profiles"][name]["run_cycles"] / run.total_cycles)
        m.est_errors.append(abs(result["estimated_cycles"] / run.total_cycles - 1))

