"""Per-layer spans recorded from outside the program.

The benchmark wraps the public entry points of each layer of ``repro``
(listed in :func:`install`) with a span recorder. Spans nest:
a span's *self* time is its duration minus the time of the spans it
caused, so the self times of every layer under one operation, plus the
operation's own remainder (``unattributed``), add up to the operation's
time. Nothing is wrapped unless :func:`install` is called, so untraced
runs execute the program's functions unmodified.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

#: the root span of one benchmark operation
OP = "op"


class Tracer:
    """Aggregates spans per layer as they close (kept in memory)."""

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.enabled = False
        #: open spans: [layer, start, time covered by child spans, absorbs]
        self._stack: List[list] = []
        #: per layer: time of its outermost spans (children included)
        self.busy: Dict[str, float] = defaultdict(float)
        #: per layer: span time minus the time of spans it caused
        self.self_time: Dict[str, float] = defaultdict(float)
        #: per layer: outermost spans opened
        self.calls: Counter = Counter()
        #: work counts recorded at the same boundaries
        self.counts: Counter = Counter()

    def begin(self, layer: str, absorbs: bool = False) -> bool:
        """Opens a span; returns False (and opens nothing) when the call
        is nested in a span of the same layer or in an absorbing one."""
        stack = self._stack
        if stack and (stack[-1][0] == layer or stack[-1][3]):
            return False
        stack.append([layer, self.clock(), 0.0, absorbs])
        return True

    def end(self) -> float:
        layer, start, children, _ = self._stack.pop()
        duration = self.clock() - start
        self.busy[layer] += duration
        self.self_time[layer] += duration - children
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def take(self) -> dict:
        """Returns the aggregates so far and starts new ones."""
        taken = {
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        self.busy.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        return taken

    def span(self, layer: str, call, *args, **kwargs):
        """Runs ``call`` inside a span of ``layer`` (always opened)."""
        self._stack.append([layer, self.clock(), 0.0, False])
        try:
            return call(*args, **kwargs)
        finally:
            self.end()


def _wrap(tracer: Tracer, function, layer: str, on_result, absorbs: bool):
    """``on_result(args, result, state)`` records counts after the call;
    ``state`` is what ``on_result.before(args)`` returned, if defined."""
    before = getattr(on_result, "before", None)

    def traced(*args, **kwargs):
        if not tracer.enabled or not tracer.begin(layer, absorbs):
            return function(*args, **kwargs)
        try:
            state = before(args) if before else None
            result = function(*args, **kwargs)
            if on_result is not None:
                on_result(args, result, state)
            return result
        finally:
            tracer.end()

    traced.__wrapped__ = function
    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wraps every layer entry point; returns a function undoing it."""
    from repro.analysis.cstg import CSTG
    from repro.core import api, pipeline
    from repro.runtime.interp import Interpreter
    from repro.runtime.machine import ManyCoreMachine
    from repro.schedule import anneal, simulator
    from repro.schedule.anneal import DirectedSimulatedAnnealing
    from repro.search.cache import SimCache
    from repro.serve.client import ServeClient

    counts = tracer.counts

    def on_tokens(args, result, state):
        counts["lang.tokens"] += len(result)

    def on_lower(args, result, state):
        counts["ir.instructions"] += sum(
            len(block.instructions)
            for functions in (result.tasks, result.methods)
            for function in functions.values()
            for block in function.blocks
        )

    def on_cstg(args, result, state):
        counts["analysis.cstg_nodes"] += len(result.nodes)

    def on_interp(args, result, state):
        counts["runtime.interp.steps"] += getattr(args[0], "steps", 0) - state

    on_interp.before = lambda args: getattr(args[0], "steps", 0)

    def on_machine(args, result, state):
        counts["runtime.machine.invocations"] += sum(result.invocations.values())
        counts["runtime.machine.messages"] += result.messages
        counts["runtime.machine.lock_failures"] += result.lock_failures
        counts["runtime.machine.stale_invocations"] += result.stale_invocations
        counts["runtime.machine.sim_cycles"] += result.total_cycles

    def on_simulate(args, result, state):
        counts["schedule.simulator.trace_events"] += len(result.trace)
        counts["schedule.simulator.pruned"] += int(bool(result.pruned))

    def on_anneal(args, result, state):
        counts["schedule.anneal.iterations"] += result.iterations

    targets = [
        # (owner, attribute, layer, on_result, absorbs)
        (api, "tokenize", "lang", on_tokens, False),
        (api.Parser, "parse_program", "lang", None, False),
        (api, "analyze", "sema", None, False),
        (api, "lower_program", "ir", on_lower, False),
        (api, "verify_program", "ir", None, False),
        (api, "build_all_astgs", "analysis", None, False),
        (CSTG, "build", "analysis", on_cstg, False),
        (api, "analyze_disjointness", "analysis", None, False),
        (api, "build_lock_plan", "analysis", None, False),
        (Interpreter, "run_task", "runtime.interp", on_interp, False),
        (Interpreter, "run_method", "runtime.interp", on_interp, False),
        (ManyCoreMachine, "run", "runtime.machine", on_machine, False),
        (api, "profile_program", "runtime.profiler", None, False),
        (simulator, "simulate", "schedule.simulator", on_simulate, False),
        (simulator.SimSession, "simulate", "schedule.simulator", on_simulate, False),
        (anneal, "compute_critical_path", "schedule.critpath", None, False),
        (DirectedSimulatedAnnealing, "run", "schedule.anneal", on_anneal, False),
        (pipeline, "annotated_cstg", "schedule.prep", None, True),
        (pipeline, "build_group_graph", "schedule.prep", None, True),
        (pipeline, "suggest_replicas", "schedule.prep", None, True),
        (SimCache, "get", "search.cache", None, False),
        (SimCache, "put", "search.cache", None, False),
        (ServeClient, "call", "serve", None, False),
    ]
    undo = []
    for owner, name, layer, on_result, absorbs in targets:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        function = raw.__func__ if isinstance(raw, staticmethod) else raw
        traced = _wrap(tracer, function, layer, on_result, absorbs)
        setattr(owner, name, staticmethod(traced) if isinstance(raw, staticmethod) else traced)
        undo.append((owner, name, raw))
    tracer.enabled = True

    def uninstall() -> None:
        tracer.enabled = False
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)

    return uninstall
