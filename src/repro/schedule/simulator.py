"""High-level scheduling simulator (paper §4.4).

Estimates how long a candidate layout will take to execute **without running
any application code**: task durations, exit choices, and allocation counts
all come from the profile's Markov model. The simulator mirrors the real
runtime's structure — per-core parameter sets, FIFO invocation formation,
round-robin/tag-hash routing, mesh transfer latencies — but moves abstract
objects that carry only an id of their (class, abstract state) pair in the
program's finite state model.

Exit selection follows the paper's count-matching policy: the simulator
keeps a count per destination and picks the exit minimizing the difference
between observed and profile-predicted frequencies (optionally per object,
via developer hints). Task execution time is the profiled average for the
chosen exit; fractional expected allocation counts accumulate so long runs
emit the right totals.

The simulated execution also produces the trace that the critical path
analysis (§4.5.1) consumes.

Entry points
------------

* :func:`simulate` — simulate one layout once (the facade).
* :class:`SimSession` — a reusable session that shares per-program lookup
  tables across simulations of one (program, profile) pair; every
  simulation is a full run from the startup object.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns as _perf_counter_ns
from typing import Dict, List, NamedTuple, Optional, Tuple

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import CompiledProgram

from ..analysis.astate import AState
from ..ir import costs
from ..lang.errors import ScheduleError
from ..obs import prof
from ..runtime.profiler import ProfileData

# Internal wall-clock buckets, flushed to the active profiler at the end of
# one run() (see ROADMAP item 1: "where does the simulator spend its
# time?"). With no profiler installed the per-event instrumentation is a
# single ``None`` check and the buckets never exist.
_P_SIM_QUEUE = prof.intern_phase("sim.queue")
_P_SIM_ARRIVE = prof.intern_phase("sim.arrive")
_P_SIM_DISPATCH = prof.intern_phase("sim.dispatch")
_P_SIM_MAIL = prof.intern_phase("sim.mail")
_P_SIM_FORM = prof.intern_phase("sim.form")
_C_SIM_EVENTS = prof.intern_phase("sim.events_processed")
_C_SIM_INVOCATIONS = prof.intern_phase("sim.invocations")

#: one event in this many is wall-clock-timed end-to-end by the profiled
#: drain loop; counts stay exact, times are scaled at flush
_SAMPLE_EVERY = 16

_BUCKET_KEYS = {
    "queue": _P_SIM_QUEUE,
    "arrive": _P_SIM_ARRIVE,
    "dispatch": _P_SIM_DISPATCH,
    "mail": _P_SIM_MAIL,
    "form": _P_SIM_FORM,
}
from ..schedule.layout import (
    Layout,
    common_tag_binding,
    core_speed,
    match_consumers,
    pick_replica,
    scale_duration,
)
from ..sema import builtins


#: Nominal duration charged to simulated invocations of tasks the profile
#: never observed (see _SimEngine._dispatch).
UNPROFILED_TASK_CYCLES = 200

_INIT = costs.RUNTIME_INIT_COST
_ENQUEUE = costs.ENQUEUE_COST
_MSG_SEND = costs.MSG_SEND_COST
_HOP = costs.HOP_COST
_MSG_WORD = costs.MSG_WORD_COST

#: the (class, state) of the object every simulation starts from
_STARTUP = (builtins.STARTUP_CLASS, AState.make([builtins.STARTUP_FLAG]))


class SimObject:
    """An abstract object: identity, state id, optional tag key.

    ``sid`` indexes :attr:`_ProgramTables.states`, the program's finite
    set of reachable (class, abstract state) pairs.
    """

    __slots__ = ("obj_id", "sid", "tag_key")

    def __init__(self, obj_id: int, sid: int, tag_key: Optional[int] = None):
        self.obj_id = obj_id
        self.sid = sid
        self.tag_key = tag_key


class TraceEvent(NamedTuple):
    """One simulated task invocation (a node pair in the Fig. 6 graph).

    An immutable record, built once when the invocation is dispatched.
    """

    event_id: int
    task: str
    core: int
    start: int
    end: int
    exit_id: int
    data_ready: int
    param_objects: Tuple[int, ...] = ()
    #: per parameter: (producer event id, transfer latency paid)
    inputs: Tuple[Tuple[Optional[int], int], ...] = ()
    produced: Tuple[int, ...] = ()

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class SimResult:
    """Outcome of one scheduling simulation."""

    total_cycles: int
    finished: bool
    trace: List[TraceEvent]
    core_busy: Dict[int, int]
    invocations: Dict[str, int]
    #: fraction of core-time spent busy — the paper's fallback metric for
    #: profiles that do not terminate
    utilization: float
    #: the run stopped at an early cutoff: ``total_cycles`` is a *lower
    #: bound* on the true makespan, sufficient to rank the layout worse
    #: than the incumbent that set the cutoff
    pruned: bool = False

    def events_on_core(self, core: int) -> List[TraceEvent]:
        return sorted(
            (e for e in self.trace if e.core == core), key=lambda e: e.start
        )


class ExitChooser:
    """Count-matching exit selection (deterministic low-discrepancy draw).

    ``policy`` selects the realization of the paper's count-matching rule:
    ``"sequence"`` (default) replays the profiled exit order, which keeps
    simulated counts exactly equal to predicted counts at every prefix;
    ``"counts"`` uses only the aggregate per-exit counts (quota matching
    with a proportional fallback) — the ablation baseline.
    """

    def __init__(
        self,
        profile: ProfileData,
        hints: Optional[Dict[str, str]] = None,
        policy: str = "sequence",
    ):
        self.profile = profile
        self.hints = hints or {}
        self.policy = policy
        self._taken: Dict[Tuple, int] = {}
        self._total: Dict[Tuple, int] = {}
        #: per-task lookups the hot path would otherwise recompute per call
        self._exit_ids: Dict[str, List[int]] = {}
        self._sequences: Dict[str, List[int]] = {}

    def _exits(self, task: str) -> List[int]:
        exits = self._exit_ids.get(task)
        if exits is None:
            exits = self.profile.exit_ids(task)
            self._exit_ids[task] = exits
        return exits

    def choose(self, task: str, obj_key: Optional[int]) -> int:
        exits = self._exits(task)
        if not exits:
            return 0
        if len(exits) == 1:
            return exits[0]
        scope: Tuple
        per_object = self.hints.get(task) == "per_object" and obj_key is not None
        if per_object:
            scope = (task, obj_key)
        else:
            scope = (task,)
        n = self._total.get(scope, 0)
        if not per_object and self.policy == "sequence":
            # Replay the profiled exit order while it lasts: this keeps the
            # simulated counts exactly equal to the counts predicted by the
            # recorded statistics at every prefix — the optimum of the
            # paper's count-matching criterion (it also reproduces periodic
            # behaviour like "every 62nd invocation ends a round").
            sequence = self._sequences.get(task)
            if sequence is None:
                sequence = self.profile.exit_sequence(task)
                self._sequences[task] = sequence
            if n < len(sequence):
                chosen = sequence[n]
                self._total[scope] = n + 1
                key = scope + (chosen,)
                self._taken[key] = self._taken.get(key, 0) + 1
                return chosen
        best_exit = exits[0]
        best_score = (float("-inf"), float("-inf"))
        for exit_id in exits:
            prob = self.profile.exit_probability(task, exit_id)
            taken = self._taken.get(scope + (exit_id,), 0)
            # Primary criterion: remaining quota against the profile's
            # absolute counts ("minimize the difference between these
            # counts and the counts predicted by the recorded statistics").
            # When every quota is spent (the simulated run is longer than
            # the profiled one), fall back to proportional matching; ties
            # resolve toward the more probable exit.
            proportional = prob * (n + 1) - taken
            if per_object:
                # Per-object counters have no meaningful absolute quota.
                score = (proportional, prob)
            else:
                quota = self.profile.exit_count(task, exit_id) - taken
                score = (quota if quota > 0 else proportional - 1e9, prob)
            if score > best_score:
                best_score = score
                best_exit = exit_id
        self._total[scope] = n + 1
        key = scope + (best_exit,)
        self._taken[key] = self._taken.get(key, 0) + 1
        return best_exit


# -- the program's state model ------------------------------------------------


class _ExitInfo:
    """What one task exit does, resolved once per program."""

    __slots__ = ("duration", "spec", "moves", "allocs")

    def __init__(self, duration: int, spec, nparams: int, allocs: tuple):
        #: cycles on a baseline-speed core
        self.duration = duration
        #: the IR exit spec, or None when the task has no such exit
        self.spec = spec
        #: per parameter, indexed by the parameter object's sid: its
        #: ``(sid, tag_mode)`` after the exit, where tag_mode 0 leaves
        #: tag_key alone, 1 sets it to the invocation's event id and 2
        #: clears it (the last tag removal zeroed the count); None for a
        #: state the parameter's guard rejects. The state closure fills
        #: one dict per parameter, then freezes them into lists.
        self.moves: tuple = tuple({} for _ in range(nparams))
        #: (carry index, expected count, sid, tagged) per alloc site
        self.allocs = allocs


class _TaskRec:
    """Per-task lookups resolved once and shared across simulations."""

    __slots__ = ("name", "nparams", "func", "has_exits", "fallback_exit",
                 "tag_match", "exits", "accepts")

    def __init__(self, compiled: "CompiledProgram", profile: ProfileData,
                 task: str):
        decl = compiled.info.task_info(task).decl
        self.name = task
        self.nparams = len(decl.params)
        self.func = compiled.ir_program.tasks[task]
        self.has_exits = bool(profile.exit_ids(task))
        # The profiled run never invoked this task (e.g. it lost every
        # race for its objects). Fall back to the static exit table — the
        # lowest explicit exit — so the simulated object still transitions.
        self.fallback_exit = min(
            (e for e in self.func.exits if e != 0), default=0
        )
        #: the parameters share a tag binding, so an invocation forms only
        #: from objects carrying one and the same tag key
        self.tag_match = common_tag_binding(decl) is not None
        #: exit id -> _ExitInfo, for every exit the simulation can choose;
        #: None until the state closure reaches the task
        self.exits: Optional[Dict[int, _ExitInfo]] = None
        #: per parameter, indexed by sid: whether the parameter's guard
        #: accepts objects in that state
        self.accepts: tuple = ()


def _transition(spec, param_index: int, state: AState) -> Tuple[AState, int]:
    """Replays one exit's flag/tag actions for one parameter: the state
    after the exit and the tag mode of :attr:`_ExitInfo.moves`."""
    if spec is None:
        return state, 0
    updates = spec.flag_updates.get(param_index)
    if updates:
        state = state.with_flags(updates)
    mode = 0
    for action in spec.tag_updates.get(param_index, ()):
        if action.op == "add":
            state = state.with_tag_delta(action.tag_type, 1)
            # Tag this object with the invocation's key so it pairs (via
            # tag hashing) with objects the same invocation allocated.
            mode = 1
        else:
            state = state.with_tag_delta(action.tag_type, -1)
            if state.tag_count(action.tag_type) == 0:
                mode = 2
    return state, mode


class _HopCosts(dict):
    """sender -> per-destination hop cycles, one row built per sender on
    first use (a 62-core layout has 3844 pairs; a search touches few)."""

    __slots__ = ("_layout",)

    def __init__(self, layout: Layout):
        super().__init__()
        self._layout = layout

    def __missing__(self, sender: int) -> List[int]:
        hops = self._layout.hops
        row = [
            hops(sender, dest) * _HOP
            for dest in range(self._layout.num_cores)
        ]
        self[sender] = row
        return row


class _ProgramTables:
    """The program's finite state model, plus layout-independent lookup
    tables shared by every simulation of one (program, profile) pair —
    the memo a :class:`SimSession` keeps warm across candidates.

    Every (class, abstract state) pair a simulated object can occupy is
    interned once, as a dense *state id* (sid): the closure from the
    startup object over consumer matches, the transitions of every exit
    a consumer can take, and those exits' allocation sites. Guards,
    transitions, consumer matches and allocation targets become lists
    indexed by sid, so the event loop never hashes an :class:`AState`.
    States are numbered in discovery order over ``match_consumers``
    (task-name order), sorted exit ids and sorted allocation sites, so
    the numbering does not depend on hash order.

    Everything here is a pure function of the program, profile and
    interconnect shape, so sharing the tables cannot change results.
    """

    __slots__ = ("compiled", "profile", "recs", "states", "consumers",
                 "remote", "carry_count", "_sids", "_hop_costs")

    def __init__(self, compiled: "CompiledProgram", profile: ProfileData):
        self.compiled = compiled
        self.profile = profile
        info = compiled.info
        self.recs: Dict[str, _TaskRec] = {
            task: _TaskRec(compiled, profile, task)
            for task in sorted(info.tasks)
        }
        #: sid -> (class, state)
        self.states: List[Tuple[str, AState]] = []
        self._sids: Dict[Tuple[str, AState], int] = {}
        #: alloc sites numbered so far (each owns one carry slot)
        self.carry_count = 0
        self._intern(*_STARTUP)
        #: sid -> consuming (task, param_index) pairs
        self.consumers: List[Tuple[Tuple[str, int], ...]] = []
        sid = 0
        while sid < len(self.states):
            class_name, state = self.states[sid]
            found = tuple(match_consumers(info, class_name, state))
            self.consumers.append(found)
            for task, param_index in found:
                rec = self.recs[task]
                if rec.exits is None:
                    rec.exits = self._resolve_exits(rec)
                for exit_info in rec.exits.values():
                    after, mode = _transition(
                        exit_info.spec, param_index, state
                    )
                    exit_info.moves[param_index][sid] = (
                        self._intern(class_name, after), mode
                    )
            sid += 1
        count = len(self.states)
        for rec in self.recs.values():
            rec.accepts = tuple(
                [(rec.name, param_index) in found for found in self.consumers]
                for param_index in range(rec.nparams)
            )
            for exit_info in (rec.exits or {}).values():
                exit_info.moves = tuple(
                    [moves.get(sid) for sid in range(count)]
                    for moves in exit_info.moves
                )
        #: sid -> remote message latency before hops
        self.remote: List[int] = [
            _MSG_SEND + _MSG_WORD * len(info.class_info(class_name).fields)
            + _ENQUEUE
            for class_name, _ in self.states
        ]
        #: (topology, mesh width, cores) -> _HopCosts
        self._hop_costs: Dict[Tuple[str, int, int], _HopCosts] = {}

    def _intern(self, class_name: str, state: AState) -> int:
        key = (class_name, state)
        sid = self._sids.get(key)
        if sid is None:
            sid = self._sids[key] = len(self.states)
            self.states.append(key)
        return sid

    def state_id(self, class_name: str, state: AState) -> int:
        """The sid of ``state`` for objects of ``class_name``; a state no
        simulated object can reach is a :class:`ScheduleError`."""
        sid = self._sids.get((class_name, state))
        if sid is None:
            raise ScheduleError(
                f"state {class_name}:{state} is outside the program's "
                "simulated state model"
            )
        return sid

    def _resolve_exits(self, rec: _TaskRec) -> Dict[int, _ExitInfo]:
        """Every exit ``rec``'s task can take in a simulation: the profiled
        ones (the exit ids and the recorded exit sequence), or
        ``rec.fallback_exit`` for a task the profile never saw run."""
        profile = self.profile
        if rec.has_exits:
            exit_ids = sorted(
                set(profile.exit_ids(rec.name)).union(
                    profile.exit_sequence(rec.name)
                )
            )
        else:
            exit_ids = [rec.fallback_exit]
        exits = {}
        for exit_id in exit_ids:
            if rec.has_exits:
                duration = max(
                    1, int(round(profile.avg_cycles(rec.name, exit_id)))
                )
            else:
                duration = UNPROFILED_TASK_CYCLES
            exits[exit_id] = _ExitInfo(
                duration,
                rec.func.exits.get(exit_id),
                rec.nparams,
                self._alloc_plan(rec.name, exit_id),
            )
        return exits

    def _alloc_plan(self, task: str, exit_id: int) -> tuple:
        entries = []
        for site_id, avg in sorted(
            self.profile.avg_allocs(task, exit_id).items()
        ):
            site = self.compiled.ir_program.alloc_sites.get(site_id)
            if site is None:
                continue
            flags = [f for f, v in site.flag_inits.items() if v]
            tags = {t: 1 for t in site.tag_types}
            entries.append((
                self.carry_count,
                avg,
                self._intern(site.class_name, AState.make(flags, tags)),
                bool(site.tag_types),
            ))
            self.carry_count += 1
        return tuple(entries)

    def hop_costs(self, layout: Layout) -> _HopCosts:
        key = (layout.topology, layout.mesh_width, layout.num_cores)
        rows = self._hop_costs.get(key)
        if rows is None:
            rows = _HopCosts(layout)
            self._hop_costs[key] = rows
        return rows


# -- the engine ----------------------------------------------------------------


class _Slot:
    """One task instance: the task's parameter sets on one core."""

    __slots__ = ("core", "rec", "sets", "ready")

    def __init__(self, core: int, rec: _TaskRec, ready: deque):
        self.core = core
        self.rec = rec
        #: per parameter: the FIFO of queue entries awaiting a partner
        self.sets = [deque() for _ in range(rec.nparams)]
        #: the core's ready queue (shared by every slot on the core)
        self.ready = ready


class _Placement:
    """Where one task's instances live in a layout, and each sender's
    round-robin position over them."""

    __slots__ = ("cores", "slots", "tag_hash", "rr")

    def __init__(self, cores: Tuple[int, ...], slots: Tuple[_Slot, ...],
                 tag_hash: bool):
        self.cores = cores
        self.slots = slots
        #: a multi-parameter (hence tag-guarded) task hashes tagged objects
        self.tag_hash = tag_hash
        #: sender core -> next round-robin index
        self.rr: Dict[int, int] = {}


def _pop_tag_matched(sets: List[deque]) -> Optional[list]:
    """Removes and returns the first combination, in parameter-major FIFO
    order, whose entries all carry one non-None tag key; None if none."""
    rest = sets[1:]
    for first_index, first in enumerate(sets[0]):
        key = first[0].tag_key
        if key is None:
            continue
        combo = [first]
        picked = [first_index]
        for bucket in rest:
            for index, entry in enumerate(bucket):
                if entry[0].tag_key == key:
                    combo.append(entry)
                    picked.append(index)
                    break
            else:
                break
        else:
            for bucket, index in zip(sets, picked):
                del bucket[index]
            return combo
    return None


class _SimEngine:
    """One discrete-event simulation of one layout.

    Heap events are 5-tuples whose ``(time, seq)`` prefix is unique, so
    the payload never takes part in heap comparisons:

    * an arrival ``(time, seq, slot, param_index, entry)`` delivers a
      queue entry ``(obj, arrived_at, producer_event)`` to one parameter
      set of one task instance (a :class:`_Slot`);
    * a kick ``(time, seq, None, core, others)`` asks ``core`` and then,
      in order, the cores of the ``others`` list (or None) to dispatch.

    A dispatch ending at ``end`` kicks its own core and every other core
    that has ready work and is idle by ``end``. One heap entry per kicked
    core, pushed back to back, would carry consecutive ``seq`` numbers
    at one time; every later push gets a larger ``seq`` and no push goes
    back in time, so nothing could pop between them, and one entry
    listing them all pops in exactly the same place
    (``tests/sim_reference.py`` keeps the unbatched engine as an
    oracle). ``max_events`` still counts each kicked core as one event.

    ``_route``/``_try_form`` are instance attributes aliasing the
    implementations; the profiled drain rebinds them to counting wrappers
    for its duration, which keeps the "am I being profiled?" branch out
    of the unobserved hot path.
    """

    def __init__(
        self,
        compiled: "CompiledProgram",
        layout: Layout,
        profile: ProfileData,
        hints: Optional[Dict[str, str]] = None,
        max_events: int = 2_000_000,
        exit_policy: str = "sequence",
        core_speeds: Optional[Dict[int, float]] = None,
        cutoff: Optional[int] = None,
        tables: Optional[_ProgramTables] = None,
        observe: Optional[bool] = None,
    ):
        layout.validate(compiled.info)
        self.compiled = compiled
        self.info = compiled.info
        self.layout = layout
        self.profile = profile
        self.max_events = max_events
        self.exit_policy = exit_policy
        self.core_speeds = core_speeds
        self.cutoff = cutoff
        self._observe = observe
        self.tables = tables = (
            tables
            if tables is not None
            else _ProgramTables(compiled, profile)
        )
        self.chooser = ExitChooser(profile, hints, exit_policy)
        core_list = layout.cores_used()

        self._events: List[tuple] = []
        self._seq = 0
        self._next_obj_id = 0
        self._next_event_id = 0
        self.busy_until: Dict[int, int] = {core: _INIT for core in core_list}
        self.core_busy: Dict[int, int] = {core: 0 for core in core_list}
        #: per core: FIFO of formed invocations, (slot, [entry, ...])
        self.ready: Dict[int, deque] = {core: deque() for core in core_list}
        #: the cores whose ready queue is non-empty
        self._waiting: set = set()
        placements: Dict[str, _Placement] = {}
        for task, cores in layout.instances:
            rec = tables.recs[task]
            placements[task] = _Placement(
                cores,
                tuple(_Slot(core, rec, self.ready[core]) for core in cores),
                rec.nparams > 1,
            )
        #: sid -> (remote latency before hops, ((placement, param_index), ...))
        self._plans: List[tuple] = [
            (remote, tuple(
                (placements[task], param_index) for task, param_index in found
            ))
            for remote, found in zip(tables.remote, tables.consumers)
        ]
        self._hop_costs = tables.hop_costs(layout)
        #: carry index -> fractional allocations not yet emitted
        self._alloc_carry: List[float] = [0.0] * tables.carry_count
        self.trace: List[TraceEvent] = []
        self.invocations: Dict[str, int] = {}

        #: hot-path aliases; the profiled drain temporarily rebinds these
        #: to the counting wrappers
        self._route = self._route_impl
        self._try_form = self._try_form_impl

        #: wall-clock bucket accounting (see _drain_profiled). ``_timing``
        #: is True only inside a sampled event, where the counting
        #: wrappers also read the clock.
        self._timing = False
        self._mail_ns = 0
        self._form_ns = 0
        self._mail_n = 0
        self._form_n = 0
        self._mail_k = 0
        self._form_k = 0

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SimResult:
        profiler = None if self._observe is False else prof.active()

        startup = SimObject(self._next_obj_id, self.tables.state_id(*_STARTUP))
        self._next_obj_id += 1
        self._route(startup, None, _INIT, None)

        if profiler is None:
            finished, pruned, last_time = self._drain()
        else:
            finished, pruned, last_time = self._drain_profiled(profiler)

        total = max([last_time] + list(self.busy_until.values()))
        busy_time = sum(self.core_busy.values())
        cores = max(1, len(self.core_busy))
        utilization = busy_time / (cores * total) if total else 0.0
        return SimResult(
            total_cycles=total,
            finished=finished,
            trace=self.trace,
            core_busy=dict(self.core_busy),
            invocations=dict(self.invocations),
            utilization=utilization,
            pruned=pruned,
        )

    def _drain(self) -> Tuple[bool, bool, int]:
        """The event loop, unobserved: the simulator's hot path."""
        events = self._events
        pop = heapq.heappop
        push = heapq.heappush
        cutoff = self.cutoff
        max_events = self.max_events
        busy_until = self.busy_until
        kick = self._kick
        try_form = self._try_form
        processed = 0
        pruned = False
        # Event times are nondecreasing (pushes never go backwards), so
        # tracking the last popped time needs no max().
        last_time = _INIT
        while events:
            processed += 1
            if processed > max_events:
                break
            time, _, slot, a, b = pop(events)
            if cutoff is not None and time > cutoff:
                # Every remaining event is at or past this one, so the true
                # makespan exceeds the cutoff — the incumbent already wins.
                pruned = True
                last_time = time
                break
            last_time = time
            if slot is None:  # kick a, then the cores listed in b
                processed = kick(a, b, time, processed)
            else:  # entry b arrives for parameter a of slot
                core = slot.core
                slot.sets[a].append(b)
                try_form(slot)
                if busy_until[core] <= time and slot.ready:
                    self._seq = s = self._seq + 1
                    push(events, (time, s, None, core, None))
        return processed <= max_events, pruned, last_time

    def _drain_profiled(self, profiler) -> Tuple[bool, bool, int]:
        """The event loop with sampled per-bucket wall accounting.

        Same event-for-event behavior as :meth:`_drain` — the results
        are bit-identical either way; only wall clocks are read in
        addition. Reading the clock around every one of the millions of
        loop iterations would cost more than the work being measured
        (~150ns per ``perf_counter_ns`` here), so one heap pop in
        :data:`_SAMPLE_EVERY` is timed end-to-end: its pop goes to the
        ``queue`` bucket, its handler to ``arrive``/``dispatch`` (one kick
        batch), and — only inside the sampled window — the counting
        _route/_try_form wrappers time themselves into ``mail``/``form``,
        whose delta is subtracted from the handler's bucket to keep the
        five disjoint. Call *counts* are exact; at flush the sampled
        times are scaled by the per-bucket inverse sampling fraction and
        normalized so the five buckets tile the once-measured loop wall
        exactly.
        """
        self._route = self._route_counted
        self._try_form = self._try_form_counted
        self._mail_ns = self._form_ns = 0
        self._mail_n = self._form_n = 0
        self._mail_k = self._form_k = 0
        clock = _perf_counter_ns
        pop = heapq.heappop
        events = self._events
        cutoff = self.cutoff
        max_events = self.max_events
        queue_ns = arrive_ns = dispatch_ns = 0
        sampled = arrive_k = dispatch_k = 0
        arrive_n = dispatch_n = 0
        countdown = 1  # sample the first event, then every Nth
        pops = 0
        processed = 0
        pruned = False
        last_time = _INIT
        loop_start = clock()
        try:
            while events:
                processed += 1
                if processed > max_events:
                    break
                pops += 1
                countdown -= 1
                if countdown:  # unsampled: _drain's work plus exact counts
                    time, _, slot, a, b = pop(events)
                    if cutoff is not None and time > cutoff:
                        pruned = True
                        last_time = time
                        break
                    last_time = time
                    if slot is None:
                        dispatch_n += 1
                        processed = self._kick(a, b, time, processed)
                    else:
                        arrive_n += 1
                        self._arrive(slot, a, b, time)
                    continue
                countdown = _SAMPLE_EVERY
                sampled += 1
                tick = clock()
                time, _, slot, a, b = pop(events)
                now = clock()
                queue_ns += now - tick
                tick = now
                if cutoff is not None and time > cutoff:
                    pruned = True
                    last_time = time
                    break
                last_time = time
                self._timing = True
                nested = self._mail_ns + self._form_ns
                if slot is None:
                    dispatch_n += 1
                    processed = self._kick(a, b, time, processed)
                    now = clock()
                    dispatch_ns += (
                        now - tick - (self._mail_ns + self._form_ns - nested)
                    )
                    dispatch_k += 1
                else:
                    arrive_n += 1
                    self._arrive(slot, a, b, time)
                    now = clock()
                    arrive_ns += (
                        now - tick - (self._mail_ns + self._form_ns - nested)
                    )
                    arrive_k += 1
                self._timing = False
        finally:
            loop_ns = clock() - loop_start
            self._route = self._route_impl
            self._try_form = self._try_form_impl
            self._timing = False
            estimates = {
                "queue": queue_ns * pops // sampled if sampled else 0,
                "arrive": (
                    arrive_ns * arrive_n // arrive_k if arrive_k else 0
                ),
                "dispatch": (
                    dispatch_ns * dispatch_n // dispatch_k if dispatch_k else 0
                ),
                "mail": (
                    self._mail_ns * self._mail_n // self._mail_k
                    if self._mail_k
                    else 0
                ),
                "form": (
                    self._form_ns * self._form_n // self._form_k
                    if self._form_k
                    else 0
                ),
            }
            self._flush_buckets(
                profiler,
                loop_ns,
                estimates,
                {
                    "queue": pops,
                    "arrive": arrive_n,
                    "dispatch": dispatch_n,
                    "mail": self._mail_n,
                    "form": self._form_n,
                },
            )
        return processed <= max_events, pruned, last_time

    def _flush_buckets(
        self,
        profiler,
        loop_ns: int,
        estimates: Dict[str, int],
        counts: Dict[str, int],
    ) -> None:
        """Attributes the sampled bucket estimates to the active profiler.

        The estimates are normalized to sum exactly to ``loop_ns`` — the
        real in-thread wall of the drain loop — so the exclusive
        attribution stays honest: the buckets subtract from the calling
        phase's self time (``search.dispatch`` for a serial search,
        ``pipeline.run`` for a machine run) precisely the time the loop
        actually spent.
        """
        profiler.add_count(_C_SIM_INVOCATIONS, len(self.trace))
        total = sum(estimates.values())
        if total <= 0 or loop_ns <= 0:
            if counts["queue"]:
                profiler.add_count(_C_SIM_EVENTS, counts["queue"])
            return
        buckets = {
            name: value * loop_ns // total for name, value in estimates.items()
        }
        largest = max(buckets, key=lambda name: buckets[name])
        buckets[largest] += loop_ns - sum(buckets.values())
        for name, key in _BUCKET_KEYS.items():
            if buckets[name]:
                profiler.add_time(
                    key, buckets[name], count=counts[name], exclusive=True
                )
        profiler.add_count(_C_SIM_EVENTS, counts["queue"])

    # -- arrivals & invocation formation -----------------------------------------

    def _arrive(
        self, slot: _Slot, param_index: int, entry: tuple, time: int
    ) -> None:
        slot.sets[param_index].append(entry)
        self._try_form(slot)
        core = slot.core
        if slot.ready and self.busy_until[core] <= time:
            self._seq = s = self._seq + 1
            heapq.heappush(self._events, (time, s, None, core, None))

    def _try_form_counted(self, slot: _Slot) -> None:
        self._form_n += 1
        if not self._timing:
            return self._try_form_impl(slot)
        tick = _perf_counter_ns()
        try:
            return self._try_form_impl(slot)
        finally:
            self._form_ns += _perf_counter_ns() - tick
            self._form_k += 1

    def _try_form_impl(self, slot: _Slot) -> None:
        """Moves every invocation the slot's parameter sets can form, in
        FIFO order, to its core's ready queue."""
        sets = slot.sets
        ready = slot.ready
        before = len(ready)
        rec = slot.rec
        if rec.nparams == 1:
            pending = sets[0]
            while pending:
                ready.append((slot, [pending.popleft()]))
        elif rec.tag_match:
            while all(sets):
                combo = _pop_tag_matched(sets)
                if combo is None:
                    break
                ready.append((slot, combo))
        else:
            while all(sets):
                ready.append((slot, [bucket.popleft() for bucket in sets]))
        if len(ready) > before:
            self._waiting.add(slot.core)

    # -- dispatch -----------------------------------------------------------------

    def _kick(
        self, core: int, others: Optional[list], time: int, processed: int
    ) -> int:
        """Kicks ``core``, then the cores listed in ``others`` in order, and
        returns the event count ``processed`` (which includes this entry's
        pop) plus one per listed core. A batch that would run past
        ``max_events`` kicks only the cores that fit and returns
        ``max_events + 1``: the unbatched engine stopped at the pop of the
        first kick that did not fit. A kicked core that is busy or has
        nothing ready does nothing."""
        busy_until = self.busy_until
        ready = self.ready
        if busy_until[core] <= time and ready[core]:
            self._dispatch(core, time)
        if not others:
            return processed
        count = processed + len(others)
        if count > self.max_events:
            others = others[: self.max_events - processed]
            count = self.max_events + 1
        for other in others:
            if busy_until[other] <= time and ready[other]:
                self._dispatch(other, time)
        return count

    def _dispatch(self, core: int, time: int) -> None:
        """Starts the core's first ready invocation whose objects still
        satisfy its guards. The caller checked that the core is idle at
        ``time`` and has ready work, so the invocation starts at
        ``time``."""
        ready = self.ready[core]
        while ready:
            slot, combo = ready.popleft()
            accepts = slot.rec.accepts
            stale = None
            for index, entry in enumerate(combo):
                if not accepts[index][entry[0].sid]:
                    if stale is None:
                        stale = {index}
                    else:
                        stale.add(index)
            if stale is None:
                break
            # Put still-valid objects back in their sets and re-route the
            # stale ones.
            sets = slot.sets
            for index, entry in enumerate(combo):
                if index in stale:
                    self._route(entry[0], core, time, entry[2])
                else:
                    sets[index].appendleft(entry)
            self._try_form(slot)
        else:
            self._waiting.discard(core)
            return
        if not ready:
            self._waiting.discard(core)

        rec = slot.rec
        task = rec.name
        if rec.has_exits:
            exit_id = self.chooser.choose(task, combo[0][0].obj_id)
        else:
            exit_id = rec.fallback_exit
        info = rec.exits[exit_id]
        duration = scale_duration(
            info.duration, core_speed(self.core_speeds, core)
        )
        end = time + duration
        event_id = self._next_event_id
        self._next_event_id = event_id + 1
        invocations = self.invocations
        invocations[task] = invocations.get(task, 0) + 1
        self.core_busy[core] += duration
        busy_until = self.busy_until
        busy_until[core] = end

        # Transition parameter objects per the exit's flag/tag actions.
        route = self._route
        moves = info.moves
        data_ready = combo[0][1]
        objs = []
        inputs = []
        for index, entry in enumerate(combo):
            obj, arrived, producer = entry
            if arrived > data_ready:
                data_ready = arrived
            objs.append(obj.obj_id)
            inputs.append((producer, arrived - time if arrived > time else 0))
            obj.sid, tag_mode = moves[index][obj.sid]
            if tag_mode:
                obj.tag_key = event_id if tag_mode == 1 else None
            route(obj, core, end, event_id)

        # Allocate new objects per the profile's expectations.
        produced = ()
        if info.allocs:
            carry = self._alloc_carry
            made = []
            for index, avg, sid, tagged in info.allocs:
                value = carry[index] + avg
                emit = int(value)
                carry[index] = value - emit
                if emit:
                    tag_key = event_id if tagged else None
                    next_id = self._next_obj_id
                    self._next_obj_id = next_id + emit
                    for _ in range(emit):
                        made.append(next_id)
                        route(SimObject(next_id, sid, tag_key), core, end,
                              event_id)
                        next_id += 1
            produced = tuple(made)
        self.trace.append(TraceEvent(
            event_id, task, core, time, end, exit_id, data_ready,
            tuple(objs), tuple(inputs), produced,
        ))

        # Kick this core at ``end``, and with it (see the class docstring)
        # every other core with ready work that is idle by then.
        others = None
        waiting = self._waiting
        if waiting:
            others = [
                other
                for other in waiting
                if busy_until[other] <= end and other != core
            ]
            if others:
                others.sort()
            else:
                others = None
        self._seq = s = self._seq + 1
        heapq.heappush(self._events, (end, s, None, core, others))

    # -- routing --------------------------------------------------------------------

    def _route_counted(
        self,
        obj: SimObject,
        sender: Optional[int],
        time: int,
        producer_event: Optional[int],
    ) -> None:
        self._mail_n += 1
        if not self._timing:
            return self._route_impl(obj, sender, time, producer_event)
        tick = _perf_counter_ns()
        try:
            return self._route_impl(obj, sender, time, producer_event)
        finally:
            self._mail_ns += _perf_counter_ns() - tick
            self._mail_k += 1

    def _route_impl(
        self,
        obj: SimObject,
        sender: Optional[int],
        time: int,
        producer_event: Optional[int],
    ) -> None:
        remote, targets = self._plans[obj.sid]
        if not targets:
            return
        events = self._events
        origin = 0 if sender is None else sender
        for place, param_index in targets:
            index = pick_replica(
                place.cores,
                place.rr,
                origin,
                obj.tag_key if place.tag_hash else None,
            )
            dest = place.cores[index]
            if sender is None:
                arrived = time
            elif dest == sender:
                arrived = time + _ENQUEUE
            else:
                arrived = time + remote + self._hop_costs[sender][dest]
            self._seq = s = self._seq + 1
            heapq.heappush(
                events,
                (
                    arrived,
                    s,
                    place.slots[index],
                    param_index,
                    (obj, arrived, producer_event),
                ),
            )


# -- sessions -------------------------------------------------------------------


class SimSession:
    """A reusable simulation context for one (program, profile) pair.

    Sharing a session across simulations computes the layout-independent
    :class:`_ProgramTables` once, at its first simulation (a search that
    finds every candidate in its cache never builds them); each
    :meth:`simulate` call is still a full, independent simulation, so a
    session's results are exactly a sessionless :func:`simulate`'s.

    Sessions are cheap to create and safe to use from one thread at a
    time.
    """

    def __init__(
        self,
        compiled: "CompiledProgram",
        profile: ProfileData,
        *,
        hints: Optional[Dict[str, str]] = None,
        core_speeds: Optional[Dict[int, float]] = None,
        exit_policy: str = "sequence",
        max_events: int = 2_000_000,
    ):
        self.compiled = compiled
        self.profile = profile
        self.hints = hints
        self.core_speeds = core_speeds
        self.exit_policy = exit_policy
        self.max_events = max_events
        self.tables: Optional[_ProgramTables] = None

    def simulate(
        self,
        layout: Layout,
        *,
        cutoff: Optional[int] = None,
        observe: Optional[bool] = None,
    ) -> SimResult:
        if self.tables is None:
            self.tables = _ProgramTables(self.compiled, self.profile)
        engine = _SimEngine(
            self.compiled,
            layout,
            self.profile,
            hints=self.hints,
            max_events=self.max_events,
            exit_policy=self.exit_policy,
            core_speeds=self.core_speeds,
            cutoff=cutoff,
            tables=self.tables,
            observe=observe,
        )
        return engine.run()


# -- facade ---------------------------------------------------------------------


def simulate(
    compiled: "CompiledProgram",
    layout: Layout,
    profile: Optional[ProfileData] = None,
    *,
    hints: Optional[Dict[str, str]] = None,
    core_speeds: Optional[Dict[int, float]] = None,
    exit_policy: str = "sequence",
    max_events: int = 2_000_000,
    cutoff: Optional[int] = None,
    observe: Optional[bool] = None,
    session: Optional[SimSession] = None,
) -> SimResult:
    """Simulate one layout and return its :class:`SimResult`.

    The one entry point for scheduling simulation. With ``session``
    (a :class:`SimSession`), per-program tables are shared across calls;
    the per-call keyword knobs (``hints``/``core_speeds``/``exit_policy``/
    ``max_events``) then live on the session and must not be repeated
    here. ``observe`` controls profiler attachment: ``None`` (auto)
    attaches to the active :mod:`repro.obs.prof` profiler if one is
    installed, ``False`` forces the unobserved fast drain.
    """
    if session is not None:
        if profile is not None and profile is not session.profile:
            raise ScheduleError(
                "simulate(): pass profile via the session, not per call"
            )
        if hints is not None or core_speeds is not None:
            raise ScheduleError(
                "simulate(): hints/core_speeds live on the session"
            )
        return session.simulate(layout, cutoff=cutoff, observe=observe)
    if profile is None:
        raise ScheduleError("simulate() requires a profile (or a session)")
    engine = _SimEngine(
        compiled,
        layout,
        profile,
        hints=hints,
        max_events=max_events,
        exit_policy=exit_policy,
        core_speeds=core_speeds,
        cutoff=cutoff,
        observe=observe,
    )
    return engine.run()
