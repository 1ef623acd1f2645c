"""Cycle cost model for the simulated many-core machine.

Plays the role of the TILEPro64 instruction timings in the paper: every IR
instruction charges a deterministic cycle cost when interpreted. The absolute
values approximate a simple in-order core (single-cycle integer ALU, slower
software-assisted floating point, memory operations a few cycles); what
matters for the reproduction is that costs are *consistent* across the
sequential baseline, the single-core Bamboo build, and the 62-core Bamboo
build, so speedups and overheads are meaningful.
"""

from __future__ import annotations

from ..sema import builtins
from . import instructions as ir

# Base instruction costs (cycles).
MOVE_COST = 1
JUMP_COST = 1
BRANCH_COST = 2
LOAD_COST = 3
STORE_COST = 3
ALOAD_COST = 4
ASTORE_COST = 4
ARRLEN_COST = 2
NEWOBJ_COST = 20
NEWARR_BASE_COST = 20
NEWARR_PER_ELEM_COST = 1
CALL_OVERHEAD = 10
RET_COST = 2
EXIT_COST = 2
NEWTAG_COST = 15
BINDTAG_COST = 8

_INT_OP_COST = {
    "+": 1,
    "-": 1,
    "*": 3,
    "/": 25,
    "%": 25,
    "<": 1,
    ">": 1,
    "<=": 1,
    ">=": 1,
    "==": 1,
    "!=": 1,
    "&&": 1,
    "||": 1,
}

_FLOAT_OP_COST = {
    "+": 4,
    "-": 4,
    "*": 6,
    "/": 30,
    "<": 2,
    ">": 2,
    "<=": 2,
    ">=": 2,
    "==": 2,
    "!=": 2,
}

_STR_CONCAT_BASE = 12
_UNOP_COST = {
    "neg": 1,
    "not": 1,
    "i2f": 3,
    "f2i": 3,
    "tostr": 25,
}


def binop_cost(op: str, kind: str) -> int:
    if kind == "float":
        return _FLOAT_OP_COST.get(op, 4)
    if op == "concat":
        return _STR_CONCAT_BASE
    if kind in ("str", "ref"):
        return 4
    return _INT_OP_COST.get(op, 1)


def instruction_cost(instr: ir.Instr, bounds_checks: bool = False) -> int:
    """Cycles the interpreter charges for one instruction before it runs.

    This is the whole static part of the cost model: the interpreter sums it
    per basic block. A builtin call costs its table entry, and each array
    access pays :data:`BOUNDS_CHECK_COST` more when ``bounds_checks`` is on.
    ``NewArr`` is 0 here because its cost depends on the lengths: every
    allocated level pays ``NEWARR_BASE_COST + NEWARR_PER_ELEM_COST * length``
    at run time. ``Trap`` is 0 because it raises instead of completing.
    """
    if isinstance(instr, ir.Move):
        return MOVE_COST
    if isinstance(instr, ir.BinOp):
        return binop_cost(instr.op, instr.kind)
    if isinstance(instr, ir.UnOp):
        return _UNOP_COST.get(instr.op, 1)
    if isinstance(instr, ir.Load):
        return LOAD_COST
    if isinstance(instr, ir.Store):
        return STORE_COST
    if isinstance(instr, ir.ALoad):
        return ALOAD_COST + (BOUNDS_CHECK_COST if bounds_checks else 0)
    if isinstance(instr, ir.AStore):
        return ASTORE_COST + (BOUNDS_CHECK_COST if bounds_checks else 0)
    if isinstance(instr, ir.ArrLen):
        return ARRLEN_COST
    if isinstance(instr, ir.NewObj):
        return NEWOBJ_COST
    if isinstance(instr, ir.Call):
        return CALL_OVERHEAD
    if isinstance(instr, ir.CallBuiltin):
        return builtins.builtin_by_key(instr.key).cost
    if isinstance(instr, ir.NewTag):
        return NEWTAG_COST
    if isinstance(instr, ir.BindTag):
        return BINDTAG_COST
    if isinstance(instr, ir.Jump):
        return JUMP_COST
    if isinstance(instr, ir.Branch):
        return BRANCH_COST
    if isinstance(instr, ir.Ret):
        return RET_COST
    if isinstance(instr, ir.Exit):
        return EXIT_COST
    return 0  # NewArr and Trap, as above


# ---------------------------------------------------------------------------
# Runtime overheads (the Bamboo runtime layered over plain code). These feed
# the machine simulator, not the interpreter: the paper's §5.5 overhead
# experiment measures exactly these costs plus flag bookkeeping.
# ---------------------------------------------------------------------------

#: Per task invocation: dequeue the invocation, check guards, set up frame.
DISPATCH_COST = 60
#: Per parameter object: acquiring/releasing its lock.
LOCK_COST = 10
#: Applying one flag update at taskexit (includes re-enqueue bookkeeping).
FLAG_UPDATE_COST = 12
#: Enqueueing a freshly created/received object into parameter sets.
ENQUEUE_COST = 16
#: Fixed cost of composing an inter-core message.
MSG_SEND_COST = 26
#: Per-hop network latency on the mesh interconnect.
HOP_COST = 6
#: Per-word (field) cost of serializing an object into a message.
MSG_WORD_COST = 2
#: One-time per-core runtime initialization.
RUNTIME_INIT_COST = 400
#: Extra cycles per array access when the optional bounds-check mode is on
#: (paper §5.5: checks are optional and were disabled for the C comparison).
BOUNDS_CHECK_COST = 2
#: Emitting one liveness heartbeat (repro.resilience); charged to the
#: emitting core only when detection-driven resilience is enabled.
HEARTBEAT_COST = 4
