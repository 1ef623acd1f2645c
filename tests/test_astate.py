"""Abstract state and guard evaluation tests."""

import copy as copy_module
import os
import pickle
import subprocess
import sys

from repro.analysis.astate import (
    AState,
    eval_flag_expr,
    guard_matches,
    runtime_guard_matches,
    state_of_object,
)
from repro.lang import ast
from repro.runtime.objects import BObject, TagInstance


def flag_param(guard, tag_guards=()):
    return ast.TaskParam(
        param_type=ast.TypeNode("X"),
        name="x",
        guard=guard,
        tag_guards=list(tag_guards),
    )


class TestAState:
    def test_make_normalizes_tags(self):
        state = AState.make(["a"], {"t": 5, "u": 0})
        assert state.tag_count("t") == 2  # 1-limited: "at least 2"
        assert state.tag_count("u") == 0
        assert state.tags == (("t", 2),)

    def test_equality_and_hash(self):
        a = AState.make(["x", "y"])
        b = AState.make(["y", "x"])
        assert a == b
        assert hash(a) == hash(b)

    def test_with_flag(self):
        state = AState.make(["a"])
        assert state.with_flag("b", True).flags == frozenset({"a", "b"})
        assert state.with_flag("a", False).flags == frozenset()

    def test_with_flags_batch(self):
        state = AState.make(["a", "b"])
        updated = state.with_flags({"a": False, "c": True})
        assert updated.flags == frozenset({"b", "c"})

    def test_with_tag_delta_saturates(self):
        state = AState.make([], {"t": 1})
        assert state.with_tag_delta("t", 1).tag_count("t") == 2
        assert state.with_tag_delta("t", 1).with_tag_delta("t", 1).tag_count("t") == 2
        assert state.with_tag_delta("t", -1).tag_count("t") == 0
        assert state.with_tag_delta("t", -5).tag_count("t") == 0

    def test_label_deterministic(self):
        assert AState.make(["b", "a"]).label() == "{a,b}"
        assert AState.make([]).label() == "{}"

    def test_ordering_defined(self):
        states = sorted([AState.make(["b"]), AState.make(["a"])])
        assert states[0].flags == frozenset({"a"})


class TestFlagExprEval:
    def test_ref_and_const(self):
        state = AState.make(["ready"])
        assert eval_flag_expr(ast.FlagRef("ready"), state)
        assert not eval_flag_expr(ast.FlagRef("done"), state)
        assert eval_flag_expr(ast.FlagConst(True), state)
        assert not eval_flag_expr(ast.FlagConst(False), state)

    def test_not_and_or(self):
        state = AState.make(["a"])
        expr = ast.FlagOr(
            ast.FlagAnd(ast.FlagRef("a"), ast.FlagNot(ast.FlagRef("b"))),
            ast.FlagRef("c"),
        )
        assert eval_flag_expr(expr, state)
        assert not eval_flag_expr(expr, AState.make(["b"]))

    def test_guard_with_tags(self):
        param = flag_param(
            ast.FlagRef("ready"), [ast.TagGuard(tag_type="grp", binding="g")]
        )
        assert not guard_matches(param, AState.make(["ready"]))
        assert guard_matches(param, AState.make(["ready"], {"grp": 1}))


class TestRuntimeStates:
    def test_state_of_object(self):
        obj = BObject(obj_id=1, class_name="X", fields=[])
        obj.set_flag("a", True)
        tag = TagInstance(tag_id=0, tag_type="grp")
        obj.bind_tag(tag)
        state = state_of_object(obj)
        assert state.flags == frozenset({"a"})
        assert state.tag_count("grp") == 1

    def test_runtime_guard_matches(self):
        obj = BObject(obj_id=1, class_name="X", fields=[])
        obj.set_flag("ready", True)
        assert runtime_guard_matches(flag_param(ast.FlagRef("ready")), obj)
        obj.set_flag("ready", False)
        assert not runtime_guard_matches(flag_param(ast.FlagRef("ready")), obj)


_PICKLE_STATES = """
import pickle, sys
from repro.analysis.astate import AState

states = [
    AState.make(["process", "submit"], {"link": 1}),
    AState.make(["done"], {"link": 2, "pair": 1}),
    AState.make(),
]
for state in states:
    hash(state)  # fill the cached hash before pickling
memo = {state: index for index, state in enumerate(states)}
sys.stdout.buffer.write(pickle.dumps((states, memo)))
"""

_LOAD_STATES = """
import pickle, sys
from repro.analysis.astate import AState

states, memo = pickle.loads(sys.stdin.buffer.read())
local = [
    AState.make(["process", "submit"], {"link": 1}),
    AState.make(["done"], {"link": 2, "pair": 1}),
    AState.make(),
]
assert [memo[state] for state in local] == [0, 1, 2]
assert [{s: i for i, s in enumerate(local)}[s] for s in states] == [0, 1, 2]
assert [hash(s) for s in states] == [hash(s) for s in local]
print("ok")
"""


class TestPickledStates:
    def test_cached_hash_is_not_pickled(self):
        state = AState.make(["a", "b"], {"t": 2})
        hash(state)
        assert "_hash" in vars(state)
        copy = pickle.loads(pickle.dumps(state))
        assert "_hash" not in vars(copy)
        assert copy == state and hash(copy) == hash(state)
        deep = copy_module.deepcopy(state)
        assert "_hash" not in vars(deep) and deep == state

    def test_states_hit_across_hash_seeds(self):
        """States and memo dicts pickled where one PYTHONHASHSEED holds
        must be found by freshly built states where another holds — the
        situation of a worker pool or a dist worker."""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )

        def python(code, seed, data=None):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code],
                input=data,
                env=env,
                capture_output=True,
                check=True,
            ).stdout

        payload = python(_PICKLE_STATES, seed=1)
        assert b"_hash" not in payload
        assert python(_LOAD_STATES, seed=2, data=payload).strip() == b"ok"
