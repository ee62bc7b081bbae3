"""Store behaviour: trail round-trips, events, checkpoints, activation."""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalldiff.alldiff import AllDifferent
from dynalldiff.errors import (
    DomainWipeout,
    EmptyDomain,
    InactiveConstraint,
    InitFailure,
    NonLifoPop,
    UnknownVariable,
)
from dynalldiff.store import Store

A, B, C = 0, 1, 2


class RecordingPropagator:
    """Inert propagator that logs each delivery's variable and its domain then."""

    def __init__(self, variables):
        self.variables = list(variables)
        self.delivered = []
        self.verdict = True

    def init(self, store, handle):
        return True

    def on_values_removed(self, store, var):
        self.delivered.append((var, frozenset(store.domains[var])))
        return self.verdict

    def frozen_cells(self):
        return 1

    def state_digest(self):
        return repr(self.delivered)


def test_new_store_empty():
    store = Store()
    assert store.domains == []
    assert store.constraints == []
    assert len(store.trail) == 0


def test_first_variable_id_zero():
    store = Store()
    assert store.add_variable({0, 1}) == 0


def test_push_pop_identity_on_fresh_store():
    store = Store()
    before = store.checksum()
    token = store.push_checkpoint()
    store.pop_checkpoint(token)
    assert store.checksum() == before
    assert len(store.trail) == 0


def test_add_variable_echo_and_counter():
    store = Store()
    assert store.add_variable({A, B}) == 0
    assert store.add_variable({A}) == 1
    assert store.add_variable({B, C}) == 2
    assert store.domain(0) == {A, B}


def test_add_variable_empty_domain():
    store = Store()
    with pytest.raises(EmptyDomain):
        store.add_variable(set())


def test_variable_creation_retracted_by_pop():
    store = Store()
    store.add_variable({A})
    before = store.checksum()
    token = store.push_checkpoint()
    store.add_variable({A, B})
    store.pop_checkpoint(token)
    assert len(store.domains) == 1
    assert store.checksum() == before


def test_remove_value_basic():
    store = Store()
    var = store.add_variable({A, B, C})
    assert store.remove_value(var, A) is True
    assert store.domain(var) == {B, C}


def test_remove_value_absent_is_noop():
    store = Store()
    var = store.add_variable({A})
    depth = len(store.trail)
    assert store.remove_value(var, B) is False
    assert len(store.trail) == depth


def test_remove_value_wipeout():
    store = Store()
    var = store.add_variable({A})
    with pytest.raises(DomainWipeout):
        store.remove_value(var, A)
    assert store.failed


def test_remove_value_unknown_variable():
    store = Store()
    with pytest.raises(UnknownVariable):
        store.remove_value(3, A)


def test_token_depth_zero_on_fresh_store():
    store = Store()
    token = store.push_checkpoint()
    assert token.depth == 0


def test_trail_grows_after_push():
    store = Store()
    var = store.add_variable({A, B})
    token = store.push_checkpoint()
    store.remove_value(var, A)
    assert len(store.trail) > token.depth + 1


def test_nested_push_pop_restores_outer():
    store = Store()
    var = store.add_variable({A, B, C})
    outer_state = store.checksum()
    outer = store.push_checkpoint()
    store.remove_value(var, A)
    inner = store.push_checkpoint()
    store.remove_value(var, B)
    store.pop_checkpoint(inner)
    assert store.domain(var) == {B, C}
    store.pop_checkpoint(outer)
    assert store.checksum() == outer_state


def test_pop_restores_removed_value():
    store = Store()
    var = store.add_variable({A, B})
    token = store.push_checkpoint()
    store.remove_value(var, A)
    store.pop_checkpoint(token)
    assert A in store.domain(var)


def test_pop_retracts_posted_constraint():
    store = Store()
    store.add_variable({A, B})
    token = store.push_checkpoint()
    store.post_constraint(RecordingPropagator([0]))
    assert len(store.constraints) == 1
    store.pop_checkpoint(token)
    assert store.constraints == []
    assert store.watchers[0] == []


def test_non_lifo_pop_raises():
    store = Store()
    outer = store.push_checkpoint()
    store.push_checkpoint()
    with pytest.raises(NonLifoPop):
        store.pop_checkpoint(outer)


def test_post_alldifferent_pigeonhole_init_failure():
    store = Store()
    x1 = store.add_variable({A})
    x2 = store.add_variable({A})
    with pytest.raises(InitFailure):
        store.post_constraint(AllDifferent([x1, x2]))
    assert store.failed


def test_post_alldifferent_single_variable():
    store = Store()
    x = store.add_variable({A})
    handle = store.post_constraint(AllDifferent([x]))
    assert handle.active
    assert store.domain(x) == {A}


def test_post_alldifferent_triple_filters_at_post():
    store = Store()
    x1 = store.add_variable({A, B})
    x2 = store.add_variable({A, B})
    x3 = store.add_variable({A, B, C})
    store.post_constraint(AllDifferent([x1, x2, x3]))
    assert store.domain(x3) == {C}
    assert store.domain(x1) == {A, B}
    assert store.domain(x2) == {A, B}


def test_deactivate_blocks_events():
    store = Store()
    var = store.add_variable({A, B, C})
    prop = RecordingPropagator([var])
    handle = store.post_constraint(prop)
    store.deactivate_constraint(handle)
    store.remove_value(var, A)
    assert store.propagate_fixpoint() is True
    assert prop.delivered == []


def test_deactivate_twice_raises():
    store = Store()
    var = store.add_variable({A})
    handle = store.post_constraint(RecordingPropagator([var]))
    store.deactivate_constraint(handle)
    with pytest.raises(InactiveConstraint):
        store.deactivate_constraint(handle)


def test_an_event_queued_before_a_deactivation_waits_for_the_pop():
    store = Store()
    var = store.add_variable({A, B, C})
    prop = RecordingPropagator([var])
    handle = store.post_constraint(prop)
    store.remove_value(var, A)  # queued while the constraint is active
    token = store.push_checkpoint()
    store.deactivate_constraint(handle)
    assert store.watchers[var] == []
    assert store.propagate_fixpoint() is True
    assert prop.delivered == []
    store.pop_checkpoint(token)
    assert store.propagate_fixpoint() is True
    assert prop.delivered == [(var, frozenset({B, C}))]


class _Unreadable(list):
    def __getitem__(self, index):
        raise AssertionError("a handle was read")


def test_remove_value_reads_no_handle():
    store = Store()
    var = store.add_variable({A, B, C})
    frozen = store.post_constraint(RecordingPropagator([var]))
    store.post_constraint(RecordingPropagator([var]))
    store.deactivate_constraint(frozen)
    store.constraints = _Unreadable(store.constraints)
    store.remove_value(var, A)
    assert list(store._event_order) == [(1, var)]


def test_watch_variable_refuses_an_inactive_constraint():
    store = Store()
    x = store.add_variable({A, B})
    y = store.add_variable({A, B})
    handle = store.post_constraint(RecordingPropagator([x]))
    store.deactivate_constraint(handle)
    trail, watchers = list(store.trail), [list(w) for w in store.watchers]
    with pytest.raises(InactiveConstraint):
        store.watch_variable(handle.id, y)
    assert store.trail == trail and store.watchers == watchers
    assert handle.watched_vars == [x]


@pytest.mark.parametrize("scope, unknown", [([0, 2, 1], 2), ([-1, 0], -1)])
def test_post_names_the_unknown_variable_before_any_change(scope, unknown):
    store = Store()
    store.add_variable({A, B})
    store.add_variable({A, B})
    trail = list(store.trail)
    with pytest.raises(UnknownVariable, match=f"no variable {unknown}$"):
        store.post_constraint(RecordingPropagator(scope))
    assert store.trail == trail and store.constraints == []
    assert store.watchers == [[], []]


def test_deactivate_reactivate_equals_uninterrupted():
    # same event stream, with and without a deactivation popped right away
    def run(pause):
        store = Store()
        var = store.add_variable({A, B, C})
        prop = RecordingPropagator([var])
        handle = store.post_constraint(prop)
        if pause:
            token = store.push_checkpoint()
            store.deactivate_constraint(handle)
            store.pop_checkpoint(token)
            assert handle.active
        store.remove_value(var, A)
        store.propagate_fixpoint()
        store.remove_value(var, B)
        store.propagate_fixpoint()
        return prop.delivered, store.checksum()

    assert run(pause=True) == run(pause=False)


def test_fixpoint_empty_queue_true():
    store = Store()
    assert store.propagate_fixpoint() is True


def test_fixpoint_triple_after_posting():
    store = Store()
    x1 = store.add_variable({A, B})
    x2 = store.add_variable({A, B})
    x3 = store.add_variable({A, B, C})
    store.post_constraint(AllDifferent([x1, x2, x3]))
    assert store.propagate_fixpoint() is True
    assert store.domain(x3) == {C}


def test_fixpoint_cascade_failure_two_constraints():
    # two alldifferents sharing x2 and x3: one external deletion makes the
    # first constraint confine {x2, x3} to {A, C}, which starves y in the
    # second; the oracle agrees the post-deletion instance has no solution
    from dynalldiff.oracle import enumerate_solutions

    store = Store()
    x1 = store.add_variable({A, B})
    x2 = store.add_variable({A, B, C})
    x3 = store.add_variable({A, B, C})
    y = store.add_variable({A, C})
    store.post_constraint(AllDifferent([x1, x2, x3]))
    store.post_constraint(AllDifferent([x2, x3, y]))
    assert store.propagate_fixpoint() is True
    assert not store.failed

    def both_constraints(t):
        x1v, x2v, x3v, yv = t
        return len({x1v, x2v, x3v}) == 3 and len({x2v, x3v, yv}) == 3

    domains = [store.domain(v) for v in (x1, x2, x3, y)]
    domains[0] = domains[0] - {A}
    assert enumerate_solutions(both_constraints, domains) == []
    assert store.remove_value(x1, A) is True
    assert store.propagate_fixpoint() is False
    assert store.failed


def test_event_completeness_one_event_per_watcher():
    store = Store()
    var = store.add_variable({A, B, C})
    p1 = RecordingPropagator([var])
    p2 = RecordingPropagator([var])
    store.post_constraint(p1)
    store.post_constraint(p2)
    store.remove_value(var, A)
    store.propagate_fixpoint()
    assert p1.delivered == [(var, frozenset({B, C}))]
    assert p2.delivered == [(var, frozenset({B, C}))]


def test_events_coalesced_until_delivered():
    # two removals queue one key, and its delivery sees both in the domain
    store = Store()
    var = store.add_variable({A, B, C})
    prop = RecordingPropagator([var])
    store.post_constraint(prop)
    store.remove_value(var, A)
    store.remove_value(var, B)
    store.propagate_fixpoint()
    assert prop.delivered == [(var, frozenset({C}))]


def test_pop_restores_events_queued_before_its_push():
    # x's removal is still queued at the push; the pop must put it back, so
    # that the fixpoint after it still filters y to GAC
    store = Store()
    x = store.add_variable({A, B})
    y = store.add_variable({A, B, C})
    store.post_constraint(AllDifferent([x, y]))
    assert store.propagate_fixpoint()
    store.remove_value(x, B)
    before = store.checksum()
    store.pop_checkpoint(store.push_checkpoint())
    assert store.checksum() == before
    assert store.propagate_fixpoint() is True
    assert store.domains == [{A}, {B, C}]
    store.validate()


def test_checksum_sees_the_event_queue():
    store = Store()
    var = store.add_variable({A, B, C})
    store.post_constraint(RecordingPropagator([var]))
    before = store.checksum()
    store.remove_value(var, A)
    store.domains[var].add(A)  # the domains as before, the key still queued
    assert store.checksum() != before


def test_fixpoint_on_a_failed_branch_delivers_nothing():
    store = Store()
    x = store.add_variable({0, 1, 2})
    y = store.add_variable({0})
    prop = RecordingPropagator([x])
    store.post_constraint(prop)
    store.remove_value(x, 0)  # queues an event for prop
    with pytest.raises(DomainWipeout):
        store.remove_value(y, 0)
    assert store.failed
    assert store.propagate_fixpoint() is False
    assert prop.delivered == []
    assert store.propagate_fixpoint() is False  # the event was dropped
    assert prop.delivered == []


def test_failed_flag_cleared_by_pop():
    store = Store()
    var = store.add_variable({A})
    token = store.push_checkpoint()
    with pytest.raises(DomainWipeout):
        store.remove_value(var, A)
    assert store.failed
    store.pop_checkpoint(token)
    assert not store.failed


def test_retract_last_variable_guards():
    store = Store()
    store.add_variable({A})
    token = store.push_checkpoint()
    with pytest.raises(NonLifoPop):
        store.retract_last_variable()  # the token, not a creation, on top
    store.pop_checkpoint(token)
    assert store.retract_last_variable() == 0
    assert store.domains == []


def _posting_under_foreign_watch(store):
    x = store.add_variable({A, B})
    y = store.add_variable({A, B})
    token = store.push_checkpoint()
    handle = store.post_constraint(RecordingPropagator([x, y]))
    store.watchers[y].append(handle.id + 1)  # not on the trail
    return token, handle


def _adoption_under_foreign_watch(store):
    x = store.add_variable({A, B})
    prop = store.post_constraint(AllDifferent([x])).propagator
    y = store.add_variable({A, B, C})
    token = store.push_checkpoint()
    assert prop.add_variables(store, [y])[0]
    store.watchers[y].append(prop.handle_id + 1)  # not on the trail
    return token, store.constraints[prop.handle_id]


@pytest.mark.parametrize(
    "setup, frame",
    [
        (_posting_under_foreign_watch, "_Posted"),
        (_adoption_under_foreign_watch, "_WatcherAdded"),
    ],
)
def test_pop_refuses_a_watch_that_is_not_on_top(setup, frame):
    store = Store()
    token, handle = setup(store)
    watchers = [list(w) for w in store.watchers]
    with pytest.raises(NonLifoPop):
        store.pop_checkpoint(token)
    assert type(store.trail[-1]).__name__ == frame
    assert store.trail[-1].handle is handle
    assert [list(w) for w in store.watchers] == watchers
    assert store.constraints[-1] is handle


def _failed_init(store):
    x1 = store.add_variable({A})
    x2 = store.add_variable({A})

    def step():
        with pytest.raises(InitFailure):
            store.post_constraint(AllDifferent([x1, x2]))

    return step


def _failed_adoption(store):
    x = store.add_variable({A})
    prop = store.post_constraint(AllDifferent([x])).propagator
    y = store.add_variable({A})
    return lambda: prop.add_variables(store, [y])[0]


def _failed_deletion_fixpoint(store):
    # the cascade of test_fixpoint_cascade_failure_two_constraints
    x1 = store.add_variable({A, B})
    x2 = store.add_variable({A, B, C})
    x3 = store.add_variable({A, B, C})
    y = store.add_variable({A, C})
    store.post_constraint(AllDifferent([x1, x2, x3]))
    store.post_constraint(AllDifferent([x2, x3, y]))
    assert store.propagate_fixpoint()
    return lambda: store.remove_value(x1, A) and store.propagate_fixpoint()


@pytest.mark.parametrize("fail", [_failed_init, _failed_adoption, _failed_deletion_fixpoint])
def test_validate_passes_on_a_failed_branch_and_after_its_pop(fail):
    store = Store()
    step = fail(store)
    before = store.checksum()
    token = store.push_checkpoint()
    assert not step()
    assert store.failed
    store.validate()  # the watcher relation only
    store.pop_checkpoint(token)
    store.validate()
    assert store.checksum() == before


def test_domain_monotone_within_branch():
    rng = random.Random(5)
    store = Store()
    vars_ = [store.add_variable(set(range(5))) for _ in range(3)]
    store.push_checkpoint()
    previous = [set(store.domain(v)) for v in vars_]
    for _ in range(10):
        var = rng.choice(vars_)
        val = rng.randrange(5)
        if len(store.domain(var)) > 1:
            store.remove_value(var, val)
        current = [set(store.domain(v)) for v in vars_]
        assert all(c <= p for c, p in zip(current, previous))
        previous = current


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 4)), min_size=0, max_size=12
    )
)
def test_property_trail_roundtrip_under_random_removals(ops):
    store = Store()
    vars_ = [store.add_variable(set(range(5))) for _ in range(3)]
    store.post_constraint(AllDifferent(vars_))
    store.propagate_fixpoint()
    before = store.checksum()
    token = store.push_checkpoint()
    for var_idx, val in ops:
        if store.failed:
            break
        try:
            if store.remove_value(vars_[var_idx], val):
                store.propagate_fixpoint()
        except DomainWipeout:
            break
    store.pop_checkpoint(token)
    assert store.checksum() == before


def test_lifo_guards_hold_under_python_optimize():
    # the guards are raises, not asserts, so `python -O` keeps them; the
    # script's own first assert shows that -O is in effect
    script = """
assert False, "assertions are enabled"
from dynalldiff.errors import KernelError, NonLifoPop
from dynalldiff.matching import ValueGraph
from dynalldiff.store import Store

graph = ValueGraph()
graph.add_var(0, [1])
try:
    graph.add_var(0, [2])
except KernelError:
    print("graph refused", graph.adj_var, graph.adj_val)
store = Store()
var = store.add_variable({0, 1})
store.watchers[var].append(0)
try:
    store.retract_last_variable()
except NonLifoPop:
    print("store refused, trail depth", len(store.trail))

from dynalldiff.alldiff import AllDifferent
store = Store()
x = store.add_variable({0, 1})
token = store.push_checkpoint()
handle = store.post_constraint(AllDifferent([x]))
store.watchers[x].append(handle.id + 1)
try:
    store.pop_checkpoint(token)
except NonLifoPop:
    print("posting refused", type(store.trail[-1]).__name__, store.watchers)
store = Store()
x = store.add_variable({0, 1})
prop = store.post_constraint(AllDifferent([x])).propagator
y = store.add_variable({1, 2})
token = store.push_checkpoint()
prop.add_variables(store, [y])
store.watchers[y].append(prop.handle_id + 1)
try:
    store.pop_checkpoint(token)
except NonLifoPop:
    print("watch refused", type(store.trail[-1]).__name__, store.watchers)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "graph refused {0: {1: None}} {1: {0: None}}",
        "store refused, trail depth 1",
        "posting refused _Posted [[0, 1]]",
        "watch refused _WatcherAdded [[0], [0, 1]]",
    ]
