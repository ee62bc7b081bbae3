"""Exact trail restoration: after a fault mid-call, and under random interleavings.

A propagator call puts its one undo frame on the trail before it changes
anything, and logs each change before making it, so popping the checkpoint
restores the store even when the call raised half-way.  Faults are injected
at the matching functions the propagator calls and at every mutation point
below them, at each call a step makes.  The state machine replays push, pop,
ADD and DEL (also a DEL whose events wait in the queue while a checkpoint is
pushed and popped) through the adopting and the re-posting dynamizer side by
side and checks them against each other and against `Store.validate` after
every step, and against the brute-force oracle where the domain product is
at most 10**4; a seeded run drives the same rules for 2400 steps.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import dynalldiff.alldiff
from dynalldiff.alldiff import AdoptingDynamizer, AllDifferent
from dynalldiff.errors import KernelError
from dynalldiff.generic import GenericDynamizer
from dynalldiff.matching import Matching, ValueGraph
from dynalldiff.oracle import all_values_distinct, gac_filter_bruteforce
from dynalldiff.store import Store

LINKS = 5


def watcher_stacks(store):
    """The watcher stacks in order: `checksum` leaves out the order of delivery."""
    return [list(stack) for stack in store.watchers]


class Fault(Exception):
    """Raised by a stand-in for a matching function in the middle of a call."""


def _after_the_real_call(real):
    def stand_in(*args, **kwargs):
        real(*args, **kwargs)
        raise Fault(real.__name__)

    return stand_in


def _instead_of_the_call(real):
    def stand_in(*args, **kwargs):
        raise Fault(real.__name__)

    return stand_in


def chain_store(fork=False):
    """x_i in {i, i+1}, matched x_i = i; value LINKS is free.

    With `fork`, x0 also holds LINKS + 1, a second free value.
    """
    domains = [{i, i + 1} for i in range(LINKS)]
    if fork:
        domains[0].add(LINKS + 1)
    store = Store()
    chain = [store.add_variable(domain) for domain in domains]
    prop = store.post_constraint(AllDifferent(chain)).propagator
    assert store.propagate_fixpoint()
    return store, prop, chain


def adopt(store, prop, chain):
    # y in {0} shifts every x_i up one value, then the filter pins them
    y = store.add_variable({0})
    token = store.push_checkpoint()
    return token, lambda: (
        prop.add_variables(store, [y])[0] and store.propagate_fixpoint()
    )


def delete(store, prop, chain):
    # x0 loses its matched value 0: the repair shifts every x_i up one value,
    # and `deletion_keeps_filtered` runs after it flipped the matching
    token = store.push_checkpoint()
    return token, lambda: (
        store.remove_value(chain[0], 0) and store.propagate_fixpoint()
    )


def delete_unmatched(store, prop, chain):
    # x0 loses 1, x1's value, and still reaches the free value LINKS + 1:
    # `deletion_keeps_filtered` runs after `remove_edges` changed the graph
    token = store.push_checkpoint()
    return token, lambda: (
        store.remove_value(chain[0], 1) and store.propagate_fixpoint()
    )


FAULTS = [  # (function, stand-in, the steps that call it)
    ("matching_covering_x", _after_the_real_call, (adopt, delete)),
    ("matching_covering_x", _instead_of_the_call, (adopt, delete)),
    ("remove_edges_from_g", _instead_of_the_call, (adopt, delete)),
    ("filter_adopted_edges", _instead_of_the_call, (adopt,)),
    ("remove_edges", _after_the_real_call, (delete, delete_unmatched)),
    ("remove_edges", _instead_of_the_call, (delete, delete_unmatched)),
    ("deletion_keeps_filtered", _instead_of_the_call, (delete, delete_unmatched)),
]
AFTER = {  # the domains a step leaves on a fresh store
    adopt: [{i + 1} for i in range(LINKS)],
    delete: [{i + 1} for i in range(LINKS)],
    delete_unmatched: [{0, LINKS + 1}] + [{i, i + 1} for i in range(1, LINKS)],
}


@pytest.mark.parametrize(
    "name, fault, step",
    [(name, fault, step) for name, fault, steps in FAULTS for step in steps],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_pop_restores_the_store_after_a_fault(monkeypatch, name, fault, step):
    fork = step is delete_unmatched
    store, prop, chain = chain_store(fork)
    before = store.checksum()
    token, run = step(store, prop, chain)
    monkeypatch.setattr(
        dynalldiff.alldiff, name, fault(getattr(dynalldiff.alldiff, name))
    )
    with pytest.raises(Fault):
        run()
    monkeypatch.undo()
    store.pop_checkpoint(token)
    if step is adopt:
        store.retract_last_variable()
    assert store.checksum() == before
    store.validate()
    # the restored store runs the step as a fresh one does
    fresh, fresh_prop, fresh_chain = chain_store(fork)
    assert step(store, prop, chain)[1]() is True
    assert step(fresh, fresh_prop, fresh_chain)[1]() is True
    assert store.checksum() == fresh.checksum()
    assert [store.domain(x) for x in chain] == AFTER[step]


HALL = LINKS + 2


def linked_store():
    """The chain, plus w in {LINKS-1, LINKS, LINKS+1} distinct from the last link.

    Last, a Hall pair: two variables in {HALL, HALL+1} under their own
    alldifferent.
    """
    store, prop, chain = chain_store()
    w = store.add_variable({LINKS - 1, LINKS, LINKS + 1})
    store.post_constraint(AllDifferent([chain[-1], w]))
    pair = [store.add_variable({HALL, HALL + 1}) for _ in range(2)]
    store.post_constraint(AllDifferent(pair))
    assert store.propagate_fixpoint()
    return store, prop, chain


def adopt_pruned(store, prop, chain):
    # y in HALL..HALL+3 joins the Hall pair's alldifferent and reaches a
    # free value, so `filter_adopted_edges` removes y's two edges into the
    # pair itself, logging both before it deletes the first
    pair = store.constraints[-1].propagator
    y = store.add_variable(range(HALL, HALL + 4))
    token = store.push_checkpoint()
    return token, lambda: (
        pair.add_variables(store, [y])[0] and store.propagate_fixpoint()
    )


def adopt_two(store, prop, chain):
    # y and z in {0}: y's augmenting path is applied and z finds none; y's
    # flips stay in the call's frame, and the pop undoes them
    pair = [store.add_variable({0}) for _ in range(2)]
    token = store.push_checkpoint()
    return token, lambda: (
        prop.add_variables(store, pair)[0] and store.propagate_fixpoint()
    )


def delete_clash(store, prop, chain):
    # x0 loses 0 and w keeps only LINKS, which the shifted last link needs too
    w = chain[-1] + 1  # linked_store creates w right after the chain
    token = store.push_checkpoint()

    def run():
        for var, value in ((chain[0], 0), (w, LINKS - 1), (w, LINKS + 1)):
            store.remove_value(var, value)
        return store.propagate_fixpoint()

    return token, run


MUTATION_POINTS = {
    "add_var": ValueGraph,  # a variable vertex with all its edges
    "remove_edge": ValueGraph,
    "match": Matching,
    "assign": Matching,  # a lost matched edge unmatches its variable
    "remove_value": Store,
    "watch_variable": Store,
}
REACHED = {  # the mutation points each step calls
    adopt: ("add_var", "remove_edge", "match", "remove_value", "watch_variable"),
    adopt_pruned: (
        "add_var", "remove_edge", "match", "remove_value", "watch_variable"
    ),
    adopt_two: ("add_var", "match", "watch_variable"),
    delete: ("remove_edge", "match", "assign", "remove_value"),
    delete_clash: ("remove_edge", "match", "assign", "remove_value"),
}


def _recorded(real, calls):
    def stand_in(*args, **kwargs):
        calls.append((real.__name__, real(*args, **kwargs)))
        return calls[-1][1]

    return stand_in


def test_the_adoption_steps_take_the_rule_and_its_fallback(monkeypatch):
    calls = []
    for name in ("filter_adopted_edges", "remove_edges_from_g"):
        real = getattr(dynalldiff.alldiff, name)
        monkeypatch.setattr(dynalldiff.alldiff, name, _recorded(real, calls))
    # adopt's y in {0} reaches no free value: the rule falls back to the
    # filter, which pins the chain (the fixpoint's deletions come after)
    store, prop, chain = linked_store()
    calls.clear()
    assert adopt(store, prop, chain)[1]() is True
    assert calls[:2] == [
        ("filter_adopted_edges", None),
        ("remove_edges_from_g", [(x, i) for i, x in enumerate(chain)]),
    ]
    # adopt_pruned's two edges are removed by the rule, and nothing is filtered
    store, prop, chain = linked_store()
    calls.clear()
    assert adopt_pruned(store, prop, chain)[1]() is True
    y = len(store.domains) - 1
    assert calls == [("filter_adopted_edges", [(y, HALL), (y, HALL + 1)])]


def _fault_at(real, k, calls):
    def stand_in(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise Fault(real.__name__)
        return real(*args, **kwargs)

    return stand_in


@pytest.mark.parametrize(
    "step, point",
    [(step, point) for step, points in REACHED.items() for point in points],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_pop_restores_the_store_after_a_fault_at_any_call(monkeypatch, step, point):
    owner = MUTATION_POINTS[point]
    k = 0
    while True:
        k += 1
        store, prop, chain = linked_store()
        before, variables = store.checksum(), len(store.domains)
        watchers = watcher_stacks(store)
        token, run = step(store, prop, chain)
        calls = []
        monkeypatch.setattr(owner, point, _fault_at(getattr(owner, point), k, calls))
        try:
            verdict = run()
        except Fault:
            verdict = None
        monkeypatch.undo()
        if verdict is not None:  # the step makes fewer than k calls
            assert len(calls) == k - 1 > 0
            break
        store.pop_checkpoint(token)
        while len(store.domains) > variables:
            store.retract_last_variable()
        assert store.checksum() == before, k
        assert watcher_stacks(store) == watchers, k
        store.validate()
        # the restored store runs the step as a fresh one does
        fresh, fresh_prop, fresh_chain = linked_store()
        assert step(store, prop, chain)[1]() == step(fresh, fresh_prop, fresh_chain)[1]()
        assert store.checksum() == fresh.checksum(), k


def _two_then_fault(values):
    """`values` up to the third, where it raises: a fault inside one `add_var`."""
    for count, val in enumerate(values):
        if count == 2:
            raise Fault("add_var")
        yield val


def graph_orders(graph):
    return (
        [(var, list(vals)) for var, vals in graph.adj_var.items()],
        [(val, list(vars_)) for val, vars_ in graph.adj_val.items()],
    )


def test_a_fault_part_way_through_a_vertex_is_undone(monkeypatch):
    # in the graph: the new vertex keeps the two edges made before the
    # fault, one to a new value and one to an old one, both maps stay each
    # other's transpose, and popping the vertex gives every order back
    store, prop, chain = linked_store()
    graph = prop.graph
    before = graph_orders(graph)
    y = len(store.domains)
    with pytest.raises(Fault):
        graph.add_var(y, _two_then_fault([LINKS + 9, 0, 1]))
    assert list(graph.adj_var[y]) == [LINKS + 9, 0]
    edges = {(var, val) for var, vals in graph.adj_var.items() for val in vals}
    transposed = {(var, val) for val, vars_ in graph.adj_val.items() for var in vars_}
    assert edges == transposed
    assert all(graph.adj_val.values())
    graph.pop_var(y)
    assert graph_orders(graph) == before
    # in an adoption: the pop undoes a vertex that a fault left half-made
    checksum, watchers = store.checksum(), watcher_stacks(store)
    variables = len(store.domains)
    y = store.add_variable({0, 1, LINKS, LINKS + 1})
    token = store.push_checkpoint()
    real = ValueGraph.add_var

    def add_two_then_fault(self, var, values):
        return real(self, var, _two_then_fault(values))

    monkeypatch.setattr(ValueGraph, "add_var", add_two_then_fault)
    with pytest.raises(Fault):
        prop.add_variables(store, [y])
    monkeypatch.undo()
    assert len(prop.graph.adj_var[y]) == 2
    store.pop_checkpoint(token)
    store.retract_last_variable()
    assert len(store.domains) == variables
    assert store.checksum() == checksum
    assert watcher_stacks(store) == watchers
    assert graph_orders(graph) == before
    store.validate()


VALUES = 6
DOMAINS = st.frozensets(st.integers(0, VALUES - 1), min_size=1, max_size=4)
can_delete = precondition(
    lambda self: not self.dynamic.failed
    and any(len(dom) > 1 for dom in self.dynamic.domains)
)


class TwoEngines(RuleBasedStateMachine):
    """`AdoptingDynamizer` next to `GenericDynamizer`, one store each.

    Both stores get the same variables in the same order, so ids match, and
    both dynamizers must give the same verdict on every ADD.  POP undoes
    the newest ADD or push, checking that both stores return to their
    checksums and watcher stacks from before it.  A pop also restores the
    events queued before its push, which `delete_across_a_checkpoint` needs.
    """

    def __init__(self):
        super().__init__()
        self.dynamic = Store()
        self.generic = Store()
        self.dynamizers = (
            AdoptingDynamizer(self.dynamic),
            GenericDynamizer(self.generic, AllDifferent),
        )
        self.undo = []  # (the two tokens of a push, or None for an ADD; states)

    def states(self):
        return [
            (store.checksum(), watcher_stacks(store))
            for store in (self.dynamic, self.generic)
        ]

    @initialize(domains=st.lists(DOMAINS, max_size=VALUES - 1))
    def start(self, domains):
        # a few ADDs first, so that pops do not keep the machine near empty
        for domain in domains:
            if not self.dynamic.failed:
                self.add(domain)

    @precondition(lambda self: not self.dynamic.failed)
    @rule(domain=DOMAINS)
    def add(self, domain):
        before = self.states()
        verdicts = {
            dynamizer.add_variable(dynamizer.store.add_variable(domain))
            for dynamizer in self.dynamizers
        }
        assert len(verdicts) == 1
        self.undo.append((None, before))

    def pick_removal(self, pick, value_pick):
        open_vars = [v for v, dom in enumerate(self.dynamic.domains) if len(dom) > 1]
        var = open_vars[pick % len(open_vars)]
        values = sorted(self.dynamic.domains[var])
        return var, values[value_pick % len(values)]

    @can_delete
    @rule(pick=st.integers(0, 2**16), value_pick=st.integers(0, 2**16))
    def delete(self, pick, value_pick):
        var, value = self.pick_removal(pick, value_pick)
        for store in (self.dynamic, self.generic):
            store.remove_value(var, value)
            store.propagate_fixpoint()

    @can_delete
    @rule(pick=st.integers(0, 2**16), value_pick=st.integers(0, 2**16))
    def delete_across_a_checkpoint(self, pick, value_pick):
        """A DEL whose events wait in the queue across a checkpoint's push and pop."""
        var, value = self.pick_removal(pick, value_pick)
        for store in (self.dynamic, self.generic):
            store.remove_value(var, value)
            store.pop_checkpoint(store.push_checkpoint())
            store.propagate_fixpoint()

    @rule()
    def push(self):
        before = self.states()
        self.undo.append(
            ((self.dynamic.push_checkpoint(), self.generic.push_checkpoint()), before)
        )

    @precondition(lambda self: self.undo)
    @rule()
    def pop(self):
        tokens, before = self.undo.pop()
        if tokens is None:  # an ADD
            for dynamizer in self.dynamizers:
                dynamizer.remove_variable()
                dynamizer.store.retract_last_variable()
        else:
            for store, token in zip((self.dynamic, self.generic), tokens):
                store.pop_checkpoint(token)
        assert self.states() == before

    @invariant()
    def engines_agree(self):
        assert self.dynamic.failed == self.generic.failed
        if self.dynamic.failed:
            return  # a failed branch's domains depend on where each engine stopped
        assert self.dynamic.domains == self.generic.domains
        self.dynamic.validate()
        self.generic.validate()
        domains = self.dynamic.domains
        if math.prod(map(len, domains)) <= 10**4:  # within the oracle's reach
            assert gac_filter_bruteforce(all_values_distinct, domains) == domains


TestTwoEngines = TwoEngines.TestCase
TestTwoEngines.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None, derandomize=True
)


def test_a_long_interleaving_of_both_engines():
    """2400 seeded push / pop / ADD / DEL steps through `TwoEngines`' rules.

    About one DEL in four leaves its events queued while a checkpoint is
    pushed and popped, and only then runs the fixpoint.

    Up to 7 variables over 10 values stay live, so deletions keep finding
    open domains, and checkpoints nest about 30 frames deep; every step is
    followed by the machine's invariant, and every pop checks restoration.
    """
    rng = random.Random(1)
    machine = TwoEngines()
    done = Counter()
    deepest = 0
    for _ in range(2400):
        dynamic = machine.dynamic
        rules = []  # (rule, weight) for the rules that may run now
        if not dynamic.failed:
            rules.append(("push", 2))
            if len(dynamic.domains) < 7:
                rules.append(("add", 3))
            if any(len(dom) > 1 for dom in dynamic.domains):
                rules.append(("delete", 3))
                rules.append(("delete_across_a_checkpoint", 1))
        if machine.undo:
            rules.append(("pop", 3))
        names, weights = zip(*rules)
        name = rng.choices(names, weights)[0]
        if name == "add":
            machine.add(frozenset(rng.sample(range(10), rng.randint(2, 5))))
        elif name.startswith("delete"):
            getattr(machine, name)(rng.randrange(2**16), rng.randrange(2**16))
        else:
            getattr(machine, name)()
        machine.engines_agree()
        done[name] += 1
        done["failed"] += dynamic.failed
        deepest = max(deepest, len(machine.undo))
    assert min(done.values()) > 10 and done["delete"] > 200, done
    assert deepest >= 20


def test_a_repost_chain_keeps_only_the_active_id_on_each_stack():
    store = Store()
    generic = GenericDynamizer(store, AllDifferent)
    for level in range(200):
        assert generic.add_variable(store.add_variable(range(level, level + 3)))
    active = generic.active_handle.id
    assert watcher_stacks(store) == [[active]] * 200
    assert sum(handle.active for handle in store.constraints) == 1
    for level in range(199, 0, -1):
        generic.remove_variable()
        store.retract_last_variable()
        assert watcher_stacks(store) == [[generic.active_handle.id]] * level
    store.validate()


@pytest.mark.parametrize("scope", [[0, 1], [1, 0]], ids=["top_first", "below_first"])
def test_a_deactivation_below_another_watch_is_undone_in_place(scope):
    store = Store()
    for _ in range(3):
        store.add_variable(range(4))
    below = store.post_constraint(AllDifferent(scope))
    store.post_constraint(AllDifferent([1, 2]))
    store.post_constraint(AllDifferent([1]))
    before = watcher_stacks(store)
    assert before == [[0], [0, 1, 2], [1]]
    token = store.push_checkpoint()
    store.deactivate_constraint(below)
    assert watcher_stacks(store) == [[], [1, 2], [1]]
    store.validate()
    store.pop_checkpoint(token)
    assert watcher_stacks(store) == before and below.active
    store.validate()


def test_a_deactivation_that_misses_a_stack_raises_and_the_pop_restores():
    # x's stack has the id on top, y's has it below another watch, and z's
    # lacks it: the first two are changed before the third raises
    store = Store()
    x, y, z = (store.add_variable(range(4)) for _ in range(3))
    handle = store.post_constraint(AllDifferent([x, y, z]))
    store.post_constraint(AllDifferent([y, z]))
    store.watchers[z].remove(handle.id)  # not on the trail
    before = watcher_stacks(store)
    token = store.push_checkpoint()
    with pytest.raises(KernelError, match="not on 2's stack"):
        store.deactivate_constraint(handle)
    assert watcher_stacks(store) == [[], [1], [1]]
    store.pop_checkpoint(token)
    assert watcher_stacks(store) == before and handle.active
