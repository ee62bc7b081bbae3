"""Local filtering: the same result as whole-graph filtering, at local cost.

Adoption and deletion re-filter only the dead variables that reach the
change, and the changed variables' own edges.  That is exact only if the
rest of the graph was already filtered, so after every consistent step a
whole-graph filter over a copy of each live propagator must find nothing
left to remove.  A deletion of unmatched edges that `deletion_keeps_filtered`
proves harmless skips the filter, and must leave the store as the filter
would.  So must an adoption whose new variables all reach a free value,
which `filter_adopted_edges` prunes without the filter, at a cost that does
not grow with p.  Where the filter does run, after an adoption or a
deletion in a part that reaches free values, its cost does not grow with p
either, and a region longer than the recursion limit is filtered exactly.
"""

import copy
import math
import random
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynalldiff.alldiff
from dynalldiff.alldiff import AdoptingDynamizer, AllDifferent
from dynalldiff.errors import DomainWipeout, InitFailure, KernelError
from dynalldiff.matching import (
    Matching,
    OpCounters,
    build_value_graph,
    deletion_keeps_filtered,
    matching_covering_x,
    remove_edges,
    remove_edges_from_g,
)
from dynalldiff.store import Store

VALUES = 6

STEPS = st.lists(
    st.tuples(
        st.sampled_from(["ADD", "DEL", "POP"]),
        st.integers(0, 2**16),
        st.integers(0, 2**16),
        st.frozensets(st.integers(0, VALUES - 1), min_size=1, max_size=4),
    ),
    max_size=30,
)


def assert_filtered(store):
    for handle in store.constraints:
        if handle.active:
            graph, matching = copy.deepcopy(
                (handle.propagator.graph, handle.propagator.matching)
            )
            assert remove_edges_from_g(graph, matching, OpCounters()) == []


def replay(store, lines, steps):
    """Run ADD/DEL/POP steps; each new variable joins one constraint per group.

    `lines` is a list of groups of propagators (one group for a single
    constraint; rows and columns for a Latin-style grid).  Every ADD and
    DEL runs inside its own checkpoint, and POP undoes the newest one.
    """
    undo = []
    for op, pick, value_pick, domain in steps:
        if op == "POP":
            if not undo:
                continue
            token, added = undo.pop()
            store.pop_checkpoint(token)
            if added:
                store.retract_last_variable()
        elif store.failed:
            continue
        elif op == "ADD":
            var = store.add_variable(domain)
            undo.append((store.push_checkpoint(), True))
            ok = True
            for group in lines:
                if ok:
                    ok = group[pick % len(group)].add_variables(store, [var])[0]
            if ok:
                store.propagate_fixpoint()
        else:
            open_vars = [v for v, dom in enumerate(store.domains) if len(dom) > 1]
            if not open_vars:
                continue
            var = open_vars[pick % len(open_vars)]
            values = sorted(store.domains[var])
            undo.append((store.push_checkpoint(), False))
            store.remove_value(var, values[value_pick % len(values)])
            store.propagate_fixpoint()
        if not store.failed:
            store.validate()
            assert_filtered(store)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(first=st.frozensets(st.integers(0, VALUES - 1), min_size=1), steps=STEPS)
def test_local_equals_whole_graph_single_constraint(first, steps):
    store = Store()
    var = store.add_variable(first)
    prop = store.post_constraint(AllDifferent([var])).propagator
    replay(store, [[prop]], steps)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    grid=st.lists(
        st.frozensets(st.integers(0, VALUES - 1), min_size=2), min_size=6, max_size=6
    ),
    steps=STEPS,
)
def test_local_equals_whole_graph_latin_style(grid, steps):
    # a 2 x 3 grid with a row and a column alldifferent per line; each new
    # variable joins one column and one row
    store = Store()
    cells = [store.add_variable(dom) for dom in grid]
    rows = [cells[0:3], cells[3:6]]
    columns = [[cells[c], cells[3 + c]] for c in range(3)]
    try:
        lines = [
            [store.post_constraint(AllDifferent(row)).propagator for row in rows],
            [store.post_constraint(AllDifferent(col)).propagator for col in columns],
        ]
    except (InitFailure, DomainWipeout):
        return
    if not store.propagate_fixpoint():
        return
    assert_filtered(store)
    replay(store, lines, steps)


def test_deletion_that_splits_a_component():
    # x in {a, b, c}, y in {a, b}, z in {c, d}; matched x=a, y=b, z=c.
    # Deleting a and b from x cuts {y, a, b} off from x: only x's side is
    # re-filtered, and y's side, with a now free, has nothing to lose.
    a, b, c, d = range(4)
    store = Store()
    x, y, z = (store.add_variable(dom) for dom in ({a, b, c}, {a, b}, {c, d}))
    prop = store.post_constraint(AllDifferent([x, y, z])).propagator
    assert store.propagate_fixpoint()
    assert prop.matching.pair_of_var == {x: a, y: b, z: c}
    token = store.push_checkpoint()
    store.remove_value(x, a)
    store.remove_value(x, b)
    assert store.propagate_fixpoint()
    assert [store.domain(v) for v in (x, y, z)] == [{c}, {a, b}, {d}]
    assert_filtered(store)
    store.pop_checkpoint(token)
    assert prop.matching.pair_of_var == {x: a, y: b, z: c}


def _drop_domain_value(store, prop):
    store.domains[0].discard(max(prop.graph.adj_var[0]))  # the graph still has it


def _unmatch(store, prop):
    prop.matching.assign([(0, None)])


def _match_off_graph(store, prop):
    free = next(v for v in store.domains[0] if v not in prop.matching.pair_of_val)
    prop.graph.remove_edge(0, free)
    prop.matching.assign([(0, free)])


def _drop_watcher(store, prop):
    store.watchers[1].remove(prop.handle_id)


def _freeze_in_place(store, prop):
    store.constraints[0].active = False  # its id stays on two stacks


def _adopt_unknown_variable(store, prop):
    unknown = len(store.domains)  # a variable with no domain
    prop.graph.add_var(unknown, [0])


def _drop_transposed_edge(store, prop):
    del prop.graph.adj_val[prop.matching.pair_of_var[0]][0]


def _keep_value_without_edges(store, prop):
    prop.graph.adj_val[4] = {}  # no variable has 4 in its domain


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_drop_domain_value, "outside its domain"),
        (_unmatch, "does not cover"),
        (_match_off_graph, "is not an edge"),
        (_drop_watcher, "watchers and watched_vars disagree"),
        (_freeze_in_place, "watchers and watched_vars disagree"),
        (_adopt_unknown_variable, "differ from the watched ones"),
        (_drop_transposed_edge, "not the transpose"),
        (_keep_value_without_edges, "has no edge"),
    ],
)
def test_validate_rejects_a_corrupted_copy(corrupt, message):
    store = Store()
    cells = [store.add_variable(range(4)) for _ in range(3)]
    store.post_constraint(AllDifferent(cells[:2]))
    prop = store.post_constraint(AllDifferent(cells)).propagator
    assert store.propagate_fixpoint()
    store.validate()
    broken = copy.deepcopy(store)
    corrupt(broken, broken.constraints[prop.handle_id].propagator)
    with pytest.raises(KernelError, match=message):
        broken.validate()
    store.validate()  # the original is untouched


def test_filter_visits_per_adoption_flat_on_disjoint_blocks():
    # blocks of 6 variables over their own 8 values: each adoption touches
    # one block, so the filter's work must not grow with p
    rng = random.Random(5)
    store = Store()
    prop = None
    visits = {}  # p after the adoption -> filter visits of that adoption
    for block in range(105):
        values = range(8 * block, 8 * block + 8)
        for _ in range(6):
            var = store.add_variable(rng.sample(values, rng.randint(2, 4)))
            token = store.push_checkpoint()
            if prop is None:
                prop = store.post_constraint(AllDifferent([var])).propagator
                continue
            before = store.counters.filter_visits
            if prop.add_variables(store, [var])[0] and store.propagate_fixpoint():
                visits[len(prop.graph.adj_var)] = store.counters.filter_visits - before
            else:
                store.pop_checkpoint(token)
                store.retract_last_variable()
    small = [n for p, n in visits.items() if 30 <= p < 90]
    large = [n for p, n in visits.items() if 570 <= p < 630]
    assert len(small) > 40 and len(large) > 40
    assert statistics.mean(large) <= 1.5 * statistics.mean(small)


def latin_rectangle_run(seed, steps=200):
    """A seeded interleaving of ADD, DEL, push and pop on a Latin rectangle.

    Three rows of four cells over the values 0..5 hold the planted
    rectangle (r + c) % 6 plus two to four other values, under a row and a
    column alldifferent each.  ADD adopts a new cell into one row and one
    column and DEL removes a value of an open cell, each in its own
    checkpoint; pop undoes the newest ADD, DEL or push, and follows every
    failure.  Returns (consistent, checksum) per step.
    """
    rng = random.Random(seed)
    store = Store()
    cells = [
        [store.add_variable({(r + c) % 6, *rng.sample(range(6), rng.randint(2, 4))})
         for c in range(4)]
        for r in range(3)
    ]
    rows = [store.post_constraint(AllDifferent(row)).propagator for row in cells]
    columns = [
        store.post_constraint(AllDifferent(list(col))).propagator
        for col in zip(*cells)
    ]
    log = [(store.propagate_fixpoint(), store.checksum())]
    undo = []  # (token, whether it was an ADD)
    for _ in range(steps):
        op = "pop" if store.failed else rng.choice(["ADD", "DEL", "push", "pop"])
        if op == "pop" and undo:
            token, added = undo.pop()
            store.pop_checkpoint(token)
            if added:
                store.retract_last_variable()
        elif op == "push":
            undo.append((store.push_checkpoint(), False))
        elif op == "ADD":
            var = store.add_variable(rng.sample(range(6), rng.randint(2, 5)))
            undo.append((store.push_checkpoint(), True))
            if (
                rng.choice(rows).add_variables(store, [var])[0]
                and rng.choice(columns).add_variables(store, [var])[0]
            ):
                store.propagate_fixpoint()
        elif op == "DEL":
            open_vars = [v for v, dom in enumerate(store.domains) if len(dom) > 1]
            if open_vars:
                var = rng.choice(open_vars)
                undo.append((store.push_checkpoint(), False))
                store.remove_value(var, rng.choice(sorted(store.domains[var])))
                store.propagate_fixpoint()
        log.append((not store.failed, store.checksum()))
    return log


def _never_keeps(*args, **kwargs):
    return False


def test_skipping_the_filter_is_invisible(monkeypatch):
    # forcing the check to False takes the filter on every deletion, as
    # before the check existed: verdicts and checksums must agree per step
    for seed in range(4):
        skipping = latin_rectangle_run(seed)
        with monkeypatch.context() as patch:
            patch.setattr(dynalldiff.alldiff, "deletion_keeps_filtered", _never_keeps)
            filtering = latin_rectangle_run(seed)
        assert skipping == filtering, seed
        assert {True, False} == {consistent for consistent, _ in skipping}


def _never_decides(*args, **kwargs):
    return None


def test_adopting_without_the_filter_is_invisible(monkeypatch):
    # forcing the rule to fall back filters every adoption, as before the
    # rule existed: verdicts and checksums must agree per step
    for seed in range(4):
        deciding = latin_rectangle_run(seed)
        with monkeypatch.context() as patch:
            patch.setattr(dynalldiff.alldiff, "filter_adopted_edges", _never_decides)
            filtering = latin_rectangle_run(seed)
        assert deciding == filtering, seed


def test_skipping_the_filter_saves_filter_calls(monkeypatch):
    real = dynalldiff.alldiff.remove_edges_from_g
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynalldiff.alldiff, "remove_edges_from_g", counted)
    latin_rectangle_run(0)
    skipping = len(calls)
    monkeypatch.setattr(dynalldiff.alldiff, "deletion_keeps_filtered", _never_keeps)
    latin_rectangle_run(0)
    filtering = len(calls) - skipping
    assert 0 < skipping < filtering


def test_a_repaired_deletion_can_skip_the_filter(monkeypatch):
    # two variables over three values: after x0 loses its matched value the
    # repair leaves one value free, which x0 reaches, so nothing is filtered
    store = Store()
    xs = [store.add_variable({0, 1, 2}) for _ in range(2)]
    prop = store.post_constraint(AllDifferent(xs)).propagator
    assert store.propagate_fixpoint()
    lost = prop.matching.pair_of_var[xs[0]]
    real = dynalldiff.alldiff.remove_edges_from_g
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynalldiff.alldiff, "remove_edges_from_g", counted)
    token = store.push_checkpoint()
    assert store.remove_value(xs[0], lost) and store.propagate_fixpoint()
    assert calls == []
    assert prop.matching.covers(xs) and lost not in prop.graph.adj_var[xs[0]]
    assert [store.domain(x) for x in xs] == [{0, 1, 2} - {lost}, {0, 1, 2}]
    store.validate()
    assert_filtered(store)
    store.pop_checkpoint(token)
    store.validate()


def _no_filter(*args, **kwargs):
    raise AssertionError("the adoption called the filter")


def test_adoption_cost_does_not_grow_with_p(monkeypatch):
    # one connected alldifferent: x_i has three values of its own, 3i to
    # 3i + 2, and from x2 on also the values x_{i-1} and x_{i-2} are matched
    # to.  So each x_i takes a value of its own, and the arcs that join the
    # graph lead back from later variables, none out of x0 or x1 but to
    # their own free values.  Adopting y in {the values x0 and x1 are matched
    # to, 3p} matches y = 3p, its one free value, and searches y and the
    # owners of its other values, x0 and x1, which see free values at once,
    # whatever order their values are listed in: 3 filter visits at p = 10
    # as at p = 400.  The seeded filter from y, which the rule falls back to,
    # finds y, x0 and x1 alive at their first arcs and meets no dead
    # variable: its cost does not grow with p either, where a walk over y's
    # component would take p + 1 visits.
    visits, seeded = {}, {}
    for p in (10, 400):
        store = Store()
        xs = [store.add_variable({0, 1, 2})]
        prop = store.post_constraint(AllDifferent(xs)).propagator
        pair = prop.matching.pair_of_var
        for i in range(1, p):
            links = {pair[x] for x in xs[-2:]} if i >= 2 else set()
            xs.append(store.add_variable({3 * i, 3 * i + 1, 3 * i + 2, *links}))
            assert prop.add_variables(store, xs[-1:])[0] and store.propagate_fixpoint()
        y = store.add_variable({pair[xs[0]], pair[xs[1]], 3 * p})
        with monkeypatch.context() as patch:
            patch.setattr(dynalldiff.alldiff, "remove_edges_from_g", _no_filter)
            before = store.counters.filter_visits
            assert prop.add_variables(store, [y])[0]
            visits[p] = store.counters.filter_visits - before
            assert store.propagate_fixpoint()
        assert pair[y] == 3 * p
        store.validate()
        assert_filtered(store)
        graph, matching = copy.deepcopy((prop.graph, prop.matching))
        counters = OpCounters()
        assert remove_edges_from_g(graph, matching, counters, seeds=[y]) == []
        seeded[p] = counters.filter_visits
    assert visits[10] == visits[400] == 3
    assert seeded[10] == seeded[400] == 3


F, G, H, K = range(4)  # the variables of `owners_store`


def owners_store():
    """f = 0 fixed, g in {1, 5}, h in {2, 3}, k in {3, 4}; 4 and 5 free.

    Matched f = 0, g = 1, h = 2, k = 3.  f has only its matched edge, g sees
    the free value 5 itself, and h reaches a free value only through k.
    """
    store = Store()
    cells = [store.add_variable(dom) for dom in ({0}, {1, 5}, {2, 3}, {3, 4})]
    prop = store.post_constraint(AllDifferent(cells)).propagator
    assert store.propagate_fixpoint()
    assert prop.matching.pair_of_var == {F: 0, G: 1, H: 2, K: 3}
    return store, prop


@pytest.mark.parametrize(
    "domain, visits, removed",
    [
        # y's own visit, then one for f: its one arc is matched, so it is a
        # closed set, and (y, 0) goes; y reaches the free value 7 itself
        ({0, 6, 7}, 2, [(0, F)]),
        # one for g, alive at its arc to the free value 5
        ({1, 6}, 2, []),
        # two for h's search: h's one other arc leads to k, not yet known,
        # and k sees the free value 4
        ({2, 6}, 3, []),
        ({0, 1, 2, 6}, 5, [(0, F)]),
    ],
)
def test_the_rule_decides_owners_by_their_own_arcs(
    monkeypatch, domain, visits, removed
):
    store, prop = owners_store()
    y = store.add_variable(domain)
    with monkeypatch.context() as patch:
        patch.setattr(dynalldiff.alldiff, "remove_edges_from_g", _no_filter)
        before = store.counters.filter_visits
        graph, matching = copy.deepcopy((prop.graph, prop.matching))
        ok, delta = prop.add_variables(store, [y])
        assert ok and store.counters.filter_visits - before == visits
    assert prop.matching.pair_of_var[y] == 6
    assert delta.removed == [(y, val) for val, _owner in removed]
    # the seeded filter, on a copy of the graph adopting y without the rule
    graph.add_var(y, domain)
    assert matching_covering_x(graph, matching, OpCounters(), [y], [])
    filtered = remove_edges_from_g(graph, matching, OpCounters(), seeds=[y])
    assert filtered == delta.removed
    assert store.propagate_fixpoint()
    store.validate()
    assert_filtered(store)


def _loglog_slope(points):
    """The least-squares slope of log(cost) against log(p)."""
    return statistics.linear_regression(
        [math.log(p) for p, _ in points], [math.log(cost) for _, cost in points]
    ).slope


def test_adoption_counters_per_add_stay_flat_up_to_p_1600():
    # the wide family: the i-th of 1600 size-6 domains is drawn from the
    # first 5 i values (the first from 0..5), so about 80% of the values stay
    # free and the cost per ADD shows p alone.  Filter visits, augment visits
    # and trailed cells per ADD, averaged over bands of 400 ADDs, must not
    # grow with p: adoption costs O(d), where a re-post costs O(p d)
    rng = random.Random(0)
    store = Store()
    grower = AdoptingDynamizer(store)
    per_add = []  # (augment visits, filter visits, trailed cells) per ADD
    for i in range(1, 1601):
        var = store.add_variable(rng.sample(range(max(6, 5 * i)), 6))
        before = store.counters.snapshot()
        assert grower.add_variable(var)
        per_add.append(
            tuple(b - a for a, b in zip(before, store.counters.snapshot()))
        )
    bands = [per_add[start:start + 400] for start in range(0, 1600, 400)]
    for counter in range(3):
        points = [
            (400 * (band + 1), statistics.fmean(add[counter] for add in adds))
            for band, adds in enumerate(bands)
        ]
        assert _loglog_slope(points) < 0.1, (counter, points)


def alive_chain(p):
    """x_i in {i, i+1, 1000 + i} matched x_i = i: one component, every x_i alive.

    Each x_i sees its own free value 1000 + i, so the graph is filtered.
    """
    graph = build_value_graph((i, {i, i + 1, 1000 + i}) for i in range(p))
    matching = Matching()
    for i in range(p):
        matching.match(i, i)
    assert remove_edges_from_g(graph, matching, OpCounters()) == []
    return graph, matching


def test_deletion_fallback_cost_does_not_grow_with_p():
    # cutting x5 to its matched value 5 leaves it no arc out, so it is dead,
    # the deletion check cannot prove anything, and the seeded filter runs.
    # It visits x5 and x4, the one other variable with an edge to 5, which
    # is alive, so (x4, 5) goes: 2 visits at p = 10 as at p = 400, and
    # exactly what the whole-graph filter removes
    seeded, removed = {}, {}
    for p in (10, 400):
        graph, matching = alive_chain(p)
        lost = [6, 1005]
        assert not remove_edges(graph, matching, 5, lost, [], [])
        counters = OpCounters()
        assert not deletion_keeps_filtered(graph, matching, 5, lost, counters)
        whole = copy.deepcopy((graph, matching))
        counters = OpCounters()
        removed[p] = remove_edges_from_g(graph, matching, counters, seeds=[5])
        seeded[p] = counters.filter_visits
        assert removed[p] == remove_edges_from_g(*whole, OpCounters())
    assert removed[10] == removed[400] == [(4, 5)]
    assert seeded[10] == seeded[400] == 2


@pytest.mark.parametrize("change", ["deletion", "adoption", "adoption on a cycle"])
def test_seeded_filter_past_the_recursion_limit(change):
    # x_i in {i, i+1} over 5000 variables, matched x_i = i with 5000 free.
    # Dropping 5000 from the last variable kills the whole chain, and
    # adopting y in {0} shifts every x_i up and takes the last free value:
    # either way every variable is dead and reaches the seed, so the region
    # is the whole chain and every unmatched edge left goes.  Adopting y in
    # {0, 5000} instead closes the chain into one cycle, walked by one
    # Tarjan tree 5001 variables deep, and nothing goes.
    links = 5000
    assert links > sys.getrecursionlimit()
    graph = build_value_graph((i, {i, i + 1}) for i in range(links))
    matching = Matching()
    for i in range(links):
        matching.match(i, i)
    if change == "deletion":
        seed = links - 1
        assert not remove_edges(graph, matching, seed, [links], [], [])
    else:
        seed = links
        graph.add_var(seed, {0} if change == "adoption" else {0, links})
        assert matching_covering_x(graph, matching, OpCounters(), [seed], [])
    whole = copy.deepcopy((graph, matching))
    expected = remove_edges_from_g(*whole, OpCounters())
    assert remove_edges_from_g(graph, matching, OpCounters(), seeds=[seed]) == expected
    assert len(expected) == {"deletion": links - 1, "adoption": links}.get(change, 0)
