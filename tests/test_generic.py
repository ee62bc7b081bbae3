"""Generic dynamization wrapper and the monotonicity check."""

import gc
import random
import sys

import pytest

from dynalldiff.alldiff import AllDifferent
from dynalldiff.errors import DuplicateVariable, EmptyHistory, TooLarge
from dynalldiff.generic import GenericDynamizer, check_monotonic
from dynalldiff.oracle import all_values_distinct
from dynalldiff.store import Store, _DomainsPushed

A, B, C, D = 0, 1, 2, 3


def exactly_one_equals_a(assignment):
    """Deliberately non-monotonic toy constraint (test fixture only)."""
    return sum(1 for v in assignment if v == A) == 1


def test_first_add_posts_single_constraint():
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    x1 = store.add_variable({A, B})
    assert wrapper.add_variable(x1) is True
    assert wrapper.active_handle is not None
    assert len([h for h in store.constraints if h.active]) == 1


def test_triple_via_three_generic_adds():
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    for domain in ({A, B}, {A, B}, {A, B, C}):
        var = store.add_variable(domain)
        assert wrapper.add_variable(var) is True
    assert store.domain(2) == {C}
    # one active constraint over all three, two deactivated ancestors
    assert len(store.constraints) == 3
    assert [h.active for h in store.constraints] == [False, False, True]


def test_add_after_triple_pigeonhole_false():
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    for domain in ({A, B}, {A, B}, {A, B, C}):
        wrapper.add_variable(store.add_variable(domain))
    x4 = store.add_variable({C})
    assert wrapper.add_variable(x4) is False
    assert store.failed


def test_duplicate_variable_rejected():
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    x1 = store.add_variable({A})
    wrapper.add_variable(x1)
    with pytest.raises(DuplicateVariable):
        wrapper.add_variable(x1)


def test_add_remove_restores_checksum():
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    wrapper.add_variable(store.add_variable({A, B}))
    wrapper.add_variable(store.add_variable({A, B}))
    before = store.checksum()
    var = store.add_variable({A, B, C})
    wrapper.add_variable(var)
    wrapper.remove_variable()
    store.retract_last_variable()
    assert store.checksum() == before


def test_remove_on_empty_history():
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    with pytest.raises(EmptyHistory):
        wrapper.remove_variable()


def test_add_three_remove_three_restores_initial():
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    initial = store.checksum()
    for domain in ({A, B}, {A, B}, {A, B, C}):
        wrapper.add_variable(store.add_variable(domain))
    for _ in range(3):
        wrapper.remove_variable()
        store.retract_last_variable()
    assert store.checksum() == initial
    assert len(store.trail) == 0


def test_remove_restores_even_after_failed_add():
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    x1 = store.add_variable({A})
    wrapper.add_variable(x1)
    before = store.checksum()
    var = store.add_variable({A})
    assert wrapper.add_variable(var) is False
    assert store.failed
    assert wrapper.variables == [x1, var]  # the failed posting's scope
    wrapper.remove_variable()
    store.retract_last_variable()
    assert not store.failed
    assert store.checksum() == before


def test_a_frozen_level_is_kept_as_it_is_and_the_pops_reactivate_it():
    # the second ADD freezes the first level's propagator; nothing copies
    # it, and the trail's cells stay those of a copy's worth of structure
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    cells, frozen = [], None
    for dom in ({A, B}, {A, B}, {A, B, C}, {C, D}):
        var = store.add_variable(dom)
        before = store.counters.trailed_cells
        assert wrapper.add_variable(var) is True
        cells.append(store.counters.trailed_cells - before)
        if frozen is None:
            prop = wrapper.active_handle.propagator
            frozen = (prop, prop.graph, prop.matching, prop.state_digest())
    assert cells == [6, 21, 37, 43]
    assert wrapper.variables == [0, 1, 2, 3]
    for _ in range(3):
        wrapper.remove_variable()
        store.retract_last_variable()
    prop, graph, matching, digest = frozen
    assert wrapper.variables == [0]
    assert wrapper.active_handle.active
    assert wrapper.active_handle.propagator is prop
    assert prop.graph is graph and prop.matching is matching
    assert prop.state_digest() == digest


def test_repost_freshness_same_state_as_scratch():
    # after an add, the active propagator's internals depend only on the
    # current domains: compare against a from-scratch posting on a clone
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    domains = [{A, B}, {A, B}, {A, B, C}]
    for dom in domains:
        wrapper.add_variable(store.add_variable(set(dom)))
    live = [set(store.domain(v)) for v in range(3)]

    clone = Store()
    vars_ = [clone.add_variable(set(dom)) for dom in live]
    handle = clone.post_constraint(AllDifferent(vars_))
    clone.propagate_fixpoint()
    assert (
        wrapper.active_handle.propagator.state_digest()
        == handle.propagator.state_digest()
    )


def test_trailed_cells_generic_dominates_dynamic():
    # same scenario, one variable at a time: per-step trail growth of the
    # wrapper is at least that of the dynamic adoption
    domains = [{A, B}, {A, B, C}, {B, C, D}, {A, D}]

    g_store = Store()
    wrapper = GenericDynamizer(g_store, AllDifferent)
    g_cost = []
    for dom in domains:
        var = g_store.add_variable(set(dom))
        before = g_store.counters.trailed_cells
        wrapper.add_variable(var)
        g_cost.append(g_store.counters.trailed_cells - before)

    d_store = Store()
    d_cost = []
    prop = None
    for dom in domains:
        var = d_store.add_variable(set(dom))
        before = d_store.counters.trailed_cells
        d_store.push_checkpoint()
        if prop is None:
            handle = d_store.post_constraint(AllDifferent([var]))
            prop = handle.propagator
        else:
            prop.add_variables(d_store, [var])
        d_store.propagate_fixpoint()
        d_cost.append(d_store.counters.trailed_cells - before)

    assert all(g >= d for g, d in zip(g_cost, d_cost))


def test_monotonic_alldifferent_random_instances():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.randint(1, 4)
        d = rng.randint(1, 5)
        base = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        ext = set(rng.sample(range(d), rng.randint(1, d)))
        assert check_monotonic(all_values_distinct, base, ext) is True


def test_non_monotonic_toy_counterexample():
    assert check_monotonic(exactly_one_equals_a, [{A, B}], {A, B}) is False


def test_monotonic_vacuous_on_empty_base():
    assert check_monotonic(all_values_distinct, [], {A, B}) is True


def test_monotonic_too_large():
    with pytest.raises(TooLarge):
        check_monotonic(all_values_distinct, [set(range(60))] * 4, set(range(60)))


@pytest.mark.skipif(
    sys.implementation.name != "cpython",
    reason="which objects the cyclic collector tracks is CPython's rule",
)
def test_the_collector_tracks_no_domain_copy_and_no_value_vertex():
    # the re-post baseline keeps a domain copy per variable and a frozen
    # graph per level; neither holds a reference cycle, and neither is
    # walked by the cyclic garbage collector: not the copies, not a value's
    # variables and not a variable's values, in a frozen graph or in the
    # active one, whose edges a deletion took and its pop gave back
    rng = random.Random(5)
    store = Store()
    wrapper = GenericDynamizer(store, AllDifferent)
    for block in range(5):
        values = range(8 * block, 8 * block + 8)
        for _ in range(6):
            var = store.add_variable(rng.sample(values, rng.randint(2, 4)))
            assert wrapper.add_variable(var)
    active = wrapper.active_handle.propagator.graph
    wide = [var for var in wrapper.variables if len(store.domain(var)) > 1]
    for var in rng.sample(wide, 10):
        token = store.push_checkpoint()
        assert store.remove_value(var, min(store.domain(var)))
        store.propagate_fixpoint()
        store.pop_checkpoint(token)
    gc.collect()
    copies = [
        copy for frame in store.trail if isinstance(frame, _DomainsPushed)
        for copy in frame.copies
    ]
    assert len(copies) == sum(range(1, 31))
    assert not any(gc.is_tracked(copy) for copy in copies)
    graphs = [handle.propagator.graph for handle in store.constraints]
    assert len(graphs) == 30 and sum(handle.active for handle in store.constraints) == 1
    owners = [vars_ for graph in graphs for vars_ in graph.adj_val.values()]
    assert owners
    assert not any(gc.is_tracked(vars_) for vars_ in owners)
    edges = [vals for graph in graphs for vals in graph.adj_var.values()]
    assert len(edges) == sum(range(1, 31)) and len(active.adj_var) == 30
    assert not any(gc.is_tracked(vals) for vals in edges)
