"""Dynamic alldifferent: init, deletion propagation, adoption, retraction."""

import random

import pytest

from dynalldiff.alldiff import AllDifferent
from dynalldiff.errors import (
    DomainWipeout,
    DuplicateVariable,
    InactiveConstraint,
    InitFailure,
)
from dynalldiff.matching import graph_checksum
from dynalldiff.oracle import all_values_distinct, gac_filter_bruteforce
from dynalldiff.store import Store, _FailedFlag, _ValueRemoved

A, B, C, D, E = 0, 1, 2, 3, 4


def triple_store():
    store = Store()
    x1 = store.add_variable({A, B})
    x2 = store.add_variable({A, B})
    x3 = store.add_variable({A, B, C})
    handle = store.post_constraint(AllDifferent([x1, x2, x3]))
    store.propagate_fixpoint()
    return store, handle, (x1, x2, x3)


def post_alldiff(store, vars_):
    handle = store.post_constraint(AllDifferent(vars_))
    store.propagate_fixpoint()
    return handle


def engine_domains(domains):
    """alldiff_init + fixpoint on fresh variables; None when inconsistent."""
    store = Store()
    vars_ = [store.add_variable(set(dom)) for dom in domains]
    try:
        store.post_constraint(AllDifferent(vars_))
    except InitFailure:
        return None
    if not store.propagate_fixpoint():
        return None
    return [store.domain(v) for v in vars_]


def test_init_triple_filters_third():
    store, _handle, (x1, x2, x3) = triple_store()
    assert store.domain(x3) == {C}
    assert store.domain(x1) == {A, B}
    assert store.domain(x2) == {A, B}


def test_init_pigeonhole_fails_without_mutating():
    store = Store()
    x1 = store.add_variable({A})
    x2 = store.add_variable({A})
    prop = AllDifferent([x1, x2])
    with pytest.raises(InitFailure):
        store.post_constraint(prop)
    assert store.domain(x1) == {A}
    assert store.domain(x2) == {A}
    # the graph the failed init built and half matched is not kept
    assert not prop.graph.adj_var and not prop.graph.pair_of_var


def test_init_disjoint_singletons_no_removals():
    store = Store()
    x1 = store.add_variable({A})
    x2 = store.add_variable({B})
    trail_before = len(store.trail)
    post_alldiff(store, [x1, x2])
    pushed = store.trail[trail_before:]
    # nothing was filtered and nothing failed
    assert not any(isinstance(f, (_ValueRemoved, _FailedFlag)) for f in pushed)
    assert store.domain(x1) == {A}
    assert store.domain(x2) == {B}


def test_propagate_unmatched_edge_fast_path_no_augmenting():
    store = Store()
    x1 = store.add_variable({A, B})
    x2 = store.add_variable({C, D})
    handle = post_alldiff(store, [x1, x2])
    visits_before = store.counters.augment_visits
    # (x1, B) or (x1, A): remove the one the matching does not use
    unmatched = (
        store.constraints[handle.id].propagator.graph.pair_of_var[x1]
    )
    victim = B if unmatched == A else A
    assert store.remove_value(x1, victim)
    assert store.propagate_fixpoint() is True
    assert store.counters.augment_visits == visits_before


@pytest.mark.parametrize("p", [10, 200])
def test_repair_with_a_free_value_at_hand_searches_one_variable(p):
    # p variables over p + 1 shared values: every value but one has an
    # owner, so the new variable's values have p owners, yet its own
    # domain holds a free value and its search need go no further
    store = Store()
    vars_ = [store.add_variable(set(range(p + 1))) for _ in range(p)]
    handle = post_alldiff(store, vars_)
    prop = store.constraints[handle.id].propagator
    x = store.add_variable(set(range(p + 2)))
    before = store.counters.augment_visits
    ok, _delta = prop.add_variables(store, [x])
    assert ok and store.propagate_fixpoint()
    assert store.counters.augment_visits - before == 1

    # a variable whose matched value goes while a free value is at hand
    graph = prop.graph
    free = set(graph.adj_val) - set(graph.pair_of_val)
    var = next(v for v in graph.adj_var if graph.adj_var[v].keys() & free)
    before = store.counters.augment_visits
    assert store.remove_value(var, graph.pair_of_var[var])
    assert store.propagate_fixpoint()
    assert store.counters.augment_visits - before == 1


def test_propagate_two_by_two_forces_partner():
    # deleting (x1, A) reroutes the matching and the filter pins x2 to A
    store = Store()
    x1 = store.add_variable({A, B})
    x2 = store.add_variable({A, B})
    post_alldiff(store, [x1, x2])
    assert store.remove_value(x1, A)
    assert store.propagate_fixpoint() is True
    assert store.domain(x1) == {B}
    assert store.domain(x2) == {A}
    # oracle agreement on the shrunk instance
    assert gac_filter_bruteforce(all_values_distinct, [{B}, {A, B}]) == [
        {B},
        {A},
    ]


def test_propagate_second_deletion_inconsistent():
    # after the first deletion the filter leaves x1={B}, x2={A}, x3={C};
    # deleting x1's last support via the propagator is then inconsistent
    store, handle, (x1, x2, x3) = triple_store()
    prop = store.constraints[handle.id].propagator
    assert store.remove_value(x2, B)
    assert store.propagate_fixpoint() is True
    assert store.domain(x1) == {B} and store.domain(x2) == {A}
    assert gac_filter_bruteforce(all_values_distinct, [set(), {A}, {C}]) is None
    store.domains[x1].discard(B)  # as no remove_value may: x1 left empty
    assert prop.on_values_removed(store, x1) is False


def test_adopt_late_arrivals_extension():
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    x4 = store.add_variable({C, D})
    x5 = store.add_variable({D, E})
    ok, delta = prop.add_variables(store, [x4, x5])
    assert ok
    assert store.propagate_fixpoint() is True
    # previously filtered edges are absent from the extended graph
    assert not prop.graph.has_edge(2, A)
    assert not prop.graph.has_edge(2, B)
    # the covering matching has size 5
    assert prop.graph.pair_of_var.keys() == {0, 1, 2, x4, x5}
    # the post-update filter drops (x4, C) and (x5, D): a covering with
    # x4=C would leave x3 unmatched
    assert store.domain(x4) == {D}
    assert store.domain(x5) == {E}
    assert delta.var_vertices == [x4, x5]


def test_adopt_locality_new_edges_touch_only_new_vars():
    store, handle, old = triple_store()
    prop = store.constraints[handle.id].propagator
    before = {var: set(vals) for var, vals in prop.graph.adj_var.items()}
    x4 = store.add_variable({C, D})
    x5 = store.add_variable({D, E})
    _ok, delta = prop.add_variables(store, [x4, x5])
    assert list(prop.graph.adj_var) == [*old, x4, x5]
    assert {var: set(prop.graph.adj_var[var]) for var in old} == before
    assert delta.added == 4  # counted, not stored: the graph holds the edges


def test_adopt_single_value_pigeonhole_fails():
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    x4 = store.add_variable({C})
    ok, delta = prop.add_variables(store, [x4])
    assert ok is False
    assert store.failed
    assert delta.flips == [] and delta.removed == []


def test_adopt_private_value_zero_filtered():
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    x4 = store.add_variable({D})
    ok, delta = prop.add_variables(store, [x4])
    assert ok
    assert delta.removed == []


def test_adopt_duplicate_variable_rejected():
    store, handle, (x1, _x2, _x3) = triple_store()
    prop = store.constraints[handle.id].propagator
    with pytest.raises(DuplicateVariable):
        prop.add_variables(store, [x1])


def test_adopting_into_a_deactivated_constraint_changes_nothing():
    store, handle, _vars = triple_store()
    prop = handle.propagator
    x4 = store.add_variable({C, D})
    x5 = store.add_variable({D, E})
    store.deactivate_constraint(handle)
    before, trail = store.checksum(), list(store.trail)
    with pytest.raises(InactiveConstraint):
        prop.add_variables(store, [x4, x5])
    assert store.checksum() == before and store.trail == trail
    assert list(prop.graph.adj_var) == handle.watched_vars


def test_adopting_into_a_never_posted_constraint_changes_nothing():
    store = Store()
    a = store.add_variable({A, B})
    b = store.add_variable({B, C})
    prop = AllDifferent([a])
    before, trail_len = store.checksum(), len(store.trail)
    with pytest.raises(InactiveConstraint):
        prop.add_variables(store, [b])
    assert store.checksum() == before and len(store.trail) == trail_len
    assert prop.variables == [a] and not prop.graph.adj_var


def test_retract_restores_checksum():
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    digest = graph_checksum(prop.graph)
    x4 = store.add_variable({C, D})
    x5 = store.add_variable({D, E})
    token = store.push_checkpoint()
    prop.add_variables(store, [x4, x5])
    assert graph_checksum(prop.graph) != digest
    store.pop_checkpoint(token)
    assert graph_checksum(prop.graph) == digest


@pytest.mark.parametrize("links", [1500, 3000])
def test_adoption_along_chain_longer_than_recursion_limit(links):
    # x_i in {i, i+1}: adopting y in {0} shifts every x_i up one value, along
    # one augmenting path of `links` steps
    store = Store()
    chain = [store.add_variable({i, i + 1}) for i in range(links)]
    prop = post_alldiff(store, chain).propagator
    prop.graph.assign((x, i) for i, x in enumerate(chain))
    before = store.checksum()
    y = store.add_variable({0})
    token = store.push_checkpoint()
    ok, delta = prop.add_variables(store, [y])
    assert ok and store.propagate_fixpoint()
    assert all(store.domain(x) == {i + 1} for i, x in enumerate(chain))
    assert len(delta.flips) == links + 1
    store.pop_checkpoint(token)
    store.retract_last_variable()
    assert store.checksum() == before


def test_retract_after_failed_adoption():
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    digest = graph_checksum(prop.graph)
    before = store.checksum()
    x4 = store.add_variable({C})
    token = store.push_checkpoint()
    ok, _delta = prop.add_variables(store, [x4])
    assert not ok
    store.pop_checkpoint(token)
    store.retract_last_variable()
    assert graph_checksum(prop.graph) == digest
    assert store.checksum() == before


def test_adoption_after_failed_adoption_stays_inconsistent():
    # x4 stays uncovered after its failed adoption; the branch has failed,
    # so the next adoption fails too, without a search
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    x4 = store.add_variable({C})
    assert not prop.add_variables(store, [x4])[0]
    x5 = store.add_variable({D})
    ok, delta = prop.add_variables(store, [x5])
    assert not ok
    assert delta.flips == [] and delta.removed == []
    assert x4 not in prop.graph.pair_of_var


def test_adoption_on_a_failed_branch_runs_no_search():
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    x4 = store.add_variable({C})
    assert not prop.add_variables(store, [x4])[0]
    x5 = store.add_variable({D})
    visits = store.counters.augment_visits
    assert not prop.add_variables(store, [x5])[0]
    assert store.counters.augment_visits == visits
    # x5 is adopted and watched all the same, so the store stays coherent
    assert x5 in prop.graph.adj_var
    store.validate()


def test_failed_batch_adoption_leaves_its_flips_to_the_pop():
    # x4 finds the free value D, then x5 in {C} finds no path: x4's flip
    # stays in the matching and in the call's Delta, and the pop undoes it
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    before = store.checksum()
    x4 = store.add_variable({C, D})
    x5 = store.add_variable({C})
    token = store.push_checkpoint()
    ok, delta = prop.add_variables(store, [x4, x5])
    assert not ok and store.failed
    assert delta.flips == [(x4, None)] and prop.graph.pair_of_var[x4] == D
    store.pop_checkpoint(token)
    store.retract_last_variable()
    store.retract_last_variable()
    assert store.checksum() == before
    store.validate()


def test_the_scope_is_the_live_one():
    # the handle watches the propagator's own list, which an adoption grows
    # and its pop shrinks; the posted list itself is copied, not shared
    store = Store()
    xs = [store.add_variable({A, B, C}) for _ in range(2)]
    handle = store.post_constraint(AllDifferent(xs))
    prop = handle.propagator
    assert prop.variables is not xs
    y = store.add_variable({C, D})
    token = store.push_checkpoint()
    assert prop.add_variables(store, [y])[0]
    assert prop.variables == list(prop.graph.adj_var) == handle.watched_vars == xs + [y]
    store.pop_checkpoint(token)
    assert prop.variables == xs == handle.watched_vars


def test_constructor_rejects_an_empty_or_repeated_scope():
    with pytest.raises(ValueError):
        AllDifferent([])
    store = Store()
    x = store.add_variable({A, B})
    with pytest.raises(DuplicateVariable):
        AllDifferent([x, x])


def test_checkpoint_pop_retracts_adoption():
    store, handle, _vars = triple_store()
    prop = store.constraints[handle.id].propagator
    before = store.checksum()
    digest = graph_checksum(prop.graph)
    x4 = store.add_variable({C, D})
    token = store.push_checkpoint()
    prop.add_variables(store, [x4])
    store.propagate_fixpoint()
    store.pop_checkpoint(token)
    store.retract_last_variable()
    assert store.checksum() == before
    assert graph_checksum(prop.graph) == digest


def test_gac_equivalence_exhaustive_small_grid():
    # every non-empty domain combination for p, d in 1..3
    for p in range(1, 4):
        for d in range(1, 4):
            subsets = [
                frozenset(
                    v for v in range(d) if mask & (1 << v)
                )
                for mask in range(1, 1 << d)
            ]
            stack = [[]]
            for _ in range(p):
                stack = [combo + [s] for combo in stack for s in subsets]
            for domains in stack:
                expected = gac_filter_bruteforce(all_values_distinct, domains)
                actual = engine_domains(domains)
                assert actual == expected, domains


def test_gac_equivalence_random():
    rng = random.Random(99)
    for _ in range(300):
        p = rng.randint(1, 6)
        d = rng.randint(1, 6)
        domains = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        expected = gac_filter_bruteforce(all_values_distinct, domains)
        assert engine_domains(domains) == expected


def test_incremental_equals_scratch_random_splits():
    rng = random.Random(5)
    for _ in range(120):
        p = rng.randint(2, 6)
        d = rng.randint(1, 6)
        domains = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        scratch = engine_domains(domains)
        for split in range(1, p):
            store = Store()
            vars_ = [store.add_variable(set(dom)) for dom in domains[:split]]
            try:
                handle = store.post_constraint(AllDifferent(vars_))
            except InitFailure:
                # prefix already inconsistent: monotonicity forces the whole
                # set to be inconsistent as well
                assert scratch is None
                continue
            store.propagate_fixpoint()
            prop = store.constraints[handle.id].propagator
            suffix = [store.add_variable(set(dom)) for dom in domains[split:]]
            ok, _delta = prop.add_variables(store, suffix)
            ok = ok and store.propagate_fixpoint()
            if scratch is None:
                assert not ok
            else:
                assert ok
                assert [store.domain(v) for v in vars_ + suffix] == scratch
                # kept-edge sets follow the domains exactly
                assert sorted(prop.graph.edges()) == sorted(
                    (i, v)
                    for i, dom in enumerate(scratch)
                    for v in dom
                )


def test_deletion_path_equivalence():
    # init on full domains then external deletions == init on shrunk domains
    rng = random.Random(31)
    for _ in range(120):
        p = rng.randint(1, 5)
        d = rng.randint(max(2, p), 6)  # full domains must admit a matching
        full = [set(range(d)) for _ in range(p)]
        deletions = []
        shrunk = [set(dom) for dom in full]
        for _ in range(rng.randint(0, 6)):
            var = rng.randrange(p)
            val = rng.randrange(d)
            if val in shrunk[var] and len(shrunk[var]) > 1:
                shrunk[var].discard(val)
                deletions.append((var, val))
        store = Store()
        vars_ = [store.add_variable(set(dom)) for dom in full]
        post_alldiff(store, vars_)
        ok = True
        for var, val in deletions:
            try:
                changed = store.remove_value(vars_[var], val)
            except DomainWipeout:
                # the engine's earlier filtering had pinned this variable to
                # exactly this value, so the shrunk instance is inconsistent
                ok = False
                break
            if changed:
                ok = store.propagate_fixpoint()
                if not ok:
                    break
        expected = engine_domains(shrunk)
        if expected is None:
            assert not ok
        else:
            assert ok
            assert [store.domain(v) for v in vars_] == expected


def test_filtered_edges_never_matched():
    rng = random.Random(77)
    for _ in range(100):
        p = rng.randint(1, 6)
        d = rng.randint(p, 7)
        domains = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        store = Store()
        vars_ = [store.add_variable(set(dom)) for dom in domains]
        try:
            handle = store.post_constraint(AllDifferent(vars_))
        except InitFailure:
            continue
        store.propagate_fixpoint()
        prop = store.constraints[handle.id].propagator
        # every matched pair is still a live edge and a live domain value
        for var, val in prop.graph.pair_of_var.items():
            assert prop.graph.has_edge(var, val)
            assert val in store.domain(var)


def test_graph_never_claims_unsupported_edges():
    store, handle, (x1, x2, x3) = triple_store()
    prop = store.constraints[handle.id].propagator
    store.remove_value(x1, A)
    store.propagate_fixpoint()
    for var, vals in prop.graph.adj_var.items():
        assert vals.keys() <= store.domain(var)
