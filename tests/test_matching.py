"""Value graph, maximum matching, covering extension and the edge filter."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalldiff.errors import KernelError, UncoveredVariable, UnknownEdge
from dynalldiff.matching import (
    OpCounters,
    ValueGraph,
    _augment,
    build_value_graph,
    compute_maximum_matching,
    graph_checksum,
    matching_covering_x,
    remove_edges,
    remove_edges_from_g,
)
from dynalldiff.oracle import edges_in_some_max_matching, max_matching_bruteforce

A, B, C, D, E = 0, 1, 2, 3, 4

TRIPLE = [(0, {A, B}), (1, {A, B}), (2, {A, B, C})]


def random_graph(rng, p_max=7, d_max=7, edge_cap=24):
    p = rng.randint(1, p_max)
    d = rng.randint(1, d_max)
    domains = []
    for _ in range(p):
        size = rng.randint(1, d)
        domains.append(set(rng.sample(range(d), size)))
    while sum(len(dom) for dom in domains) > edge_cap:
        victim = rng.randrange(p)
        if len(domains[victim]) > 1:
            domains[victim].discard(rng.choice(sorted(domains[victim])))
    return [(i, dom) for i, dom in enumerate(domains)]


def unmatched(graph):
    """The variables `matching_covering_x` must be told about."""
    return [var for var in graph.adj_var if var not in graph.pair_of_var]


def shape(graph):
    """(variables, values, edges) of the graph."""
    return len(graph.adj_var), len(graph.adj_val), len(graph.edges())


def owners(graph):
    """`adj_val` with each value's variables as a set."""
    return {val: set(vars_) for val, vars_ in graph.adj_val.items()}


def test_build_triple_shape():
    graph = build_value_graph(TRIPLE)
    assert shape(graph) == (3, 3, 7)


def test_build_empty():
    graph = build_value_graph([])
    assert shape(graph) == (0, 0, 0)


def orders(graph):
    """Every iteration order of the graph: adj_var's keys and sets, adj_val's dicts."""
    return (
        [(var, list(vals)) for var, vals in graph.adj_var.items()],
        [(val, list(vars_)) for val, vars_ in graph.adj_val.items()],
    )


def add_stepwise(graph, var, domain):
    """What `ValueGraph.add_var` replaces: a bare vertex, then one call per edge."""
    graph.adj_var[var] = {}
    for val in domain:
        graph.add_edge(var, val)


def pop_stepwise(graph, var):
    """What `ValueGraph.pop_var` replaces: one call per edge, then the vertex."""
    for val in list(graph.adj_var[var]):
        graph.remove_edge(var, val)
    del graph.adj_var[var]


def test_add_and_pop_order_as_one_call_per_edge():
    # add_var, pop_var and build_value_graph fill and empty the maps in
    # place; the iteration orders, which fix the searches' order and so
    # their counts, are those of the calls per edge, in domain order
    rng = random.Random(11)
    for _ in range(200):
        entries = random_graph(rng, p_max=9, d_max=40, edge_cap=120)
        built = build_value_graph(entries)
        added, stepwise = ValueGraph(), ValueGraph()
        for var, domain in entries:
            assert added.add_var(var, domain) == len(domain)
            add_stepwise(stepwise, var, domain)
        assert orders(built) == orders(added) == orders(stepwise)
        # popping and re-adding deletes value vertices and makes them again
        for var in rng.sample(sorted(stepwise.adj_var), rng.randint(1, len(entries))):
            added.pop_var(var)
            pop_stepwise(stepwise, var)
            assert orders(added) == orders(stepwise)
        for var, domain in random_graph(rng, p_max=4, d_max=40, edge_cap=60):
            var += 100
            added.add_var(var, domain)
            add_stepwise(stepwise, var, domain)
        assert orders(added) == orders(stepwise)


def test_augment_takes_a_free_value_of_the_source_at_once():
    graph = build_value_graph([(0, {A}), (1, {A, B, C})])
    graph.match(0, A)
    counters, log = OpCounters(), []
    assert _augment(graph, 1, counters, log)
    first_free = next(val for val in graph.adj_var[1] if val != A)
    assert log == [(1, None)]
    assert graph.pair_of_var == {0: A, 1: first_free}
    assert counters.augment_visits == 1


def test_build_singleton():
    graph = build_value_graph([(0, {A})])
    assert shape(graph) == (1, 1, 1)


def test_maximum_matching_triple_covers():
    graph = build_value_graph(TRIPLE)
    compute_maximum_matching(graph, OpCounters())
    assert len(graph.pair_of_var) == 3
    assert graph.pair_of_var.keys() == {0, 1, 2}


def test_maximum_matching_shared_single_value():
    graph = build_value_graph([(0, {A}), (1, {A})])
    compute_maximum_matching(graph, OpCounters())
    assert len(graph.pair_of_var) == 1


def test_maximum_matching_vs_oracle_200_random():
    rng = random.Random(42)
    for _ in range(200):
        entries = random_graph(rng)
        graph = build_value_graph(entries)
        compute_maximum_matching(graph, OpCounters())
        assert len(graph.pair_of_var) == max_matching_bruteforce(graph.edges())


def reference_matching(entries):
    """What `compute_maximum_matching` replaces: one `_augment` call per variable."""
    graph, counters = build_value_graph(entries), OpCounters()
    for var in graph.adj_var:
        _augment(graph, var, counters, None)
    return graph, counters.augment_visits


def block_graph(rng, blocks, size=6, values=8):
    """Blocks of `size` variables, each with 2 to 4 of its block's `values` values."""
    entries = []
    for block in range(blocks):
        span = range(block * values, (block + 1) * values)
        for _ in range(size):
            entries.append((len(entries), sorted(rng.sample(span, rng.randint(2, 4)))))
    return entries


def test_maximum_matching_as_one_augment_per_variable():
    # the inline greedy step leaves the pairs, their order and the visits
    # as they were with an `_augment` call for every variable
    rng = random.Random(23)
    inputs = [random_graph(rng, p_max=12, d_max=12, edge_cap=60) for _ in range(200)]
    inputs += [block_graph(rng, rng.randint(1, 12)) for _ in range(50)]
    # four variables over three values, among others: no matching covers them
    inputs.append([(0, [A, B]), (1, [B, C]), (2, [A, C]), (3, [A, B, C]), (4, [D])])
    uncovered = 0
    for entries in inputs:
        graph = build_value_graph(entries)
        expected, expected_visits = reference_matching(entries)
        counters = OpCounters()
        compute_maximum_matching(graph, counters)
        assert list(graph.pair_of_var.items()) == list(expected.pair_of_var.items())
        assert graph.pair_of_val == expected.pair_of_val
        assert counters.augment_visits == expected_visits
        uncovered += len(graph.pair_of_var) < len(entries)
    assert uncovered > 0


def test_matching_validity_invariant():
    rng = random.Random(11)
    for _ in range(100):
        graph = build_value_graph(random_graph(rng))
        compute_maximum_matching(graph, OpCounters())
        for var, val in graph.pair_of_var.items():
            assert graph.pair_of_val[val] == var
            assert graph.has_edge(var, val)


def test_no_augmenting_path_certificate():
    # maximality: alternating BFS from any unmatched variable finds no free value
    rng = random.Random(13)
    for _ in range(60):
        graph = build_value_graph(random_graph(rng))
        compute_maximum_matching(graph, OpCounters())
        for start in graph.adj_var:
            if start in graph.pair_of_var:
                continue
            seen_vars = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for var in frontier:
                    for val in graph.adj_var[var]:
                        owner = graph.pair_of_val.get(val)
                        assert owner is not None, "augmenting path exists"
                        if owner not in seen_vars:
                            seen_vars.add(owner)
                            nxt.append(owner)
                frontier = nxt


def test_covering_already_covered_returns_equal():
    graph = build_value_graph(TRIPLE)
    compute_maximum_matching(graph, OpCounters())
    before = dict(graph.pair_of_var)
    log = []
    uncovered = unmatched(graph)
    assert matching_covering_x(graph, OpCounters(), uncovered, log) is True
    assert graph.pair_of_var == before and log == []


def test_covering_late_adoption_extension():
    graph = build_value_graph(TRIPLE)
    compute_maximum_matching(graph, OpCounters())
    remove_edges_from_g(graph, OpCounters())
    add_late_adopters(graph)
    uncovered = unmatched(graph)
    assert matching_covering_x(graph, OpCounters(), uncovered, []) is True
    assert len(graph.pair_of_var) == 5
    # previously covered variables stay covered
    for var in (0, 1, 2):
        assert var in graph.pair_of_var
    # oracle agreement on the extended graph
    assert len(graph.pair_of_var) == max_matching_bruteforce(graph.edges())


def test_covering_pigeonhole_returns_false():
    graph = build_value_graph([(0, {A}), (1, {A})])
    graph.match(0, A)
    log = []
    assert matching_covering_x(graph, OpCounters(), [1], log) is False
    assert graph.pair_of_var == {0: A} and log == []  # a failed search flips nothing


def test_reversed_flip_log_restores_after_a_fault_in_match(monkeypatch):
    # covering several variables can flip one variable more than once, and
    # a fault can stop `match` half-way along a path, leaving a value that
    # still points back at a variable which has moved on
    class Fault(Exception):
        pass

    real_match = ValueGraph.match
    rng = random.Random(3)
    twice = 0
    for _ in range(300):
        graph = build_value_graph(random_graph(rng))
        compute_maximum_matching(graph, OpCounters())
        pairs = graph.pair_of_var
        for var in rng.sample(sorted(pairs), min(3, len(pairs))):
            graph.assign([(var, None)])
        start = dict(graph.pair_of_var), dict(graph.pair_of_val)
        for k in itertools.count(1):
            calls = []

            def match(self, var, val, k=k, calls=calls):
                calls.append(var)
                if len(calls) == k:
                    raise Fault
                real_match(self, var, val)

            monkeypatch.setattr(ValueGraph, "match", match)
            log = []
            try:
                matching_covering_x(graph, OpCounters(), unmatched(graph), log)
            except Fault:
                pass
            else:
                break
            finally:
                monkeypatch.undo()
            twice += len({var for var, _ in log}) < len(log)
            graph.assign(reversed(log))
            assert (graph.pair_of_var, graph.pair_of_val) == start
    assert twice > 0


def _alternating_layers(graph, start):
    """Variables reached from `start` by alternating paths, layer by layer."""
    layers, seen = [[start]], {start}
    while layers[-1]:
        nxt = []
        for var in layers[-1]:
            for val in graph.adj_var[var]:
                owner = graph.pair_of_val.get(val)
                if owner is not None and owner not in seen:
                    seen.add(owner)
                    nxt.append(owner)
        layers.append(nxt)
    return layers[:-1]


def test_one_variable_repair_flips_a_shortest_path_or_proves_hall():
    # each flip costs 3 trailed cells, so a repair must flip no more
    # variables than the shortest alternating path to a free value holds
    rng = random.Random(29)
    repaired = failed = longer = 0
    for _ in range(400):
        graph = build_value_graph(random_graph(rng))
        compute_maximum_matching(graph, OpCounters())
        uncovered = [v for v in graph.adj_var if v not in graph.pair_of_var]
        if not uncovered:  # X covered: x loses its matched edge
            x = rng.choice(list(graph.adj_var))
            remove_edges(graph, x, [graph.pair_of_var[x]], [], [])
        elif len(uncovered) == 1:
            (x,) = uncovered
        else:
            continue
        layers = _alternating_layers(graph, x)
        shortest = next(
            (
                depth + 1
                for depth, layer in enumerate(layers)
                if any(
                    val not in graph.pair_of_val
                    for var in layer
                    for val in graph.adj_var[var]
                )
            ),
            None,
        )
        before = dict(graph.pair_of_var)
        log = []
        if not matching_covering_x(graph, OpCounters(), [x], log):
            failed += 1
            assert shortest is None
            assert log == [] and graph.pair_of_var == before
            members = [var for layer in layers for var in layer]
            values = set().union(*(graph.adj_var[var] for var in members))
            assert len(values) < len(members)  # a Hall violation
            assert max_matching_bruteforce(graph.edges()) < len(graph.adj_var)
        else:
            repaired += 1
            assert len(log) == shortest
            longer += shortest > 1
            assert graph.pair_of_var.keys() == graph.adj_var.keys()
    assert repaired and failed and longer


def test_covering_extension_size_matches_scratch():
    rng = random.Random(17)
    failed_with_flips = 0
    for _ in range(100):
        entries = random_graph(rng)
        # cover a random prefix first, then extend to everything
        prefix = rng.randint(0, len(entries))
        graph = build_value_graph(entries[:prefix])
        compute_maximum_matching(graph, OpCounters())
        if len(graph.pair_of_var) < prefix:
            continue
        for var, domain in entries[prefix:]:
            graph.add_var(var, domain)
        before = dict(graph.pair_of_var)
        log = []
        covered = matching_covering_x(graph, OpCounters(), unmatched(graph), log)
        scratch = build_value_graph(entries)
        compute_maximum_matching(scratch, OpCounters())
        if covered:
            assert len(graph.pair_of_var) == len(entries) == len(scratch.pair_of_var)
        else:
            assert len(scratch.pair_of_var) < len(entries)
            # the flips made before the failed search stay, and the log
            # replayed backwards undoes them
            failed_with_flips += bool(log)
            graph.assign(reversed(log))
            assert graph.pair_of_var == before
    assert failed_with_flips > 0


def test_filter_triple_removes_two_edges():
    graph = build_value_graph(TRIPLE)
    compute_maximum_matching(graph, OpCounters())
    removed = remove_edges_from_g(graph, OpCounters())
    assert sorted(removed) == [(2, A), (2, B)]
    assert sorted(graph.adj_var[2]) == [C]


def test_filter_symmetric_square_removes_nothing():
    graph = build_value_graph([(0, {A, B}), (1, {A, B})])
    compute_maximum_matching(graph, OpCounters())
    assert remove_edges_from_g(graph, OpCounters()) == []


def test_filter_500_random_vs_oracle():
    rng = random.Random(23)
    done = 0
    while done < 500:
        entries = random_graph(rng, p_max=6, d_max=6)
        graph = build_value_graph(entries)
        compute_maximum_matching(graph, OpCounters())
        if len(graph.pair_of_var) < len(entries):
            continue  # only covered graphs are in the filter's contract
        done += 1
        expected_kept = edges_in_some_max_matching(graph.edges())
        removed = remove_edges_from_g(graph, OpCounters())
        assert set(graph.edges()) == expected_kept
        assert not set(removed) & expected_kept
        # matched edges are never removed
        assert all(
            graph.pair_of_var.get(var) != val for var, val in removed
        )


def test_filter_uncovered_precondition():
    graph = build_value_graph([(0, {A}), (1, {A})])
    graph.match(0, A)
    with pytest.raises(UncoveredVariable):
        remove_edges_from_g(graph, OpCounters())


def add_late_adopters(graph):
    """Variables 3 in {C, D} and 4 in {D, E}; the number of edges of each."""
    return [graph.add_var(3, [C, D]), graph.add_var(4, [D, E])]


def test_add_edges_late_adoption():
    graph = build_value_graph(TRIPLE)
    compute_maximum_matching(graph, OpCounters())
    remove_edges_from_g(graph, OpCounters())
    assert add_late_adopters(graph) == [2, 2]
    assert len(graph.adj_var) == 5
    assert len(graph.adj_val) == 5


def test_add_var_refuses_a_vertex_that_exists():
    graph = build_value_graph([(0, {A})])
    with pytest.raises(KernelError):
        graph.add_var(0, [B])
    assert graph.adj_var == {0: {A: None}} and owners(graph) == {A: {0}}
    with pytest.raises(KernelError):  # so does a repeated entry
        build_value_graph([(0, {A}), (1, {B}), (0, {A})])


def test_add_var_ignores_a_repeated_value():
    graph = ValueGraph()
    assert graph.add_var(0, [A, B, A]) == 2
    assert orders(graph) == ([(0, [A, B])], [(A, [0]), (B, [0])])


def test_pop_var_takes_the_values_left_without_an_edge():
    graph = build_value_graph([(0, {A, B}), (1, {B, C}), (2, {C})])
    graph.pop_var(1)
    assert owners(graph) == {A: {0}, B: {0}, C: {2}}
    graph.pop_var(0)
    assert owners(graph) == {C: {2}} and list(graph.adj_var) == [2]


def test_add_edges_duplicate_ignored():
    graph = build_value_graph([(0, {A})])
    assert graph.add_edge(0, A) is False
    assert shape(graph) == (1, 1, 1)


def test_add_edges_to_empty():
    # only add_var makes a variable vertex: its order is the adoption order
    graph = ValueGraph()
    with pytest.raises(KeyError):
        graph.add_edge(0, A)
    assert shape(graph) == (0, 0, 0)


def test_value_vertex_lives_with_its_edges():
    graph = build_value_graph([(0, {A, B}), (1, {B})])
    graph.remove_edge(0, A)
    assert A not in graph.adj_val
    graph.remove_edge(0, B)
    assert owners(graph) == {B: {1}}
    graph.add_edge(0, A)
    assert owners(graph) == {A: {0}, B: {1}}


def test_remove_edges_unmatched_keeps_matching():
    graph = build_value_graph([(0, {A, B}), (1, {B})])
    compute_maximum_matching(graph, OpCounters())
    before = dict(graph.pair_of_var)
    log, flips = [], []
    assert remove_edges(graph, 0, [B], log, flips) is False
    assert graph.pair_of_var == before
    assert (log, flips) == ([(0, B)], [])


def test_remove_edges_matched_uncovers():
    graph = build_value_graph([(0, {A, B}), (1, {B})])
    compute_maximum_matching(graph, OpCounters())
    matched_val = graph.pair_of_var[0]
    log, flips = [], []
    assert remove_edges(graph, 0, [matched_val], log, flips) is True
    assert 0 not in graph.pair_of_var
    assert matched_val not in graph.pair_of_val
    assert (log, flips) == ([(0, matched_val)], [(0, matched_val)])


def test_remove_edges_mixed_count():
    graph = build_value_graph([(0, {A, B, C}), (1, {B})])
    compute_maximum_matching(graph, OpCounters())
    size_before = len(graph.pair_of_var)
    lost = [val for val in (C, A, B) if graph.has_edge(0, val)]
    matched = graph.pair_of_var[0]
    assert matched in lost
    log, flips = [], []
    assert remove_edges(graph, 0, lost, log, flips) is True
    assert len(graph.pair_of_var) == size_before - 1
    assert log == [(0, val) for val in lost]  # in the order given
    assert flips == [(0, matched)]


def test_remove_edges_unknown_edge():
    graph = build_value_graph([(0, {A})])
    with pytest.raises(UnknownEdge):
        remove_edges(graph, 0, [B], [], [])
    with pytest.raises(UnknownEdge):
        remove_edges(graph, 1, [A], [], [])  # no such variable


def test_remove_edges_refuses_before_any_change():
    # one missing value: no edge removed, no unmatch, nothing logged
    graph = build_value_graph([(0, {A, C}), (1, {C})])
    compute_maximum_matching(graph, OpCounters())
    assert graph.pair_of_var == {0: A, 1: C}
    before = graph_checksum(graph), dict(graph.pair_of_val)
    log, flips = [(1, B)], [(1, None)]
    with pytest.raises(UnknownEdge):
        remove_edges(graph, 0, [A, B], log, flips)
    assert (graph_checksum(graph), dict(graph.pair_of_val)) == before
    assert owners(graph) == {A: {0}, C: {0, 1}}
    assert (log, flips) == ([(1, B)], [(1, None)])


def test_checksum_order_independent():
    g1 = build_value_graph([(0, {A, B}), (1, {B, C})])
    g2 = build_value_graph([(1, {C, B}), (0, {B, A})])
    assert graph_checksum(g1) == graph_checksum(g2)


def test_checksum_sensitive_to_edges_and_matching():
    g1 = build_value_graph([(0, {A, B})])
    g2 = build_value_graph([(0, {A, B})])
    assert graph_checksum(g1) == graph_checksum(g2)
    g2.remove_edge(0, B)
    assert graph_checksum(g1) != graph_checksum(g2)
    g2.match(0, A)
    g2.add_edge(0, B)
    assert graph_checksum(g1) != graph_checksum(g2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    )
)
def test_property_matching_size_equals_oracle(domains):
    entries = [(i, dom) for i, dom in enumerate(domains)]
    if sum(len(dom) for dom in domains) > 24:
        return
    graph = build_value_graph(entries)
    compute_maximum_matching(graph, OpCounters())
    assert len(graph.pair_of_var) == max_matching_bruteforce(graph.edges())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    )
)
def test_property_filter_keeps_exactly_matchable_edges(domains):
    entries = [(i, dom) for i, dom in enumerate(domains)]
    if sum(len(dom) for dom in domains) > 24:
        return
    graph = build_value_graph(entries)
    compute_maximum_matching(graph, OpCounters())
    if len(graph.pair_of_var) < len(entries):
        return
    expected = edges_in_some_max_matching(graph.edges())
    remove_edges_from_g(graph, OpCounters())
    assert set(graph.edges()) == expected


def test_counters_accumulate():
    counters = OpCounters()
    graph = build_value_graph(TRIPLE)
    compute_maximum_matching(graph, counters)
    assert counters.augment_visits > 0
    remove_edges_from_g(graph, counters)
    assert counters.filter_visits > 0
