"""The brute-force oracle itself: enumeration, GAC filtering, matchings."""

import random

import pytest

from dynalldiff.errors import TooLarge
from dynalldiff.oracle import (
    all_values_distinct,
    edges_in_some_max_matching,
    enumerate_solutions,
    gac_filter_bruteforce,
    max_matching_bruteforce,
)

A, B, C = 0, 1, 2

TRIPLE_DOMAINS = [{A, B}, {A, B}, {A, B, C}]
TRIPLE_EDGES = [(0, A), (0, B), (1, A), (1, B), (2, A), (2, B), (2, C)]


def test_enumerate_two_permutations():
    sols = enumerate_solutions(all_values_distinct, [{A, B}, {A, B}])
    assert sols == [(A, B), (B, A)]


def test_enumerate_triple_third_component_forced():
    sols = enumerate_solutions(all_values_distinct, TRIPLE_DOMAINS)
    assert sols == [(A, B, C), (B, A, C)]
    assert all(tup[2] == C for tup in sols)


def test_enumerate_empty_domain_gives_empty_set():
    assert enumerate_solutions(all_values_distinct, [set(), {A}]) == []


def test_one_shot_domains_are_read_once():
    # the signatures take any iterable domain, a generator included
    sols = enumerate_solutions(all_values_distinct, [iter([A, B]), iter([A, B])])
    assert sols == [(A, B), (B, A)]
    kept = gac_filter_bruteforce(all_values_distinct, [(v for v in (A, B)), {A}])
    assert kept == [{B}, {A}]


def test_enumerate_too_large():
    with pytest.raises(TooLarge):
        enumerate_solutions(all_values_distinct, [set(range(200))] * 4)


def test_gac_triple():
    assert gac_filter_bruteforce(all_values_distinct, TRIPLE_DOMAINS) == [
        {A, B},
        {A, B},
        {C},
    ]


def test_gac_inconsistent():
    assert gac_filter_bruteforce(all_values_distinct, [{A}, {A}]) is None


def test_gac_disjoint_singletons_unchanged():
    domains = [{A}, {B}, {C}]
    assert gac_filter_bruteforce(all_values_distinct, domains) == domains


def test_max_matching_triple():
    assert max_matching_bruteforce(TRIPLE_EDGES) == 3


def test_max_matching_single_edge():
    assert max_matching_bruteforce([(0, A)]) == 1


def test_max_matching_empty():
    assert max_matching_bruteforce([]) == 0


def test_max_matching_too_large():
    with pytest.raises(TooLarge):
        max_matching_bruteforce([(i, j) for i in range(5) for j in range(5)])


def test_edges_in_some_max_matching_triple():
    kept = edges_in_some_max_matching(TRIPLE_EDGES)
    assert kept == set(TRIPLE_EDGES) - {(2, A), (2, B)}


def test_edges_in_some_max_matching_symmetric_square():
    edges = [(0, A), (0, B), (1, A), (1, B)]
    assert edges_in_some_max_matching(edges) == set(edges)


def test_edges_in_some_max_matching_star():
    edges = [(0, A), (1, A), (2, A)]
    assert edges_in_some_max_matching(edges) == set(edges)


def test_duality_gac_equals_matchable_edge_projection():
    # value survives GAC iff its edge is in some maximum matching covering X,
    # checked here on random consistent instances
    rng = random.Random(7)
    for _ in range(150):
        p = rng.randint(1, 5)
        d = rng.randint(p, 6)  # enough values that a covering can exist
        domains = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        if sum(len(dom) for dom in domains) > 24:
            continue
        filtered = gac_filter_bruteforce(all_values_distinct, domains)
        if filtered is None:
            continue
        edges = [(i, v) for i, dom in enumerate(domains) for v in sorted(dom)]
        kept = edges_in_some_max_matching(edges)
        by_var = [{v for i, v in kept if i == idx} for idx in range(p)]
        assert by_var == filtered


def test_determinism():
    sols1 = enumerate_solutions(all_values_distinct, TRIPLE_DOMAINS)
    sols2 = enumerate_solutions(all_values_distinct, TRIPLE_DOMAINS)
    assert sols1 == sols2
    assert edges_in_some_max_matching(TRIPLE_EDGES) == edges_in_some_max_matching(
        TRIPLE_EDGES
    )
