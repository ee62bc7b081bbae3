"""Brute-force ground truth: solution enumeration, GAC filtering and matchings.

Everything in this module is deliberately naive and shares no code or data
structures with the incremental algorithms it is used to check.  Graphs are
plain edge lists, matchings are found by exhaustive recursion, and filtering
is defined directly in terms of the constraint's solution set.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

from .errors import TooLarge

ENUMERATION_CAP = 10_000_000
EDGE_CAP = 24

Predicate = Callable[[tuple], bool]


def all_values_distinct(assignment: Sequence[int]) -> bool:
    """The alldifferent predicate: no two positions share a value."""
    return len(set(assignment)) == len(assignment)


def enumerate_solutions(
    predicate: Predicate, domains: Sequence[Iterable[int]]
) -> list[tuple[int, ...]]:
    """Exhaustively list the satisfying tuples in lexicographic order.

    Each domain is read once, so it may be a one-shot iterable.  Raises
    TooLarge when the Cartesian product exceeds the enumeration cap.
    """
    ordered = [sorted(dom) for dom in domains]
    if math.prod(map(len, ordered)) > ENUMERATION_CAP:
        raise TooLarge("domain product exceeds enumeration cap")
    return [tup for tup in itertools.product(*ordered) if predicate(tup)]


def gac_filter_bruteforce(
    predicate: Predicate, domains: Sequence[Iterable[int]]
) -> Optional[list[set[int]]]:
    """Keep each value iff some solution uses it; None when no solution exists."""
    solutions = enumerate_solutions(predicate, domains)
    if not solutions:
        return None
    return [{tup[i] for tup in solutions} for i in range(len(domains))]


def _adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for var, val in edges:
        adj.setdefault(var, [])
        if val not in adj[var]:
            adj[var].append(val)
    for vals in adj.values():
        vals.sort()
    return adj


def max_matching_bruteforce(edges: Iterable[tuple[int, int]]) -> int:
    """Size of a maximum matching, by exhaustive search over assignments."""
    edge_list = list(dict.fromkeys(edges))
    if len(edge_list) > EDGE_CAP:
        raise TooLarge(f"more than {EDGE_CAP} edges")
    adj = _adjacency(edge_list)
    variables = list(adj)
    memo: dict[tuple[int, frozenset[int]], int] = {}

    def best(i: int, used: frozenset[int]) -> int:
        if i == len(variables):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        score = best(i + 1, used)  # leave variables[i] unmatched
        for val in adj[variables[i]]:
            if val not in used:
                score = max(score, 1 + best(i + 1, used | {val}))
        memo[key] = score
        return score

    return best(0, frozenset())


def edges_in_some_max_matching(
    edges: Iterable[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Union over all maximum matchings of their edge sets."""
    edge_list = list(dict.fromkeys(edges))
    if len(edge_list) > EDGE_CAP:
        raise TooLarge(f"more than {EDGE_CAP} edges")
    target = max_matching_bruteforce(edge_list)
    kept: set[tuple[int, int]] = set()
    for var, val in edge_list:
        rest = [e for e in edge_list if e[0] != var and e[1] != val]
        if 1 + max_matching_bruteforce(rest) == target:
            kept.add((var, val))
    return kept
