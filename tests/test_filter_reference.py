"""The edge filter against an independent reference, at realistic sizes.

The reference keeps edge (x, a) iff some matching that covers every
variable has x = a.  It finds one covering matching with Kuhn's augmenting
search, then, for each edge off that matching, gives a to x and re-augments
the one variable that lost a.  It shares no code with the filter's strongly
connected components, its free-value search or its augmenting search.

The graphs mix a Hall set (variables confined to as many values) with a
region that reaches free values, at up to 35 variables, and include
Latin-style rows and columns over 30 values.  Both the whole-graph filter
and the seeded one (after an adoption or a deletion on a filtered graph)
must keep exactly the reference's edges, and when a deletion of unmatched
edges, or of a matched edge once the matching is repaired, passes
`deletion_keeps_filtered`, the reference must keep every edge left.  On
every adoption that `filter_adopted_edges` decides, and on every deletion
that assigns a variable and that `filter_assigned_edges` proves, the rule
must remove exactly the seeded filter's edges and keep exactly the
reference's, and on a hand-built one its filter visits show that its
forward search never enters the assigned variable.  At scale, on
one alldifferent of about 400 variables with many Hall sets, every seeded
filter call that a propagator makes, after an adoption or a deletion, must
remove exactly the edges the whole-graph filter removes from a copy, and
keep exactly the reference's.
"""

import copy
import math
import random
import sys
from collections import Counter

import pytest

import dynalldiff.alldiff
from dynalldiff.alldiff import AdoptingDynamizer
from dynalldiff.matching import (
    OpCounters,
    build_value_graph,
    compute_maximum_matching,
    deletion_keeps_filtered,
    filter_adopted_edges,
    filter_assigned_edges,
    matching_covering_x,
    remove_edges,
    remove_edges_from_g,
)
from dynalldiff.store import Store


def _kuhn(var, domains, owner, tried):
    """Give `var` a value, rerouting owners of values not in `tried`."""
    for val in sorted(domains[var]):
        if val in tried:
            continue
        tried.add(val)
        if val not in owner or _kuhn(owner[val], domains, owner, tried):
            owner[val] = var
            return True
    return False


def supported_edges(domains):
    """Edges (x, a) with x = a in some matching covering X; None if none covers."""
    owner = {}
    for var in domains:
        if not _kuhn(var, domains, owner, set()):
            return None
    value_of = {var: val for val, var in owner.items()}
    kept = set()
    for var, dom in domains.items():
        for val in dom:
            forced = dict(owner)
            del forced[value_of[var]]
            displaced = forced.get(val)
            forced[val] = var
            # x holds only a now, and a is never tried again, so x stays put
            if displaced is None or _kuhn(displaced, domains, forced, {val}):
                kept.add((var, val))
    return kept


def domains_of(graph):
    return {var: set(vals) for var, vals in graph.adj_var.items()}


def edge_set(graph):
    return {(var, val) for var, vals in graph.adj_var.items() for val in vals}


def hall_graph(rng, p, free):
    """p variables over p + free values, covered, the first ones a Hall set."""
    values = list(range(p + free))
    rng.shuffle(values)
    hall = rng.randint(0, p // 2)
    domains = {}
    for var in range(p):
        pool = values[:hall] if var < hall else values
        extra = rng.sample(pool, min(len(pool), rng.randint(0, 4)))
        domains[var] = {values[var], *extra}  # values[var]: a planted matching
    return domains


def latin_line(rng, cells, free):
    """One row or column of a 30 x 30 Latin square, `cells` - free of its cells.

    Each cell keeps its square value plus up to three others; the omitted
    cells leave their values free.
    """
    symbol = list(range(30))
    rng.shuffle(symbol)
    shift = rng.randrange(30)
    kept = rng.sample(range(cells), cells - free)
    return {
        cell: {symbol[(shift + cell) % 30], *rng.sample(range(30), rng.randint(0, 3))}
        for cell in kept
    }


def check_whole_graph(domains):
    expected = supported_edges(domains)
    graph = build_value_graph(sorted(domains.items()))
    compute_maximum_matching(graph, OpCounters())
    assert len(graph.pair_of_var) == len(domains)
    before = edge_set(graph)
    removed = remove_edges_from_g(graph, OpCounters())
    assert edge_set(graph) == expected
    assert removed == sorted(before - expected)
    return graph


def check_adoption(domains, batch):
    """Filter all but `batch`, adopt it, and filter it both ways.

    The seeded filter and `filter_adopted_edges` start from the same graph
    and matching.  Returns the rule's outcome ("removed", "kept" or
    "fallback"), or None when no matching covers the batch.
    """
    graph = check_whole_graph({v: d for v, d in domains.items() if v not in batch})
    for var in batch:
        graph.add_var(var, sorted(domains[var]))
    expected = supported_edges(domains_of(graph))
    if not matching_covering_x(graph, OpCounters(), batch, []):
        assert expected is None
        return None
    seeded_graph = copy.deepcopy(graph)
    filtered = remove_edges_from_g(seeded_graph, OpCounters(), seeds=batch)
    assert edge_set(seeded_graph) == expected
    before, log = edge_set(graph), []
    removed = filter_adopted_edges(graph, OpCounters(), batch, log)
    if removed is None:
        assert log == [] and edge_set(graph) == before
        return "fallback"
    assert removed == log == filtered
    assert edge_set(graph) == expected
    return "removed" if removed else "kept"


def check_deletion(domains, rng, assign=False):
    """Filter, delete some edges of one variable, and filter from it as the seed.

    With `assign` the variable keeps one value.  When the deletion leaves
    it one edge and no value free, `filter_assigned_edges` runs first, on a
    copy, and when it proves, it must remove exactly what the seeded filter
    removes and keep exactly the reference's edges.  Returns (whether the
    matched edge was lost, the verdict of `deletion_keeps_filtered` once
    the matching covers X again, the rule's outcome: "proved", "fallback",
    or None when it does not apply), or None when no deletion was made or
    the repair failed.
    """
    graph = check_whole_graph(domains)
    open_vars = [var for var, vals in graph.adj_var.items() if len(vals) > 1]
    if not open_vars:
        return None
    var = rng.choice(open_vars)
    vals = sorted(graph.adj_var[var])
    lost = rng.sample(vals, len(vals) - 1 if assign else rng.randint(1, len(vals) - 1))
    damaged = remove_edges(graph, var, lost, [], [])
    expected = supported_edges(domains_of(graph))
    if not matching_covering_x(graph, OpCounters(), [var], []):
        assert expected is None
        return None
    before = edge_set(graph)
    rule = by_rule = None
    if len(graph.adj_var[var]) == 1 and len(graph.adj_val) == len(graph.pair_of_val):
        ruled, log = copy.deepcopy(graph), []
        by_rule = filter_assigned_edges(ruled, OpCounters(), var, lost, log)
        if by_rule is None:
            assert log == [] and edge_set(ruled) == before
            rule = "fallback"
        else:
            assert by_rule == log == sorted(before - expected)
            assert edge_set(ruled) == expected
            rule = "proved"
    keeps = deletion_keeps_filtered(graph, var, lost, OpCounters())
    if keeps:
        assert expected == before
    filtered = remove_edges_from_g(graph, OpCounters(), seeds=[var])
    assert edge_set(graph) == expected
    if by_rule is not None:
        assert by_rule == filtered
    return damaged, keeps, rule


# (matched edge lost, check verdict): both verdicts, with and without a repair
BOTH_PATHS_BOTH_VERDICTS = {(False, True), (False, False), (True, True), (True, False)}
# both outcomes of `filter_assigned_edges`
BOTH_RULE_OUTCOMES = {"proved", "fallback"}
# every outcome of `filter_adopted_edges`
ALL_OUTCOMES = {"removed", "kept", "fallback"}


def verdicts_and_rules(deletions):
    """The (matched edge lost, check verdict) pairs and rule outcomes of `check_deletion`."""
    made = [deletion for deletion in deletions if deletion is not None]
    return {deletion[:2] for deletion in made}, {deletion[2] for deletion in made}


def test_reference_on_a_forced_value():
    # x0, x1 in {0, 1} take both values, so x2 in {0, 1, 2} is forced to 2
    domains = {0: {0, 1}, 1: {0, 1}, 2: {0, 1, 2}}
    assert supported_edges(domains) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}
    assert supported_edges({0: {0}, 1: {0}}) is None


@pytest.mark.parametrize("free", [0, 1, 4])
def test_hall_graphs_match_reference(free):
    rng = random.Random(100 + free)
    more = random.Random(400 + free)  # assignments, off the main stream
    deletions, assignments, outcomes = [], [], Counter()
    for p in range(2, 36):
        for _ in range(3):
            domains = hall_graph(rng, p, free)
            check_whole_graph(domains)
            batch = rng.sample(range(p), rng.randint(1, min(3, p)))
            outcomes[check_adoption(domains, batch)] += 1
            deletions.append(check_deletion(domains, rng))
            assignments.append(check_deletion(domains, more, assign=True))
    assert BOTH_PATHS_BOTH_VERDICTS <= verdicts_and_rules(deletions)[0]
    if not free:  # no value is ever free, so the rule tries every assignment
        assert verdicts_and_rules(assignments)[1] == BOTH_RULE_OUTCOMES
    # hall_graph's domains are covered; with no free value no new variable
    # reaches one, and every adoption falls back to the filter
    assert set(outcomes) == (ALL_OUTCOMES if free else {"fallback"}), outcomes


@pytest.mark.parametrize("free", [0, 6])
def test_latin_lines_match_reference(free):
    rng = random.Random(200 + free)
    more = random.Random(300 + free)  # extra deletions, off the main stream
    assigning = random.Random(500 + free)
    deletions, assignments = [], []
    for _ in range(20):
        domains = latin_line(rng, 30, free)
        check_whole_graph(domains)
        check_adoption(domains, [rng.choice(sorted(domains))])
        deletions.append(check_deletion(domains, rng))
        # with no free value a detour needs a cycle left through the lost
        # value's owner, which one random deletion per line rarely leaves
        for _ in range(3):
            deletions.append(check_deletion(domains, more))
        assignments.append(check_deletion(domains, assigning, assign=True))
    assert BOTH_PATHS_BOTH_VERDICTS <= verdicts_and_rules(deletions)[0]
    if not free:  # no value is ever free, so the rule tries every assignment
        assert verdicts_and_rules(assignments)[1] == BOTH_RULE_OUTCOMES


def test_the_rule_never_enters_the_assigned_variable():
    # One component matched x_i = i, with no free value: the cycles
    # x1 -> 2 -> x2 -> 3 -> x3 -> 1 -> x1 and x0 -> 1 -> x1 -> 0 -> x0.
    # Cutting x0 to 0 loses 1 and 3, owned by x1 and x3, and the root is x1.
    # Forward from x1, whose values come in the order 2, 0, 1, the search
    # stacks x2 and skips x0, then expands x2 and meets x3: 2 visits, where
    # a search that entered x0 would expand it before x2.  Backward from 1
    # it expands 1 and meets 3, x3's matched value: 1 visit.  x0's only
    # edge leads back to x0, so the verdict is the same either way and only
    # the visits show it.
    graph = build_value_graph(
        [(0, [0, 1, 3]), (1, [2, 0, 1]), (2, [2, 3]), (3, [3, 0, 1])]
    )
    for var in range(4):
        graph.match(var, var)
    assert remove_edges_from_g(copy.deepcopy(graph), OpCounters()) == []
    assert not remove_edges(graph, 0, [1, 3], [], [])
    expected = supported_edges(domains_of(graph))
    counters, log = OpCounters(), []
    removed = filter_assigned_edges(graph, counters, 0, [1, 3], log)
    assert removed == log == [(1, 0), (3, 0)]
    assert edge_set(graph) == expected
    assert counters.filter_visits == 3


def test_hall_graphs_prune_and_keep():
    # the generated graphs must exercise every kept and every removed kind
    rng = random.Random(7)
    seen = set()
    for p in range(10, 36):
        domains = hall_graph(rng, p, 3)
        graph = build_value_graph(sorted(domains.items()))
        compute_maximum_matching(graph, OpCounters())
        if remove_edges_from_g(graph, OpCounters()):
            seen.add("removed")
        free = set(graph.adj_val) - set(graph.pair_of_val)
        for var, vals in graph.adj_var.items():
            for val in vals:
                if val in free:
                    seen.add("kept by a free value")
                elif graph.pair_of_var[var] != val:
                    seen.add("kept, to a matched value")
    assert seen == {"removed", "kept by a free value", "kept, to a matched value"}


@pytest.mark.parametrize("size", [1, 3])
def test_adoption_rule_on_small_graphs(size):
    # single adoptions and batches of up to three, into 0 to 6 variables
    # over 3 to 8 values, domains of 1 to 4
    rng = random.Random(500 + size)
    outcomes = Counter()
    for _ in range(1500):
        values = rng.randint(3, 8)
        k = rng.randint(1, size)
        domains = {
            var: set(rng.sample(range(values), rng.randint(1, min(4, values))))
            for var in range(rng.randint(0, 6) + k)
        }
        batch = sorted(domains)[-k:]
        prefix = {var: dom for var, dom in domains.items() if var not in batch}
        if supported_edges(prefix) is not None:
            outcomes[check_adoption(domains, batch)] += 1
    assert ALL_OUTCOMES <= set(outcomes), outcomes


def test_adoption_rule_walks_back_through_the_new_variable():
    # x0 in {0, 3} holds 0; adopting x1 in {0, 3, 4} and x2 in {2, 3} gives
    # x1 = 3 and x2 = 2.  The search from x1's value 0 meets x0, then 3, the
    # value x1 holds, and reaches the free 4 only through x1 itself.  It must
    # walk back into x1, or it prunes (x1, 0), which x0 = 3, x1 = 0, x2 = 2
    # uses.
    domains = {0: {0, 3}, 1: {0, 3, 4}, 2: {2, 3}}
    assert (1, 0) in supported_edges(domains)
    assert check_adoption(domains, [1, 2]) == "kept"


def test_seeded_filter_is_exact_on_the_hall_family(monkeypatch):
    # one alldifferent grown by 400 adoptions (a few fail and are popped),
    # the i-th domain 6 values from the first ceil(1.25 i), which leaves few
    # values free and makes many Hall sets, then 300 single-value deletions,
    # each pushed, propagated and popped.  Every seeded filter call, from a
    # failed adoption rule or a failed deletion check, must remove exactly
    # what the whole-graph filter removes from a copy of the same graph, and
    # keep exactly the reference's edges: both filters grow the same Tarjan
    # forest, and the reference shares no code with it.
    real = dynalldiff.alldiff.remove_edges_from_g
    fallbacks = Counter()  # the calling method -> seeded calls

    def checked(graph, counters, seeds=None, log=None):
        if seeds is None:
            return real(graph, counters)
        fallbacks[sys._getframe(1).f_code.co_name] += 1
        whole = copy.deepcopy(graph)
        expected = supported_edges(domains_of(graph))
        removed = real(graph, counters, seeds=seeds, log=log)
        assert removed == real(whole, OpCounters())
        assert edge_set(graph) == expected
        return removed

    monkeypatch.setattr(dynalldiff.alldiff, "remove_edges_from_g", checked)
    rng = random.Random(0)
    store = Store()
    grower = AdoptingDynamizer(store)
    for i in range(1, 401):
        var = store.add_variable(rng.sample(range(max(6, math.ceil(1.25 * i))), 6))
        if not grower.add_variable(var):
            grower.remove_variable()
            store.retract_last_variable()
    assert len(grower.variables) >= 350
    for _ in range(300):
        var = rng.choice([v for v in grower.variables if len(store.domains[v]) > 1])
        token = store.push_checkpoint()
        store.remove_value(var, rng.choice(sorted(store.domains[var])))
        store.propagate_fixpoint()
        store.pop_checkpoint(token)
    store.validate()
    assert fallbacks["add_variables"] >= 50, fallbacks
    assert fallbacks["on_values_removed"] >= 100, fallbacks


def test_seeded_trees_share_what_earlier_trees_found():
    # x0 in {0}, x1 in {1, 2} and x2 in {5, 6}, filtered, hold 0, 1 and 5;
    # then x3 in {0, 1, 3}, x4 in {0, 1, 4, 5} and x5 in {0, 5} are adopted
    # at once: x3 takes 3, x4 takes 4, and x5 takes 5 once x2 moves to 6.
    # x3's tree closes x0 (dead), then reaches the free 2 through x1, so x3
    # and x1 are alive.  x4's tree meets x0, dead, and x1, alive, and
    # indexes x4 alone; x5's meets x0 and closes x5.  The walk back from
    # x5's value meets x2, whose tree meets only x5, dead, and then x4, which
    # it must find alive already.  {x0, x5, x2} is a Hall set over
    # {0, 5, 6}, so (x2, 5), (x4, 5) and every new edge to 0 go: 6 visits,
    # one per variable.
    domains = {
        0: {0}, 1: {1, 2}, 2: {5, 6}, 3: {0, 1, 3}, 4: {0, 1, 4, 5}, 5: {0, 5}
    }
    batch = [3, 4, 5]
    graph = check_whole_graph({v: d for v, d in domains.items() if v not in batch})
    for var in batch:
        graph.add_var(var, sorted(domains[var]))
    assert matching_covering_x(graph, OpCounters(), batch, [])
    assert graph.pair_of_var == {0: 0, 1: 1, 2: 6, 3: 3, 4: 4, 5: 5}
    expected = supported_edges(domains_of(graph))
    whole = copy.deepcopy(graph)
    counters = OpCounters()
    removed = remove_edges_from_g(graph, counters, seeds=batch)
    assert removed == [(2, 5), (3, 0), (4, 0), (4, 5), (5, 0)]
    assert counters.filter_visits == 6
    assert removed == remove_edges_from_g(whole, OpCounters())
    assert edge_set(graph) == expected
