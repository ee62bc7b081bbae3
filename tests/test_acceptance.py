"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  Wall-clock limits are asserted on the criterion's core
operation (best of a few repeats for the sub-millisecond ones).
"""

import random
import time

from dynalldiff.alldiff import AllDifferent
from dynalldiff.bench import run_scenario
from dynalldiff.errors import InitFailure
from dynalldiff.generic import check_monotonic
from dynalldiff.matching import ValueGraph, graph_checksum
from dynalldiff.oracle import (
    all_values_distinct,
    edges_in_some_max_matching,
    gac_filter_bruteforce,
)
from dynalldiff.scenario import generate_random_scenario, parse_scenario
from dynalldiff.store import Store

A, B, C, D, E = 0, 1, 2, 3, 4


def _ok(number, text):
    print(f"criterion {number:>2}: PASS - {text}")


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _engine_domains(domains):
    store = Store()
    vars_ = [store.add_variable(set(dom)) for dom in domains]
    try:
        store.post_constraint(AllDifferent(vars_))
    except InitFailure:
        return None
    if not store.propagate_fixpoint():
        return None
    return [store.domain(v) for v in vars_]


def _posted_triple():
    store = Store()
    vars_ = [
        store.add_variable({A, B}),
        store.add_variable({A, B}),
        store.add_variable({A, B, C}),
    ]
    handle = store.post_constraint(AllDifferent(vars_))
    store.propagate_fixpoint()
    return store, handle, vars_


def test_criterion_01_forced_third_reproduction():
    text = "VALUES a b c\nADD X1 a b\nADD X2 a b\nADD X3 a b c\nCHECK\n"
    scenario = parse_scenario(text)
    for mode in ("generic", "dynamic"):
        run = run_scenario(scenario, mode)
        (check,) = run.checks
        assert check.consistent
        assert check.check_domains == {
            "X1": ("a", "b"),
            "X2": ("a", "b"),
            "X3": ("c",),
        }

    def core():
        store = Store()
        vars_ = [
            store.add_variable({A, B}),
            store.add_variable({A, B}),
            store.add_variable({A, B, C}),
        ]
        store.post_constraint(AllDifferent(vars_))
        store.propagate_fixpoint()

    elapsed = _best_of(5, core)
    assert elapsed < 1e-3, f"posting took {elapsed * 1e3:.3f} ms"
    _ok(1, f"X3 filtered to {{c}} in both modes ({elapsed * 1e6:.0f} us)")


def test_criterion_02_late_adoption_reproduction():
    store, handle, _vars = _posted_triple()
    prop = store.constraints[handle.id].propagator
    x4 = store.add_variable({C, D})
    x5 = store.add_variable({D, E})
    ok, _delta = prop.add_variables(store, [x4, x5])
    assert ok and store.propagate_fixpoint()

    # no previously filtered edge reappears
    assert not prop.graph.has_edge(2, A)
    assert not prop.graph.has_edge(2, B)
    # a matching of size 5 covers all variables
    assert prop.graph.pair_of_var.keys() == {0, 1, 2, 3, 4}

    # hand-built expected post-update graph: the old edges plus the new
    # variables' edges, minus what the re-filter must drop ((X4,c) and
    # (X5,d) admit no covering matching)
    expected_graph = ValueGraph()
    for var, vals in [(0, [A, B]), (1, [A, B]), (2, [C]), (3, [D]), (4, [E])]:
        expected_graph.add_var(var, vals)
    for var, val in [(0, A), (1, B), (2, C), (3, D), (4, E)]:
        expected_graph.match(var, val)
    assert graph_checksum(prop.graph) == graph_checksum(expected_graph)

    def core():
        store2, handle2, _ = _posted_triple()
        prop2 = store2.constraints[handle2.id].propagator
        a = store2.add_variable({C, D})
        b = store2.add_variable({D, E})
        prop2.add_variables(store2, [a, b])
        store2.propagate_fixpoint()

    elapsed = _best_of(5, core)
    assert elapsed < 1e-3, f"adoption took {elapsed * 1e3:.3f} ms"
    _ok(2, f"extended graph matches hand-built expectation ({elapsed * 1e6:.0f} us)")


def test_criterion_03_gac_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for p in range(1, 5):
        for d in range(1, 5):
            subsets = [
                frozenset(v for v in range(d) if mask & (1 << v))
                for mask in range(1, 1 << d)
            ]
            combos = [[]]
            for _ in range(p):
                combos = [prefix + [s] for prefix in combos for s in subsets]
            for domains in combos:
                checked += 1
                if _engine_domains(domains) != gac_filter_bruteforce(
                    all_values_distinct, domains
                ):
                    mismatches += 1
    rng = random.Random(12345)
    for _ in range(1000):
        p = rng.randint(1, 6)
        d = rng.randint(1, 6)
        domains = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        checked += 1
        if _engine_domains(domains) != gac_filter_bruteforce(
            all_values_distinct, domains
        ):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60, f"took {elapsed:.1f} s"
    _ok(3, f"{checked} instances, 0 mismatches ({elapsed:.1f} s)")


def test_criterion_04_filter_set_equality():
    from dynalldiff.matching import (
        OpCounters,
        build_value_graph,
        compute_maximum_matching,
        remove_edges_from_g,
    )

    start = time.perf_counter()
    rng = random.Random(777)
    done = 0
    while done < 500:
        p = rng.randint(1, 6)
        d = rng.randint(1, 6)
        domains = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        while sum(len(dom) for dom in domains) > 24:
            victim = rng.randrange(p)
            if len(domains[victim]) > 1:
                domains[victim].pop()
        graph = build_value_graph(list(enumerate(domains)))
        compute_maximum_matching(graph, OpCounters())
        if len(graph.pair_of_var) < p:
            continue
        done += 1
        expected = edges_in_some_max_matching(graph.edges())
        remove_edges_from_g(graph, OpCounters())
        assert set(graph.edges()) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f} s"
    _ok(4, f"500 covered graphs, kept sets exact ({elapsed:.1f} s)")


def test_criterion_05_incremental_equals_scratch():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(500):
        p = rng.randint(2, 6)
        d = rng.randint(1, 6)
        domains = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        scratch_domains = _engine_domains(domains)
        scratch_edges = None
        if scratch_domains is not None:
            scratch_edges = sorted(
                (i, v) for i, dom in enumerate(scratch_domains) for v in dom
            )
        for split in range(1, p):
            store = Store()
            prefix = [store.add_variable(set(dom)) for dom in domains[:split]]
            try:
                handle = store.post_constraint(AllDifferent(prefix))
            except InitFailure:
                assert scratch_domains is None
                continue
            store.propagate_fixpoint()
            prop = store.constraints[handle.id].propagator
            suffix = [store.add_variable(set(dom)) for dom in domains[split:]]
            ok, _rec = prop.add_variables(store, suffix)
            ok = ok and store.propagate_fixpoint()
            if scratch_domains is None:
                assert not ok
            else:
                assert ok
                assert [
                    store.domain(v) for v in prefix + suffix
                ] == scratch_domains
                assert sorted(prop.graph.edges()) == scratch_edges
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f} s"
    _ok(5, f"500 sets, every prefix split agrees ({elapsed:.1f} s)")


def _random_runs(n_scenarios=500, p_max=8, d_max=8):
    for seed in range(1, n_scenarios + 1):
        scenario = generate_random_scenario(
            seed, p_max=p_max, d_max=d_max, del_rate=0.35
        )
        yield (
            seed,
            run_scenario(scenario, "generic"),
            run_scenario(scenario, "dynamic"),
        )


def test_criterion_06_and_07_cross_mode_and_trail():
    start = time.perf_counter()
    for seed, generic, dynamic in _random_runs():
        for left, right in zip(generic.checks, dynamic.checks):
            assert left.check_domains == right.check_domains, seed
            assert left.consistent == right.consistent, seed
        for run in (generic, dynamic):
            assert run.restore_mismatches == [], (seed, run.mode)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"took {elapsed:.1f} s"
    _ok(6, f"500 scenarios, modes agree on every CHECK ({elapsed:.1f} s)")
    _ok(7, "every POP and drained ADD restores its checkpoint checksum exactly")


def test_criterion_08_space_claim_trend():
    start = time.perf_counter()
    d = 10
    values = " ".join(f"v{i}" for i in range(d))
    lines = [f"VALUES {values}"]
    for i in range(1, 11):  # p sweeps 1..10; adoption rows are p = 2..10
        lines.append(f"ADD X{i} {values}")
    scenario = parse_scenario("\n".join(lines) + "\nCHECK\n")
    generic = run_scenario(scenario, "generic")
    dynamic = run_scenario(scenario, "dynamic")

    dynamic_adds = [s for s in dynamic.steps if s.op == "ADD"]
    generic_adds = [s for s in generic.steps if s.op == "ADD"]
    for row in dynamic_adds[1:]:  # one-variable adoptions
        assert row.trailed_cells <= 4 * d + 16, row
        # d > p: the new variable's own domain holds a free value
        assert row.augment_visits == 1, row
    for row in generic_adds:
        assert row.trailed_cells >= row.m, row
        assert row.augment_visits >= row.p, row  # each variable searched once
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"took {elapsed:.1f} s"
    _ok(
        8,
        "dynamic adoptions stay O(d) in trail and search one variable; "
        f"generic adds pay >= m cells and a full re-match ({elapsed:.2f} s)",
    )


def test_criterion_09_fast_path_no_augmenting_search():
    store = Store()
    x1 = store.add_variable({A, B})
    x2 = store.add_variable({C, D})
    handle = store.post_constraint(AllDifferent([x1, x2]))
    store.propagate_fixpoint()
    prop = store.constraints[handle.id].propagator
    unmatched_victims = [
        (var, val)
        for var in (x1, x2)
        for val in sorted(store.domain(var))
        if prop.graph.pair_of_var[var] != val
    ]
    assert unmatched_victims

    def core():
        visits_before = store.counters.augment_visits
        for var, val in unmatched_victims:
            assert store.remove_value(var, val)
        assert store.propagate_fixpoint()
        assert store.counters.augment_visits == visits_before

    elapsed = _best_of(1, core)
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    _ok(9, f"unmatched-edge deletions ran zero augmenting searches "
           f"({elapsed * 1e6:.0f} us)")


def test_criterion_10_monotonicity_witness():
    start = time.perf_counter()
    rng = random.Random(4242)
    for _ in range(100):
        p = rng.randint(1, 4)
        d = rng.randint(1, 6)
        base = [
            set(rng.sample(range(d), rng.randint(1, d))) for _ in range(p)
        ]
        ext = set(rng.sample(range(d), rng.randint(1, d)))
        assert check_monotonic(all_values_distinct, base, ext) is True

    def exactly_one_equals_a(assignment):
        return sum(1 for v in assignment if v == A) == 1

    assert check_monotonic(exactly_one_equals_a, [{A, B}], {A, B}) is False
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f} s"
    _ok(10, f"alldifferent monotonic on 100 instances, toy constraint is not "
            f"({elapsed:.1f} s)")
