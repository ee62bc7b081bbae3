"""Scenario parsing/generation, cross-mode runs, the report and the CLI."""

import csv
from pathlib import Path
from types import SimpleNamespace

import pytest

import dynalldiff.alldiff
from dynalldiff import bench
from dynalldiff.bench import (
    CSV_COLUMNS,
    main,
    report,
    run_scenario,
    write_csv,
)
from dynalldiff.errors import LifoViolation, ParseError, UnknownSymbol
from dynalldiff.scenario import (
    Scenario,
    format_scenario,
    generate_random_scenario,
    parse_scenario,
)
from dynalldiff.store import Store, _ValueRemoved

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TRIPLE_TEXT = (SCENARIOS / "forced_third.scn").read_text()
ADOPTION_TEXT = (SCENARIOS / "late_adoption.scn").read_text()


def test_parse_forced_third_fixture():
    scenario = parse_scenario(TRIPLE_TEXT)
    assert scenario.value_names == ["a", "b", "c"]
    assert [s.op for s in scenario.steps] == ["ADD", "ADD", "ADD", "CHECK"]


def test_parse_pop_before_add():
    with pytest.raises(LifoViolation):
        parse_scenario("VALUES a\nPOP\n")


def test_parse_empty_file():
    scenario = parse_scenario("")
    assert scenario.steps == []


def test_parse_unknown_symbol_line_number():
    with pytest.raises(UnknownSymbol) as err:
        parse_scenario("VALUES a\nADD X1 a\nDEL X1 z\n")
    assert err.value.line_no == 3


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_scenario("NOPE\n")


@pytest.mark.parametrize(
    "text, error, line_no",
    [
        ("VALUES a b\nVALUES b\n", ParseError, 2),  # a value declared twice
        ("VALUES a\nADD X1\n", ParseError, 2),  # an ADD without a domain
        ("VALUES a b\nADD X1 a\nADD X1 b\n", ParseError, 3),  # a live name
        ("VALUES a\n\nADD X1 a z\n", UnknownSymbol, 3),  # an undeclared value
        ("VALUES a b\nADD X1 a b a\n", ParseError, 2),  # a value repeated
        ("VALUES a\nADD X1 a\nDEL X1\n", ParseError, 3),  # DEL, wrong arity
        ("VALUES a\nADD X1 a\nDEL X2 a\n", ParseError, 3),  # never added
        ("VALUES a\nADD X1 a\nPOP X1\n", ParseError, 3),  # POP with arguments
        ("VALUES a\n# a comment\nCHECK now\n", ParseError, 3),  # CHECK, too
    ],
)
def test_parse_errors_name_their_line(text, error, line_no):
    with pytest.raises(error) as err:
        parse_scenario(text)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")


def test_run_forced_third_both_modes():
    scenario = parse_scenario(TRIPLE_TEXT)
    for mode in ("generic", "dynamic"):
        run = run_scenario(scenario, mode)
        (check,) = run.checks
        assert check.consistent
        assert check.check_domains["X3"] == ("c",)
        assert check.check_domains["X1"] == ("a", "b")


def test_run_late_adoption_modes_agree():
    scenario = parse_scenario(ADOPTION_TEXT)
    generic = run_scenario(scenario, "generic")
    dynamic = run_scenario(scenario, "dynamic")
    for left, right in zip(generic.checks, dynamic.checks):
        assert left.consistent and right.consistent
        assert left.check_domains == right.check_domains
    assert generic.checks[-1].check_domains["X4"] == ("d",)
    assert generic.checks[-1].check_domains["X5"] == ("e",)


def test_run_random_scenarios_cross_mode():
    for seed in range(1, 60):
        scenario = generate_random_scenario(seed, p_max=6, d_max=6, del_rate=0.4)
        generic = run_scenario(scenario, "generic")
        dynamic = run_scenario(scenario, "dynamic")
        for left, right in zip(generic.checks, dynamic.checks):
            assert left.check_domains == right.check_domains, seed
            assert left.consistent == right.consistent, seed


def test_generate_deterministic():
    one = generate_random_scenario(1)
    two = generate_random_scenario(1)
    assert one == two


def test_generate_no_del_when_rate_zero():
    for seed in range(1, 30):
        scenario = generate_random_scenario(seed, del_rate=0.0)
        assert all(step.op != "DEL" for step in scenario.steps)


def test_generate_round_trips_through_text():
    for seed in range(1, 120):
        scenario = generate_random_scenario(seed, p_max=5, d_max=5)
        assert parse_scenario(format_scenario(scenario)) == scenario


def test_trail_restored_after_draining_pops():
    for seed in range(1, 40):
        scenario = generate_random_scenario(seed, p_max=5, d_max=5, del_rate=0.4)
        for mode in ("generic", "dynamic"):
            run = run_scenario(scenario, mode)
            assert run.restore_mismatches == [], (seed, mode)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_scenario(parse_scenario(TRIPLE_TEXT), "incremental")


# x2 = a takes a from x1; the POP at step 2 must give it back
LOST_VALUE_TEXT = "VALUES a b\nADD X1 a b\nADD X2 a\nPOP\nCHECK\n"


def test_a_pop_that_does_not_restore_is_reported(monkeypatch):
    monkeypatch.setattr(_ValueRemoved, "undo", lambda self, store: None)
    run = run_scenario(parse_scenario(LOST_VALUE_TEXT), "dynamic")
    assert run.restore_mismatches[0].startswith("POP at step 2:")
    assert run.checks[0].check_domains == {"X1": ("b",)}


def test_cli_exits_1_on_a_restore_mismatch(monkeypatch, tmp_path, capsys):
    path = tmp_path / "lost_value.scn"
    path.write_text(LOST_VALUE_TEXT)
    assert main(["--scenario", str(path), "--mode", "dynamic"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(_ValueRemoved, "undo", lambda self, store: None)
    assert main(["--scenario", str(path), "--mode", "dynamic"]) == 1
    assert "restore mismatch (dynamic): POP at step 2" in capsys.readouterr().err


def test_del_of_a_popped_variable_is_skipped():
    text = "VALUES a b\nADD X1 a b\nPOP\nDEL X1 a\nCHECK\n"
    for mode in ("generic", "dynamic"):
        run = run_scenario(parse_scenario(text), mode)
        assert run.steps[2].diagnostic == "variable X1 not live; DEL skipped"
        assert run.checks[0].check_domains == {}


def test_cli_exits_1_on_an_oracle_mismatch_and_a_mode_disagreement(
    monkeypatch, capsys
):
    # a filter that does nothing when given seeds: the re-posting mode
    # filters whole graphs at each posting, so only the adopting mode
    # leaves X3 with a and b, which no solution gives it
    real = dynalldiff.alldiff.remove_edges_from_g

    def stand_in(graph, matching, counters, seeds=None, log=None):
        return [] if seeds is not None else real(graph, matching, counters)

    monkeypatch.setattr(dynalldiff.alldiff, "remove_edges_from_g", stand_in)
    argv = ["--scenario", str(SCENARIOS / "forced_third.scn"), "--mode", "both",
            "--verify-oracle"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "oracle mismatch (dynamic): step 3" in err
    assert "oracle mismatch (generic)" not in err
    assert "mode disagreement at step 3" in err


def test_cli_exits_2_on_a_kernel_error(monkeypatch, capsys):
    # a covering search that reports success without covering leaves X2
    # unmatched, and the filter refuses an uncovered variable
    monkeypatch.setattr(
        dynalldiff.alldiff, "matching_covering_x",
        lambda graph, matching, counters, uncovered, log: True,
    )
    argv = ["--scenario", str(SCENARIOS / "forced_third.scn"), "--mode", "both"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (dynamic): variable 1 is not covered")


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"VALUES a b\nADD X1 a c\n", "line 2: value c not declared"),
        (b"VALUES a\nPOP\n", "line 2: POP without a live ADD"),
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
        (None, "No such file or directory"),
        ("a directory", "Is a directory"),
    ],
    ids=["undeclared-value", "pop-without-add", "not-utf-8", "missing", "directory"],
)
def test_cli_exits_2_on_a_file_it_cannot_read_or_parse(
    tmp_path, capsys, content, reason
):
    path = tmp_path / "input.scn"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.mkdir()
    assert main(["--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {reason}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "target, reason",
    [("missing/steps.csv", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_cli_exits_2_on_a_csv_it_cannot_write(tmp_path, capsys, target, reason):
    path = tmp_path / target
    argv = ["--scenario", str(SCENARIOS / "forced_third.scn"), "--csv", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--pmax", "-1"),
        ("--dmax", "0"),
        ("--delrate", "-0.5"),
        ("--delrate", "nan"),
        ("--delrate", "inf"),
    ],
)
def test_cli_rejects_generator_arguments_it_cannot_use(capsys, flag, value):
    with pytest.raises(SystemExit) as exited:
        main(["--random", flag, value])
    assert exited.value.code == 2
    assert f"error: {flag} must be" in capsys.readouterr().err


def test_counters_shape_consistent_with_live_graph():
    for seed in (4, 9, 21):
        scenario = generate_random_scenario(seed, p_max=6, d_max=6, del_rate=0.3)
        for mode in ("generic", "dynamic"):
            run = run_scenario(scenario, mode)
            for step in run.steps:
                assert step.m <= step.p * step.d
                assert step.trailed_cells >= 0
                assert step.augment_visits >= 0
                assert step.filter_visits >= 0


def test_engines_agree_on_graph_shape():
    # d counts the values with an edge, so at a fixpoint both engines' graphs
    # hold exactly the live domains
    for seed in range(300):
        scenario = generate_random_scenario(seed, p_max=6, d_max=6, del_rate=0.3)
        generic = run_scenario(scenario, "generic")
        dynamic = run_scenario(scenario, "dynamic")
        for g, d in zip(generic.steps, dynamic.steps):
            if g.consistent and d.consistent:
                assert (g.p, g.d, g.m) == (d.p, d.d, d.m), (seed, g.index)


def test_counters_reproducible():
    scenario = generate_random_scenario(9, p_max=5, d_max=5, del_rate=0.3)
    for mode in ("generic", "dynamic"):
        first = run_scenario(scenario, mode)
        second = run_scenario(scenario, mode)
        for a, b in zip(first.steps, second.steps):
            assert (
                a.trailed_cells,
                a.augment_visits,
                a.filter_visits,
                a.p,
                a.d,
                a.m,
                a.consistent,
            ) == (
                b.trailed_cells,
                b.augment_visits,
                b.filter_visits,
                b.p,
                b.d,
                b.m,
                b.consistent,
            )


def test_report_triple_rows_and_space_ordering():
    scenario = parse_scenario(TRIPLE_TEXT)
    generic = run_scenario(scenario, "generic")
    dynamic = run_scenario(scenario, "dynamic")
    text = report([generic, dynamic])
    assert text.count(" generic ") == 3
    assert text.count(" dynamic ") == 3
    assert "geomean" in text
    g_adds = [s for s in generic.steps if s.op == "ADD"]
    d_adds = [s for s in dynamic.steps if s.op == "ADD"]
    for g, d in zip(g_adds[1:], d_adds[1:]):  # rows 2 and 3
        assert g.trailed_cells >= d.trailed_cells


def test_report_empty_scenario_header_only():
    scenario = Scenario()
    text = report([run_scenario(scenario, "generic")])
    assert "step" in text.splitlines()[0]
    assert len(text.splitlines()) == 2  # header + rule


def test_csv_columns_exact(tmp_path):
    scenario = parse_scenario(TRIPLE_TEXT)
    results = [run_scenario(scenario, m) for m in ("generic", "dynamic")]
    path = tmp_path / "out.csv"
    write_csv(str(path), results)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert rows[0] == (
        "step,mode,op,p,d,m,k,trailed_cells,augment_visits,filter_visits,"
        "wall_ns,consistent"
    ).split(",")
    assert len(rows) == 1 + 2 * len(scenario.steps)


def test_space_trend_generic_grows_with_p():
    # one-variable adds at fixed d: the generic/dynamic trailed-cell ratio
    # increases as the constraint grows (the O(pd) vs O(d) gap)
    d = 8
    values = " ".join(f"v{i}" for i in range(d))
    lines = [f"VALUES {values}"]
    for i in range(1, 9):
        lines.append(f"ADD X{i} {values}")
    scenario = parse_scenario("\n".join(lines) + "\nCHECK\n")
    generic = run_scenario(scenario, "generic")
    dynamic = run_scenario(scenario, "dynamic")
    ratios = []
    for g, dyn in zip(generic.steps, dynamic.steps):
        if g.op == "ADD" and dyn.trailed_cells:
            ratios.append(g.trailed_cells / dyn.trailed_cells)
    assert ratios[-1] > ratios[1]
    assert ratios[-1] > 2.0


def test_cli_scenario_smoke(tmp_path, capsys):
    csv_path = tmp_path / "triple.csv"
    status = main(
        [
            "--scenario",
            str(SCENARIOS / "forced_third.scn"),
            "--mode",
            "both",
            "--csv",
            str(csv_path),
            "--verify-oracle",
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "geomean" in out
    assert csv_path.exists()


def test_cli_random_smoke(capsys):
    status = main(["--random", "--seed", "3", "--trace", "--verify-oracle"])
    out = capsys.readouterr().out
    assert status == 0
    assert "generated scenario" in out


def test_run_scenario_survives_failed_branches():
    # deleting the last value wipes a domain; later steps keep replaying
    text = "VALUES a b\nADD X1 a\nADD X2 a b\nDEL X1 a\nCHECK\nPOP\nPOP\nCHECK\n"
    scenario = parse_scenario(text)
    for mode in ("generic", "dynamic"):
        run = run_scenario(scenario, mode)
        failed_check, final_check = run.checks
        assert failed_check.consistent is False
        assert final_check.consistent is True
        assert final_check.check_domains == {}


def test_checksums_taken_once_and_outside_the_timed_window(monkeypatch):
    # one hash per ADD (the skipped one too), one per POP and one per ADD
    # still live after the last step, one symbol lookup per ADD or DEL
    # value, and the oracle at the CHECK the pops made consistent; none timed
    text = (
        "VALUES a b c\nADD X1 a b\nADD X2 a b\nADD X3 a b c\nDEL X1 a\n"
        "DEL X1 b\nADD X4 c\nPOP\nPOP\nCHECK\n"
    )
    scenario = parse_scenario(text)
    events = []
    real_checksum = Store.checksum
    real_clock = bench.time.perf_counter_ns
    real_oracle, real_value_id = bench.gac_filter_bruteforce, Scenario.value_id

    def checksum(self):
        events.append("hash")
        return real_checksum(self)

    def clock():
        events.append("clock")
        return real_clock()

    def oracle(predicate, domains):
        events.append("oracle")
        return real_oracle(predicate, domains)

    def value_id(self, symbol):
        events.append("value_id")
        return real_value_id(self, symbol)

    monkeypatch.setattr(Store, "checksum", checksum)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter_ns=clock))
    monkeypatch.setattr(bench, "gac_filter_bruteforce", oracle)
    monkeypatch.setattr(Scenario, "value_id", value_id)
    for mode in ("generic", "dynamic"):
        events.clear()
        run = run_scenario(scenario, mode, verify_oracle=True)
        assert run.restore_mismatches == [] and run.oracle_mismatches == [], mode
        assert events.count("hash") == 4 + 2 + 2, mode
        assert events.count("value_id") == 2 + 2 + 3 + 1 + 1 + 1, mode
        assert events.count("oracle") == 1, mode
        assert events.count("clock") == 2 * len(scenario.steps)
        timed = False
        for event in events:
            if event == "clock":
                timed = not timed
            else:
                assert not timed, mode


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "golden, source",
    [
        ("forced_third.csv", ["--scenario", str(SCENARIOS / "forced_third.scn")]),
        ("late_adoption.csv", ["--scenario", str(SCENARIOS / "late_adoption.scn")]),
        (
            "random_seed7.csv",
            ["--random", "--seed", "7", "--pmax", "8", "--dmax", "8", "--delrate", "0.3"],
        ),
    ],
)
def test_cli_csv_counters_match_the_golden_files(golden, source, tmp_path, capsys):
    # each golden file is `dynalldiff-bench <source> --mode both --csv FILE`;
    # every column but wall_ns is a counter or a verdict, and must not move
    path = tmp_path / golden
    assert main(source + ["--mode", "both", "--csv", str(path)]) == 0
    capsys.readouterr()

    def rows(csv_path):
        with open(csv_path, newline="") as fh:
            table = list(csv.DictReader(fh))
        for row in table:
            del row["wall_ns"]
        return table

    expected = rows(GOLDEN / golden)
    assert expected
    assert rows(path) == expected
