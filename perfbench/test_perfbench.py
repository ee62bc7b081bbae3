"""Self-test of the benchmark: `python3 -m pytest perfbench -q` from the root.

Runs the replay code on inputs far smaller than the benchmark's, so it takes
seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from replay import Recorder, run_blocks, run_latin
from tracing import Tracer, TracingRecorder, layer_metrics
from verify import Checker
from workloads import generate_blocks, generate_latin, input_bytes

import dynalldiff.alldiff

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_LATIN = dict(order=8, rows=5, dive_domain=5)


def small_blocks(engine):
    return lambda seed, obs: run_blocks(seed, obs, engine, blocks=6)


@pytest.fixture
def small_workloads(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, "adopt_blocks", run.Workload(
        small_blocks("dynamic"), lambda: Checker(blocks=True),
        small_blocks("generic")))
    monkeypatch.setitem(run.WORKLOADS, "latin_grow", run.Workload(
        lambda seed, obs: run_latin(seed, obs, **SMALL_LATIN), Checker))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_inputs_are_byte_identical_for_a_seed():
    assert input_bytes(generate_blocks(5)) == input_bytes(generate_blocks(5))
    assert input_bytes(generate_blocks(5)) != input_bytes(generate_blocks(6))
    assert input_bytes(generate_latin(5)) == input_bytes(generate_latin(5))
    assert input_bytes(generate_latin(5)) != input_bytes(generate_latin(6))


@pytest.mark.parametrize("replay", [
    small_blocks("dynamic"),
    small_blocks("generic"),
    lambda seed, obs: run_latin(seed, obs, **SMALL_LATIN),
])
def test_exact_counters_repeat_across_runs(replay):
    first, second = Recorder(), Recorder()
    replay(3, first)
    tracer = Tracer()
    with tracer.installed():
        replay(3, second := TracingRecorder(tracer))
    assert first.outcomes == second.outcomes
    assert first.counts == second.counts
    assert first.trail_peak == second.trail_peak
    assert not first.failures and not second.failures
    exact = ("store.trailed_cells_per_add", "store.trail_frames_peak",
             "store.events_per_step", "matching.augment_visits_per_step",
             "matching.filter_visits_per_step", "matching.filter_visits_growth",
             "alldiff.edge_events", "alldiff.inconsistent_adds")
    again = Tracer()
    with again.installed():
        replay(3, third := TracingRecorder(again))
    one, two = layer_metrics(second, tracer), layer_metrics(third, again)
    assert {k: one[k] for k in exact} == {k: two[k] for k in exact}


def test_both_engines_agree_step_by_step():
    dynamic, generic = Recorder(), Recorder()
    small_blocks("dynamic")(4, dynamic)
    small_blocks("generic")(4, generic)
    assert dynamic.outcomes == generic.outcomes


@pytest.mark.parametrize("workload", ["adopt_blocks", "latin_grow"])
@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema_is_pinned(small_workloads, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    for name in run.PRINTED_ONLY:  # printed on a text line, not in the result
        assert f"  {name} " in out
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(
        run.WORKLOADS, key=["adopt_blocks", "repost_blocks", "latin_grow"].index)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)


def test_wrong_domains_fail_the_run(small_workloads, capsys, monkeypatch):
    # without the filter, adoption leaves values that no solution uses
    monkeypatch.setattr(dynalldiff.alldiff, "remove_edges_from_g",
                        lambda graph, matching, counters=None: [])
    code = run.main(["--workload", "adopt_blocks", "--seed", "2", "--seconds", "1",
                     "--trace", "0"])
    result = result_line(capsys)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_missing_hook_is_reported_as_null(monkeypatch):
    monkeypatch.setitem(tracing.HOOKS, "matching.remove_edges",
                        ("dynalldiff.alldiff", None, "no_such_function"))
    tracer = Tracer()
    with tracer.installed():
        small_blocks("dynamic")(3, rec := TracingRecorder(tracer))
    metrics = layer_metrics(rec, tracer)
    assert tracer.missing == ["matching.remove_edges"]
    assert metrics["alldiff.repair_ratio"] is None
    assert metrics["alldiff.edge_events"] is None
    assert metrics["matching.filter_ms"] is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adopt_blocks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
