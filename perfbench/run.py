"""Benchmark of dynamic adoption versus deactivate-and-repost.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload adopt_blocks --seed 1 --seconds 30 --trace 0

One process runs one workload: a single caller replays the seeded inputs
through the public API of `dynalldiff.store`, `dynalldiff.alldiff` and
`dynalldiff.generic` (closed loop, one thread), round after round until
`--seconds` have passed.  The first round is checked between its steps
(oracle, checksums); every later round must repeat it step for step, and
the block workloads are replayed once more with the other engine at the
end.  With `--trace 1`, plain and traced rounds alternate and the
per-layer metrics come from the traced ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
code is 1 when any step failed.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import dynalldiff  # noqa: E402
from replay import KINDS, Recorder, run_blocks, run_latin, speed_factors  # noqa: E402
from tracing import LAYER_METRICS, Tracer, TracingRecorder, layer_metrics  # noqa: E402
from tracing import median_metrics  # noqa: E402
from verify import Checker, compare  # noqa: E402

# Store.checksum() hashes every frozen propagator the re-post baseline keeps,
# O(p^2 d) per call, so repost_blocks checks one checkpoint in this many;
# the dynamic engine's checksum is O(p d) and every checkpoint is checked.
REPOST_CHECKSUM_EVERY = 50

# The end-to-end metrics of the result line, as listed in BENCHMARK.json.
END_TO_END = {
    "steps_per_s": "1/s",
    "add_ms_p50": "ms",
    "add_ms_p95": "ms",
    "del_ms_p50": "ms",
    "del_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed with the others but left out of the result line: a POP restores
# memory, and the host's slow phases slow it by less than they slow the
# calibration work, so its rescaled times spread too much from run to run
# to hold a bound (see README.md).
PRINTED_ONLY = {"pop_ms_p50": "ms", "pop_ms_p95": "ms"}
OUT_DIR = ROOT / "perfbench" / "out"


@dataclass
class Workload:
    replay: Callable[[int, Recorder], int]  # one round; returns set-up ns
    checker: Callable[[], Checker]
    twin: Optional[Callable[[int, Recorder], int]] = None  # the other engine


WORKLOADS = {
    "adopt_blocks": Workload(
        lambda seed, obs: run_blocks(seed, obs, "dynamic"),
        lambda: Checker(blocks=True),
        lambda seed, obs: run_blocks(seed, obs, "generic"),
    ),
    "repost_blocks": Workload(
        lambda seed, obs: run_blocks(seed, obs, "generic"),
        lambda: Checker(REPOST_CHECKSUM_EVERY, blocks=True),
        lambda seed, obs: run_blocks(seed, obs, "dynamic"),
    ),
    "latin_grow": Workload(run_latin, Checker),
}


@dataclass
class Round:
    """What a run keeps of a timed round once it is over.

    Rounds are reduced as they end: a plain round keeps one 8-byte float per
    step, so that the memory a run keeps hardly grows with the number of
    rounds and does not move `peak_rss_mib`.
    """

    attempted: int
    failed: dict[int, str]  # step index -> reason
    step_ns: array  # rescaled ns of each step, in step order
    setup_ns: Optional[float]  # rescaled
    traced: bool = False
    layers: Optional[dict] = None  # per-layer metrics of a traced round
    tracer: Optional[Tracer] = None  # kept for the last traced round only

    @property
    def timed_ns(self) -> float:
        return sum(self.step_ns)


def play(replay, seed: int, rec: Recorder, tracer: Optional[Tracer] = None):
    """Run one round; returns (set-up ns, index of the step that raised)."""
    gc.collect()
    try:
        with tracer.installed() if tracer else nullcontext():
            return replay(seed, rec), None
    except Exception:  # any exception fails the step in progress and ends the round
        traceback.print_exc()
        return None, max(rec.attempted - 1, 0)
    finally:
        rec.store = None


def summarize(rec: Recorder, setup_ns, raised, reference: Recorder,
              tracer: Optional[Tracer] = None) -> Round:
    """Verify a finished round against the reference and keep its numbers."""
    attempted = max(rec.attempted, 1)
    failed = dict(rec.failures)
    for step, reason in compare(reference, rec, counts=True).items():
        failed.setdefault(step, reason)
    if raised is not None:
        failed[raised] = "raised an exception"
    factors = speed_factors(rec.cal_ns)
    step_ns = array("d", (ns * factor for ns, factor in zip(rec.step_ns, factors)))
    if setup_ns is not None and factors:
        setup_ns *= factors[0]
    layers = layer_metrics(rec, tracer) if tracer and raised is None else None
    return Round(attempted, {k: v for k, v in failed.items() if k < attempted},
                 step_ns, setup_ns, tracer is not None, layers, tracer)


def measure(workload: Workload, seed: int, seconds: int, trace: bool):
    """Timed rounds until `seconds` have passed; returns (reference, rounds).

    The first round is the reference: its observer is the workload's
    Checker, whose checks run between the steps, outside their timed
    windows.  Its times are left out of the metrics, because the checks
    evict the caches between steps.  With `trace`, every other round after
    it is traced, and the last round always is.  There is always at least
    one plain (neither checked nor traced) round.
    """
    deadline = perf_counter() + seconds
    reference = workload.checker()
    rounds = [summarize(reference, *play(workload.replay, seed, reference), reference)]
    while (perf_counter() < deadline or len(rounds) < 2 + trace
           or (trace and not rounds[-1].traced)):
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        rec = TracingRecorder(tracer) if tracer else Recorder()
        if tracer:
            for rnd in rounds:
                rnd.tracer = None
        rounds.append(summarize(rec, *play(workload.replay, seed, rec, tracer),
                                reference, tracer))
    return reference, rounds


def check_twin(workload: Workload, seed: int, reference: Recorder) -> dict[int, str]:
    """Steps where a replay with the other engine departs from the reference."""
    if workload.twin is None:
        return {}
    twin = Recorder()
    _, raised = play(workload.twin, seed, twin)
    departed = dict(twin.failures)
    departed.update(compare(reference, twin, counts=False))
    if raised is not None:
        departed[raised] = "raised an exception"
    return {step: f"other engine: {reason}" for step, reason in departed.items()}


def _p95(values: list[float]) -> float:
    return sorted(values)[math.ceil(0.95 * len(values)) - 1]


def end_to_end(plain: list[Round], kinds: list[str], peak_rss_mib: float):
    """Metrics as {name: (value, samples)}, from the plain rounds only.

    Every round replays the same steps, so each step has one time per plain
    round, rescaled to the reference speed (see `replay.calibrate`).  A
    step's time is the median of those; the percentiles of a kind are taken
    over its steps.  The median drops the moments at which the host was
    disturbed, which a pooled percentile would keep.
    """
    steps = [
        statistics.median(r.step_ns[i] for r in plain if i < len(r.step_ns))
        for i in range(len(kinds))
    ]
    rounds = f"{len(plain)} rounds"
    total_s = sum(steps) / 1e9
    metrics = {"steps_per_s": (len(steps) / total_s if total_s else None,
                               f"{len(steps)} steps x {rounds}")}
    for kind in KINDS:
        times = [ns for step_kind, ns in zip(kinds, steps) if step_kind == kind]
        name, samples = kind.lower(), f"{len(times)} steps x {rounds}"
        metrics[f"{name}_ms_p50"] = (
            statistics.median(times) / 1e6 if times else None, samples)
        metrics[f"{name}_ms_p95"] = (
            _p95(times) / 1e6 if times else None, samples)
    setups = [r.setup_ns / 1e9 for r in plain if r.setup_ns is not None]
    metrics["setup_s"] = (statistics.median(setups) if setups else None,
                          f"median of {len(setups)} set-ups")
    metrics["peak_rss_mib"] = (peak_rss_mib, "1 process")
    return metrics


def per_layer(rounds: list[Round], verify_s: float):
    traced = [r for r in rounds if r.layers is not None]
    plain = [r for r in rounds[1:] if not r.traced and not r.failed]
    if not traced or not plain:  # every round of one kind raised
        return dict.fromkeys(LAYER_METRICS)
    metrics = median_metrics([r.layers for r in traced])
    metrics["oracle.verify_s"] = verify_s
    metrics["trace.overhead_ratio"] = statistics.median(
        r.timed_ns for r in traced
    ) / statistics.median(r.timed_ns for r in plain)
    return {name: metrics[name] for name in LAYER_METRICS}


def write_spans(workload: str, seed: int, tracer: Tracer) -> Path:
    """Spans of the last traced round, written once the run is over."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans_{workload}_seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "fields": ["name", "start_ns", "end_ns", "parent", "step", "returned"],
            "missing_hooks": tracer.missing,
            "spans": tracer.spans,
        }, fh)
    return path


def _show(value: Optional[float]) -> str:
    return f"{'null':>12}" if value is None else f"{value:>12.4f}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if Path(dynalldiff.__file__).parent != ROOT / "src" / "dynalldiff":
        sys.exit(f"dynalldiff was not imported from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]

    started = perf_counter()
    reference, rounds = measure(workload, args.seed, args.seconds, bool(args.trace))
    measured_s = perf_counter() - started
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    started = perf_counter()
    bad = dict(rounds[0].failed)
    for step, reason in check_twin(workload, args.seed, reference).items():
        bad.setdefault(step, reason)
    verify_s = reference.check_s + perf_counter() - started

    attempted = sum(r.attempted for r in rounds)
    failed = 0
    for rnd in rounds:
        steps = {s: bad[s] for s in bad if s < rnd.attempted}
        steps.update(rnd.failed)
        failed += len(steps)
        for step in sorted(steps)[:3]:
            print(f"FAILED step {step}: {steps[step]}", file=sys.stderr)

    plain = [r for r in rounds[1:] if not r.traced]
    traced = [r for r in rounds if r.traced]
    print(f"workload {args.workload} seed {args.seed}: 1 checked, {len(plain)}"
          f" plain and {len(traced)} traced rounds in {measured_s:.1f} s, "
          f"verification {verify_s:.1f} s")
    speed = statistics.median(speed_factors(reference.cal_ns))
    print(f"  times below are wall times x about {speed:.3f}, the host speed"
          " factor (see README.md)")
    e2e = end_to_end(plain, [kind for kind, _, _ in reference.outcomes], peak_rss_mib)
    for name, (value, samples) in e2e.items():
        unit = END_TO_END.get(name) or PRINTED_ONLY[name]
        note = ", printed only" if name in PRINTED_ONLY else ""
        print(f"  {name:<18} {_show(value)} {unit:<4} ({samples}{note})")
    print(f"  {'failed_ops_ratio':<18} {failed / attempted:>12.4f} ratio "
          f"(failed {failed} / attempted {attempted})")
    if args.trace:
        reported = per_layer(rounds, verify_s)
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        print(f"  per layer, median of {len(traced)} traced rounds:")
        for name, value in reported.items():
            print(f"  {name:<34} {_show(value)} {units[name]}")
        print(f"  spans: {write_spans(args.workload, args.seed, traced[-1].tracer)}")
    else:
        reported = {name: e2e[name][0] for name in END_TO_END}
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
