"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/spread.py [--out FILE]

Runs `perfbench/run.py` once per workload of BENCHMARK.json and seed (seeds
1..10, one process at a time, `run_seconds` from BENCHMARK.json, tracing
off).  For each metric it reports the median of the ten values and the
distance between their first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound.  `--out` also keeps every run's result line.  Exits 1 if a
run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["exit_code"] = done.returncode
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the values and spreads as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, status = {}, 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(spec, workload, seed) for seed in range(1, SEEDS + 1)]
        if any(not r["correct"] or r["exit_code"] for r in runs):
            status = 1
        report[workload] = {"runs": runs}
        print(f"{workload}: {SEEDS} seeds")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            report[workload][name] = {
                "values": values, "median": statistics.median(values),
                "spread": spread, "bound": bound,
            }
            flag = "" if spread <= bound / 3 else " above a third of the bound"
            if spread > bound:
                flag, status = " ABOVE THE BOUND", 1
            print(f"  {name:<14} median {statistics.median(values):>11.4f}"
                  f"  spread {spread:6.3f}  bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
