"""Replay scenarios under both dynamization methods and compare their cost.

The runner replays ADD/DEL/POP/CHECK steps through `GenericDynamizer`
(deactivate + re-post, mode "generic") or `AdoptingDynamizer` (adoption in
place, mode "dynamic"), sampling per-step operation counters: trailed cells,
vertices scanned by augmenting searches, vertices scanned by the filter, and
wall time.  Every pop is checked to restore the store exactly.  The report
prints one row per ADD and geometric-mean generic/dynamic ratios; wall time
is informational only and never asserted.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .alldiff import AdoptingDynamizer, AllDifferent
from .errors import DomainWipeout, KernelError, ParseError
from .generic import GenericDynamizer
from .oracle import all_values_distinct, gac_filter_bruteforce
from .scenario import Scenario, format_scenario, generate_random_scenario, parse_scenario
from .store import Store

CSV_COLUMNS = (
    "step,mode,op,p,d,m,k,trailed_cells,augment_visits,filter_visits,"
    "wall_ns,consistent"
).split(",")


@dataclass
class StepResult:
    index: int
    op: str
    p: int = 0
    d: int = 0
    m: int = 0
    k: int = 0
    trailed_cells: int = 0
    augment_visits: int = 0
    filter_visits: int = 0
    wall_ns: int = 0
    consistent: bool = True
    check_domains: Optional[dict[str, tuple[str, ...]]] = None
    diagnostic: Optional[str] = None


@dataclass
class RunResult:
    mode: str
    steps: list[StepResult] = field(default_factory=list)
    oracle_mismatches: list[str] = field(default_factory=list)
    restore_mismatches: list[str] = field(default_factory=list)

    @property
    def checks(self) -> list[StepResult]:
        return [s for s in self.steps if s.op == "CHECK"]


def run_scenario(
    scenario: Scenario, mode: str, verify_oracle: bool = False
) -> RunResult:
    """Replay the scenario; returns per-step results and counters.

    Every POP, and after the last step a pop of each ADD still live, must
    return the store to its checksum from before the matching ADD; each
    difference is listed in `restore_mismatches`.  A step's `wall_ns` times
    only its own work: the symbols are resolved before it, and the
    checksums, a CHECK's domains and the oracle are taken after it.
    """
    store = Store()
    if mode == "dynamic":
        dynamizer = AdoptingDynamizer(store)
    elif mode == "generic":
        dynamizer = GenericDynamizer(store, AllDifferent)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    result = RunResult(mode)
    live: list[tuple[str, int]] = []  # (name, variable id)
    adds: list[tuple[int, str, bool]] = []  # (ADD step, checksum before, skipped)

    def undo_newest_add() -> None:
        if not adds[-1][2]:
            dynamizer.remove_variable()
            store.retract_last_variable()
            live.pop()

    def check_restored(where: str) -> None:
        add_index, expected, _skipped = adds.pop()
        if store.checksum() != expected:
            result.restore_mismatches.append(
                f"{where}: the store differs from before the ADD at step {add_index}"
            )

    for index, step in enumerate(scenario.steps):
        record = StepResult(index=index, op=step.op)
        if step.op == "ADD":
            adds.append((index, store.checksum(), store.failed))
        values = [scenario.value_id(sym) for sym in step.values]
        var = next((vid for name, vid in reversed(live) if name == step.var), None)
        before = store.counters.snapshot()
        t0 = time.perf_counter_ns()
        if step.op == "ADD":
            record.k = 1
            if store.failed:
                record.diagnostic = "branch failed; ADD skipped"
            else:
                var = store.add_variable(values)
                dynamizer.add_variable(var)
                live.append((step.var, var))
        elif step.op == "DEL":
            if store.failed:
                record.diagnostic = "branch failed; DEL skipped"
            elif var is None:
                record.diagnostic = f"variable {step.var} not live; DEL skipped"
            else:
                try:
                    if store.remove_value(var, values[0]):
                        store.propagate_fixpoint()
                except DomainWipeout:
                    record.diagnostic = "domain wipeout"
        elif step.op == "POP":
            undo_newest_add()
        record.wall_ns = time.perf_counter_ns() - t0
        if step.op == "POP":
            check_restored(f"POP at step {index}")
        elif step.op == "CHECK":  # a CHECK only reads: nothing of it is timed
            record.check_domains = {
                name: tuple(
                    scenario.value_names[v] for v in sorted(store.domains[vid])
                )
                for name, vid in live
            }
            if verify_oracle and not store.failed and live:
                domains = [store.domains[vid] for _, vid in live]
                product = math.prod(len(d) for d in domains)
                if product <= 1_000_000:
                    expected = gac_filter_bruteforce(all_values_distinct, domains)
                    if expected is None or expected != list(map(set, domains)):
                        result.oracle_mismatches.append(
                            f"step {index}: domains are not the oracle GAC fixpoint"
                        )
        after = store.counters.snapshot()
        record.augment_visits = after[0] - before[0]
        record.filter_visits = after[1] - before[1]
        record.trailed_cells = after[2] - before[2]
        if store.constraints:  # under both methods the newest one is live
            graph = store.constraints[-1].propagator.graph
            record.p, record.d, record.m = (
                len(graph.adj_var),
                len(graph.adj_val),
                sum(map(len, graph.adj_var.values())),
            )
        record.consistent = not store.failed
        result.steps.append(record)
    while adds:
        undo_newest_add()
        check_restored("final pop")
    return result


def _geomean(ratios: list[float]) -> Optional[float]:
    if not ratios:
        return None
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def report(results: list[RunResult]) -> str:
    """Text table: one row per ADD per mode, then generic/dynamic ratios."""
    header = (
        f"{'step':>4} {'mode':>8} {'p':>3} {'d':>3} {'k':>3} "
        f"{'trailed':>8} {'augment':>8} {'filter':>7} {'wall_ns':>10}"
    )
    lines = [header, "-" * len(header)]
    for run in results:
        for step in run.steps:
            if step.op != "ADD":
                continue
            lines.append(
                f"{step.index:>4} {run.mode:>8} {step.p:>3} {step.d:>3} "
                f"{step.k:>3} {step.trailed_cells:>8} {step.augment_visits:>8} "
                f"{step.filter_visits:>7} {step.wall_ns:>10}"
            )
    by_mode = {run.mode: run for run in results}
    if "generic" in by_mode and "dynamic" in by_mode:
        trailed, augment = [], []
        generic_adds = [s for s in by_mode["generic"].steps if s.op == "ADD"]
        dynamic_adds = [s for s in by_mode["dynamic"].steps if s.op == "ADD"]
        for g, d in zip(generic_adds, dynamic_adds):
            if g.trailed_cells > 0 and d.trailed_cells > 0:
                trailed.append(g.trailed_cells / d.trailed_cells)
            if g.augment_visits > 0 and d.augment_visits > 0:
                augment.append(g.augment_visits / d.augment_visits)
        g_trailed = _geomean(trailed)
        g_augment = _geomean(augment)
        lines.append("-" * len(header))
        lines.append(
            "geomean generic/dynamic: trailed_cells "
            + (f"{g_trailed:.2f}" if g_trailed else "n/a")
            + ", augment_visits "
            + (f"{g_augment:.2f}" if g_augment else "n/a")
        )
    return "\n".join(lines)


def write_csv(path: str, results: list[RunResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for run in results:
            for step in run.steps:
                writer.writerow(
                    [
                        step.index,
                        run.mode,
                        step.op,
                        step.p,
                        step.d,
                        step.m,
                        step.k,
                        step.trailed_cells,
                        step.augment_visits,
                        step.filter_visits,
                        step.wall_ns,
                        int(step.consistent),
                    ]
                )


def _trace(run: RunResult, out) -> None:
    for step in run.steps:
        state = ""
        if step.check_domains is not None:
            state = " " + " ".join(
                f"{name}={{{','.join(vals)}}}"
                for name, vals in sorted(step.check_domains.items())
            )
        diag = f" [{step.diagnostic}]" if step.diagnostic else ""
        print(
            f"{run.mode}:{step.index:>3} {step.op:<5} consistent={step.consistent}"
            f"{state}{diag}",
            file=out,
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dynalldiff-bench",
        description="Replay alldifferent scenarios under generic and dynamic "
        "dynamization and compare operation counters.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="scenario file to replay")
    source.add_argument(
        "--random", action="store_true", help="generate a random scenario"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pmax", type=int, default=6)
    parser.add_argument("--dmax", type=int, default=6)
    parser.add_argument("--delrate", type=float, default=0.3)
    parser.add_argument(
        "--mode", choices=("generic", "dynamic", "both"), default="both"
    )
    parser.add_argument("--csv", help="write per-step counters to this file")
    parser.add_argument(
        "--verify-oracle",
        action="store_true",
        help="cross-check CHECK domains against the brute-force GAC oracle",
    )
    parser.add_argument(
        "--trace", action="store_true", help="dump per-step state to stdout"
    )
    args = parser.parse_args(argv)
    if args.pmax < 0:
        parser.error("--pmax must be at least 0")
    if args.dmax < 1:
        parser.error("--dmax must be at least 1")
    if not (math.isfinite(args.delrate) and args.delrate >= 0):
        parser.error("--delrate must be a finite number, at least 0")

    if args.scenario:
        try:
            with open(args.scenario, encoding="utf-8") as fh:
                scenario = parse_scenario(fh.read())
        except (OSError, UnicodeDecodeError, ParseError) as err:
            reason = getattr(err, "strerror", None) or err  # OSError: no path again
            print(f"error: {args.scenario}: {reason}", file=sys.stderr)
            return 2
    else:
        scenario = generate_random_scenario(
            args.seed, args.pmax, args.dmax, args.delrate
        )
        print("# generated scenario:")
        print(format_scenario(scenario))

    modes = ["generic", "dynamic"] if args.mode == "both" else [args.mode]
    results = []
    for mode in modes:
        try:
            results.append(run_scenario(scenario, mode, args.verify_oracle))
        except KernelError as err:
            print(f"error ({mode}): {err}", file=sys.stderr)
            return 2
    if args.trace:
        for run in results:
            _trace(run, sys.stdout)
    print(report(results))
    if args.csv:
        try:
            write_csv(args.csv, results)
        except OSError as err:
            print(f"error: {args.csv}: {err.strerror or err}", file=sys.stderr)
            return 2
        print(f"wrote {args.csv}")
    status = 0
    for run in results:
        for miss in run.oracle_mismatches:
            print(f"oracle mismatch ({run.mode}): {miss}", file=sys.stderr)
            status = 1
        for miss in run.restore_mismatches:
            print(f"restore mismatch ({run.mode}): {miss}", file=sys.stderr)
            status = 1
    if len(results) == 2:
        for left, right in zip(results[0].checks, results[1].checks):
            if (
                left.check_domains != right.check_domains
                or left.consistent != right.consistent
            ):
                print(
                    f"mode disagreement at step {left.index}", file=sys.stderr
                )
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
