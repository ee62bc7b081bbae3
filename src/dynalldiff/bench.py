"""Replay scenarios under both dynamization methods and compare their cost.

The runner replays ADD/DEL/POP/CHECK steps against either the generic
(deactivate + re-post) engine or the dynamic (incremental adoption) engine,
sampling per-step operation counters: trailed cells, vertices scanned by
augmenting searches, vertices scanned by the filter, and wall time.  The
report prints one row per ADD and geometric-mean generic/dynamic ratios;
wall time is informational only and never asserted.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .alldiff import AllDifferent
from .errors import DomainWipeout, InitFailure, KernelError
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
    checksum_before: Optional[str] = None  # ADD steps
    checksum_after: Optional[str] = None  # POP steps
    matched_add: Optional[int] = None  # POP steps: index of the matched ADD
    diagnostic: Optional[str] = None


@dataclass
class RunResult:
    mode: str
    steps: list[StepResult] = field(default_factory=list)
    oracle_mismatches: list[str] = field(default_factory=list)
    engine: Optional["_EngineBase"] = None

    @property
    def checks(self) -> list[StepResult]:
        return [s for s in self.steps if s.op == "CHECK"]

    def drain_pops(self) -> list[tuple[str, str]]:
        """Pop every remaining live ADD; returns (expected, actual) checksums."""
        pairs = []
        while self.engine.add_stack:
            expected = self.engine.add_stack[-1].checksum
            self.engine.pop()
            pairs.append((expected, self.engine.store.checksum()))
        return pairs


@dataclass
class _AddEntry:
    step: int
    checksum: str  # store checksum taken just before the ADD ran
    kind: str  # posted | adopted | generic | skipped
    token: Optional[object] = None


class _EngineBase:
    """Common ADD bookkeeping: name mapping, LIFO stack, pre-ADD checksums."""

    def __init__(self, store: Store):
        self.store = store
        self.live: list[tuple[str, int]] = []  # (name, var id)
        self.add_stack: list[_AddEntry] = []

    def var_id(self, name: str) -> Optional[int]:
        for live_name, vid in reversed(self.live):
            if live_name == name:
                return vid
        return None

    def add_skipped(self, step_index: int, checksum: str) -> None:
        self.add_stack.append(_AddEntry(step_index, checksum, "skipped"))

    def live_graph(self):
        raise NotImplementedError

    def graph_shape(self) -> tuple[int, int, int]:
        prop = self.live_graph()
        if prop is None:
            return 0, 0, 0
        return (
            len(prop.graph.adj_var),
            len(prop.graph.adj_val),
            prop.graph.edge_count,
        )


class DynamicEngine(_EngineBase):
    """Incremental adoption: one propagator grows and shrinks in place."""

    def __init__(self, store: Store):
        super().__init__(store)
        self.propagator: Optional[AllDifferent] = None

    def live_graph(self):
        return self.propagator

    def add(self, step_index: int, name: str, domain: set[int], checksum: str) -> bool:
        var = self.store.add_variable(domain)
        token = self.store.push_checkpoint()
        if self.propagator is None:
            kind = "posted"
            try:
                handle = self.store.post_constraint(AllDifferent([var]))
            except InitFailure as failure:
                handle = failure.handle
                ok = False
            else:
                ok = self.store.propagate_fixpoint()
            self.propagator = handle.propagator
        else:
            kind = "adopted"
            ok, _delta = self.propagator.add_variables(self.store, [var])
            ok = ok and self.store.propagate_fixpoint()
        self.live.append((name, var))
        self.add_stack.append(_AddEntry(step_index, checksum, kind, token))
        return ok

    def pop(self) -> None:
        entry = self.add_stack.pop()
        if entry.kind == "skipped":
            return
        self.store.pop_checkpoint(entry.token)
        self.store.retract_last_variable()
        self.live.pop()
        if entry.kind == "posted":
            self.propagator = None


class GenericEngine(_EngineBase):
    """Deactivate-and-repost baseline behind the same step interface."""

    def __init__(self, store: Store):
        super().__init__(store)
        self.wrapper = GenericDynamizer(store, AllDifferent)

    def live_graph(self):
        handle = self.wrapper.active_handle
        return handle.propagator if handle is not None else None

    def add(self, step_index: int, name: str, domain: set[int], checksum: str) -> bool:
        var = self.store.add_variable(domain)
        ok = self.wrapper.add_variable(var)
        self.live.append((name, var))
        self.add_stack.append(_AddEntry(step_index, checksum, "generic"))
        return ok

    def pop(self) -> None:
        entry = self.add_stack.pop()
        if entry.kind == "skipped":
            return
        self.wrapper.remove_variable()
        self.store.retract_last_variable()
        self.live.pop()


def _make_engine(mode: str, store: Store) -> _EngineBase:
    if mode == "dynamic":
        return DynamicEngine(store)
    if mode == "generic":
        return GenericEngine(store)
    raise ValueError(f"unknown mode {mode!r}")


def run_scenario(
    scenario: Scenario, mode: str, verify_oracle: bool = False
) -> RunResult:
    """Replay the scenario; returns per-step results and counters.

    The store checksums an ADD and a POP are checked against are taken
    outside the step's `wall_ns` window.
    """
    store = Store()
    engine = _make_engine(mode, store)
    result = RunResult(mode)
    for index, step in enumerate(scenario.steps):
        record = StepResult(index=index, op=step.op)
        if step.op == "ADD":
            record.checksum_before = store.checksum()
        before = store.counters.snapshot()
        t0 = time.perf_counter_ns()
        if step.op == "ADD":
            domain = {scenario.value_id(sym) for sym in step.values}
            if store.failed:
                record.diagnostic = "branch failed; ADD skipped"
                engine.add_skipped(index, record.checksum_before)
            else:
                engine.add(index, step.var, domain, record.checksum_before)
            record.k = 1
        elif step.op == "DEL":
            var = engine.var_id(step.var)
            if store.failed:
                record.diagnostic = "branch failed; DEL skipped"
            elif var is None:
                record.diagnostic = f"variable {step.var} not live; DEL skipped"
            else:
                value = scenario.value_id(step.values[0])
                try:
                    if store.remove_value(var, value):
                        store.propagate_fixpoint()
                except DomainWipeout:
                    record.diagnostic = "domain wipeout"
        elif step.op == "POP":
            record.matched_add = engine.add_stack[-1].step
            engine.pop()
        else:  # CHECK
            record.check_domains = {
                name: tuple(
                    scenario.value_names[v] for v in sorted(store.domains[vid])
                )
                for name, vid in engine.live
            }
            if verify_oracle and not store.failed and engine.live:
                domains = [store.domains[vid] for _, vid in engine.live]
                product = math.prod(len(d) for d in domains)
                if product <= 1_000_000:
                    expected = gac_filter_bruteforce(all_values_distinct, domains)
                    if expected is None or expected != list(map(set, domains)):
                        result.oracle_mismatches.append(
                            f"step {index}: domains are not the oracle GAC fixpoint"
                        )
        record.wall_ns = time.perf_counter_ns() - t0
        if step.op == "POP":
            record.checksum_after = store.checksum()
        after = store.counters.snapshot()
        record.augment_visits = after[0] - before[0]
        record.filter_visits = after[1] - before[1]
        record.trailed_cells = after[2] - before[2]
        record.p, record.d, record.m = engine.graph_shape()
        record.consistent = not store.failed
        result.steps.append(record)
    result.engine = engine  # kept for checksum draining in tests
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

    if args.scenario:
        with open(args.scenario, encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
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
        write_csv(args.csv, results)
        print(f"wrote {args.csv}")
    status = 0
    for run in results:
        for miss in run.oracle_mismatches:
            print(f"oracle mismatch ({run.mode}): {miss}", file=sys.stderr)
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
