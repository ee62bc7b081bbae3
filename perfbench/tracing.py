"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.installed()` wraps public functions of each layer for the length of
one round and puts the originals back afterwards: methods of the classes
`dynalldiff` exports, and the `matching` functions where
`dynalldiff.alldiff` binds them (so calls from the propagator are seen).
A hook whose target no longer exists is listed in `Tracer.missing`, and
every metric that needs it is reported as null.

A span is `[name, start_ns, end_ns, parent, step, returned]`: `parent` is
the index of the enclosing span (-1 for none), `step` the timed step it
belongs to, `returned` the length of the returned list for
`matching.remove_edges_from_g` (None otherwise).  Each timed step is a root
span named `step.<KIND>`.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from replay import ADD, DEL, POP, Recorder, speed_factors

# span name -> (module, exported class or None for a module function, attribute)
HOOKS = {
    "store.add_variable": ("dynalldiff", "Store", "add_variable"),
    "store.push_checkpoint": ("dynalldiff", "Store", "push_checkpoint"),
    "store.pop_checkpoint": ("dynalldiff", "Store", "pop_checkpoint"),
    "store.retract_last_variable": ("dynalldiff", "Store", "retract_last_variable"),
    "store.propagate_fixpoint": ("dynalldiff", "Store", "propagate_fixpoint"),
    "store.post_constraint": ("dynalldiff", "Store", "post_constraint"),
    "store.deactivate_constraint": ("dynalldiff", "Store", "deactivate_constraint"),
    "store.snapshot_domains": ("dynalldiff", "Store", "snapshot_domains"),
    "alldiff.init": ("dynalldiff", "AllDifferent", "init"),
    "alldiff.add_variables": ("dynalldiff", "AllDifferent", "add_variables"),
    "alldiff.on_values_removed": ("dynalldiff", "AllDifferent", "on_values_removed"),
    "matching.compute_maximum_matching": (
        "dynalldiff.alldiff", None, "compute_maximum_matching"),
    "matching.matching_covering_x": ("dynalldiff.alldiff", None, "matching_covering_x"),
    "matching.remove_edges_from_g": ("dynalldiff.alldiff", None, "remove_edges_from_g"),
    "matching.remove_edges": ("dynalldiff.alldiff", None, "remove_edges"),
    "generic.add_variable": ("dynalldiff", "GenericDynamizer", "add_variable"),
    "generic.remove_variable": ("dynalldiff", "GenericDynamizer", "remove_variable"),
}
_COUNTED = {"matching.remove_edges_from_g"}
_MATCHING = ("matching.compute_maximum_matching", "matching.matching_covering_x",
             "matching.remove_edges_from_g", "matching.remove_edges")

# per-layer metric -> (unit, better, hooks it needs)
LAYER_METRICS = {
    "store.trailed_cells_per_add": ("cells/add", "lower", ()),
    "store.trail_frames_peak": ("count", "lower", ()),
    "store.fixpoint_self_ms": ("ms", "lower", ("store.propagate_fixpoint",
                                               "alldiff.on_values_removed")),
    "store.events_per_step": ("count/step", "lower", ("alldiff.on_values_removed",)),
    "store.pop_ms": ("ms", "lower", ("store.pop_checkpoint",)),
    "matching.augment_visits_per_step": ("count/step", "lower", ()),
    "matching.augment_ms": ("ms", "lower", ("matching.compute_maximum_matching",
                                            "matching.matching_covering_x")),
    "matching.filter_visits_per_step": ("count/step", "lower", ()),
    "matching.filter_ms": ("ms", "lower", ("matching.remove_edges_from_g",)),
    "matching.filter_visits_growth": ("ratio", "lower", ()),
    "matching.filter_yield": ("ratio", "higher", ("matching.remove_edges_from_g",)),
    "matching.filter_calls": ("count", "lower", ("matching.remove_edges_from_g",)),
    "alldiff.adopt_self_ms": ("ms", "lower", ("alldiff.add_variables",) + _MATCHING),
    "alldiff.delete_self_ms": ("ms", "lower", ("alldiff.on_values_removed",)
                               + _MATCHING),
    "alldiff.repair_ratio": ("ratio", "lower", ("alldiff.on_values_removed",
                                                "matching.remove_edges",
                                                "matching.matching_covering_x")),
    "alldiff.edge_events": ("count", "lower", ("alldiff.on_values_removed",
                                               "matching.remove_edges")),
    "alldiff.inconsistent_adds": ("count", "lower", ()),
    "generic.freeze_ms": ("ms", "lower", ("store.deactivate_constraint",
                                          "store.snapshot_domains")),
    "generic.repost_ms": ("ms", "lower", ("generic.add_variable",
                                          "store.post_constraint")),
    "generic.remove_ms": ("ms", "lower", ("generic.remove_variable",)),
    "oracle.verify_s": ("s", "lower", ()),
    "trace.overhead_ratio": ("ratio", "lower", ()),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._step = -1

    def begin_step(self, kind: str, step: int) -> None:
        self._step = step
        self._stack.append(len(self.spans))
        self.spans.append([f"step.{kind}", perf_counter_ns(), 0, -1, step, None])

    def end_step(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter_ns()

    def _wrap(self, name, fn):
        spans, stack, counted = self.spans, self._stack, name in _COUNTED

        def traced(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1,
                    self._step, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter_ns()
            if counted:
                span[5] = len(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        restore = []
        self.missing = []
        try:
            for name, (module_name, class_name, attr) in HOOKS.items():
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name, None)
                target = vars(owner).get(attr) if owner is not None else None
                if not callable(target):
                    self.missing.append(name)
                    continue
                setattr(owner, attr, self._wrap(name, target))
                restore.append((owner, attr, target))
            yield self
        finally:
            for owner, attr, target in reversed(restore):
                setattr(owner, attr, target)


class TracingRecorder(Recorder):
    """A Recorder that opens one root span per timed step."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def before(self, kind, change):
        super().before(kind, change)
        self.tracer.begin_step(kind, self.attempted - 1)

    def after(self, kind, change, elapsed_ns, ok):
        self.tracer.end_step()
        super().after(kind, change, elapsed_ns, ok)


def layer_metrics(rec: Recorder, tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of one traced round (oracle and overhead excluded).

    Times are rescaled to the reference speed like the end-to-end ones, and
    given in ms per step of the kinds that reach the layer: per ADD for
    adoption, freeze and re-post; per POP for pops and generic removal; per
    ADD or DEL step otherwise.  Counts per step are per ADD or DEL step.
    """
    n_add, n_del, n_pop = (rec.count(kind) for kind in (ADD, DEL, POP))
    n_work = n_add + n_del
    kinds = [kind for kind, _, _ in rec.outcomes]
    factors = speed_factors(rec.cal_ns)
    spans = tracer.spans
    # spans outside the timed steps (the workload's set-up) are left out
    timed = [i for i, span in enumerate(spans) if 0 <= span[4] < len(factors)]

    def duration(index: int) -> float:
        span = spans[index]
        return (span[2] - span[1]) * factors[span[4]]

    children: dict[int, list[int]] = defaultdict(list)
    for index in timed:
        if spans[index][3] >= 0:
            children[spans[index][3]].append(index)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for index in timed:
        name = spans[index][0]
        total[name] += duration(index)
        own[name] += duration(index) - sum(duration(c) for c in children[index])
        calls[name] += 1
    under_generic = sum(
        duration(index) for index in timed
        if spans[index][0] == "store.post_constraint" and spans[index][3] >= 0
        and spans[spans[index][3]][0] == "generic.add_variable"
    )
    edge_events = repairs = 0
    for index in timed:
        if spans[index][0] == "alldiff.on_values_removed":
            names = {spans[c][0] for c in children[index]}
            edge_events += "matching.remove_edges" in names
            repairs += "matching.matching_covering_x" in names
    filters = [
        spans[i][5] for i in timed if spans[i][0] == "matching.remove_edges_from_g"
    ]

    add_counts = [c for kind, c in zip(kinds, rec.counts) if kind == ADD]
    quarter = len(add_counts) // 4
    first = sum(c[1] for c in add_counts[:quarter])
    last = sum(c[1] for c in add_counts[len(add_counts) - quarter:])

    def ms(ns, steps):
        return ns / 1e6 / steps if steps else 0.0

    values = {
        "store.trailed_cells_per_add": sum(c[2] for c in add_counts) / max(n_add, 1),
        "store.trail_frames_peak": rec.trail_peak,
        "store.fixpoint_self_ms": ms(own["store.propagate_fixpoint"], n_work),
        "store.events_per_step": calls["alldiff.on_values_removed"] / max(n_work, 1),
        "store.pop_ms": ms(total["store.pop_checkpoint"], n_pop),
        "matching.augment_visits_per_step": sum(c[0] for c in rec.counts)
        / max(n_work, 1),
        "matching.augment_ms": ms(
            total["matching.compute_maximum_matching"]
            + total["matching.matching_covering_x"], n_work),
        "matching.filter_visits_per_step": sum(c[1] for c in rec.counts)
        / max(n_work, 1),
        "matching.filter_ms": ms(total["matching.remove_edges_from_g"], n_work),
        "matching.filter_visits_growth": last / first if first else None,
        "matching.filter_yield": sum(1 for n in filters if n) / len(filters)
        if filters else None,
        "matching.filter_calls": len(filters),
        "alldiff.adopt_self_ms": ms(own["alldiff.add_variables"], n_add),
        "alldiff.delete_self_ms": ms(own["alldiff.on_values_removed"], n_work),
        "alldiff.repair_ratio": repairs / edge_events if edge_events else None,
        "alldiff.edge_events": edge_events,
        "alldiff.inconsistent_adds": sum(
            1 for kind, ok, _ in rec.outcomes if kind == ADD and not ok),
        "generic.freeze_ms": ms(
            total["store.deactivate_constraint"] + total["store.snapshot_domains"],
            n_add),
        "generic.repost_ms": ms(under_generic, n_add),
        "generic.remove_ms": ms(total["generic.remove_variable"], n_pop),
    }
    for name, value in values.items():
        if set(LAYER_METRICS[name][2]) & set(tracer.missing):
            values[name] = None
    return values


def median_metrics(per_round: list[dict]) -> dict[str, float | None]:
    """Median over traced rounds of each metric; null if any round has null."""
    merged = {}
    for name in per_round[0]:
        column = [metrics[name] for metrics in per_round]
        merged[name] = None if None in column else statistics.median(column)
    return merged
