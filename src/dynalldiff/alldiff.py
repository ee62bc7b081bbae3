"""Dynamic alldifferent propagator over a value graph with a kept matching.

Initialisation builds the value graph, computes a maximum matching and fails
when it leaves a variable uncovered; otherwise edges in no covering matching
are deleted and pushed back to the store as value removals.

Between calls the graph is filtered: every edge lies on a matching covering
X.  A change can only cost support to edges in the connected components of
the vertices it touched, so each call re-filters just those components, and
its cost follows the size of the touched component, not of the whole graph:

* a deletion removes edges, repairs the matching in place from `var` only
  when its matched edge was lost, and re-filters `var`'s component (a part
  the deletion splits off loses no support; see `dynalldiff.matching`);
* an adoption adds the new variables' edges (touching only the new
  variables), extends the matching in place from them, and re-filters
  their component.

The matching's flips are logged as they happen, and the trail frames and
adoption records are built from that log.  Every adoption is captured in a
record whose inverse restores the exact pre-adoption state.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import DomainWipeout, DuplicateVariable, KernelError, NonLifoRetract
from .matching import (
    Matching,
    ValueGraph,
    build_value_graph,
    compute_maximum_matching,
    graph_checksum,
    matching_covering_x,
    remove_edges,
    remove_edges_from_g,
)


class AdoptionRecord:
    """Reversible log of one add_variables call (LIFO retraction unit)."""

    __slots__ = (
        "added_vars",
        "added_val_vertices",
        "added_edges",
        "matching_delta",
        "filtered_edges",
        "retracted",
    )

    def __init__(self):
        self.added_vars: list[int] = []
        self.added_val_vertices: list[int] = []
        self.added_edges: list[tuple[int, int]] = []
        self.matching_delta: list[tuple[int, Optional[int], Optional[int]]] = []
        self.filtered_edges: list[tuple[int, int]] = []
        self.retracted = False

    @property
    def k(self) -> int:
        return len(self.added_vars)

    @property
    def cells(self) -> int:
        return (
            2
            + len(self.added_vars)
            + len(self.added_val_vertices)
            + 2 * len(self.added_edges)
            + 3 * len(self.matching_delta)
            + 2 * len(self.filtered_edges)
        )


def _net_delta(matching: Matching, flips):
    """(var, before, after) per variable the logged flips left changed."""
    delta = []
    # the first flip of each variable holds its value before the flips
    for var, before in dict(reversed(flips)).items():
        after = matching.pair_of_var.get(var)
        if before != after:
            delta.append((var, before, after))
    delta.sort()
    return delta


class _EdgesRemovedFrame:
    def __init__(self, propagator, entries):
        # entries: (var, val, was_matched), in removal order
        self.propagator = propagator
        self.entries = entries
        self.cells = 2 * len(entries)

    def undo(self, store):
        prop = self.propagator
        for var, val, was_matched in reversed(self.entries):
            prop.graph.add_edge(var, val)
            if was_matched:
                prop.matching.match(var, val)


class _MatchingReplacedFrame:
    def __init__(self, propagator, delta):
        self.propagator = propagator
        self.delta = delta
        self.cells = 3 * len(delta)

    def undo(self, store):
        self.propagator.matching.assign((var, old) for var, old, _ in self.delta)


class _AdoptionFrame:
    def __init__(self, propagator, record: AdoptionRecord):
        self.propagator = propagator
        self.record = record
        self.cells = record.cells

    def undo(self, store):
        # a manual retract_last may have run already; the undo is idempotent
        self.propagator._undo_adoption(self.record)


class AllDifferent:
    """Propagator requiring pairwise distinct values; store protocol + dynamics."""

    def __init__(self, variables: Iterable[int]):
        self.variables = list(variables)
        if not self.variables:
            raise ValueError("alldifferent needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise DuplicateVariable("repeated variable in alldifferent")
        self.graph = ValueGraph()
        self.matching = Matching()
        self.records: list[AdoptionRecord] = []
        self.handle_id: Optional[int] = None

    # -- store protocol ----------------------------------------------------

    def init(self, store, handle) -> bool:
        """Build the value graph, match, fail on uncovered variables, filter."""
        self.handle_id = handle.id
        graph = build_value_graph((v, store.domains[v]) for v in self.variables)
        matching = compute_maximum_matching(graph, store.counters)
        if matching.size < len(self.variables):
            return False
        self.graph = graph
        self.matching = matching
        removed = remove_edges_from_g(graph, matching, store.counters)
        for var, val in removed:
            store.remove_value(var, val, cause=self.handle_id)
        return True

    def on_values_removed(self, store, var: int, values: list[int]) -> bool:
        """Deletion propagation: values were just removed from var's domain.

        Edges already absent from the graph (filtered earlier by this very
        propagator) are skipped; they carry no new information.
        """
        doomed = [(var, v) for v in sorted(values) if self.graph.has_edge(var, v)]
        if not doomed:
            return True
        entries = [
            (v, a, self.matching.pair_of_var.get(v) == a) for v, a in doomed
        ]
        damaged = remove_edges(self.graph, self.matching, doomed)
        store.trail_push(_EdgesRemovedFrame(self, entries))
        if damaged:
            flips = []
            covered = matching_covering_x(
                self.graph, self.matching, store.counters, [var], flips
            )
            if covered is None:
                return False
            store.trail_push(
                _MatchingReplacedFrame(self, _net_delta(self.matching, flips))
            )
        filtered = remove_edges_from_g(
            self.graph, self.matching, store.counters, seeds=[var]
        )
        if filtered:
            store.trail_push(
                _EdgesRemovedFrame(self, [(v, a, False) for v, a in filtered])
            )
            for v, a in filtered:
                try:
                    store.remove_value(v, a, cause=self.handle_id)
                except DomainWipeout:
                    # our graph was ahead of a still-queued deletion from a
                    # sibling constraint; the branch is genuinely inconsistent
                    return False
        return True

    # -- dynamic extension ---------------------------------------------------

    def add_variables(self, store, new_vars: Iterable[int]):
        """Adopt new variables; returns (consistent, record).

        On success the matching covers the extended set and the re-filter's
        deletions are pushed to the store.  On failure the store branch is
        marked failed and the record holds the graph additions only.
        """
        batch = list(new_vars)
        fresh = set()
        for var in batch:
            store._check_var(var)
            if var in fresh or self.graph.has_var(var):
                raise DuplicateVariable(f"variable {var} already adopted")
            fresh.add(var)
        record = AdoptionRecord()
        for var in batch:
            self.graph.add_var_vertex(var)
            record.added_vars.append(var)
            store.watch_variable(self.handle_id, var)
            for val in sorted(store.domains[var]):
                if self.graph.add_val_vertex(val):
                    record.added_val_vertices.append(val)
                self.graph.add_edge(var, val)
                record.added_edges.append((var, val))
        self.records.append(record)
        flips = []
        covered = matching_covering_x(
            self.graph, self.matching, store.counters, batch, flips
        )
        if covered is None:
            store.trail_push(_AdoptionFrame(self, record))
            store._fail()
            return False, record
        record.matching_delta = _net_delta(self.matching, flips)
        record.filtered_edges = remove_edges_from_g(
            self.graph, self.matching, store.counters, seeds=batch
        )
        store.trail_push(_AdoptionFrame(self, record))
        for var, val in record.filtered_edges:
            try:
                store.remove_value(var, val, cause=self.handle_id)
            except DomainWipeout:
                return False, record
        return True, record

    def retract_last(self, record: AdoptionRecord) -> None:
        """Undo the newest adoption; the graph checksum returns to its old value."""
        if not self.records or self.records[-1] is not record or record.retracted:
            raise NonLifoRetract("record is not the newest unretracted adoption")
        self._undo_adoption(record)

    def _undo_adoption(self, record: AdoptionRecord) -> None:
        if record.retracted:
            return
        if not self.records or self.records[-1] is not record:
            raise NonLifoRetract("adoption undone out of LIFO order")
        for var, val in record.filtered_edges:
            self.graph.add_edge(var, val)
        self.matching.assign((var, old) for var, old, _ in record.matching_delta)
        for var, val in reversed(record.added_edges):
            self.graph.remove_edge(var, val)
        for val in reversed(record.added_val_vertices):
            self.graph.pop_val_vertex(val)
        for var in reversed(record.added_vars):
            self.graph.pop_var_vertex(var)
        self.records.pop()
        record.retracted = True

    # -- freezing and inspection ----------------------------------------------

    def snapshot(self):
        """Deep copy of every internal structure plus its cell count."""
        snap = (
            {v: set(s) for v, s in self.graph.adj_var.items()},
            {a: set(s) for a, s in self.graph.adj_val.items()},
            self.graph.edge_count,
            dict(self.matching.pair_of_var),
            dict(self.matching.pair_of_val),
            list(self.records),
            [r.retracted for r in self.records],
        )
        p = len(snap[0])
        d = len(snap[1])
        # the last p: the variable order, kept as adj_var's key order
        cells = 2 * self.graph.edge_count + p + d + 2 * self.matching.size + p
        return snap, cells

    def restore(self, snap) -> None:
        adj_var, adj_val, edge_count, pvar, pval, records, flags = snap
        graph = ValueGraph()
        graph.adj_var = {v: set(s) for v, s in adj_var.items()}
        graph.adj_val = {a: set(s) for a, s in adj_val.items()}
        graph.edge_count = edge_count
        self.graph = graph
        matching = Matching()
        matching.pair_of_var = dict(pvar)
        matching.pair_of_val = dict(pval)
        self.matching = matching
        self.records = list(records)
        for record, flag in zip(self.records, flags):
            record.retracted = flag

    def state_digest(self) -> str:
        order = tuple(self.graph.adj_var)  # the variables in adoption order
        return graph_checksum(self.graph, self.matching) + f":{order}"

    def validate(self, store) -> None:
        """Raise KernelError unless graph, matching and store agree.

        Every edge is in its variable's domain; the matching's two maps are
        inverse, use graph edges only and cover every variable vertex; the
        variable vertices are the variables this constraint watches.
        """
        graph, matching = self.graph, self.matching
        for var, vals in graph.adj_var.items():
            if not vals <= store.domains[var]:
                raise KernelError(f"edges of variable {var} outside its domain")
        if len(matching.pair_of_val) != matching.size:
            raise KernelError("matching maps are not inverse")
        for var, val in matching.pair_of_var.items():
            if matching.pair_of_val.get(val) != var or not graph.has_edge(var, val):
                raise KernelError(f"matched pair ({var}, {val}) is not an edge")
        if not matching.covers(graph.adj_var):
            raise KernelError("matching does not cover the variables")
        if set(graph.adj_var) != set(store.constraints[self.handle_id].watched_vars):
            raise KernelError("graph variables differ from the watched ones")
