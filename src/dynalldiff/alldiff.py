"""Dynamic alldifferent propagator over a value graph with a kept matching.

Initialisation builds the value graph, computes a maximum matching and fails
when it leaves a variable uncovered; otherwise edges in no covering matching
are deleted and pushed back to the store as value removals.

Between calls the graph is filtered: every edge lies on a matching covering
X.  A change can only cost support to the edges of the variables it
touched and to the edges into the values of the variables that reach them
and reach no free value (see `dynalldiff.matching`), so each call
re-filters just that region, and its cost follows the region, not the
component or the whole graph:

* a deletion removes edges, repairs the matching in place from `var` only
  when its matched edge was lost, and re-filters the region that reaches
  `var`, unless `deletion_keeps_filtered` proves that every lost arc has a
  detour, so nothing can have lost support.  A deletion that leaves `var`
  one edge in a graph with no free value goes to `filter_assigned_edges`
  instead, which removes the other edges to `var`'s value when two
  searches from one lost value's owner prove that every other lost arc has
  a detour;
* an adoption adds the new variables' edges (touching only the new
  variables) and extends the matching in place from them.  When every new
  variable then reaches a free value, no Hall set holds one, and only new
  edges can lose support: `filter_adopted_edges` removes those, found by
  the new variables' own searches, and the filter is not called.
  Otherwise the region that reaches the new variables is re-filtered.

Each deletion or adoption puts one `Delta` on the store's trail before it
changes anything, and logs every change into it as the change happens, so
`pop_checkpoint` restores the exact earlier state, even after an exception
in the middle of the call.  An adoption trails only its own vertices, a
count of their edges, the flips of its augmenting path and the edges it
removed, never a copy of the graph.

`AdoptingDynamizer` grows one such propagator by adoption, a checkpoint
per added variable, behind the interface of `GenericDynamizer`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import (
    DomainWipeout,
    DuplicateVariable,
    EmptyHistory,
    InactiveConstraint,
    KernelError,
)
from .matching import (
    ValueGraph,
    build_value_graph,
    compute_maximum_matching,
    deletion_keeps_filtered,
    filter_adopted_edges,
    filter_assigned_edges,
    graph_checksum,
    matching_covering_x,
    remove_edges,
    remove_edges_from_g,
)
from .store import CheckpointToken


class Delta:
    """The trail frame of one adoption or deletion: what the graph cannot give back.

    It keeps the propagator's graph, which holds the matching and is the
    same object from a successful `init` on.  Each change is logged by the
    function that makes it, before it is made: the variable vertices an
    adoption adds, the removed edges and the flips (var, previous value or
    None), which `undo` replays backwards, a failed search's too.  Added
    edges are only counted: with the removed ones back, each new vertex
    holds just the edges its adoption added (or got to before a fault), and
    `undo` pops each vertex with them, by one `ValueGraph.pop_var`.  `close`
    counts cells: 1 per added variable vertex, 2 per added or removed edge,
    3 per flip.
    """

    __slots__ = ("graph", "var_vertices", "added", "flips", "removed")
    cells = 2

    def __init__(self, graph: ValueGraph):
        self.graph = graph
        self.var_vertices: list[int] = []
        self.added = 0
        self.flips: list[tuple[int, Optional[int]]] = []
        self.removed: list[tuple[int, int]] = []

    def close(self, counters) -> None:
        counters.trailed_cells += (
            len(self.var_vertices)
            + 2 * (self.added + len(self.removed))
            + 3 * len(self.flips)
        )

    def undo(self, store) -> None:
        graph = self.graph
        for var, val in self.removed:
            graph.add_edge(var, val)  # a no-op for an edge a fault left in place
        graph.assign(reversed(self.flips))
        for var in reversed(self.var_vertices):
            if var in graph.adj_var:  # not when a fault came before its vertex
                graph.pop_var(var)


class AllDifferent:
    """Propagator requiring pairwise distinct values; store protocol + dynamics."""

    def __init__(self, variables: Iterable[int]):
        # the live scope: posting shares this list as the handle's watched_vars
        self.variables = list(variables)
        if not self.variables:
            raise ValueError("alldifferent needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise DuplicateVariable("repeated variable in alldifferent")
        self.graph = ValueGraph()  # a failed `init` leaves this empty one
        self.handle_id: Optional[int] = None

    # -- store protocol ----------------------------------------------------

    def init(self, store, handle) -> bool:
        """Build the value graph, match, fail on uncovered variables, filter."""
        self.handle_id = handle.id
        variables = self.variables
        graph = build_value_graph(zip(variables, map(store.domains.__getitem__, variables)))
        compute_maximum_matching(graph, store.counters)
        if len(graph.pair_of_var) < len(variables):
            return False
        self.graph = graph
        return self._prune(store, remove_edges_from_g(graph, store.counters))

    def on_values_removed(self, store, var: int) -> bool:
        """Deletion propagation: values were removed from var's domain.

        What var lost is its edges no longer in its domain (an edge this
        propagator prunes leaves the graph before its value leaves the domain).
        When var lost its matched edge, the matching is first repaired from
        var.  Then, when `deletion_keeps_filtered` finds a detour around each
        lost edge, the graph is still filtered and the filter is not called;
        otherwise the filter runs seeded at var, over the region reaching it.
        When var is left one edge and no value is free, that check cannot
        succeed, and `filter_assigned_edges` runs in its place: it removes
        the other edges to var's value, or changes nothing and leaves it to
        the filter.
        """
        graph = self.graph
        lost = {*graph.adj_var[var]} - store.domains[var]
        if not lost:
            return True
        delta = Delta(graph)
        store.trail_push(delta)
        try:
            flips = delta.flips
            if remove_edges(graph, var, lost, delta.removed, flips) and not (
                matching_covering_x(graph, store.counters, [var], flips)
            ):
                return False
            # after a repair every lost edge is unmatched too (see the checks)
            filtered = None
            # var is assigned, and no value is free
            if len(graph.adj_var[var]) == 1 and len(graph.adj_val) == len(graph.pair_of_val):
                filtered = filter_assigned_edges(
                    graph, store.counters, var, lost, delta.removed
                )
            elif deletion_keeps_filtered(graph, var, lost, store.counters):
                return True
            if filtered is None:
                filtered = remove_edges_from_g(
                    graph, store.counters, seeds=[var], log=delta.removed
                )
        finally:
            delta.close(store.counters)
        return self._prune(store, filtered)

    # -- dynamic extension ---------------------------------------------------

    def add_variables(self, store, new_vars: Iterable[int]):
        """Adopt new variables; returns (consistent, the call's Delta).

        On success the matching covers the extended set, and the edges that
        `filter_adopted_edges` removes, or the filter seeded at the new
        variables when that falls back, are pushed to the store as value
        removals.  On failure,
        or on a branch that has failed already (no search runs there), the
        store branch is marked failed and the Delta holds the graph
        additions and the flips of any search that succeeded before the
        failing one; nothing reads the matching again before the pop undoes
        them.  Raises InactiveConstraint, changing nothing, on a deactivated
        or never-posted constraint, and DuplicateVariable on a variable
        adopted already.
        """
        if self.handle_id is None or not store.constraints[self.handle_id].active:
            raise InactiveConstraint(f"constraint {self.handle_id} is inactive")
        batch = list(new_vars)
        fresh = set()
        for var in batch:
            store._check_var(var)
            if var in fresh or var in self.graph.adj_var:
                raise DuplicateVariable(f"variable {var} already adopted")
            fresh.add(var)
        graph = self.graph
        delta = Delta(graph)
        store.trail_push(delta)
        try:
            for var in batch:
                delta.var_vertices.append(var)
                delta.added += graph.add_var(var, store.domains[var])
                store.watch_variable(self.handle_id, var)
            if store.failed or not matching_covering_x(
                graph, store.counters, batch, delta.flips
            ):
                store._fail()
                return False, delta
            filtered = filter_adopted_edges(graph, store.counters, batch, delta.removed)
            if filtered is None:  # a new variable is in a Hall set
                filtered = remove_edges_from_g(
                    graph, store.counters, seeds=batch, log=delta.removed
                )
        finally:
            delta.close(store.counters)
        return self._prune(store, filtered), delta

    def _prune(self, store, filtered: list[tuple[int, int]]) -> bool:
        """Remove the filtered edges' values from the domains; False on a wipeout."""
        try:
            for var, val in filtered:
                store.remove_value(var, val, cause=self.handle_id)
        except DomainWipeout:
            # our graph was ahead of a still-queued deletion from a sibling
            # constraint; the branch is genuinely inconsistent
            return False
        return True

    # -- freezing and inspection ----------------------------------------------

    def frozen_cells(self) -> int:
        """The cells a frozen handle keeps of the graph and the matching.

        2 per edge, per matched pair and per variable (its vertex and its
        place in the order), 1 per value vertex.
        """
        adj_var, d = self.graph.adj_var, len(self.graph.adj_val)
        m = sum(map(len, adj_var.values()))
        return 2 * m + 2 * len(adj_var) + d + 2 * len(self.graph.pair_of_var)

    def state_digest(self) -> str:
        order = tuple(self.graph.adj_var)  # the variables in adoption order
        return graph_checksum(self.graph) + f":{order}"

    def validate(self, store) -> None:
        """Raise KernelError unless graph, matching and store agree.

        The variable vertices are the variables this constraint watches;
        `adj_val` is `adj_var` transposed, with no value vertex left without
        an edge; every edge is in its variable's domain; the matching's two
        maps are inverse, use graph edges only and cover every variable
        vertex.
        """
        graph = self.graph
        if set(graph.adj_var) != set(store.constraints[self.handle_id].watched_vars):
            raise KernelError("graph variables differ from the watched ones")
        edges = {(var, val) for var, vals in graph.adj_var.items() for val in vals}
        transposed = {
            (var, val) for val, vars_ in graph.adj_val.items() for var in vars_
        }
        if edges != transposed:
            raise KernelError("adj_val is not the transpose of adj_var")
        for val, vars_ in graph.adj_val.items():
            if not vars_:
                raise KernelError(f"value vertex {val} has no edge")
        for var, vals in graph.adj_var.items():
            if not vals.keys() <= store.domains[var]:
                raise KernelError(f"edges of variable {var} outside its domain")
        pair_of_var, pair_of_val = graph.pair_of_var, graph.pair_of_val
        if len(pair_of_val) != len(pair_of_var):
            raise KernelError("matching maps are not inverse")
        for var, val in pair_of_var.items():
            if pair_of_val.get(val) != var or not graph.has_edge(var, val):
                raise KernelError(f"matched pair ({var}, {val}) is not an edge")
        if pair_of_var.keys() != graph.adj_var.keys():
            raise KernelError("matching does not cover the variables")


class AdoptingDynamizer:
    """LIFO add/remove of variables by adoption into one live AllDifferent.

    The twin of `GenericDynamizer`: the caller creates each variable before
    adding it and retracts it after removing it; both refuse an unknown or
    repeated variable before any change.  The first addition posts
    `AllDifferent([var])`, which cannot fail (a domain is never empty); each
    later one is adopted in place, and the last removal forgets it.
    """

    def __init__(self, store):
        self.store = store
        self.propagator: Optional[AllDifferent] = None
        self.history: list[CheckpointToken] = []  # one per addition

    @property
    def variables(self) -> list[int]:
        """The added variables in order: the propagator's variable vertices."""
        return list(self.propagator.graph.adj_var) if self.propagator else []

    def add_variable(self, var: int) -> bool:
        """Extend the constraint to `var`; returns the adoption+fixpoint verdict."""
        store = self.store
        store._check_var(var)
        if self.propagator is not None and var in self.propagator.graph.adj_var:
            raise DuplicateVariable(f"variable {var} already added")
        self.history.append(store.push_checkpoint())
        if self.propagator is None:
            self.propagator = store.post_constraint(AllDifferent([var])).propagator
            return store.propagate_fixpoint()
        ok, _delta = self.propagator.add_variables(store, [var])
        return ok and store.propagate_fixpoint()

    def remove_variable(self) -> None:
        """Retract the newest addition; the store returns to its pre-add state."""
        if not self.history:
            raise EmptyHistory("no variable to remove")
        self.store.pop_checkpoint(self.history.pop())
        if not self.history:
            self.propagator = None
