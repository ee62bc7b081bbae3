"""Value graphs, maximum matchings and the not-in-any-matching edge filter.

The graph is bipartite: variable vertices on one side, value vertices on the
other, with an edge (x, a) whenever value a is in x's domain at the time of
the last synchronisation.  A variable vertex is added with all its edges,
by `ValueGraph.add_var` (or by `build_value_graph`'s own copy of its loop,
at posting), and popped with all of them, by `pop_var`, with no call per
edge; their insertion order is the adoption order.  A value vertex
exists exactly while some edge reaches it: the first edge to it creates it
and removing the last one deletes it, so the values are the union of the
variables' live domains.

Orientation convention, fixed project wide: matched edges point value to
variable, unmatched edges point variable to value.  The graph keeps its
matching (`ValueGraph.pair_of_var` and `pair_of_val`), so a `ValueGraph` is
the oriented graph, and no function here takes a matching beside it.

Local cost.  A graph is *filtered* when every edge lies on some matching
that covers X.  Under such a matching, call a variable *alive* when it
reaches a free value in the oriented graph and *dead* otherwise, with each
value vertex merged into its owner (x has an arc to y when x has an
unmatched edge to y's matched value).  An unmatched edge (z, a) to a
matched value is unsupported exactly when a's owner w is dead and z is not
in w's strongly connected component (SCC): an even alternating path from a
free value to (z, a) is a path from w to a free value, and an alternating
cycle through (z, a) is a path from w back to z.  The variables a dead w
reaches form a closed set H whose values are exactly H's matched values,
so |D(H)| = |H|: a Hall set that takes a and does not hold z.

After a change to a filtered graph, at the *seeds* (the new variables of
an adoption, or the variable x a deletion cut edges from), an edge (z, a)
that is unsupported now, with a matched to w, has its value in the
*region* R, the dead variables that reach a seed, or is a seed's own edge.
`remove_edges_from_g` with seeds re-filters just those edges:

* adoption.  Adopting adds edges at the new variables only.  If the Hall
  set H that a dead w reaches held no new variable, H was a Hall set
  before the adoption too, with the same edges, and (z, a) would have been
  removed then, unless z is new.  So w reaches a new variable, a dead
  seed, and w is in R; an unsupported edge of a new variable z is one of
  the seeds' own edges, which are swept apart (a's owner need not reach z);
* deletion at x.  The graph before the deletion was filtered, and that
  holds under whatever covering matching it is read with, the repaired one
  included; under that one every lost arc leaves x and is unmatched.  So
  (z, a) had a support there, a path from w to a free value or to z, and
  it broke: it used a lost arc out of x.  Its part from w to the first
  visit of x uses no arc out of x and is intact, so w reaches x, which is
  then dead, and w is in R.

So R is found by a walk backward from the dead seeds, the predecessors of
w being the variables with an edge to w's matched value, and it expands
only through dead variables: whatever reaches a live one is alive.  The
edges into R's matched values are swept on the way, which removes those
whose variable is alive or in another SCC, and then each seed's unmatched
edges to dead values outside its own SCC.  Liveness and the SCCs come
from one iterative Tarjan forest (`_live_forest`, which the whole-graph
filter uses too), grown from the seeds and then from each variable the
walk meets that is not yet known: a tree is abandoned at its first arc to
a free value or to a live variable, and every variable still open in it
reaches that arc, so all of them are alive; every SCC that completes
reaches only dead ones, so it is dead.  The trees of one forest share
their index and stack, no variable enters the forest twice, and nothing
is kept between calls.  A part that a deletion splits off keeps its
matching and is not walked unless it reaches x.

`matching_covering_x` extends the matching in place from the uncovered
variables the caller names, logging each flip, and answers whether it
covered them all.  It undoes nothing itself: a failed search flips nothing,
and flips made before it stay in the caller's log, which the caller's trail
frame replays backwards at the pop.  It costs on the order of the touched
component, not of the whole graph.

Augmenting.  Every matching, at `init` as after an adoption or a lost
matched edge, grows by one breadth-first search per uncovered variable,
which stops at the first free value it meets, so each path it flips is a
shortest one.  One search each is enough (Kuhn): a variable with no
augmenting path now gets none after another variable's augmentation, so a
failed search proves that no matching covers X.  A variable that sees a
free value of its own takes the first one, for one visit, before any
search state is built.  At `init`, `compute_maximum_matching` makes
that greedy step inline, variable by variable in the same order, and calls
the search only for a variable that sees no free value (the greedy start
of Langguth, Manne & Sanders, ACM JEA 15, 2010), so the matching and its
visit count are those of one search per variable.

A deletion of unmatched edges often needs no filter at all.  When x lost
only unmatched arcs x -> a, `deletion_keeps_filtered` searches forward from
x in what is left.  If x still reaches a free value, every path that used a
lost arc still reaches one through x, and no cycle among the vertices that
reach no free value ever passed through x.  If no lost value is free and x
still reaches the owner of each lost value, every lost arc x -> a -> owner(a)
has a detour x ~> owner(a).  Either way, which vertices reach a free value
and the strongly connected components among the rest are as before, so the
seeded filter would remove nothing and is not called.  When x lost its
matched edge, the test runs after the repair: the repaired matching also
covers X in the graph before the deletion, which was filtered whatever
matching it is read with, and under it every lost arc is unmatched, so the
same argument holds.  The test stores nothing between calls; it costs the
part of x's component it searches.

An adoption often needs no filter either.  An edge (y, a) lies on no
matching that covers X exactly when some Hall set H (|D(H)| = |H|) has a
among its values and does not hold y; under a matching that covers X, H is
closed under the orientation and reaches no free value.  Adopting variables
adds edges at the new variables only.  So every Hall set of the filtered
graph before the adoption stays one, with its edges from outside removed
already, and every new Hall set holds a new variable.  When each new
variable reaches a free value under the extended matching, none lies in a
Hall set, there is no new one, and the only edges to remove are the new
variables' unmatched edges (x, b) whose value b reaches no free value: the
variables b reaches form a Hall set without x.  `filter_adopted_edges`
finds them by forward searches from the new variables' values, and its
cost is the part of the component those searches walk.  When some new
variable reaches no free value it changes nothing, and the caller runs
`remove_edges_from_g` seeded at the new variables.  This is the Hall-set
reading of Regin's filter (AAAI 1994) and of the Dulmage-Mendelsohn
decomposition (Canad. J. Math. 10, 1958).

Reachability first.  The whole-graph filter first searches from the free
values, in the transposed orientation, and marks every variable it meets
alive.  The others are dead, and closed under the orientation: a dead
variable's unmatched edges all lead to values matched to dead variables.
So the Tarjan forest, grown from every variable not yet known, abandons no
tree and labels the dead variables' SCCs.  Then only the edges into the
dead variables' matched values are swept, by the seeded filter's rule: an
edge (z, a), with a matched to w, goes when z is not w and not in w's SCC.
Every other edge is matched or leads to a value that reaches a free value,
and is kept without further work.
"""

from __future__ import annotations

import hashlib
from typing import Collection, Iterable, Optional

from .errors import KernelError, UncoveredVariable, UnknownEdge


class OpCounters:
    """Monotone work counters shared by the store and the graph algorithms."""

    def __init__(self):
        self.augment_visits = 0
        self.filter_visits = 0
        self.trailed_cells = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.augment_visits, self.filter_visits, self.trailed_cells)


class ValueGraph:
    """Bipartite variable/value graph, both adjacency directions and its matching.

    `adj_var` maps each variable to its values, and `adj_val` each value to
    its variables, both as insertion-ordered dicts `{key: None}`, which are
    only walked, tested and edited; a caller that needs set algebra against
    a domain copies the keys.  `pair_of_var` and `pair_of_val` are the
    matching, each the other's inverse; with the edges they give the
    oriented graph the filters walk.  CPython's cyclic garbage collector
    does not track a dict of ints, or of ints and None, so no vertex's
    edges and neither pairing is walked by its passes: a graph the re-post
    baseline keeps frozen adds only itself and its two outer maps to them.
    """

    def __init__(self):
        self.adj_var: dict[int, dict[int, None]] = {}
        self.adj_val: dict[int, dict[int, None]] = {}  # only values with an edge
        self.pair_of_var: dict[int, int] = {}
        self.pair_of_val: dict[int, int] = {}

    def add_var(self, var: int, values: Iterable[int]) -> int:
        """Add var's vertex with an edge to each of `values`; the number of edges.

        The edges go in one at a time, in `values` order, which fixes both
        maps' iteration orders and so the searches'.  There is
        no call per edge, and each step leaves both maps each other's
        transpose, so a fault part-way leaves a vertex `pop_var` removes
        whole.  A repeated value adds no edge.  Raises KernelError, changing
        nothing, when var has a vertex already.
        """
        adj_var, adj_val = self.adj_var, self.adj_val
        if var in adj_var:
            raise KernelError(f"variable vertex {var} exists already")
        vals = adj_var[var] = {}
        for val in values:
            vals[val] = None
            owners = adj_val.get(val)
            if owners is None:
                adj_val[val] = {var: None}
            else:
                owners[var] = None
        return len(vals)

    def pop_var(self, var: int) -> None:
        """Remove var's vertex with its edges, and each value left without an edge."""
        adj_val = self.adj_val
        for val in self.adj_var.pop(var):
            owners = adj_val[val]
            del owners[var]
            if not owners:
                del adj_val[val]

    def has_edge(self, var: int, val: int) -> bool:
        return var in self.adj_var and val in self.adj_var[var]

    def add_edge(self, var: int, val: int) -> bool:
        """Insert (var, val), creating val's vertex as needed; False on duplicate.

        var's vertex must exist already (KeyError otherwise).
        """
        vals = self.adj_var[var]
        if val in vals:
            return False
        vals[val] = None
        owners = self.adj_val.get(val)
        if owners is None:
            self.adj_val[val] = {var: None}
        else:
            owners[var] = None
        return True

    def remove_edge(self, var: int, val: int) -> None:
        """Delete (var, val), and val's vertex with its last edge."""
        del self.adj_var[var][val]
        owners = self.adj_val[val]
        del owners[var]
        if not owners:
            del self.adj_val[val]

    def edges(self) -> list[tuple[int, int]]:
        return [(var, val) for var, vals in self.adj_var.items() for val in vals]

    def match(self, var: int, val: int) -> None:
        self.pair_of_var[var] = val
        self.pair_of_val[val] = var

    def assign(self, pairs: Iterable[tuple[int, Optional[int]]]) -> None:
        """Set pair(var) = val, or unmatch var when val is None, pair by pair.

        A variable's old value is released only if it still points back to
        that variable, so a value taken by an earlier pair stays taken.
        Replaying a flip log backwards, `assign(reversed(log))`, returns
        every logged variable to its first logged value, also when a fault
        stopped `match` half-way along an augmenting path.
        """
        for var, val in pairs:
            current = self.pair_of_var.pop(var, None)
            if current is not None and self.pair_of_val.get(current) == var:
                del self.pair_of_val[current]
            if val is not None:
                self.match(var, val)


def build_value_graph(
    variable_domains: Iterable[tuple[int, Iterable[int]]]
) -> ValueGraph:
    """One variable vertex per entry, in order, with an edge per domain value.

    The loop is `ValueGraph.add_var`'s, inlined: the same insertions in the
    same order, so the same iteration orders (each dict walks its keys in
    insertion order, here the domains' order), and a repeated variable
    raises KernelError with the vertices before it in place.  So posting,
    which the re-post baseline runs at every addition, makes no call per
    vertex.  Adoption keeps calling `add_var`, one vertex at a time: one
    loop shared by both cost adopt_blocks' add_ms_p50 +4.7% with `add_var`
    a wrapper over a many-vertex loop, and +7.7% adopting through a batch
    call.
    """
    graph = ValueGraph()
    adj_var, adj_val = graph.adj_var, graph.adj_val
    for var, domain in variable_domains:
        if var in adj_var:
            raise KernelError(f"variable vertex {var} exists already")
        vals = adj_var[var] = {}
        for val in domain:
            vals[val] = None
            owners = adj_val.get(val)
            if owners is None:
                adj_val[val] = {var: None}
            else:
                owners[var] = None
    return graph


def _augment(
    graph: ValueGraph,
    source: int,
    counters: OpCounters,
    log: Optional[list[tuple[int, Optional[int]]]],
) -> bool:
    """Match the unmatched `source` along a shortest augmenting path; False if none.

    A breadth-first search over the oriented graph from `source`: each
    reached variable keeps the variable it was reached from, through its
    matched value.  Values are met in layer order, so the first free value
    met ends a shortest path.  The path is flipped deepest first, and each
    (var, previous value or None) flip is appended to `log` when one is
    given.  When the queue runs dry the reached variables have fewer
    neighbouring values than members, so no matching covers them all.
    Each variable taken off the queue counts one augment visit.  A source
    with a free value of its own is matched to the first one before any
    search state is built: the search would flip that edge first too.
    """
    adj_var = graph.adj_var
    pair_of_var = graph.pair_of_var
    pair_of_val = graph.pair_of_val
    for val in adj_var[source]:
        if val not in pair_of_val:
            if log is not None:
                log.append((source, pair_of_var.get(source)))
            graph.match(source, val)
            counters.augment_visits += 1
            return True
    reached_from: dict[int, Optional[int]] = {source: None}
    queue = [source]
    visits = 0
    try:
        for var in queue:  # grows while it is walked
            visits += 1
            for val in adj_var[var]:
                owner = pair_of_val.get(val)
                if owner is None:
                    while var is not None:
                        taken = pair_of_var.get(var)
                        if log is not None:
                            log.append((var, taken))
                        graph.match(var, val)
                        var, val = reached_from[var], taken
                    return True
                if owner not in reached_from:
                    reached_from[owner] = var
                    queue.append(owner)
        return False
    finally:
        counters.augment_visits += visits


def compute_maximum_matching(graph: ValueGraph, counters: OpCounters) -> None:
    """Fill in a maximum matching, by one shortest augmenting search per variable.

    Call it on a graph with no pair yet, as `build_value_graph` returns it;
    the matching's size is then `len(graph.pair_of_var)`.  Variables are
    taken in `adj_var` order.  One that sees a free value is matched to the
    first one inline, as `_augment` would at its first step, and counts one
    augment visit; only the others call `_augment`.  So the matching, and
    the visits, are those of an `_augment` call per variable, without a
    Python call for each variable that a greedy pass matches, which on a
    re-post is most of them.

    One pass is enough (Kuhn, 1955).  When no augmenting path starts at x,
    the variables x reaches have all their values matched among
    themselves.  An augmenting path from another variable cannot enter
    that closed set, since it could not leave it again to end at a free
    value, so the set keeps its matching and x never gets a path later.
    After the pass no unmatched variable has an augmenting path, so the
    matching is maximum (Berge).

    Known limit: the worst case is O(p*m), against O(sqrt(p)*m) for
    Hopcroft-Karp.  On size-6 random domains (p = 1600, d = 2000) and on
    planted permutations plus 5 random values (p = 1600 and 3200), it
    still took 0.45 to 0.5 of Hopcroft-Karp's time; no graph built to be
    adversarial was tried.

    Repeatable without sorting: the graph's maps are dicts, walked in
    insertion order, so the same calls on the same inputs walk the same
    orders.  A pop does not give the order back: it re-adds the edges a
    change removed after the others, so a push, a deletion and its pop
    changed some iteration order in 184 of 200 random 8-variable graphs.
    """
    pair_of_var = graph.pair_of_var
    pair_of_val = graph.pair_of_val
    searched = 0
    for var, vals in graph.adj_var.items():
        for val in vals:
            if val not in pair_of_val:  # `_augment`'s first step, inline
                pair_of_var[var] = val
                pair_of_val[val] = var
                break
        else:
            searched += 1
            _augment(graph, var, counters, None)
    counters.augment_visits += len(graph.adj_var) - searched


def matching_covering_x(
    graph: ValueGraph,
    counters: OpCounters,
    uncovered: list[int],
    log: list[tuple[int, Optional[int]]],
) -> bool:
    """Extend the graph's matching in place to cover X; False if no matching does.

    One shortest augmenting search runs from each variable of `uncovered`,
    which must name every variable the matching misses; a covered one it
    names is skipped.  Covered variables may be rerouted but stay covered.
    The first search that fails proves that no matching covers X, because
    its reached variables have fewer values than members.  Each flip is
    appended to `log` as (var, previous value or None).  Nothing is undone
    here: a failed search flips nothing, but the flips of the searches
    before it stay in the graph and in `log`, and `ValueGraph.assign`
    replaying `log` backwards restores the matching as it was.
    """
    pair_of_var = graph.pair_of_var
    for var in uncovered:
        if var not in pair_of_var and not _augment(graph, var, counters, log):
            return False
    return True


def _live_forest(
    graph: ValueGraph,
    roots: Iterable[int],
    alive: set[int],
    dead: dict[int, int],
) -> int:
    """Grow a tree of the liveness forest from each root not yet known; the visits.

    An iterative Tarjan over the matched variables, each value merged into
    its owner (x has an arc to y when x has an unmatched edge to y's matched
    value), from each root in neither `alive` nor `dead`, the forest's
    results, which the caller may keep across calls.  The trees share
    `index`, `low` and `stack`.  At the first arc to a free value or to a
    live variable a tree is abandoned: every variable still open in it
    reaches that arc and joins `alive`, and the stack and the work list are
    cleared.  Each strongly connected component that completes reaches only
    dead ones, and `dead` maps its variables to its root.  So a tree ends
    with each variable it indexed in one of the two, and a variable it
    meets in neither is open in it.  Returns the number of variables indexed.
    """
    adj_var = graph.adj_var
    pair_of_var = graph.pair_of_var
    pair_of_val = graph.pair_of_val
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    for root in roots:
        if root in alive or root in dead:
            continue
        matched = pair_of_var.get(root)
        if matched is None:
            raise UncoveredVariable(f"variable {root} is not covered")
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, matched, iter(adj_var[root]))]
        while work:
            var, matched, vals = work[-1]
            for val in vals:
                if val == matched:
                    continue
                nxt = pair_of_val.get(val)
                if nxt is None or nxt in alive:
                    alive.update(stack)
                    stack.clear()
                    work.clear()
                    break
                if nxt in dead:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, pair_of_var[nxt], iter(adj_var[nxt])))
                    break
                if index[nxt] < low[var]:  # open, so on the stack
                    low[var] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[var] < low[parent]:
                        low[parent] = low[var]
                if low[var] == index[var]:
                    while True:
                        member = stack.pop()
                        dead[member] = var
                        if member == var:
                            break
    return len(index)


def _unsupported_near(
    graph: ValueGraph, seeds: list[int]
) -> tuple[list[tuple[int, int]], int]:
    """The unsupported edges of the region that reaches the seeds, and the visits.

    The region R is the dead variables that reach a dead seed, walked
    backward from the dead seeds through the edges into each member's
    matched value.  Each edge met there is removed when its variable is alive or
    in another strongly connected component, and a dead variable met joins
    R.  Then each seed's unmatched edges to dead values outside R and
    outside the seed's own component are removed.  Liveness and the
    components come from `_live_forest`, grown from the seeds and then from
    each variable met that is not yet known; each variable it indexes counts
    one visit.
    """
    adj_var, adj_val = graph.adj_var, graph.adj_val
    pair_of_var = graph.pair_of_var
    pair_of_val = graph.pair_of_val
    alive: set[int] = set()
    dead: dict[int, int] = {}  # variable -> root of its component
    visits = _live_forest(graph, seeds, alive, dead)
    region = [seed for seed in seeds if seed in dead]
    in_region = set(region)
    removed: list[tuple[int, int]] = []
    for var in region:  # grows while it is walked
        val = pair_of_var[var]
        own = dead[var]
        for pred in adj_val[val]:
            if pred == var:
                continue
            if pred not in alive and pred not in dead:
                visits += _live_forest(graph, (pred,), alive, dead)
            if pred in alive:
                removed.append((pred, val))
                continue
            if dead[pred] != own:
                removed.append((pred, val))
            if pred not in in_region:
                in_region.add(pred)
                region.append(pred)
    for seed in seeds:
        matched = pair_of_var[seed]
        own = dead.get(seed)  # None for a live seed
        for val in adj_var[seed]:
            owner = pair_of_val.get(val)
            if val == matched or owner is None or owner in in_region:
                continue
            if owner not in alive and owner not in dead:
                visits += _live_forest(graph, (owner,), alive, dead)
            if owner in dead and dead[owner] != own:
                removed.append((seed, val))
    return removed, visits


def _unsupported(graph: ValueGraph) -> tuple[list[tuple[int, int]], int]:
    """Every unsupported edge of the graph, and the visits it took.

    Raises UncoveredVariable when the matching misses a variable, which is
    looked for only when the matching's size differs from the graph's.  The
    search from the free values marks the live variables, each variable
    and value it meets counting one visit; `_live_forest` then labels the
    dead ones' components, one visit per variable.
    """
    adj_var, adj_val = graph.adj_var, graph.adj_val
    pair_of_var = graph.pair_of_var
    pair_of_val = graph.pair_of_val
    if len(pair_of_var) != len(adj_var):
        for var in adj_var:
            if var not in pair_of_var:
                raise UncoveredVariable(f"variable {var} is not covered")

    # The live variables: walk the transposed orientation (unmatched
    # val->var, matched var->val) from the free values.  A matched value is
    # reached only through its owner, so no value is met twice.
    alive: set[int] = set()
    frontier = [val for val in adj_val if val not in pair_of_val]
    visits = 0
    while frontier:
        visits += 1
        for var in adj_val[frontier.pop()]:
            if var not in alive:
                alive.add(var)
                visits += 1
                frontier.append(pair_of_var[var])

    # the dead variables are closed under the orientation: no tree is abandoned
    dead: dict[int, int] = {}
    visits += _live_forest(graph, adj_var, alive, dead)
    removed: list[tuple[int, int]] = []
    for var, own in dead.items():
        val = pair_of_var[var]
        for pred in adj_val[val]:
            if pred != var and dead.get(pred) != own:
                removed.append((pred, val))
    return removed, visits


def remove_edges_from_g(
    graph: ValueGraph,
    counters: OpCounters,
    seeds: Optional[Iterable[int]] = None,
    log: Optional[list[tuple[int, int]]] = None,
) -> list[tuple[int, int]]:
    """Delete and return every edge that is in no matching covering X.

    Kept edges are the matched ones, those on an even alternating path from
    a free value vertex (their value reaches a free value in the oriented
    graph) and those on an alternating cycle (both ends in one strongly
    connected component).

    Without `seeds` the whole graph is filtered, in O(m + p + d).  The
    search from the free values runs first; the strongly connected
    components are then found only among the dead variables, those whose
    value does not reach a free value, and only the edges into their values
    are swept.  That is exact: a vertex that reaches a free value shares no
    component with one that does not, and every value that does not reach
    one is matched, to a variable of that same closed set.

    With seeds, the variables a change touched, only the dead variables that
    reach a seed, and the seeds' own edges, are filtered; that is exact
    when the graph was filtered before the change (see the module
    docstring).  Removed edges come in ascending (var, value) order; they
    are appended to `log`, when one is given, before the first of them is
    deleted, so a fault part-way loses none.
    """
    if seeds is None:
        removed, visits = _unsupported(graph)
    else:
        removed, visits = _unsupported_near(graph, list(dict.fromkeys(seeds)))
    removed.sort()
    if log is not None:
        log.extend(removed)
    for var, val in removed:
        graph.remove_edge(var, val)
    counters.filter_visits += visits
    return removed


def filter_adopted_edges(
    graph: ValueGraph,
    counters: OpCounters,
    new_vars: list[int],
    log: list[tuple[int, int]],
) -> Optional[list[tuple[int, int]]]:
    """Delete and return the adopted variables' edges in no matching covering X.

    Call it after `matching_covering_x` covered `new_vars`, whose edges were
    added to a filtered graph.  For each new variable x, a forward search
    runs from each unmatched value b of x (b -> owner(b) -> that owner's
    unmatched values -> ...).  It stops at a free value, or at a variable
    this call has shown to reach one, and then every variable on the path
    it found reaches one too.  A search that runs dry has walked a closed
    set with no free value: (x, b) is removed, and later searches prune at
    that set.  The search enters x through x's matched value like any other
    variable, since x is not known to reach a free value yet.  Most owners
    are decided by their own arcs, before any search state is built: an
    owner is alive at its first arc to a free value or to a live variable,
    and dead, a closed set, when every other arc leads to a dead variable.
    That is what the search would conclude after the same single visit.

    When every new variable reaches a free value, the removed edges are
    exactly those `remove_edges_from_g` seeded at `new_vars` would remove
    (see the module docstring).  Otherwise some new variable lies in a Hall
    set, which may cut edges of other variables too: the call returns None,
    having changed nothing, and the caller runs the filter.

    Removed edges come in ascending (var, value) order; they are appended
    to `log` before the first of them is deleted.  Each variable searched
    counts one filter visit.
    """
    adj_var = graph.adj_var
    pair_of_var = graph.pair_of_var
    pair_of_val = graph.pair_of_val
    alive: set[int] = set()  # variables shown to reach a free value
    dead: set[int] = set()  # variables shown to reach none
    removed: list[tuple[int, int]] = []
    visits = 0
    try:
        for x in new_vars:
            matched = pair_of_var.get(x)
            if matched is None:
                raise UncoveredVariable(f"variable {x} is not covered")
            visits += 1
            for b in adj_var[x]:
                if b == matched:
                    continue
                start = pair_of_val.get(b)
                if start is None or start in alive:
                    alive.add(x)
                    continue
                if start in dead:
                    removed.append((x, b))
                    continue
                found = unknown = False
                for val in adj_var[start]:
                    owner = pair_of_val.get(val)
                    if owner is None or owner in alive:
                        found = True
                        break
                    if owner != start and owner not in dead:
                        unknown = True
                if found or not unknown:  # start's own arcs decide it
                    visits += 1
                    if found:
                        alive.add(start)
                        alive.add(x)
                    else:  # every arc leads to a closed set: start joins them
                        dead.add(start)
                        removed.append((x, b))
                    continue
                reached_from: dict[int, Optional[int]] = {start: None}
                frontier = [start]
                while frontier and not found:
                    var = frontier.pop()
                    visits += 1
                    for val in adj_var[var]:
                        owner = pair_of_val.get(val)
                        if owner is None or owner in alive:
                            found = True
                            break
                        if owner not in reached_from and owner not in dead:
                            reached_from[owner] = var
                            frontier.append(owner)
                if found:
                    while var is not None:  # the path back to b's owner
                        alive.add(var)
                        var = reached_from[var]
                    alive.add(x)
                else:
                    dead.update(reached_from)
                    removed.append((x, b))
            if x not in alive:  # x is in a Hall set
                return None
    finally:
        counters.filter_visits += visits
    removed.sort()
    log.extend(removed)
    for var, val in removed:
        graph.remove_edge(var, val)
    return removed


def deletion_keeps_filtered(
    graph: ValueGraph,
    var: int,
    lost: Iterable[int],
    counters: OpCounters,
) -> bool:
    """True when deleting var's edges to `lost` left the graph filtered.

    Call it after `remove_edges` deleted those edges from a filtered graph,
    with the matching intact, or after `matching_covering_x` repaired it
    when var's matched edge was among them: the repaired matching covers X
    in the graph before the deletion too, and leaves every lost edge
    unmatched.  The search runs forward from `var` in the oriented graph
    (unmatched edges var -> value, matched value -> owner) and returns True
    as soon as it meets a free value, or once it has met the owner of every
    lost value when none of them is free.  Then every lost arc var -> a can
    be bypassed: a path through it still reaches a free value from `var`,
    or reaches owner(a) another way.  So the values that reach a free
    value, and the strongly connected components among the rest, are
    exactly as before, and `remove_edges_from_g` seeded at `var` would
    return [].  False means only that the search did not prove it.  Each
    variable searched counts one filter visit.
    """
    adj_var = graph.adj_var
    pair_of_val = graph.pair_of_val
    # the owners still to meet; a lost free value leaves None in the set for
    # good, so that only a free value met on the way proves anything
    pending = {pair_of_val.get(val) for val in lost}
    seen = {var}
    frontier = [var]
    visits = 0
    try:
        while frontier:
            visits += 1
            for val in adj_var[frontier.pop()]:
                owner = pair_of_val.get(val)
                if owner is None:
                    return True
                if owner not in seen:  # var's matched value leads back to var
                    seen.add(owner)
                    frontier.append(owner)
                    pending.discard(owner)
                    if not pending:
                        return True
        return False
    finally:
        counters.filter_visits += visits


def remove_edges(
    graph: ValueGraph, var: int, lost: Collection[int],
    log: list[tuple[int, int]], flips: list[tuple[int, Optional[int]]],
) -> bool:
    """Delete var's edges to the distinct values `lost`; True iff its matched one fell.

    Raises UnknownEdge, changing nothing, when var has no vertex or an edge
    is missing: one membership test per lost value against var's dict,
    cheaper than a keys-view comparison, and `lost` may be any collection.
    Otherwise it logs the edges to `log`, in `lost` order, and var's
    unmatch to `flips` before it makes any change, so a fault part-way
    loses none.
    """
    edges = graph.adj_var.get(var)
    if edges is None:
        raise UnknownEdge(f"variable {var} has no vertex")
    for val in lost:
        if val not in edges:
            raise UnknownEdge(f"variable {var} lacks an edge to {val}")
    for val in lost:
        log.append((var, val))
    matched = graph.pair_of_var.get(var)
    damaged = matched in lost
    if damaged:
        flips.append((var, matched))
        graph.assign(((var, None),))
    for val in lost:
        graph.remove_edge(var, val)
    return damaged


def graph_checksum(graph: ValueGraph) -> str:
    """Order-independent digest of variable vertices, edges and matching pairs."""
    state = (
        tuple(sorted(graph.adj_var)),
        tuple(sorted((v, a) for v, vals in graph.adj_var.items() for a in vals)),
        tuple(sorted(graph.pair_of_var.items())),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()
