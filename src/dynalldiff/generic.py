"""Generic dynamization: deactivate, trail, and re-post a monotonic constraint.

The wrapper turns any monotonic global constraint into one that accepts new
variables: adding a variable deactivates the current propagator (it keeps
its structures, unchanged, and the trail charges them; its id leaves the
watcher stacks, a pop per variable, so a later removal walks no frozen
level), eagerly pushes copies of all k+1 domains, and posts a fresh
propagator over the extended variable list.  Removing the last variable
pops the wrapper's checkpoint, which retracts the posting, rebuilds the
domains from the copies, and reactivates the previous propagator as it was
frozen.  The kept structures and the copies are the space cost this
baseline exists to exhibit.  The copies are tuples, and a frozen graph's
inner maps hold only ints, or ints and None: each vertex's edges and the
matching's two pairings.  CPython's cyclic collector stops tracking or
never tracks such objects, so later collections do not walk them, and a
frozen graph adds only itself and its two outer adjacency maps.

The baseline models a copying solver, O(p*d) work at the push and at the
pop, so the copies and the rebuild both stay, although the value trail
alone restores the domains.  Measured on repost_blocks, a copy-free
snapshot that charges the cells and copies nothing gave steps_per_s +3 to
+5% and peak RSS -8%, but add_ms_p95 +19 to +26%, as larger gen-1
collections land on the largest ADDs; dropping only the rebuild gave
steps_per_s +7%, every other metric within 1%, and left the copies with no
reader (seed 1, three alternating pairs of 8 s runs).

Where a re-post ADD's time goes, on repost_blocks (seed 1, three rounds in
one process, 1206 ADDs with p up to 402 and domains of 2 to 4 values; Intel
Xeon, 2 cores, Python 3.11.7).  With the collector off, a mean ADD of
442 us splits into building the value graph 175 us, the filter 108 us,
the maximum matching 54 us, the domain copies 36 us and the deactivation
31 us; the rest is the checkpoint, the posting and the fixpoint.  Building
and matching make no Python call per variable vertex (see
`build_value_graph` and `compute_maximum_matching`).  With the collector
on, timed by `gc.callbacks`, collections take 21 to 29 ms of a round of
about 600 ms, 9 to 14 ms of it inside ADDs (23 to 34 us per ADD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import DuplicateVariable, EmptyHistory, InitFailure, TooLarge
from .oracle import enumerate_solutions
from .store import CheckpointToken, ConstraintHandle, Store

MONOTONICITY_CAP = 1_000_000


@dataclass
class _HistoryEntry:
    token: CheckpointToken
    handle: ConstraintHandle


class GenericDynamizer:
    """LIFO add/remove of variables for a re-postable constraint family."""

    def __init__(self, store: Store, factory: Callable[[list[int]], object]):
        self.store = store
        self.factory = factory
        self.history: list[_HistoryEntry] = []

    @property
    def variables(self) -> list[int]:
        """The added variables in order: the newest handle's scope."""
        return list(self.history[-1].handle.watched_vars) if self.history else []

    @property
    def active_handle(self) -> Optional[ConstraintHandle]:
        return self.history[-1].handle if self.history else None

    def add_variable(self, var: int) -> bool:
        """Extend the constraint to `var`; returns the init+fixpoint verdict."""
        self.store._check_var(var)  # before any change to the store
        extended = self.variables
        if var in extended:
            raise DuplicateVariable(f"variable {var} already wrapped")
        extended.append(var)
        token = self.store.push_checkpoint()
        previous = self.active_handle
        if previous is not None:
            self.store.deactivate_constraint(previous)
        self.store.snapshot_domains(extended)
        try:
            handle = self.store.post_constraint(self.factory(extended))
        except InitFailure as failure:
            self.history.append(_HistoryEntry(token, failure.handle))
            return False
        self.history.append(_HistoryEntry(token, handle))
        return self.store.propagate_fixpoint()

    def remove_variable(self) -> None:
        """Retract the newest addition; the store returns to its pre-add state."""
        if not self.history:
            raise EmptyHistory("no variable to remove")
        entry = self.history.pop()
        self.store.pop_checkpoint(entry.token)


def check_monotonic(
    predicate: Callable[[tuple], bool],
    base_domains: Sequence[Iterable[int]],
    ext_domain: Iterable[int],
) -> bool:
    """Whether every extended solution projects into the base solution set.

    Both sets come from the brute-force enumerator, so the verdict is
    grounded in the oracle, not in the propagators.  Vacuously true for an
    empty base.
    """
    base = [tuple(sorted(dom)) for dom in base_domains]
    ext = tuple(sorted(ext_domain))
    if math.prod(map(len, base), start=len(ext)) > MONOTONICITY_CAP:
        raise TooLarge("domain product exceeds monotonicity cap")
    if not base:
        return True
    extended = enumerate_solutions(predicate, base + [ext])
    base_solutions = set(enumerate_solutions(predicate, base))
    return all(sol[:-1] in base_solutions for sol in extended)
