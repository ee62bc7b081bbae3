"""Generic dynamization: deactivate, trail, and re-post a monotonic constraint.

The wrapper turns any monotonic global constraint into one that accepts new
variables: adding a variable deactivates the current propagator (it keeps
its structures, unchanged, and the trail charges them), eagerly pushes
copies of all k+1 domains, and posts a fresh propagator over the extended
variable list.  Removing the last variable pops the wrapper's checkpoint,
which retracts the posting, restores the domains, and reactivates the
previous propagator as it was frozen.  The structures kept per level and the
domain copies are the measured space cost this baseline exists to exhibit.
A frozen level's id leaves the watcher stacks (it is on top of each, so
that is a pop per variable, and the pop pushes it back), so a level costs a
later removal no event walk.  The copies are tuples, which CPython's cyclic
garbage collector stops tracking after one pass, and the frozen graphs'
value-to-variable maps are dicts of ints it never tracks, so the levels kept
do not make every later collection walk them; the cost model, O(p*d) cells
and work per addition, is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import DuplicateVariable, EmptyHistory, InitFailure, TooLarge
from .store import CheckpointToken, ConstraintHandle, Store

MONOTONICITY_CAP = 1_000_000


@dataclass
class _HistoryEntry:
    token: CheckpointToken
    handle: ConstraintHandle


@dataclass
class MonotonicityWitness:
    """Outcome of the projection-monotonicity check for one base/extension pair."""

    base_domains: list[tuple[int, ...]]
    ext_domain: tuple[int, ...]
    verdict: bool


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
    oracle_enumerate,
    predicate: Callable[[tuple], bool],
    base_domains: Sequence[Iterable[int]],
    ext_domain: Iterable[int],
) -> MonotonicityWitness:
    """Monotonicity check: extended solutions project into the base solution set.

    `oracle_enumerate` is the brute-force enumerator (dependency-injected so
    the witness is grounded in the oracle, not in the propagators).  Vacuously
    true for an empty base.
    """
    base = [tuple(sorted(dom)) for dom in base_domains]
    ext = tuple(sorted(ext_domain))
    total = len(ext)
    for dom in base:
        total *= len(dom)
    if total > MONOTONICITY_CAP:
        raise TooLarge("domain product exceeds monotonicity cap")
    if not base:
        return MonotonicityWitness(base, ext, True)
    extended_solutions = oracle_enumerate(predicate, base + [ext])
    base_solutions = set(oracle_enumerate(predicate, base))
    verdict = all(sol[:-1] in base_solutions for sol in extended_solutions)
    return MonotonicityWitness(base, ext, verdict)
