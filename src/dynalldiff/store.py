"""Finite-domain variable store with a reversible trail and event propagation.

The store owns variables (dense integer ids in creation order), their
domains (sets of dense value ids), posted constraints, and a trail of
invertible frames.  push_checkpoint/pop_checkpoint give exact LIFO state
restoration: every mutation between a push and its pop is undone
frame-by-frame in reverse order, including propagator internals.

Failure is a sticky branch flag cleared only by popping a checkpoint pushed
before the failure.  Propagation is an event queue drained by
propagate_fixpoint: one coalesced event per (constraint, variable) pair per
round, FIFO over pairs.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Iterable, Optional

from .errors import (
    AlreadyInactive,
    DomainWipeout,
    EmptyDomain,
    InitFailure,
    KernelError,
    NonLifoPop,
    UnknownVariable,
)
from .matching import OpCounters


class CheckpointToken:
    """Identifies an open checkpoint by its position in the trail."""

    __slots__ = ("depth",)

    def __init__(self, depth: int):
        self.depth = depth

    def __repr__(self):
        return f"CheckpointToken(depth={self.depth})"


class ConstraintHandle:
    """A posted constraint: propagator, watched variables, activation flag."""

    __slots__ = ("id", "propagator", "watched_vars", "active")

    def __init__(self, handle_id: int, propagator, watched_vars: list[int]):
        self.id = handle_id
        self.propagator = propagator
        self.watched_vars = watched_vars  # grows when variables are adopted
        self.active = True


class _Frame:
    cells = 1

    def undo(self, store: "Store") -> None:
        raise NotImplementedError


class _Marker(_Frame):
    cells = 1

    def __init__(self, token: CheckpointToken):
        self.token = token

    def undo(self, store):
        pass  # handled by pop_checkpoint itself


class _VarAdded(_Frame):
    cells = 2

    def __init__(self, var: int):
        self.var = var

    def undo(self, store):
        if self.var != len(store.domains) - 1:
            raise NonLifoPop("non-LIFO variable retraction")
        if store.watchers[self.var]:
            raise NonLifoPop("variable retracted while watched")
        store.domains.pop()
        del store.watchers[self.var]


class _ValueRemoved(_Frame):
    cells = 2

    def __init__(self, var: int, value: int):
        self.var = var
        self.value = value

    def undo(self, store):
        store.domains[self.var].add(self.value)


class _FailedFlag(_Frame):
    cells = 1

    def undo(self, store):
        store.failed = False


class _Posted(_Frame):
    cells = 2

    def __init__(self, handle: ConstraintHandle):
        self.handle = handle

    def undo(self, store):
        if not store.constraints or store.constraints[-1] is not self.handle:
            raise NonLifoPop("posting retracted out of LIFO order")
        store.constraints.pop()
        for var in self.handle.watched_vars:
            store.watchers[var].remove(self.handle.id)


class _Deactivated(_Frame):
    def __init__(self, handle: ConstraintHandle, snapshot, cells: int):
        self.handle = handle
        self.snapshot = snapshot
        self.cells = cells

    def undo(self, store):
        self.handle.propagator.restore(self.snapshot)
        self.handle.active = True


class _WatcherAdded(_Frame):
    cells = 2

    def __init__(self, handle: ConstraintHandle, var: int):
        self.handle = handle
        self.var = var

    def undo(self, store):
        if self.handle.watched_vars[-1] != self.var:
            raise NonLifoPop("watch retracted out of LIFO order")
        store.watchers[self.var].remove(self.handle.id)
        self.handle.watched_vars.pop()


class _DomainsPushed(_Frame):
    """Eager whole-domain copies: the re-posting baseline's duplication cost."""

    def __init__(self, variables: list[int], copies: list[set[int]]):
        self.variables = variables
        self.copies = copies
        self.cells = len(variables) + sum(len(c) for c in copies)

    def undo(self, store):
        for var, copy in zip(self.variables, self.copies):
            store.domains[var] = set(copy)


class Store:
    """Single-threaded finite-domain store; see module docstring."""

    def __init__(self):
        self.domains: list[set[int]] = []
        self.watchers: dict[int, list[int]] = {}
        self.constraints: list[ConstraintHandle] = []
        self.trail: list[_Frame] = []
        self.failed = False
        self.counters = OpCounters()
        self._open_tokens: list[CheckpointToken] = []
        self._event_order: deque[tuple[int, int]] = deque()
        self._pending: dict[tuple[int, int], list[int]] = {}

    # -- trail ------------------------------------------------------------

    def trail_push(self, frame) -> None:
        self.trail.append(frame)
        self.counters.trailed_cells += frame.cells

    @property
    def trail_depth(self) -> int:
        return len(self.trail)

    # -- variables ---------------------------------------------------------

    def add_variable(self, domain: Iterable[int]) -> int:
        """Register a variable; its id doubles as the creation index."""
        members = set(domain)
        if not members:
            raise EmptyDomain("variable created with empty domain")
        var = len(self.domains)
        self.domains.append(members)
        self.watchers[var] = []
        self.trail_push(_VarAdded(var))
        return var

    def retract_last_variable(self) -> int:
        """Undo the newest variable creation (backtracking through the add).

        Only legal when that creation is the newest trail frame and no
        checkpoint was pushed after it.
        """
        if not self.trail or not isinstance(self.trail[-1], _VarAdded):
            raise NonLifoPop("newest trail frame is not a variable creation")
        frame = self.trail[-1]
        frame.undo(self)
        self.trail.pop()
        return frame.var

    def domain(self, var: int) -> set[int]:
        self._check_var(var)
        return self.domains[var]

    def _check_var(self, var: int) -> None:
        if not 0 <= var < len(self.domains):
            raise UnknownVariable(f"no variable {var}")

    def remove_value(self, var: int, value: int, cause: Optional[int] = None) -> bool:
        """Delete `value` from var's domain; returns True iff anything changed.

        Queues one propagation event per active watching constraint (except
        `cause`, the constraint that performed the removal itself).  Raises
        DomainWipeout and marks the branch failed when the domain empties.
        """
        self._check_var(var)
        dom = self.domains[var]
        if value not in dom:
            return False
        if len(dom) == 1:
            self._fail()
            raise DomainWipeout(f"removing {value} empties variable {var}")
        dom.remove(value)
        self.trail_push(_ValueRemoved(var, value))
        for cid in self.watchers[var]:
            if cid == cause:
                continue
            if self.constraints[cid].active:
                self._queue_event(cid, var, value)
        return True

    # -- checkpoints --------------------------------------------------------

    def push_checkpoint(self) -> CheckpointToken:
        token = CheckpointToken(len(self.trail))
        self.trail_push(_Marker(token))
        self._open_tokens.append(token)
        return token

    def pop_checkpoint(self, token: CheckpointToken) -> None:
        """Invert every frame above the token's marker, newest first."""
        if not self._open_tokens or self._open_tokens[-1] is not token:
            raise NonLifoPop(f"{token} is not the newest open checkpoint")
        while len(self.trail) > token.depth + 1:
            self.trail[-1].undo(self)  # a frame that refuses stays on the trail
            self.trail.pop()
        marker = self.trail[-1]
        if not isinstance(marker, _Marker) or marker.token is not token:
            raise NonLifoPop(f"{token} does not mark its trail position")
        self.trail.pop()
        self._open_tokens.pop()
        # events queued on the abandoned branch are moot
        self._event_order.clear()
        self._pending.clear()

    # -- constraints ---------------------------------------------------------

    def post_constraint(self, propagator) -> ConstraintHandle:
        """Register a propagator and run its initialisation immediately.

        The posting is trailed first so a later pop retracts it.  If the
        initialisation reports inconsistency the branch is marked failed and
        InitFailure is raised (carrying the handle).
        """
        watched = list(propagator.variables)
        for var in watched:
            self._check_var(var)
        handle = ConstraintHandle(len(self.constraints), propagator, watched)
        self.constraints.append(handle)
        for var in watched:
            self.watchers[var].append(handle.id)
        self.trail_push(_Posted(handle))
        if not propagator.init(self, handle):
            self._fail()
            raise InitFailure("propagator initialisation failed", handle=handle)
        return handle

    def deactivate_constraint(self, handle: ConstraintHandle) -> None:
        """Freeze the propagator's internals on the trail and stop its events."""
        if not handle.active:
            raise AlreadyInactive(f"constraint {handle.id} is already inactive")
        snapshot, cells = handle.propagator.snapshot()
        handle.active = False
        self.trail_push(_Deactivated(handle, snapshot, cells + 2))

    def watch_variable(self, cid: int, var: int) -> None:
        """Extend a constraint's watch set (used when it adopts a variable)."""
        self._check_var(var)
        handle = self.constraints[cid]
        self.watchers[var].append(cid)
        handle.watched_vars.append(var)
        self.trail_push(_WatcherAdded(handle, var))

    def snapshot_domains(self, variables: list[int]) -> None:
        """Trail eager copies of the given domains (the re-post baseline's push)."""
        copies = [set(self.domains[v]) for v in variables]
        self.trail_push(_DomainsPushed(list(variables), copies))

    # -- propagation -----------------------------------------------------------

    def _queue_event(self, cid: int, var: int, value: int) -> None:
        key = (cid, var)
        if key in self._pending:
            self._pending[key].append(value)
        else:
            self._pending[key] = [value]
            self._event_order.append(key)

    def _fail(self) -> None:
        if not self.failed:
            self.failed = True
            self.trail_push(_FailedFlag())

    def propagate_fixpoint(self) -> bool:
        """Deliver queued events until quiescence; False iff the branch failed."""
        if self.failed:
            self._event_order.clear()
            self._pending.clear()
            return False
        while self._event_order:
            cid, var = self._event_order.popleft()
            values = self._pending.pop((cid, var))
            handle = self.constraints[cid]
            if not handle.active:
                continue
            if not handle.propagator.on_values_removed(self, var, values):
                self._fail()
                self._event_order.clear()
                self._pending.clear()
                return False
        return True

    # -- inspection ---------------------------------------------------------

    def checksum(self) -> str:
        """Digest of domains, constraint set, activation flags and internals."""
        state = (
            tuple(tuple(sorted(dom)) for dom in self.domains),
            tuple(
                (h.id, h.active, tuple(h.watched_vars), h.propagator.state_digest())
                for h in self.constraints
            ),
            self.failed,
        )
        return hashlib.sha256(repr(state).encode()).hexdigest()

    def validate(self) -> None:
        """Raise KernelError unless the store's structures agree.

        The watcher lists and the handles' `watched_vars` must name the same
        (variable, constraint) pairs, and every active propagator's own
        `validate(store)` must pass.
        """
        watching = sorted((v, cid) for v, cids in self.watchers.items() for cid in cids)
        watched = sorted((v, h.id) for h in self.constraints for v in h.watched_vars)
        if watching != watched:
            raise KernelError("watchers and watched_vars disagree")
        for handle in self.constraints:
            if handle.active:
                handle.propagator.validate(self)
