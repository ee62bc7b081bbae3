"""Finite-domain variable store with a reversible trail and event propagation.

The store owns variables (dense integer ids in creation order), their
domains (sets of dense value ids) and watcher stacks (the ids of the active
constraints that watch each variable), posted constraints, and a trail of
invertible frames; a checkpoint's token is its own frame.
push_checkpoint/pop_checkpoint give exact LIFO restoration: every
mutation between a push and its pop is undone in reverse order, including
propagator internals, and every undo pops what its frame pushed.  A frame
whose entries are not on top raises NonLifoPop and stays on the trail.

Failure is a sticky branch flag cleared only by popping a checkpoint pushed
before the failure.  Propagation is an event queue drained by
propagate_fixpoint: an event is a (constraint, variable) key with no values,
queued at most once until delivered, FIFO; a propagator tells what it lost
from its own state (`AllDifferent`: its edges minus the domain).  A pop
restores the queue to the keys pending at its push.  Deactivating a
constraint takes its id off its variables' stacks, so a removal walks only
the constraints it can wake; the key of an event queued before the
deactivation stays queued and is skipped when it comes up.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Iterable, Optional

from .errors import (
    DomainWipeout,
    EmptyDomain,
    InactiveConstraint,
    InitFailure,
    KernelError,
    NonLifoPop,
    UnknownVariable,
)
from .matching import OpCounters


class CheckpointToken:
    """An open checkpoint: its own trail frame, at index `depth`; undo is a no-op."""

    __slots__ = ("depth", "queued")
    cells = 1

    def __init__(self, depth: int, queued: tuple[tuple[int, int], ...]):
        self.depth = depth
        self.queued = queued  # the event keys pending at the push

    def undo(self, store: "Store") -> None:
        pass

    def __repr__(self):
        return f"CheckpointToken(depth={self.depth})"


class ConstraintHandle:
    """A posted constraint: propagator, watched variables, activation flag.

    `watched_vars` is the propagator's own `variables` list, not a copy:
    adopting a variable appends to it and popping the adoption shrinks it,
    so the propagator's scope is always the live one.  An inactive handle
    is on no watcher stack and gets no events, so its propagator stays as
    frozen until a pop; it adopts no variable either.
    """

    __slots__ = ("id", "propagator", "watched_vars", "active")

    def __init__(self, handle_id: int, propagator, watched_vars: list[int]):
        self.id = handle_id
        self.propagator = propagator
        self.watched_vars = watched_vars  # grows when variables are adopted
        self.active = True


class _VarAdded:
    __slots__ = ("var",)
    cells = 2

    def __init__(self, var: int):
        self.var = var

    def undo(self, store):
        if self.var != len(store.domains) - 1:
            raise NonLifoPop("non-LIFO variable retraction")
        if store.watchers[self.var]:
            raise NonLifoPop("variable retracted while watched")
        store.domains.pop()
        store.watchers.pop()


class _ValueRemoved:
    __slots__ = ("var", "value")
    cells = 2

    def __init__(self, var: int, value: int):
        self.var = var
        self.value = value

    def undo(self, store):
        store.domains[self.var].add(self.value)


class _FailedFlag:
    __slots__ = ()
    cells = 1

    def undo(self, store):
        store.failed = False


class _Posted:
    __slots__ = ("handle",)
    cells = 2

    def __init__(self, handle: ConstraintHandle):
        self.handle = handle

    def undo(self, store):
        handle = self.handle
        if not store.constraints or store.constraints[-1] is not handle:
            raise NonLifoPop("posting retracted out of LIFO order")
        cid, watchers = handle.id, store.watchers
        for var in handle.watched_vars:
            stack = watchers[var]
            if not stack or stack[-1] != cid:
                raise NonLifoPop("posting's watches are not on top of their stacks")
        store.constraints.pop()
        for var in handle.watched_vars:
            watchers[var].pop()


class _Deactivated:
    """A deactivation: the ids it took off the watcher stacks, to put back.

    `positions` is None when the id was on top of every watched variable's
    stack, and each was popped.  Otherwise it holds, for the watched
    variables in order, where the id was in each stack changed so far, also
    after a fault part-way.  Either way the frame adds nothing for the
    garbage collector to walk.
    """

    __slots__ = ("handle", "cells", "positions")

    def __init__(self, handle: ConstraintHandle, cells: int):
        self.handle = handle
        self.cells = cells
        self.positions: Optional[tuple[int, ...]] = None

    def undo(self, store):
        handle, watchers, positions = self.handle, store.watchers, self.positions
        cid, watched = handle.id, handle.watched_vars
        if positions is None:
            for var in watched:
                watchers[var].append(cid)
        else:
            for k in range(len(positions) - 1, -1, -1):
                watchers[watched[k]].insert(positions[k], cid)
        handle.active = True


class _WatcherAdded:
    __slots__ = ("handle", "var")
    cells = 2

    def __init__(self, handle: ConstraintHandle, var: int):
        self.handle = handle
        self.var = var

    def undo(self, store):
        watched, stack = self.handle.watched_vars, store.watchers[self.var]
        if watched[-1] != self.var or not stack or stack[-1] != self.handle.id:
            raise NonLifoPop("watch retracted out of LIFO order")
        stack.pop()
        watched.pop()


class _DomainsPushed:
    """Eager whole-domain copies: the re-posting baseline's duplication cost.

    Each copy is a tuple of the domain's values: CPython's cyclic garbage
    collector stops tracking a tuple of ints after one pass, while it would
    walk a set on every pass.  `undo` rebuilds the sets, which later frames
    restored already: a copying solver's O(p*d) pop (see `dynalldiff.generic`).
    """

    __slots__ = ("variables", "copies", "cells")

    def __init__(self, variables: list[int], copies: list[tuple[int, ...]]):
        self.variables = variables
        self.copies = copies
        self.cells = len(variables) + sum(map(len, copies))

    def undo(self, store):
        for var, copy in zip(self.variables, self.copies):
            store.domains[var] = set(copy)


class Store:
    """Single-threaded finite-domain store; see module docstring."""

    def __init__(self):
        self.domains: list[set[int]] = []
        self.watchers: list[list[int]] = []  # per variable, a stack of constraint ids
        self.constraints: list[ConstraintHandle] = []
        self.trail: list = []  # frames: each has `cells` and `undo(store)`
        self.failed = False
        self.counters = OpCounters()
        self._open_tokens: list[CheckpointToken] = []
        self._event_order: deque[tuple[int, int]] = deque()
        self._pending: set[tuple[int, int]] = set()  # the keys in _event_order

    # -- trail ------------------------------------------------------------

    def trail_push(self, frame) -> None:
        self.trail.append(frame)
        self.counters.trailed_cells += frame.cells

    # -- variables ---------------------------------------------------------

    def add_variable(self, domain: Iterable[int]) -> int:
        """Register a variable; its id doubles as the creation index."""
        members = set(domain)
        if not members:
            raise EmptyDomain("variable created with empty domain")
        var = len(self.domains)
        self.domains.append(members)
        self.watchers.append([])
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

        Queues (cid, var), unless pending, for each watcher cid but `cause`,
        the constraint that performed the removal itself; every watcher is
        active, so no handle is read.  Raises DomainWipeout and marks the
        branch failed when the domain empties.
        """
        self._check_var(var)
        dom = self.domains[var]
        if value not in dom:
            return False
        if len(dom) == 1:
            self._fail()
            raise DomainWipeout(f"removing {value} empties variable {var}")
        dom.discard(value)
        self.trail_push(_ValueRemoved(var, value))
        for cid in self.watchers[var]:
            if cid == cause:
                continue
            key = (cid, var)
            if key not in self._pending:
                self._pending.add(key)
                self._event_order.append(key)
        return True

    # -- checkpoints --------------------------------------------------------

    def push_checkpoint(self) -> CheckpointToken:
        token = CheckpointToken(len(self.trail), tuple(self._event_order))
        self.trail_push(token)
        self._open_tokens.append(token)
        return token

    def pop_checkpoint(self, token: CheckpointToken) -> None:
        """Invert every frame above the token, newest first, then pop the token."""
        if not self._open_tokens or self._open_tokens[-1] is not token:
            raise NonLifoPop(f"{token} is not the newest open checkpoint")
        while len(self.trail) > token.depth + 1:
            self.trail[-1].undo(self)  # a frame that refuses stays on the trail
            self.trail.pop()
        if self.trail[-1] is not token:
            raise NonLifoPop(f"{token} does not mark its trail position")
        self.trail.pop()
        self._open_tokens.pop()
        self._event_order.clear()  # back to the keys pending at the push
        self._event_order.extend(token.queued)
        self._pending.clear()
        self._pending.update(token.queued)

    # -- constraints ---------------------------------------------------------

    def post_constraint(self, propagator) -> ConstraintHandle:
        """Register a propagator and run its initialisation immediately.

        The posting is trailed first so a later pop retracts it.  If the
        initialisation reports inconsistency the branch is marked failed and
        InitFailure is raised (carrying the handle).
        """
        watched = propagator.variables  # shared: see ConstraintHandle
        if watched and not (0 <= min(watched) and max(watched) < len(self.domains)):
            for var in watched:
                self._check_var(var)  # names the first unknown id
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
        """Stop the constraint's events and charge its kept internals to the trail.

        The frame goes on the trail first; then the handle's id leaves each
        watched variable's stack.  When it is on top of every one (always,
        in the re-post baseline) each stack is popped; otherwise it is found
        from the top and its position logged.  A stack that lacks the id
        raises KernelError, and the pop puts back the ids taken so far.
        """
        if not handle.active:
            raise InactiveConstraint(f"constraint {handle.id} is already inactive")
        frame = _Deactivated(handle, handle.propagator.frozen_cells() + 2)
        self.trail_push(frame)
        handle.active = False
        cid, watchers, watched = handle.id, self.watchers, handle.watched_vars
        stacks = list(map(watchers.__getitem__, watched))
        if all(stacks):
            popped = list(map(list.pop, stacks))
            if popped.count(cid) == len(popped):
                return
            for stack, top in zip(reversed(stacks), reversed(popped)):
                stack.append(top)  # not all on top: back as they were
        positions = []
        try:
            for var, stack in zip(watched, stacks):
                pos = len(stack) - 1
                while pos >= 0 and stack[pos] != cid:
                    pos -= 1
                if pos < 0:
                    raise KernelError(f"constraint {cid} is not on {var}'s stack")
                positions.append(pos)
                del stack[pos]
        finally:
            frame.positions = tuple(positions)

    def watch_variable(self, cid: int, var: int) -> None:
        """Extend an active constraint's watch set (when it adopts a variable)."""
        self._check_var(var)
        handle = self.constraints[cid]
        if not handle.active:
            raise InactiveConstraint(f"constraint {cid} is inactive")
        self.watchers[var].append(cid)
        handle.watched_vars.append(var)
        self.trail_push(_WatcherAdded(handle, var))

    def snapshot_domains(self, variables: list[int]) -> None:
        """Trail eager copies of the given domains (the re-post baseline's push)."""
        copies = [tuple(self.domains[v]) for v in variables]
        self.trail_push(_DomainsPushed(list(variables), copies))

    # -- propagation -----------------------------------------------------------

    def _fail(self) -> None:
        if not self.failed:
            self.failed = True
            self.trail_push(_FailedFlag())

    def propagate_fixpoint(self) -> bool:
        """Deliver queued keys until quiescence; False iff the branch failed.

        A key (cid, var) calls `on_values_removed(store, var)` on cid's propagator.
        """
        if self.failed:
            self._event_order.clear()
            self._pending.clear()
            return False
        while self._event_order:
            cid, var = key = self._event_order.popleft()
            self._pending.remove(key)
            handle = self.constraints[cid]
            if not handle.active:
                continue
            if not handle.propagator.on_values_removed(self, var):
                self._fail()
                self._event_order.clear()
                self._pending.clear()
                return False
        return True

    # -- inspection ---------------------------------------------------------

    def checksum(self) -> str:
        """Digest of domains, constraint set, activation flags, internals and queue."""
        state = (
            tuple(tuple(sorted(dom)) for dom in self.domains),
            tuple(
                (h.id, h.active, tuple(h.watched_vars), h.propagator.state_digest())
                for h in self.constraints
            ),
            self.failed,
            tuple(self._event_order),
        )
        return hashlib.sha256(repr(state).encode()).hexdigest()

    def validate(self) -> None:
        """Raise KernelError unless the store's structures agree.

        The watcher stacks and the active handles' `watched_vars` must name
        the same (variable, constraint) pairs.  On a consistent branch every
        active propagator's own `validate(store)` must pass too.  A failed
        branch is not checked further: a failed fixpoint drops its queued
        events, a failed init leaves an empty graph and a failed adoption
        leaves its variables uncovered.
        """
        watching = sorted((v, cid) for v, cids in enumerate(self.watchers) for cid in cids)
        watched = sorted(
            (v, h.id) for h in self.constraints if h.active for v in h.watched_vars
        )
        if watching != watched:
            raise KernelError("watchers and watched_vars disagree")
        if self.failed:
            return
        for handle in self.constraints:
            if handle.active:
                handle.propagator.validate(self)
