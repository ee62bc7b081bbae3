"""Checks of the reference round, the first timed round of each run.

`Checker` is a `Recorder` that additionally, between the steps and so
outside every timed window:

* compares `Store.checksum()` before each checkpoint with the checksum after
  its pop (on every `checksum_every`-th checkpoint);
* on the block workloads, compares the touched block's domains and the
  step's verdict with `gac_filter_bruteforce` on that block.  Blocks share
  no values, so whole-constraint GAC equals per-block GAC, and every other
  block must be left unchanged;
* at each latin_grow dive leaf, re-posts every live constraint from scratch
  over the leaf's domains and requires the same domains back.

Every other timed round is verified by comparing its per-step outcomes and
counters with this reference (see `compare`).  `check_s` is the time the
checks took.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from dynalldiff import (
    AllDifferent,
    InitFailure,
    Store,
    all_values_distinct,
    gac_filter_bruteforce,
)
from replay import ADD, POP, Recorder
from workloads import BLOCK_VALUES


class Checker(Recorder):
    def __init__(self, checksum_every: int = 1, blocks: bool = False):
        super().__init__()
        self.checksum_every = checksum_every
        self.blocks = blocks  # a block workload: check each step with the oracle
        self._checksums: list[Optional[str]] = []
        self._checkpoints = 0
        self.check_s = 0.0

    def before(self, kind, change):
        started = perf_counter()
        if kind != POP:
            take = self._checkpoints % self.checksum_every == 0
            self._checkpoints += 1
            self._checksums.append(self.store.checksum() if take else None)
            if self.blocks:
                self._pre = [frozenset(dom) for dom in self.store.domains]
        self.check_s += perf_counter() - started
        super().before(kind, change)

    def after(self, kind, change, elapsed_ns, ok):
        super().after(kind, change, elapsed_ns, ok)
        started = perf_counter()
        step = len(self.outcomes) - 1
        if kind == POP:
            expected = self._checksums.pop()
            if expected is not None and expected != self.store.checksum():
                self.fail(step, "Store.checksum() after POP differs from before")
        elif self.blocks:
            self._check_block(step, kind, change, ok)
        self.check_s += perf_counter() - started

    def _check_block(self, step, kind, change, ok) -> None:
        domains = list(self._pre)
        if kind == ADD:
            var = len(domains)
            domains.append(frozenset(change))
        else:
            var, values = change
            domains[var] = domains[var] - set(values)
        block = min(domains[var]) // BLOCK_VALUES
        members = [v for v, dom in enumerate(domains) if min(dom) // BLOCK_VALUES == block]
        expected = gac_filter_bruteforce(
            all_values_distinct, [domains[v] for v in members]
        )
        if (expected is not None) != ok:
            self.fail(step, f"verdict {ok} but the oracle says {expected is not None}")
            return
        if not ok:
            return  # a failed branch's domains are not specified
        for v, dom in zip(members, expected):
            domains[v] = dom
        if list(map(set, domains)) != self.store.domains:
            self.fail(step, f"block {block} is not the oracle GAC, or another changed")

    def leaf(self):
        started = perf_counter()
        step = len(self.outcomes) - 1
        domains = [set(dom) for dom in self.store.domains]
        scopes = [list(h.watched_vars) for h in self.store.constraints if h.active]
        fresh = Store()
        for dom in domains:
            fresh.add_variable(dom)
        try:
            for scope in scopes:
                fresh.post_constraint(AllDifferent(scope))
            ok = fresh.propagate_fixpoint()
        except InitFailure:
            ok = False
        if not ok or fresh.domains != domains:
            self.fail(step, "dive leaf differs from a from-scratch re-post")
        self.check_s += perf_counter() - started


def compare(reference: Recorder, other: Recorder, counts: bool) -> dict[int, str]:
    """Steps where `other` departs from the reference's outcomes (and counters)."""
    departed = {}
    for step in range(max(len(reference.outcomes), len(other.outcomes))):
        ref = reference.outcomes[step : step + 1]
        got = other.outcomes[step : step + 1]
        if ref != got:
            departed[step] = f"outcome {got} differs from the reference {ref}"
        elif counts and reference.counts[step] != other.counts[step]:
            departed[step] = "operation counters differ from the reference"
    return departed
