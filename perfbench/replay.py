"""Replay generated inputs through the public API, one timed step at a time.

Step kinds:

* ADD: `add_variable` + `push_checkpoint` + adoption (or the generic
  re-post) + `propagate_fixpoint`;
* DEL: `push_checkpoint` + one or more `remove_value` + `propagate_fixpoint`;
* POP: `pop_checkpoint`, plus `retract_last_variable` when the popped step
  was an ADD.

Only the call itself sits between the two clock reads of a step.  The
observer (`Recorder` or one of its subclasses) runs before and after each
step, outside the timed window, and sees the store, the step kind and the
change the step makes.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

from dynalldiff import AllDifferent, GenericDynamizer, Store
from workloads import BLOCKS, generate_blocks, generate_latin

ADD, DEL, POP = "ADD", "DEL", "POP"
KINDS = (ADD, DEL, POP)


class WrongVerdict(Exception):
    """The program called a branch inconsistent that has a known solution."""


# The host this benchmark was built on switches between two speeds about
# 1.6x apart every few seconds, and stays in one for up to a minute, so raw
# wall times of runs a few minutes apart differ by 30% and more.  After every
# step, outside its timed window, the Recorder times this fixed piece of
# pure-Python work (sorted iteration, set and dict operations, as in the
# kernel); `speed_factors` turns those times into a per-step factor that
# rescales wall times to the speed at which the work takes CAL_REFERENCE_NS.
# The work runs twice and only the second run is timed: the first absorbs the
# cache and pending garbage-collection state the step left, which would
# otherwise make the factor depend on the step's working set as well as on
# the host's speed.
_CAL_ADJ = {v: frozenset((v * 7 + k * 13) % 64 for k in range(6)) for v in range(48)}
CAL_REFERENCE_NS = 33_000  # the faster of the two speeds on that host
CAL_WINDOW = 25  # steps on each side; about 0.1 s of the workload


def calibrate() -> int:
    start = perf_counter_ns()
    seen = set()
    for var in sorted(_CAL_ADJ):
        for val in sorted(_CAL_ADJ[var]):
            if val not in seen:
                seen.add(val)
    return perf_counter_ns() - start


def speed_factors(cal_ns: list[int]) -> list[float]:
    """Per step: CAL_REFERENCE_NS over the median calibration time around it."""
    return [
        CAL_REFERENCE_NS
        / statistics.median(cal_ns[max(i - CAL_WINDOW, 0) : i + CAL_WINDOW + 1])
        for i in range(len(cal_ns))
    ]


def domains_digest(store: Store) -> int:
    return hash(tuple(tuple(sorted(dom)) for dom in store.domains))


class Recorder:
    """Per-step log of one round: latency, verdict, domains digest, counters.

    A POP must bring back the domains digest taken before the ADD or DEL it
    undoes; a step that does not is recorded in `failures`.
    """

    def __init__(self):
        self.step_ns: list[int] = []  # wall time of each step
        self.outcomes: list[tuple[str, bool, int]] = []  # kind, verdict, digest
        self.cal_ns: list[int] = []  # calibration time after each step
        # per step: (augment_visits, filter_visits, trailed_cells) deltas
        self.counts: list[tuple[int, int, int]] = []
        self.trail_peak = 0
        self.failures: dict[int, str] = {}  # step index -> first failure
        self.attempted = 0
        self.store = None

    def start(self, store: Store) -> None:
        self.store = store
        self._digest = domains_digest(store)
        self._open: list[int] = []

    def fail(self, step: int, message: str) -> None:
        self.failures.setdefault(step, message)

    def before(self, kind: str, change) -> None:
        self.attempted += 1
        if kind != POP:
            self._open.append(self._digest)
        self._counters = self.store.counters.snapshot()

    def after(self, kind: str, change, elapsed_ns: int, ok: bool) -> None:
        counters = self.store.counters.snapshot()
        step = len(self.outcomes)
        self.step_ns.append(elapsed_ns)
        self.counts.append(tuple(a - b for a, b in zip(counters, self._counters)))
        self.trail_peak = max(self.trail_peak, len(self.store.trail))
        digest = domains_digest(self.store)
        if kind == POP and digest != self._open.pop():
            self.fail(step, "POP did not restore the domains")
        self._digest = digest
        self.outcomes.append((kind, ok, digest))
        calibrate()
        self.cal_ns.append(calibrate())

    def count(self, kind: str) -> int:
        return sum(1 for step_kind, _, _ in self.outcomes if step_kind == kind)

    def leaf(self) -> None:
        """Called at the bottom of each latin_grow dive, before it pops back."""


def timed(obs: Recorder, kind: str, change, op, *args) -> bool:
    obs.before(kind, change)
    start = perf_counter_ns()
    ok = op(*args)
    elapsed = perf_counter_ns() - start
    obs.after(kind, change, elapsed, ok)
    return ok


class _Model:
    """Undo stack shared by the models: DEL checkpoints and model-specific ADDs."""

    def __init__(self, store: Store):
        self.store = store
        self.undo: list = []

    def delete(self, var: int, values: tuple[int, ...]) -> bool:
        """Remove `values` (never all of var's domain) inside a new checkpoint."""
        store = self.store
        self.undo.append(store.push_checkpoint())
        for value in values:
            store.remove_value(var, value)
        return store.propagate_fixpoint()

    def pop(self) -> bool:
        entry = self.undo.pop()
        if isinstance(entry, tuple):
            self.pop_add(*entry)
        else:
            self.store.pop_checkpoint(entry)
        return True


class DynamicModel(_Model):
    """One AllDifferent that grows by adoption, each ADD in its own checkpoint."""

    def __init__(self, store: Store):
        super().__init__(store)
        self.propagator = None

    def add(self, domain) -> bool:
        store = self.store
        var = store.add_variable(domain)
        token = store.push_checkpoint()
        posted = self.propagator is None
        self.undo.append((token, posted))
        if posted:
            self.propagator = store.post_constraint(AllDifferent([var])).propagator
            ok = True
        else:
            ok = self.propagator.add_variables(store, [var])[0]
        return ok and store.propagate_fixpoint()

    def pop_add(self, token, posted: bool) -> None:
        self.store.pop_checkpoint(token)
        self.store.retract_last_variable()
        if posted:
            self.propagator = None


class GenericModel(_Model):
    """The deactivate-and-repost baseline: GenericDynamizer over AllDifferent."""

    def __init__(self, store: Store):
        super().__init__(store)
        self.wrapper = GenericDynamizer(store, AllDifferent)

    def add(self, domain) -> bool:
        var = self.store.add_variable(domain)
        self.undo.append(())
        return self.wrapper.add_variable(var)

    def pop_add(self) -> None:
        self.wrapper.remove_variable()
        self.store.retract_last_variable()


def run_blocks(seed: int, obs: Recorder, engine: str, blocks: int = BLOCKS) -> int:
    """One round of adopt_blocks (engine "dynamic") or repost_blocks ("generic").

    Each variable is an ADD; a failed ADD is popped at once.  After each
    successful ADD, each DEL probe removes one value of a live variable that
    has two or more, and is popped.  All live ADDs are drained LIFO at the
    end.  Returns the set-up time (input generation and store creation).
    """
    start = perf_counter_ns()
    inputs = generate_blocks(seed, blocks)
    store = Store()
    model = DynamicModel(store) if engine == "dynamic" else GenericModel(store)
    setup_ns = perf_counter_ns() - start
    obs.start(store)
    live = 0
    for domain, probes in zip(inputs.domains, inputs.probes):
        if not timed(obs, ADD, domain, model.add, domain):
            timed(obs, POP, None, model.pop)
            continue
        live += 1
        for pick_var, pick_value in probes:
            open_vars = [v for v, dom in enumerate(store.domains) if len(dom) > 1]
            if not open_vars:
                break
            var = open_vars[pick_var % len(open_vars)]
            values = sorted(store.domains[var])
            change = (var, (values[pick_value % len(values)],))
            timed(obs, DEL, change, model.delete, *change)
            timed(obs, POP, None, model.pop)
    for _ in range(live):
        timed(obs, POP, None, model.pop)
    return setup_ns


class LatinModel(_Model):
    """Row and column AllDifferents over a Latin rectangle, grown a row per dive."""

    def __init__(self, store: Store, prefill):
        super().__init__(store)
        order = len(prefill[0])
        cells = [[store.add_variable(dom) for dom in row] for row in prefill]
        for row in cells:
            store.post_constraint(AllDifferent(row))
        self.columns = [
            store.post_constraint(AllDifferent([row[c] for row in cells])).propagator
            for c in range(order)
        ]
        if not store.propagate_fixpoint():
            raise WrongVerdict("the prefilled Latin rectangle was found inconsistent")
        self.row = None  # the dive row's AllDifferent, posted by its first ADD

    def add(self, column: int, domain) -> bool:
        store = self.store
        var = store.add_variable(domain)
        token = store.push_checkpoint()
        posted = self.row is None
        self.undo.append((token, posted))
        ok = self.columns[column].add_variables(store, [var])[0]
        if ok and posted:
            self.row = store.post_constraint(AllDifferent([var])).propagator
        elif ok:
            ok = self.row.add_variables(store, [var])[0]
        return ok and store.propagate_fixpoint()

    def pop_add(self, token, posted: bool) -> None:
        self.store.pop_checkpoint(token)
        self.store.retract_last_variable()
        if posted:
            self.row = None


def run_latin(seed: int, obs: Recorder, **sizes) -> int:
    """One round of latin_grow; returns the set-up time.

    Set-up posts the prefilled rows' and all columns' AllDifferents.  Each
    dive adopts the next row cell by cell (every cell joins its column and
    the growing row constraint), then assigns each still-open cell of that
    row to the hidden square's value, and pops back.  The hidden square
    satisfies every branch, so an inconsistent verdict is wrong.
    """
    start = perf_counter_ns()
    inputs = generate_latin(seed, **sizes)
    store = Store()
    model = LatinModel(store, inputs.prefill)
    setup_ns = perf_counter_ns() - start
    obs.start(store)
    for dive, (order, domains) in enumerate(
        zip(inputs.dive_order, inputs.dive_domains)
    ):
        truth = inputs.square[len(inputs.prefill) + dive]
        cells = {}
        for c in order:
            if not timed(obs, ADD, domains[c], model.add, c, domains[c]):
                raise WrongVerdict(f"dive {dive}: adopting cell {c} failed")
            cells[c] = len(store.domains) - 1
        for c in order:
            var = cells[c]
            values = tuple(v for v in sorted(store.domains[var]) if v != truth[c])
            if values and not timed(obs, DEL, (var, values), model.delete, var, values):
                raise WrongVerdict(f"dive {dive}: assigning cell {c} failed")
        obs.leaf()
        while model.undo:
            timed(obs, POP, None, model.pop)
    return setup_ns
