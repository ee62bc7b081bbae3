"""Print one line per benchmark workload and seed that sums up a replay step by step.

Usage, from the root of a checkout:

    python3 tools/step_counters.py

Replays adopt_blocks, repost_blocks and latin_grow at seeds 1 to 3, one
round each, through `perfbench/replay.py`'s `Recorder`.  Each line gives
the number of steps and a SHA-256 digest of every step's kind, verdict,
domains digest and counter deltas (augment visits, filter visits, trailed
cells), of the round's trail peak and of its failures.  A second digest
covers the same fields with the filter visits left out, and a third with
all three counters left out.  Step times are not part of any.  Two
checkouts that print the same lines behave the same at every step, so a
change that must keep the counters exact is checked by running this in
the change's checkout and in its parent's and comparing the output; a
change that may only move filter visits (a cheaper check with the same
verdicts) compares the second digests, and one that may move any
order-dependent count (a new iteration order) but must keep every verdict
and every domain compares the third.
`tools/step_counters.expected` holds the output at the current commit,
and CI compares the two.  It only reads the benchmark's code and writes
no file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from replay import Recorder, run_blocks, run_latin  # noqa: E402

WORKLOADS = {
    "adopt_blocks": lambda seed, obs: run_blocks(seed, obs, "dynamic"),
    "repost_blocks": lambda seed, obs: run_blocks(seed, obs, "generic"),
    "latin_grow": run_latin,
}
SEEDS = (1, 2, 3)


def digest(counts, rec: Recorder) -> str:
    steps = list(zip(rec.outcomes, counts))
    state = (steps, rec.trail_peak, sorted(rec.failures.items()))
    return hashlib.sha256(repr(state).encode()).hexdigest()


def summary(name: str, seed: int) -> str:
    rec = Recorder()
    WORKLOADS[name](seed, rec)
    unfiltered = [(augment, cells) for augment, _filter, cells in rec.counts]
    uncounted = [()] * len(rec.counts)
    return (
        f"{name} seed {seed}: {len(rec.outcomes)} steps, "
        f"{digest(rec.counts, rec)}, {digest(unfiltered, rec)}, {digest(uncounted, rec)}"
    )


def main() -> int:
    for name in WORKLOADS:
        for seed in SEEDS:
            print(summary(name, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
