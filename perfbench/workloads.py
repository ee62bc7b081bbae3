"""Seeded input generation for the benchmark workloads.

Inputs are plain data (tuples of ints) derived only from the seed, so the
same seed always yields byte-identical inputs (see `input_bytes`).  The
program under test never sees the seed, only these inputs.

Two families:

* blocks (`adopt_blocks`, `repost_blocks`): variables arrive block by block;
  the blocks use disjoint value ranges, so every change touches one block.
* latin (`latin_grow`): a partly filled Latin rectangle with one row and one
  column `alldifferent` per line, then dives that grow one more row.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

# Blocks of 6 variables over 8 values keep the brute-force oracle, which
# enumerates a whole block on every step, well under a second a run.
# Domains of 2 to 4 values make the filter prune on about a fifth of its
# calls and a few adoptions fail, so both paths are exercised.
BLOCKS = 67
BLOCK_SIZE = 6
BLOCK_VALUES = 8
DOMAIN_MIN, DOMAIN_MAX = 2, 4
# DEL probes after each ADD.  With two, the cheap probe POPs outnumber the
# ADD POPs (which are costly under re-post) two to one, so the POP median
# lies inside one cluster instead of on the edge between two.
PROBES = 2

LATIN_ORDER = 30
LATIN_ROWS = 20
LATIN_DIVE_DOMAIN = 20

# Selectors are drawn as unsigned 32-bit ints and reduced modulo the number
# of candidates at replay time, so the choice of probe depends on the live
# state while the inputs stay state-independent.
_SELECTOR = 2**32


@dataclass(frozen=True)
class BlocksInputs:
    """Per arriving variable: its domain and, per probe, two selectors."""

    domains: tuple[tuple[int, ...], ...]
    probes: tuple[tuple[tuple[int, int], ...], ...]  # (variable, value) selectors


@dataclass(frozen=True)
class LatinInputs:
    """A hidden Latin square, the prefilled rows' domains and the dives.

    `prefill[r][c]` is the initial domain of cell (r, c) for r < rows: the
    square's value for a given cell, the full value range for a hole.  Dive
    `i` grows row `rows + i`; `dive_order[i]` is the order its cells are
    adopted and then assigned, `dive_domains[i][c]` the adopted domain of
    cell c, which always contains the square's value.
    """

    order: int
    square: tuple[tuple[int, ...], ...]
    prefill: tuple[tuple[tuple[int, ...], ...], ...]
    dive_order: tuple[tuple[int, ...], ...]
    dive_domains: tuple[tuple[tuple[int, ...], ...], ...]


def generate_blocks(seed: int, blocks: int = BLOCKS) -> BlocksInputs:
    rng = random.Random(f"blocks:{seed}")
    domains, probes = [], []
    for block in range(blocks):
        values = range(block * BLOCK_VALUES, (block + 1) * BLOCK_VALUES)
        for _ in range(BLOCK_SIZE):
            size = rng.randint(DOMAIN_MIN, DOMAIN_MAX)
            domains.append(tuple(sorted(rng.sample(values, size))))
            probes.append(tuple(
                (rng.randrange(_SELECTOR), rng.randrange(_SELECTOR))
                for _ in range(PROBES)
            ))
    return BlocksInputs(tuple(domains), tuple(probes))


def generate_latin(
    seed: int,
    order: int = LATIN_ORDER,
    rows: int = LATIN_ROWS,
    dive_domain: int = LATIN_DIVE_DOMAIN,
) -> LatinInputs:
    rng = random.Random(f"latin:{seed}")
    row_shift = rng.sample(range(order), order)
    col_shift = rng.sample(range(order), order)
    symbol = rng.sample(range(order), order)
    square = tuple(
        tuple(symbol[(row_shift[r] + col_shift[c]) % order] for c in range(order))
        for r in range(order)
    )
    full = tuple(range(order))
    prefill = []
    for r in range(rows):
        # exactly half of each row is a hole, so every seed has the same
        # number of open cells
        holes = set(rng.sample(range(order), order // 2))
        prefill.append(
            tuple(full if c in holes else (square[r][c],) for c in range(order))
        )
    dive_order, dive_domains = [], []
    for r in range(rows, order):
        dive_order.append(tuple(rng.sample(range(order), order)))
        cells = []
        for c in range(order):
            others = [v for v in full if v != square[r][c]]
            picked = rng.sample(others, dive_domain - 1) + [square[r][c]]
            cells.append(tuple(sorted(picked)))
        dive_domains.append(tuple(cells))
    return LatinInputs(
        order, square, tuple(prefill), tuple(dive_order), tuple(dive_domains)
    )


def input_bytes(inputs) -> bytes:
    """Canonical serialisation, used to show that a seed fixes the inputs."""
    return json.dumps(asdict(inputs), sort_keys=True).encode()
