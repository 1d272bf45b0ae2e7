"""Ring colorings and the matching algebra modelling Kempe chains outside an island.

A ring coloring assigns one of three colors to each of k cyclically ordered
edge positions so that the three color classes have equal parity. Kempe
chains leaving the ring pair up positions into matchings: planar matchings
are non-crossing; projective ones allow one mutually crossing bundle (the
chains through the crosscap). Colorings are tuples indexed 0..k-1 for ring
positions 1..k; matches use the 1-based positions.
"""

from __future__ import annotations

import os
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional

RingColoring = tuple[int, ...]
Match = tuple[int, int]
Matching = tuple[Match, ...]

COLORS = (0, 1, 2)


# -- parity colorings ---------------------------------------------------------


def orbit_representatives(k: int) -> list[RingColoring]:
    """The least member of every color-permutation orbit of parity
    colorings of k positions, in increasing order.

    A parity coloring's color classes share a parity. The least member of
    an orbit is the one whose colors first appear in the order 0, 1, 2, so
    these are the restricted growth strings that pass the parity test.
    """
    if k < 2:
        raise ValueError("ring size must be at least 2")
    grown: list[tuple[RingColoring, int]] = [((0,), 0)]
    for _ in range(k - 1):
        grown = [
            (kappa + (c,), max(top, c))
            for kappa, top in grown
            for c in range(min(top + 1, 2) + 1)
        ]
    return [
        kappa
        for kappa, _ in grown
        if len({kappa.count(c) % 2 for c in COLORS}) == 1
    ]


# -- matches and matchings ----------------------------------------------------


def overlaps(m1: Match, m2: Match) -> bool:
    """True iff the two matches interleave around the ring order."""
    a, b = sorted(m1)
    c, d = sorted(m2)
    if a == b or c == d:
        raise ValueError("a match joins two distinct positions")
    return a < c < b < d or c < a < d < b


def canonical_matching(pairs: Iterable[Match]) -> Matching:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


# -- Kempe matching tables ----------------------------------------------------

MEMO_LIMIT = 9


@lru_cache(maxsize=None)
def _planar_table(r: int) -> tuple[tuple[Matching, ...], int]:
    """Deduplicated planar matchings of 2r points, plus the raw emit count."""
    if r == 0:
        return ((),), 1
    raw = 0
    out: set[Matching] = set()
    # close {1, 2r} around each smaller matching
    inner, _ = _planar_table(r - 1)
    for match in inner:
        raw += 1
        lifted = tuple((a + 1, b + 1) for a, b in match)
        out.add(canonical_matching(lifted + ((1, 2 * r),)))
    # or split into two blocks at position 2i
    for i in range(1, r):
        left, _ = _planar_table(i)
        right, _ = _planar_table(r - i)
        for m1 in left:
            for m2 in right:
                raw += 1
                shifted = tuple((a + 2 * i, b + 2 * i) for a, b in m2)
                out.add(canonical_matching(m1 + shifted))
    return tuple(sorted(out)), raw


def _crosscap_insertions(r: int) -> tuple[set[Matching], int]:
    """Segment-reversing insertions of a through-crosscap pair."""
    inner, _ = _planar_table(r - 1)
    n = 2 * (r - 1)
    raw = 0
    out: set[Matching] = set()
    for match in inner:
        for a in range(1, n + 1):
            for b in range(a, n + 1):

                def flip(x: int) -> int:
                    if x < a:
                        return x
                    if x < b:
                        return a + b - x
                    return x + 2

                raw += 1
                moved = tuple((flip(x), flip(y)) for x, y in match)
                out.add(canonical_matching(moved + ((a, b + 1),)))
    return out, raw


@lru_cache(maxsize=None)
def _projective_table(r: int) -> tuple[tuple[Matching, ...], int]:
    planar, _ = _planar_table(r)
    inserted, raw = _crosscap_insertions(r)
    return tuple(sorted(inserted | set(planar))), raw + len(planar)


def _table(r: int, kind: str) -> tuple[tuple[Matching, ...], int]:
    if kind == "planar":
        return _planar_table(r)
    if kind == "projective":
        return _projective_table(r)
    raise ValueError("kind must be planar or projective")


def get_kempe(r: int, kind: str, cache_dir: Optional[str] = None) -> set[Matching]:
    """The matchings of 2r ring positions realizable by Kempe chains.

    Planar tables are the non-crossing matchings; projective tables add the
    crosscap insertions. Results outside the precomputed range 1..9 are
    recomputed with a warning. With a cache directory (argument or the
    SNARKLAB_CACHE environment variable) tables are loaded from and saved to
    versioned files.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if r > MEMO_LIMIT:
        warnings.warn(
            f"r={r} is outside the precomputed range 1..{MEMO_LIMIT}; recomputing",
            stacklevel=2,
        )
    resolved = cache_dir or os.environ.get("SNARKLAB_CACHE")
    if resolved:
        path = kempe_cache_path(resolved, r, kind)
        if path.exists():
            return set(load_kempe_table(path, r, kind))
    table, _ = _table(r, kind)
    if resolved:
        save_kempe_table(path, r, kind, table)
    return set(table)


def get_kempe_stats(r: int, kind: str) -> dict[str, int]:
    """Raw emit count of the recursion versus the deduplicated size."""
    table, raw = _table(r, kind)
    return {"raw": raw, "unique": len(table)}


def kempe_cache_path(cache_dir: str, r: int, kind: str) -> Path:
    return Path(cache_dir) / f"kempe_{kind}_{r}.v1.txt"


def save_kempe_table(path: Path, r: int, kind: str, table: Iterable[Matching]) -> None:
    rows = sorted(canonical_matching(m) for m in table)
    lines = [f"kempe {r} {kind} {len(rows)}"]
    for match in rows:
        lines.append(" ".join(f"{a}-{b}" for a, b in match))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def load_kempe_table(path: Path, r: int, kind: str) -> list[Matching]:
    lines = path.read_text().splitlines()
    head = lines[0].split()
    if len(head) != 4 or head[0] != "kempe":
        raise ValueError(f"{path}: bad cache header")
    if int(head[1]) != r or head[2] != kind:
        raise ValueError(f"{path}: cache header does not match request")
    count = int(head[3])
    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) != count:
        raise ValueError(f"{path}: cache row count does not match header")
    out = []
    for line in rows:
        pairs = []
        for token in line.split():
            a, b = token.split("-")
            pairs.append((int(a), int(b)))
        out.append(canonical_matching(pairs))
    return out
