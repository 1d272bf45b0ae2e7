"""Ring colorings and the matching algebra modelling Kempe chains outside an island.

A ring coloring assigns one of three colors to each of k cyclically ordered
edge positions so that the three color classes have equal parity. Kempe
chains leaving the ring pair up positions into matchings: planar matchings
are non-crossing; projective ones allow one mutually crossing bundle (the
chains through the crosscap). Colorings are tuples indexed 0..k-1 for ring
positions 1..k; matches use the 1-based positions. A coloring's ring code
is the integer sum(kappa[j] * 3**j), which a color walk can keep as it
colors. Matching tables are built by a recursion on first use and kept for
the process.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from typing import Iterable

RingColoring = tuple[int, ...]
Match = tuple[int, int]
Matching = tuple[Match, ...]

COLORS = (0, 1, 2)

# byte translation tables for the six color permutations
COLOR_PERMUTATIONS = [bytes(perm) + bytes(range(3, 256)) for perm in itertools.permutations(COLORS)]


# -- parity colorings ---------------------------------------------------------


@lru_cache(maxsize=None)
def orbit_representatives(k: int) -> list[RingColoring]:
    """The least member of every color-permutation orbit of parity
    colorings of k positions, in increasing order; kept for the process,
    so callers must not change it.

    A parity coloring's color classes share a parity. The least member of
    an orbit is the one whose colors first appear in the order 0, 1, 2, so
    these are the restricted growth strings that pass the parity test.
    They grow depth first, and the last color is the one that evens the
    parities, if that one may come next, so no failing string is kept.
    """
    if k < 2:
        raise ValueError("ring size must be at least 2")
    # by the colors used an odd number of times as bits, the one color
    # that evens the parities: none when they agree, else the odd one out
    evening = (None, 0, 1, 2, 2, 1, 0, None)
    out: list[RingColoring] = []

    def grow(kappa: RingColoring, top: int, odd: int) -> None:
        if len(kappa) == k - 1:
            c = evening[odd]
            if c is not None and c <= top + 1:
                out.append(kappa + (c,))
            return
        for c in range(min(top + 1, 2) + 1):
            grow(kappa + (c,), max(top, c), odd ^ 1 << c)

    grow((0,), 0, 1)
    return out


@lru_cache(maxsize=None)
def orbit_codes(k: int) -> array:
    """One flat array over the 3**k ring codes: at the code of a parity
    coloring, the index of its orbit's representative in
    orbit_representatives(k), and -1 at every other code. One lookup names
    the orbit of any ring coloring, whatever its color names, with no key
    to compare. Built on first use and kept for the process, so callers
    must not change it; 6.4 MB at k = 13, where 398,580 codes name 66,430
    orbits.
    """
    codes = array("i", [-1]) * 3**k
    powers = [3**j for j in range(k)]
    for i, kappa in enumerate(orbit_representatives(k)):
        # a permuted coloring's code: per color, its new name times sums[color]
        sums = [0, 0, 0]
        for c, power in zip(kappa, powers):
            sums[c] += power
        for _, one, two in itertools.permutations(sums):
            codes[one + 2 * two] = i
    return codes


# -- matches and matchings ----------------------------------------------------


def canonical_matching(pairs: Iterable[Match]) -> Matching:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


# -- Kempe matching tables ----------------------------------------------------


@lru_cache(maxsize=None)
def _planar_table(r: int) -> tuple[Matching, ...]:
    """Deduplicated planar matchings of 2r points."""
    if r == 0:
        return ((),)
    out: set[Matching] = set()
    # close {1, 2r} around each smaller matching
    for match in _planar_table(r - 1):
        lifted = tuple((a + 1, b + 1) for a, b in match)
        out.add(canonical_matching(lifted + ((1, 2 * r),)))
    # or split into two blocks at position 2i
    for i in range(1, r):
        for m1 in _planar_table(i):
            for m2 in _planar_table(r - i):
                shifted = tuple((a + 2 * i, b + 2 * i) for a, b in m2)
                out.add(canonical_matching(m1 + shifted))
    return tuple(sorted(out))


def _crosscap_insertions(r: int) -> set[Matching]:
    """Segment-reversing insertions of a through-crosscap pair."""
    n = 2 * (r - 1)
    out: set[Matching] = set()
    for match in _planar_table(r - 1):
        for a in range(1, n + 1):
            for b in range(a, n + 1):

                def flip(x: int) -> int:
                    if x < a:
                        return x
                    if x < b:
                        return a + b - x
                    return x + 2

                moved = tuple((flip(x), flip(y)) for x, y in match)
                out.add(canonical_matching(moved + ((a, b + 1),)))
    return out


@lru_cache(maxsize=None)
def _table(r: int, kind: str) -> tuple[Matching, ...]:
    if kind == "planar":
        return _planar_table(r)
    if kind == "projective":
        return tuple(sorted(_crosscap_insertions(r) | set(_planar_table(r))))
    raise ValueError("kind must be planar or projective")


def get_kempe(r: int, kind: str) -> set[Matching]:
    """The matchings of 2r ring positions realizable by Kempe chains.

    Planar tables are the non-crossing matchings; projective tables add the
    crosscap insertions. Every table comes from the recursion, built on
    first use and kept for the process.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    return set(_table(r, kind))


def get_kempe_stats(r: int, kind: str) -> dict[str, int]:
    """The deduplicated size of the table."""
    return {"unique": len(_table(r, kind))}

