"""How many subsets the C-search of check_reducibility tried.

check_reducibility walks island edge subsets by size, then in
itertools.combinations order, and stops at the first subset that passes.
The number it tried therefore follows from the verdict alone: zero for D,
the size-then-lex rank of the contraction for C, and every subset up to
the cap for none.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterator


def lex_rank(subset: tuple[int, ...], m: int) -> int:
    """0-based position of a sorted subset in combinations(range(m), len)."""
    s = len(subset)
    rank = 0
    prev = -1
    for i, x in enumerate(subset):
        for v in range(prev + 1, x):
            rank += comb(m - 1 - v, s - 1 - i)
        prev = x
    return rank


def subsets_tried(kind: str, contraction: tuple[int, ...], m: int, cap: int) -> int:
    if kind == "D":
        return 0
    if kind == "none":
        return sum(comb(m, s) for s in range(1, cap + 1))
    s = len(contraction)
    return sum(comb(m, t) for t in range(1, s)) + lex_rank(contraction, m) + 1


def subsets_in_order(m: int, count: int) -> Iterator[tuple[int, ...]]:
    """The first count subsets the search visits, in its order."""
    sizes = itertools.count(1)
    out = itertools.chain.from_iterable(
        itertools.combinations(range(m), s) for s in sizes
    )
    return itertools.islice(out, count)
