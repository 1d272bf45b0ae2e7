"""Checks the subset-count formula against brute enumeration.

Run with: PYTHONPATH=src python3 -m pytest -q bench/test_rank.py
"""

import itertools
from math import comb

import pytest

from rank import lex_rank, subsets_in_order, subsets_tried


def brute_tried(contraction, m):
    for n, xs in enumerate(
        itertools.chain.from_iterable(itertools.combinations(range(m), s) for s in range(1, m + 1)),
        start=1,
    ):
        if xs == contraction:
            return n
    raise AssertionError("subset not found")


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_rank_matches_enumeration_everywhere(m):
    for s in range(1, m + 1):
        for xs in itertools.combinations(range(m), s):
            assert subsets_tried("C", xs, m, s) == brute_tried(xs, m)


def test_pinned_ring11_member():
    assert subsets_tried("C", (0, 9, 15), 26, 4) == 521
    assert brute_tried((0, 9, 15), 26) == 521


def test_lex_rank_is_position_in_combinations():
    for i, xs in enumerate(itertools.combinations(range(9), 4)):
        assert lex_rank(xs, 9) == i


def test_d_and_none_counts():
    assert subsets_tried("D", (), 17, 5) == 0
    assert subsets_tried("none", (), 17, 5) == sum(comb(17, s) for s in range(1, 6))


def test_subsets_in_order_ends_at_the_contraction():
    tried = subsets_tried("C", (0, 9, 15), 26, 4)
    order = list(subsets_in_order(26, tried))
    assert len(order) == 521
    assert order[-1] == (0, 9, 15)
    assert order[0] == (0,)
