"""Cut coloring classes of 4- and 5-cut sides."""

import random

from support import component_product_oracle

from snarklab.configurations import Island
from snarklab.cutanalysis import (
    FOUR_CUT_CLASSES,
    partition_by_color,
    random_planar_side,
    side_coloring_set,
)
from snarklab.graphs import graph_from_neighbors


def test_five_cycle_side_realizes_the_adjacent_singleton_partitions():
    # A coloring of the 5-cycle with stubs has two singleton color classes,
    # and they sit on cyclically adjacent positions.
    side = graph_from_neighbors([[4, 1], [0, 2], [1, 3], [2, 4], [3, 0]])
    expected = set()
    for i in range(5):
        a, b = i, (i + 1) % 5
        rest = frozenset(range(5)) - {a, b}
        expected.add(frozenset({frozenset({a}), frozenset({b}), rest}))
    assert side_coloring_set(side, (0, 1, 2, 3, 4)) == expected


def test_four_cut_side_matches_component_product_oracle():
    for seed in range(5):
        side, boundary = random_planar_side(random.Random(seed), 4)
        expected = {
            partition_by_color(kappa)
            for kappa in component_product_oracle(Island(side, boundary))
        }
        got = side_coloring_set(side, boundary)
        assert got == expected, seed
        assert got and got <= FOUR_CUT_CLASSES, seed
