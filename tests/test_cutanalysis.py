"""Cut coloring classes of 4- and 5-cut sides."""

import random
from functools import lru_cache

import pytest
from support import component_product_oracle, fingerprint, graph_record

from snarklab.configurations import Island
from snarklab.cutanalysis import (
    ASSERTED_LEMMAS,
    FOUR_CUT_CLASSES,
    GADGETS,
    build_4cut_variants,
    build_5cut_gadgets,
    no_singleton_side,
    partition_by_color,
    random_planar_cubic,
    random_planar_side,
    side_coloring_graph,
    side_coloring_set,
    verify_LX_lemmas,
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


SWEEP_SEEDS = range(150)


@lru_cache(maxsize=None)
def sampled_sides(k):
    return [random_planar_side(random.Random(s), k) for s in SWEEP_SEEDS]


def has_parallel_edges(g):
    pairs = [tuple(sorted(p)) for p in g.edge_list]
    return len(set(pairs)) < len(pairs)


def test_asserted_lemmas_hold_on_sampled_five_cut_sides():
    for seed, (side, boundary) in zip(SWEEP_SEEDS, sampled_sides(5)):
        checks = verify_LX_lemmas(side_coloring_graph(side, boundary))
        assert all(checks[name] for name in ASSERTED_LEMMAS), (seed, checks)


def test_no_singleton_side_holds_on_sampled_four_cut_sides():
    for seed, (side, boundary) in zip(SWEEP_SEEDS, sampled_sides(4)):
        check = no_singleton_side(side, boundary)
        assert check.ok and check.classes >= 2, seed


def test_five_cut_gadgets_are_cubic_on_sampled_sides():
    doubled_tripods = 0
    for seed, (side, boundary) in zip(SWEEP_SEEDS, sampled_sides(5)):
        built = {gadget: build_5cut_gadgets(side, boundary, gadget) for gadget in GADGETS}
        assert all(g.is_cubic() for g in built.values()), seed
        assert built["pentagon"].euler_characteristic() == 2, seed
        assert built["pentagram"].euler_characteristic() == 1, seed
        doubled_tripods += has_parallel_edges(built["tripod"])
    # the tripod chord doubles a side edge on some sampled sides
    assert doubled_tripods


def test_four_cut_variants_are_cubic_on_sampled_sides():
    doubled = 0
    for seed, (side, boundary) in zip(SWEEP_SEEDS, sampled_sides(4)):
        variants = build_4cut_variants(side, boundary)
        assert len(variants) == 6, seed
        assert all(g.is_cubic() for g in variants), seed
        doubled += any(has_parallel_edges(g) for g in variants[:3])
    # a chord doubles a side edge on some sampled sides
    assert doubled


# sha256 of graph_record over random_planar_cubic(Random(s), expansions)
# for s = 0..19, pinned from the face join that built and traced every
# candidate slot pair; the benchmark's cut inputs are drawn the same way
CUBIC_FINGERPRINTS = {
    4: "414acb65928c2445e14a9b7f597733029829d6f42aabc7bc5332029a3f2f284c",
    8: "768f95a73b9c47045ca57b84112577b36534079be01d15c76937894e4e5317e5",
}


@pytest.mark.parametrize("expansions", sorted(CUBIC_FINGERPRINTS))
def test_random_planar_cubic_fingerprints(expansions):
    graphs = (random_planar_cubic(random.Random(s), expansions) for s in range(20))
    assert fingerprint(graph_record(g) for g in graphs) == CUBIC_FINGERPRINTS[expansions]
