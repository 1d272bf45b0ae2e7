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


# sha256 of graph_record plus boundary over random_planar_side(Random(s), k)
# for s in SWEEP_SEEDS, and of graph_record over the completions of those
# sides, pinned from the removal that rebuilt each side from neighbour
# rows and the leaf placement that built and traced every candidate slot
SIDE_FINGERPRINTS = {
    4: "f43c15541df94b495aa7d147b4397b27bfcaac5716ea5ddcbfbb05d1ad466695",
    5: "1c8e6f95fcfa92c86357f7960c64955a3ee9ecfe86ee9bbe4c81bdd11a0a63d2",
}
COMPLETION_FINGERPRINTS = {
    "4-cut variants": "f18f4fb4a3d58b8e97ada18ef8c8e533e253323c8675be02b70686117330066c",
    "tripod": "e5ede23a1cc5af1cb0bd6e59025388823295d024ac80b05e24512352bf37f79a",
    "butterfly": "aa33f7dda3e23c92fdbdc9f03bfe14c5f4acfc6a59e2f0923b0fde0925d8d0e2",
    "pentagon": "b5016533b0d452bdb76ec5a30ceea234882169aa3400bf2c0a854bdd4b491096",
    "pentagram": "e32a970f033d74b1d49d218cb576aedd42fd387f6c2fe14f8e724c414e32cccb",
}


@pytest.mark.parametrize("k", sorted(SIDE_FINGERPRINTS))
def test_random_planar_side_fingerprints(k):
    records = (graph_record(side) + (boundary,) for side, boundary in sampled_sides(k))
    assert fingerprint(records) == SIDE_FINGERPRINTS[k]


@pytest.mark.parametrize("name", COMPLETION_FINGERPRINTS)
def test_completion_fingerprints(name):
    if name == "4-cut variants":
        graphs = (g for side, b in sampled_sides(4) for g in build_4cut_variants(side, b))
    else:
        graphs = (build_5cut_gadgets(side, b, name) for side, b in sampled_sides(5))
    assert fingerprint(graph_record(g) for g in graphs) == COMPLETION_FINGERPRINTS[name]
