"""Cut coloring classes of 4- and 5-cut sides."""

import random
from functools import lru_cache
from importlib import resources

import pytest
from support import component_product_oracle, fingerprint, fixture_text, graph_record

from snarklab.configurations import ConfigurationError, Island, island_of, parse_configuration
from snarklab.cutanalysis import (
    ASSERTED_LEMMAS,
    DIAGNOSTIC_LEMMAS,
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
from snarklab.families import generate_gamma
from snarklab.graphs import FaceTrace, graph_from_neighbors, subdivide_embedded

# every coloring of a size-4 cut: all four edges alike, or two matched
# pairs, one class per way of pairing the positions
FOUR_CUT_CLASSES = frozenset(
    {
        frozenset({frozenset({0, 1, 2, 3})}),
        frozenset({frozenset({0, 1}), frozenset({2, 3})}),
        frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        frozenset({frozenset({0, 3}), frozenset({1, 2})}),
    }
)


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
        # the parity lemma: every color class of a 5-cut coloring is odd
        parts = side_coloring_set(side, boundary)
        assert parts and all(sorted(map(len, part)) == [1, 1, 3] for part in parts), seed
        checks = verify_LX_lemmas(side_coloring_graph(side, boundary))
        assert all(checks[name] for name in ASSERTED_LEMMAS), (seed, checks)


def test_every_lemma_check_is_asserted_or_diagnostic():
    # a new check must land in exactly one of the two classes
    names = set(verify_LX_lemmas(frozenset()))
    assert not set(ASSERTED_LEMMAS) & set(DIAGNOSTIC_LEMMAS)
    assert set(ASSERTED_LEMMAS) | set(DIAGNOSTIC_LEMMAS) == names
    assert len(ASSERTED_LEMMAS) + len(DIAGNOSTIC_LEMMAS) == len(names)


def test_no_singleton_side_holds_on_sampled_four_cut_sides():
    for seed, (side, boundary) in zip(SWEEP_SEEDS, sampled_sides(4)):
        assert no_singleton_side(side, boundary), seed
        assert len(side_coloring_set(side, boundary)) >= 2, seed


def test_five_cut_gadgets_are_cubic_on_sampled_sides():
    doubled_tripods = 0
    for seed, (side, boundary) in zip(SWEEP_SEEDS, sampled_sides(5)):
        built = {gadget: build_5cut_gadgets(side, boundary, gadget) for gadget in GADGETS}
        assert all(g.is_cubic() for g in built.values()), seed
        assert FaceTrace(built["pentagon"]).chi == 2, seed
        assert FaceTrace(built["pentagram"]).chi == 1, seed
        doubled_tripods += has_parallel_edges(built["tripod"])
    # the tripod chord doubles a side edge on some sampled sides
    assert doubled_tripods


def test_five_cut_gadgets_take_their_positions_from_the_boundary_order():
    # the tripod's trio and the butterfly's anchor are boundary positions
    # 0-2 and 0, so a caller picks others by rotating or reordering it
    rng = random.Random(0)
    for seed, (side, boundary) in zip(SWEEP_SEEDS, sampled_sides(5)):
        rotated = boundary[seed % 5 :] + boundary[: seed % 5]
        reordered = rng.sample(boundary, 5)
        for b in (rotated, reordered):
            tripod = build_5cut_gadgets(side, b, "tripod")
            assert sorted(tripod.neighbors(side.n)) == sorted(b[:3]), seed
            chords = len(tripod.edges_between(b[3], b[4]))
            assert chords == len(side.edges_between(b[3], b[4])) + 1, seed
            butterfly = build_5cut_gadgets(side, b, "butterfly")
            assert sorted(butterfly.neighbors(side.n + 2)) == [b[0], side.n, side.n + 1], seed


def test_butterfly_anchor_rotates_the_boundary():
    # rotating the boundary by a moves the anchor to b[a] and the two
    # spans to the positions after it
    side, boundary = random_planar_side(random.Random(SWEEP_SEEDS[0]), 5)
    b = list(boundary)
    u, v, w = side.n, side.n + 1, side.n + 2
    records = set()
    for a in range(5):
        g = build_5cut_gadgets(side, b[a:] + b[:a], "butterfly")
        r = [b[(a + i) % 5] for i in range(5)]
        assert sorted(g.neighbors(u)) == sorted([r[1], r[2], w]), a
        assert sorted(g.neighbors(v)) == sorted([r[3], r[4], w]), a
        assert sorted(g.neighbors(w)) == sorted([r[0], u, v]), a
        records.add(repr(graph_record(g)))
    assert len(records) == 5


@pytest.mark.parametrize(
    "gadget,position,message",
    [
        ("butterfly", "repeat", "degree-2 vertices once each"),
        ("butterfly", "inner", "degree-2 vertices once each"),
        ("butterfly", "short", "expected 5 boundary vertices"),
        ("tripod", "long", "expected 5 boundary vertices"),
        ("tripod", "past", "degree-2 vertices once each"),
        ("tripod", "negative", "degree-2 vertices once each"),
        ("hexagon", "given", "unknown gadget 'hexagon'"),
    ],
)
def test_five_cut_gadgets_reject_positions_off_the_cut(gadget, position, message):
    # every position must name a distinct degree-2 vertex of the side
    side, boundary = random_planar_side(random.Random(SWEEP_SEEDS[0]), 5)
    b = list(boundary)
    inner = next(x for x in range(side.n) if side.degree(x) == 3)
    bad = {
        "repeat": b[:4] + [b[0]],
        "inner": b[:4] + [inner],
        "short": b[:4],
        "long": b + [b[0]],
        "past": b[:4] + [side.n],
        "negative": [-1] + b[1:],
        "given": b,
    }[position]
    with pytest.raises(ValueError, match=message):
        build_5cut_gadgets(side, bad, gadget)


def test_pentagon_gadget_refuses_a_projective_side():
    # a gamma member keeps the crosscap inside its ring, so no leaf
    # linking closes it into a plane map
    member = generate_gamma(3, 5)[0]
    with pytest.raises(ValueError) as exc:
        build_5cut_gadgets(member.graph, member.boundary, "pentagon")
    assert str(exc.value) == "no leaf linking matches the requested surface"


def test_pentagon_gadget_refuses_boundary_vertices_off_one_face():
    # the cube with five edges subdivided once: every face of the cube has
    # four edges, so no face holds all five new vertices
    cube = graph_from_neighbors(
        [[1, 3, 4], [0, 5, 2], [1, 6, 3], [2, 7, 0], [0, 7, 5], [4, 6, 1], [5, 7, 2], [6, 4, 3]]
    )
    side, _ = subdivide_embedded(cube, dict.fromkeys((0, 3, 5, 8, 11), 1))
    twos = [v for v in range(side.n) if side.degree(v) == 2]
    assert len(twos) == 5
    with pytest.raises(ValueError) as exc:
        build_5cut_gadgets(side, twos, "pentagon")
    assert str(exc.value) == "boundary vertices do not share a face in order"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda side, b: side_coloring_set(side, b[:3]), "cut size must be 4 or 5"),
        (side_coloring_graph, "coloring graphs need a cut of size 5"),
        (lambda side, b: random_planar_side(random.Random(0), 3), "cut size must be 4 or 5"),
    ],
)
def test_cut_size_checks_refuse_other_sizes(call, message):
    side, boundary = sampled_sides(4)[0]
    with pytest.raises(ValueError, match=message):
        call(side, boundary)


def test_callers_trace_each_map_once(monkeypatch):
    # random_planar_cubic traces K4 and then each grown map once, the
    # grown map's chi check being the next join's face pick; the pentagon
    # gadget traces its side once, then each leaf linking it tries once;
    # and a .conf fixture is traced once as it is parsed, then the
    # configuration and its completion once each as it is completed, and
    # the completion once more as its island is read
    traced = []
    init = FaceTrace.__init__

    def counted_init(trace, g):
        traced.append(g.m)
        init(trace, g)

    sides = sampled_sides(5)
    monkeypatch.setattr(FaceTrace, "__init__", counted_init)
    for k in range(8):
        traced.clear()
        random_planar_cubic(random.Random(k), k)
        assert len(traced) == k + 1, k
    tries = set()
    for side, boundary in sides:
        traced.clear()
        build_5cut_gadgets(side, boundary, "pentagon")
        tries.add(len(traced) - 1)
        assert traced == [side.m] + [side.m + 10] * (len(traced) - 1)
    # some sides close the pentagon on the first linking, some on the second
    assert tries == {1, 2}
    completed = 0
    for entry in sorted((resources.files("snarklab") / "data").iterdir(), key=lambda p: p.name):
        if not entry.name.endswith(".conf"):
            continue
        traced.clear()
        try:
            island_of(parse_configuration(fixture_text(entry.name)))
        except ConfigurationError:
            continue
        assert len(traced) == 4, entry.name
        completed += 1
    assert completed == 4


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


# sha256 over the sampled sides of what the cut-side checks report: per
# 5-cut side its sorted singleton pairs and sorted lemma checks, per 4-cut
# side its sorted class set and the no-singleton verdict; pinned from the
# checks that read the class set through wrapper types
CUT_SIDE_FINGERPRINTS = {
    5: "306536ff3f0b6573397757812f569944b52d2b5f6a062f6d5cfd52b1093b2e3e",
    4: "f43b6923014db2b88a6520a6c2522884aef73453d8c41b0239146b32e10d75c4",
}


def sorted_classes(classes):
    return sorted(sorted(sorted(c) for c in part) for part in classes)


@pytest.mark.parametrize("k", sorted(CUT_SIDE_FINGERPRINTS))
def test_cut_side_check_fingerprints(k):
    if k == 5:
        records = (
            (sorted(L), sorted(verify_LX_lemmas(L).items()))
            for L in (side_coloring_graph(side, b) for side, b in sampled_sides(5))
        )
    else:
        records = (
            (sorted_classes(side_coloring_set(side, b)), bool(no_singleton_side(side, b)))
            for side, b in sampled_sides(4)
        )
    assert fingerprint(records) == CUT_SIDE_FINGERPRINTS[k]
