"""Parity colorings, matching overlap algebra, Kempe tables, theta-fitting."""

import collections
import itertools
import math
import random

import pytest
from support import (
    fit_neighbors,
    is_planar_matching,
    is_projective_matching,
    orbit_index,
    overlaps,
    parity_classes,
    parity_colorings,
    ring_code,
    ring_sides,
    theta_fit,
)

from snarklab.cutanalysis import random_planar_cubic
from snarklab.cuts import enumerate_cyclic_cuts
from snarklab.graphs import three_edge_color
from snarklab.reducibility import RING_LIMIT
from snarklab.rings import (
    COLORS,
    canonical_matching,
    get_kempe,
    get_kempe_stats,
    orbit_codes,
    orbit_representatives,
)


def perfect_matchings(points):
    """All perfect matchings of an ordered point list."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i in range(len(rest)):
        pair = (first, rest[i])
        for sub in perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield (pair,) + sub


# -- parity colorings ---------------------------------------------------------


def test_parity_counts_and_classes():
    assert len(parity_colorings(2)) == 3
    assert len(parity_colorings(4)) == 21
    assert len(parity_colorings(5)) == 60
    assert len(parity_classes(2)) == 1
    assert len(parity_classes(4)) == 4
    assert len(parity_classes(5)) == 10


def test_parity_count_matches_multinomial_formula():
    for k in range(2, 10):
        expected = 0
        for n0 in range(k + 1):
            for n1 in range(k + 1 - n0):
                n2 = k - n0 - n1
                if n0 % 2 == n1 % 2 == n2 % 2:
                    expected += math.comb(k, n0) * math.comb(k - n0, n1)
        assert len(parity_colorings(k)) == expected


def test_parity_classes_partition_the_colorings():
    for k in (4, 5, 6):
        classes = parity_classes(k)
        flattened = [kappa for cls in classes for kappa in cls]
        assert sorted(flattened) == sorted(parity_colorings(k))
        for cls in classes:
            for perm in itertools.permutations((0, 1, 2)):
                for kappa in cls:
                    assert tuple(perm[c] for c in kappa) in cls


def test_parity_rejects_tiny_ring():
    with pytest.raises(ValueError):
        parity_colorings(1)
    with pytest.raises(ValueError):
        orbit_representatives(1)


def test_representatives_are_the_least_orbit_members():
    for k in range(2, 11):
        classes = parity_classes(k)
        assert orbit_representatives(k) == [cls[0] for cls in classes], k
        assert {len(cls) for cls in classes} <= {3, 6}, k


def first_appearance(kappa):
    """kappa with its colors renamed 0, 1, 2 in order of first appearance."""
    names = {}
    for c in kappa:
        names.setdefault(c, len(names))
    return tuple(names[c] for c in kappa)


def test_first_appearance_relabelling_gives_the_orbit_representative():
    # A ring coloring finds its orbit's entry in orbit_representatives by
    # one relabelling, without building the orbit
    for k in range(2, 11):
        reps = orbit_representatives(k)
        hits = set()
        for kappa in parity_colorings(k):
            least = min(tuple(perm[c] for c in kappa) for perm in itertools.permutations(range(3)))
            assert first_appearance(kappa) == least, kappa
            hits.add(least)
        assert hits == set(reps), k


def test_orbit_index_names_the_first_appearance_representative():
    # Over all 3^k tuples: the index holds exactly the parity colorings,
    # each mapped to the position of its first-appearance relabelling in
    # orbit_representatives
    for k in range(2, 11):
        position = {kappa: i for i, kappa in enumerate(orbit_representatives(k))}
        index = orbit_index(k)
        parity = set(parity_colorings(k))
        for kappa in itertools.product((0, 1, 2), repeat=k):
            if kappa in parity:
                assert index[kappa] == position[first_appearance(kappa)], kappa
            else:
                assert kappa not in index, kappa
        assert len(index) == len(parity), k


def test_orbit_codes_agree_with_orbit_index():
    # Over all 3^k codes: the entry at a parity coloring's code is the
    # index's orbit, and -1 at every other code
    for k in range(2, 11):
        codes = orbit_codes(k)
        index = orbit_index(k)
        assert len(codes) == 3**k
        for kappa in itertools.product((0, 1, 2), repeat=k):
            assert codes[ring_code(kappa)] == index.get(kappa, -1), kappa


# -- overlap predicate --------------------------------------------------------


def test_overlap_examples():
    assert overlaps((1, 3), (2, 4))
    assert not overlaps((1, 2), (3, 4))
    assert not overlaps((1, 4), (2, 3))
    assert not overlaps((1, 2), (2, 3))
    assert overlaps((2, 4), (1, 3))


def test_overlap_rejects_degenerate_match():
    with pytest.raises(ValueError):
        overlaps((2, 2), (1, 3))


# -- Kempe tables -------------------------------------------------------------


def test_planar_tables_match_noncrossing_oracle():
    sizes = {}
    for r in range(1, 6):
        oracle = {
            canonical_matching(m)
            for m in perfect_matchings(tuple(range(1, 2 * r + 1)))
            if is_planar_matching(m)
        }
        got = get_kempe(r, "planar")
        assert got == oracle
        sizes[r] = len(got)
    assert sizes == {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}


def test_projective_tables_match_definition_oracle():
    for r in range(1, 5):
        oracle = {
            canonical_matching(m)
            for m in perfect_matchings(tuple(range(1, 2 * r + 1)))
            if is_projective_matching(m)
        }
        assert get_kempe(r, "projective") == oracle


def test_projective_r2_contains_the_crossing_pair():
    table = get_kempe(2, "projective")
    assert get_kempe(2, "planar") < table
    assert ((1, 3), (2, 4)) in table


def test_planar_subset_of_projective():
    # every r that a ring under the limit can match; the projective C-search
    # resumes a planar one only while this holds
    for r in range(1, RING_LIMIT // 2 + 1):
        assert get_kempe(r, "planar") <= get_kempe(r, "projective")


def test_table_members_satisfy_their_invariants():
    for r in range(1, 6):
        for m in get_kempe(r, "planar"):
            assert is_planar_matching(m)
        for m in get_kempe(r, "projective"):
            assert is_projective_matching(m)


def test_generation_emits_duplicates_that_are_removed():
    stats = get_kempe_stats(3, "planar")
    assert stats == {"unique": 5}


def test_kempe_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        get_kempe(0, "planar")
    with pytest.raises(ValueError):
        get_kempe(2, "spherical")


def test_planar_r10_table_has_catalan_members():
    r = 10
    table = get_kempe(r, "planar")
    catalan = math.comb(2 * r, r) // (r + 1)
    assert len(table) == catalan


# -- the planar tables against real Kempe chains --------------------------------


def chain_matchings(g, coloring, inside, ring):
    """Per theta with a non-theta ring edge, the matching of those edges,
    numbered from 1 in ring order, that the chains of the other two colors
    make through g outside the side, by walking each chain out from every
    such edge until it crosses the ring again, so each chain is met from
    both ends."""
    at = {(v, coloring[e]): e for e in range(g.m) for v in g.endpoints(e)}
    for theta in COLORS:
        pos = {c: j for j, c in enumerate((c for c in ring if coloring[c] != theta), 1)}
        pairs = set()
        for c in pos:
            e, v = c, next(v for v in g.endpoints(c) if v not in inside)
            while True:
                e = at[v, 3 - theta - coloring[e]]
                if e in pos:
                    break
                v = sum(g.endpoints(e)) - v
            pairs.add(tuple(sorted((pos[c], pos[e]))))
        if pos:
            yield canonical_matching(pairs)


def test_kempe_chains_outside_a_planar_side_realize_planar_matchings():
    # RSST's consistency condition (JCTB 70, 1997) on plane hosts: outside
    # a side whose ring is one face of it, the chains of the two colors
    # other than theta pair up the non-theta ring edges without crossing,
    # so the matching lies in the planar table, whichever theta and host
    # coloring, over 3,134 sides. Dropping any one of the five r = 3
    # matchings from the table fails 153-232 of the 9,340 checks.
    sides, checks = 0, collections.Counter()
    for seed in range(12):
        for expansions in (4, 6, 8):
            g = random_planar_cubic(random.Random(seed), expansions)
            coloring = three_edge_color(g)
            for inside, ring, _, _ in ring_sides(g, 7):
                sides += 1
                for matching in chain_matchings(g, coloring, inside, ring):
                    assert matching in get_kempe(len(matching), "planar"), (seed, expansions, ring, matching)
                    checks[len(ring)] += 1
    assert sides == 3134 and set(checks) == {3, 4, 5, 6, 7}, (sides, checks)


# -- tables come from the recursion only --------------------------------------


def test_a_stale_table_file_on_disk_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("SNARKLAB_CACHE", str(tmp_path))
    (tmp_path / "kempe_planar_2.v1.txt").write_text("kempe 2 planar 1\n1-2 3-4\n")
    assert get_kempe(2, "planar") == {((1, 2), (3, 4)), ((1, 4), (2, 3))}


# -- theta fitting ------------------------------------------------------------


def test_theta_fit_examples():
    assert theta_fit((2, 2, 2, 2), (), 2)
    kappa = (0, 0, 1, 1)
    assert theta_fit(kappa, (((1, 2), 1), ((3, 4), 1)), 2)
    assert not theta_fit(kappa, (((1, 3), 1), ((2, 4), 1)), 2)
    assert theta_fit(kappa, (((1, 3), -1), ((2, 4), -1)), 2)


def test_fit_neighbors_empty_matching():
    assert fit_neighbors((2, 2, 2, 2), (), 2) == {(2, 2, 2, 2)}


def test_fit_neighbors_worked_example():
    kappa = (0, 0, 1, 1)
    matches = (((1, 2), 1), ((3, 4), 1))
    got = fit_neighbors(kappa, matches, 2)
    assert got == {(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)}
    assert kappa in got


def test_fit_neighbors_symmetric():
    kappa = (0, 0, 1, 1)
    matches = (((1, 2), 1), ((3, 4), 1))
    for other in fit_neighbors(kappa, matches, 2):
        assert kappa in fit_neighbors(other, matches, 2)


def test_fit_neighbors_requires_fit():
    with pytest.raises(ValueError):
        fit_neighbors((0, 1, 0, 1), (((1, 2), 1), ((3, 4), 1)), 2)
    with pytest.raises(ValueError):
        fit_neighbors((0, 0, 0, 2, 2), (((1, 2), 1), ((3, 5), 1)), 1)


def test_fit_neighbors_size_is_two_to_the_pairs():
    rng = random.Random(5)
    for r in (1, 2, 3):
        for matching in sorted(get_kempe(r, "planar")):
            kappa = [0] * (2 * r)
            signed = []
            for a, b in matching:
                c = rng.choice((0, 1))
                kappa[a - 1] = kappa[b - 1] = c
                signed.append(((a, b), 1))
            got = fit_neighbors(tuple(kappa), tuple(signed), 2)
            assert len(got) == 2 ** r
