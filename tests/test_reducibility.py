"""Ring coloring levels, D/C verdicts, and cut-down islands."""

import collections
import gc
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import weakref
from functools import lru_cache
from importlib import resources

import networkx
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from support import (
    Cut,
    Extender,
    bridge_free_graph,
    c_search_oracle,
    component_product_oracle,
    contraction_edges,
    cut_down,
    cut_down_graph,
    densest_first_oracle,
    desk_islands,
    fit_levels,
    fingerprint,
    fit_neighbors,
    first_edge_color_walk,
    fixture_text,
    level_of,
    loss_counts,
    orbit_index,
    parity_colorings,
    plain_c_search,
    recursive_color_walk,
    ring_code,
    ring_sides,
    signed_lift,
    suppress_chains,
    template_oracle,
    walk_hits,
    walk_nodes,
    walkable,
    with_stubs,
)

import snarklab.configurations
import snarklab.graphs
import snarklab.reducibility
from snarklab.configurations import (
    ConfigurationError,
    Island,
    free_completion,
    island_of,
    parse_configuration,
    validate_island,
)
from snarklab.cutanalysis import random_planar_cubic, random_planar_side
from snarklab.families import generate_delta6, generate_gamma, generate_pi, generate_pi_hat_3_6
from snarklab.graphs import (
    Graph,
    canonical_key,
    edge_components,
    graph_from_neighbors,
    petersen,
    walk_conflicts,
)
from snarklab.reducibility import (
    RING_LIMIT,
    ColorableSet,
    ReducibilityVerdict,
    SearchStats,
    _bridge_free,
    _cut_down,
    _densest_first,
    _lift_table,
    _lost,
    _residual_test,
    _subset_tree,
    _template,
    admissible_contraction,
    check_reducibility,
    maximal_consistent_residual,
    ring_extension_oracle,
)
from snarklab.rings import COLORS, get_kempe, orbit_representatives


@lru_cache(maxsize=None)
def islands():
    return dict(desk_islands())


@lru_cache(maxsize=None)
def decomposition(name, kind):
    return maximal_consistent_residual(islands()[name], kind)


@lru_cache(maxsize=None)
def conf_islands():
    """The island of every data/*.conf fixture that has one, by file name."""
    names = sorted(
        p.name for p in resources.files("snarklab").joinpath("data").iterdir() if p.name.endswith(".conf")
    )
    out = {}
    for name in names:
        try:
            out[name] = island_of(free_completion(parse_configuration(fixture_text(name))))
        except ConfigurationError:
            continue
    return out


@lru_cache(maxsize=None)
def oracle(name):
    return frozenset(ring_extension_oracle(islands()[name]))


def edge_between(g, u, w):
    es = [e for e in range(g.m) if set(g.endpoints(e)) == {u, w}]
    assert len(es) == 1
    return es[0]


# -- the level decomposition -------------------------------------------------


def test_level_zero_equals_extension_oracle_everywhere():
    # Two independent routes: level 0 comes from one pinned walk over the
    # island's colorings, closed under color permutation; the support
    # extender decides each parity coloring by backtracking with the stub
    # colors imposed. Both kinds share level 0.
    for name, isl in islands().items():
        extender = Extender(isl)
        expected = {
            kappa
            for kappa in parity_colorings(len(isl.boundary))
            if extender.extends(kappa)
        }
        for kind in ("planar", "projective"):
            assert decomposition(name, kind).levels[0] == expected, (name, kind)


def test_second_pin_halves_the_level0_walk(monkeypatch):
    # On every .conf fixture that has an island, the uncut walk meets each
    # color orbit of the stubbed island's colorings once, against twice for
    # the walk with the first edge pinned only, and level 0 is the same.
    # That holds in slot order and in the densest-first order level 0
    # walks, whose second slot always meets its first.
    isls = conf_islands()
    cuts = {name: cut_down(_template(isl), ()) for name, isl in isls.items()}
    assert sorted(cuts) == ["bowtie.conf", "conf1.conf", "triangle555.conf", "wheel5.conf"]

    def leaves_and_level0():
        out = {}
        for name, cut in cuts.items():
            counts = []
            for order in (cut.free, _densest_first(cut.n, cut.pairs, cut.free)):
                count = [0]

                def tally(kappa):
                    count[0] += 1
                    return False

                snarklab.reducibility.color_walk(cut.n, cut.pairs, order, tally, cut.weight, cut.base)
                counts.append(count[0])
            out[name] = counts, ring_extension_oracle(isls[name])
        return out

    pinned = leaves_and_level0()
    monkeypatch.setattr(snarklab.reducibility, "color_walk", first_edge_color_walk)
    first_only = leaves_and_level0()
    for name in cuts:
        (slot, dense), level0 = pinned[name]
        assert slot > 0, name
        assert dense == slot, name
        assert first_only[name][0] == [2 * slot, 2 * dense], name
        assert first_only[name][1] == level0, name


@lru_cache(maxsize=None)
def planner_islands():
    """Every .conf fixture island, pi(3,7) member and Delta6 member."""
    return tuple(conf_islands().values()) + pi_islands(3, 7) + tuple(m.island() for m in generate_delta6())


@st.composite
def slot_lists(draw):
    """(n, pairs, order): pairs on n vertices with holes, parallel
    entries and a loop mixed in, and order a shuffled part of its ids."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.none() | st.tuples(vertex, vertex), max_size=16))
    if pairs and draw(st.booleans()):
        pairs += [pairs[draw(st.integers(0, len(pairs) - 1))]]
    v = draw(vertex)
    pairs += [(v, v)]
    ids = draw(st.permutations(range(len(pairs))))
    return n, pairs, ids[: draw(st.integers(0, len(ids)))]


@settings(max_examples=300, deadline=None)
@given(slot_lists())
@example((1, [(0, 0), (0, 0), (0, 0)], [0, 1, 2]))
@example((3, [(0, 1), None, (1, 2), (0, 1), (1, 1)], [4, 3, 1, 2, 0]))
@example((6, [(0, 1), (0, 0), (1, 1), (0, 5)], [0, 1, 2, 3]))
def test_densest_first_matches_max_adjacency_oracle(case):
    # Every live entry of order comes out once; holes and ids outside
    # order do not. A loop at a busy vertex scores twice its neighbours,
    # the most any slot can, and a taken loop counts twice for each of
    # them: in the last example slot 3 beats the earlier loop 2 only
    # because the taken loop 1 counts twice for it.
    n, pairs, order = case
    got = _densest_first(n, pairs, order)
    assert got == densest_first_oracle(pairs, order)
    assert sorted(got) == sorted(e for e in order if pairs[e])


def test_densest_first_matches_oracle_on_templates():
    # The walked slots of each template, forced stubs left out.
    for t in map(_template, planner_islands()):
        got = _densest_first(t.n, t.slots, t.free)
        assert got == densest_first_oracle(t.slots, t.free)
        assert sorted(got) == [r for r in t.free if t.slots[r]]
        assert len(got) < sum(1 for ends in t.slots if ends)


def test_template_matches_its_two_pass_reference():
    # The one-pass layout against the one it replaced, on every rows
    # island, every .conf island and three ring-13 members. Equality of
    # the whole record covers rank, merge and far too, which only the
    # C-search reads.
    ring13 = generate_pi(5, 13)
    cases = [isl for row, _, _ in ROWS for isl in row_islands(row)]
    cases += list(conf_islands().values()) + [ring13[i].island() for i in (0, 900, 1216)]
    assert len(cases) == 285
    for isl in cases:
        assert _template(isl) == template_oracle(isl)


def test_densest_first_halves_the_level0_walk_nodes(monkeypatch):
    # Exhaustive walks over every template: the DFS nodes, counted the
    # same way on any host, in slot order against the order that level 0
    # and ring_extension_oracle hand the walk. A planner, slot layout or
    # caller that gives back the saving fails here.
    isls = planner_islands()
    assert len(isls) == 69
    walked = []
    monkeypatch.setattr(snarklab.reducibility, "color_walk", lambda n, pairs, order, *rest: walked.append(order))
    for isl in isls:
        maximal_consistent_residual(isl, "planar")
        ring_extension_oracle(isl)
    templates = list(map(_template, isls))
    assert walked[::2] == walked[1::2]
    slot = sum(walk_nodes(t.n, t.slots, t.free) for t in templates)
    dense = sum(walk_nodes(t.n, t.slots, order) for t, order in zip(templates, walked[::2]))
    assert (slot, dense) == (30854, 13750)
    assert dense < slot


def test_levels_partition_the_parity_colorings():
    for name, isl in islands().items():
        phi = set(parity_colorings(len(isl.boundary)))
        for kind in ("planar", "projective"):
            cs = decomposition(name, kind)
            seen = set()
            for level in cs.levels:
                assert level, (name, kind, "empty level stored")
                assert not (seen & level), (name, kind, "levels overlap")
                seen |= level
            assert not (seen & cs.residual), (name, kind)
            assert seen | cs.residual == phi, (name, kind)


def test_levels_are_closed_under_color_permutation():
    for name in ("conf1", "edge55", "ring5_cycle", "diamond_tip6"):
        for kind in ("planar", "projective"):
            cs = decomposition(name, kind)
            for part in cs.levels + (cs.residual,):
                for perm in itertools.permutations(COLORS):
                    assert {tuple(perm[c] for c in k) for k in part} == set(part)


def test_planar_residual_lies_within_projective_residual():
    # Projective matchings extend the planar table, so absorption is harder
    # and the leftover set can only grow.
    for name in islands():
        assert (
            decomposition(name, "planar").residual
            <= decomposition(name, "projective").residual
        ), name


# sha256 over (name, kind, (max_level, levels, residual)), each set sorted,
# for every .conf fixture island, every pi(3,7) member and every Delta6
# member, under both kinds
DECOMPOSITION_FINGERPRINT = "8d94540cb95a08326416502dce1e59a1bc2a94652053ba75badeb57b785a6cc5"


def test_decomposition_fingerprint():
    cases = list(conf_islands().items())
    cases += [(f"pi(3,7)#{i}", isl) for i, isl in enumerate(pi_islands(3, 7))]
    cases += [(f"delta6#{i}", m.island()) for i, m in enumerate(generate_delta6())]
    assert len(cases) == 69
    records = []
    for kind in ("planar", "projective"):
        for name, isl in cases:
            cs = maximal_consistent_residual(isl, kind)
            records.append((name, kind, (cs.max_level, [sorted(level) for level in cs.levels], sorted(cs.residual))))
    assert fingerprint(records) == DECOMPOSITION_FINGERPRINT


# sha256 over the rep_level of every 76th pi(5,13) member, planar
RING13_REP_LEVEL_FINGERPRINT = "de0ac248f392fa3b03ecc29dc52ac8971f3aed9ac79cf1a585cf403269ab594e"


@pytest.mark.heavy
def test_ring13_sample_decomposition_fingerprint():
    members = generate_pi(5, 13)[::76]
    assert len(members) == 24
    records = [maximal_consistent_residual(m.island(), "planar").rep_level for m in members]
    assert fingerprint(records) == RING13_REP_LEVEL_FINGERPRINT


def test_residual_index_test_matches_the_residual():
    # The C-search reads the residual through the orbit codes; at the ring
    # code of every parity coloring that agrees with membership in the
    # expanded set.
    inside = outside = 0
    for name, isl in conf_islands().items():
        for kind in ("planar", "projective"):
            cs = maximal_consistent_residual(isl, kind)
            in_residual = _residual_test(cs)
            for kappa in parity_colorings(cs.ring_size):
                hit = kappa in cs.residual
                assert bool(in_residual(ring_code(kappa))) == hit, (name, kind, kappa)
                inside += hit
                outside += not hit
    assert inside and outside


def test_check_reducibility_builds_no_coloring_set(monkeypatch):
    # The verdict path never permutes colorings and never expands a level
    # or the residual to a coloring set; a D, a C and a none fixture keep
    # their verdicts and stats.
    def refuse(*args):
        raise AssertionError("a coloring set was built")

    monkeypatch.setattr(snarklab.reducibility, "_permuted", refuse)
    monkeypatch.setattr(ColorableSet, "levels", property(refuse))
    monkeypatch.setattr(ColorableSet, "residual", property(refuse))
    cases = (
        ("conf1.conf", "planar", 3, ("D", (), 5), SearchStats()),
        ("conf1.conf", "projective", 6, ("C", (1, 3, 6, 7, 10, 14), 1), SearchStats(7659, 753, 5)),
        ("triangle555.conf", "planar", 3, ("none", (), 1), SearchStats(298, 139, 0)),
    )
    for name, kind, cap, expected, stats in cases:
        verdict = check_reducibility(conf_islands()[name], kind, cap)
        assert verdict == ReducibilityVerdict(*expected), (name, kind)
        assert verdict.stats == stats, (name, kind)


def test_colorable_set_accessors():
    cs = decomposition("conf1", "planar")
    assert isinstance(cs, ColorableSet)
    assert cs.ring_size == 6
    assert cs.max_level == len(cs.levels) - 1
    some_level0 = next(iter(cs.levels[0]))
    assert level_of(cs, some_level0) == 0
    missing = decomposition("ring5_cycle", "planar")
    outside = next(iter(missing.residual))
    assert level_of(missing, outside) is None


# -- the engine against the fit-enumerating construction ----------------------

KINDS = ("planar", "projective")


@lru_cache(maxsize=None)
def pi_islands(gamma, ring):
    return tuple(member.island() for member in generate_pi(gamma, ring))


def drawn_islands():
    sides = st.builds(
        lambda seed, k: Island(*random_planar_side(random.Random(seed), k)),
        st.integers(0, 10**6),
        st.sampled_from((4, 5)),
    )
    members = st.sampled_from(((3, 6), (4, 7))).flatmap(
        lambda row: st.sampled_from(pi_islands(*row))
    )
    return st.one_of(sides, members)


@settings(max_examples=40, deadline=None)
@given(drawn_islands(), st.sampled_from(KINDS))
def test_decomposition_matches_fit_oracle(island, kind):
    # The oracle takes level 0 from the support extender and builds every
    # later level by enumerating the fits of each signed matching.
    k = len(island.boundary)
    extender = Extender(island)
    level0 = {kappa for kappa in parity_colorings(k) if extender.extends(kappa)}
    levels, residual = fit_levels(level0, k, kind)
    cs = maximal_consistent_residual(island, kind)
    assert cs.levels == levels
    assert cs.residual == residual


@pytest.mark.parametrize("kind", KINDS)
def test_decomposition_walks_a_stub_beside_a_loop(kind):
    # a loop takes one color at both ends, so it forces no stub color:
    # the stub is walked, no ring coloring extends, and all three stay
    # in the residual
    island = Island(Graph(2, [(0, 0), (1, 1)]), (0, 1))
    extender = Extender(island)
    assert not any(extender.extends(kappa) for kappa in parity_colorings(2))
    levels, residual = fit_levels(set(), 2, kind)
    assert levels == (frozenset(),) and len(residual) == 3
    cs = maximal_consistent_residual(island, kind)
    assert (cs.levels, cs.residual) == (levels, residual)


def test_lift_masks_number_the_signed_matchings():
    # Each set bit of a row's mask names the row's lift through one
    # matching of its position set, in the matching table's order. Two
    # bits of one block agree exactly when their signed matchings do, and
    # every even position set's bits run through its whole block with no
    # gap.
    for k in range(2, 9):
        for kind in KINDS:
            sets, masks = _lift_table(k, kind)
            structs = {0: ((),)}
            for r in range(1, k // 2 + 1):
                structs[r] = sorted(get_kempe(r, kind))
            reps = orbit_representatives(k)
            assert len(sets) == len(masks) == 3 * len(reps), (k, kind)
            named = collections.defaultdict(dict)
            for i, kappa in enumerate(reps):
                for theta in COLORS:
                    positions = [p + 1 for p, c in enumerate(kappa) if c != theta]
                    block = sets[3 * i + theta]
                    assert block == sum(1 << (p - 1) for p in positions), (k, kind)
                    mask = masks[3 * i + theta]
                    bits = [x for x in range(mask.bit_length()) if mask >> x & 1]
                    matchings = structs[len(positions) // 2]
                    assert len(bits) == len(matchings), (k, kind)
                    for x, match in zip(bits, matchings):
                        signed = signed_lift(kappa, positions, match)
                        assert named[block].setdefault(x, signed) == signed, (k, kind)
            even = [ps for ps in range(1 << k) if bin(ps).count("1") % 2 == 0]
            assert sorted(named) == [ps for ps in even if ps or k % 2 == 0], (k, kind)
            for block, signed in named.items():
                r = bin(block).count("1") // 2
                assert len(set(signed.values())) == len(signed), (k, kind, block)
                size = len(structs[r]) << (r - 1) if r else 1
                assert sorted(signed) == list(range(size)), (k, kind, block)


# -- the definition-based residual, computed a second way --------------------


def residual_by_definition(island, kind):
    """Greatest self-consistent subset of the non-extendable colorings.

    Starts from everything the oracle cannot extend and keeps dropping any
    coloring that, for some color, has no matching whose entire fit set
    stays inside. Uses the filtering fit enumeration, not the level
    construction.
    """
    k = len(island.boundary)
    keep = set(parity_colorings(k)) - ring_extension_oracle(island)
    structs = {0: [()]}
    for r in range(1, k // 2 + 1):
        structs[r] = sorted(get_kempe(r, kind))
    changed = True
    while changed:
        changed = False
        for kappa in sorted(keep):
            if not _self_consistent(kappa, keep, structs):
                keep.discard(kappa)
                changed = True
    return keep


def _self_consistent(kappa, keep, structs):
    for theta in COLORS:
        positions = [i + 1 for i, c in enumerate(kappa) if c != theta]
        ok = False
        for struct in structs[len(positions) // 2]:
            signed = tuple(
                (
                    (positions[a - 1], positions[b - 1]),
                    1 if kappa[positions[a - 1] - 1] == kappa[positions[b - 1] - 1] else -1,
                )
                for a, b in struct
            )
            if fit_neighbors(kappa, signed, theta) <= keep:
                ok = True
                break
        if not ok:
            return False
    return True


DEFINITION_CASES = (
    ("ring2_diamond", "planar"),
    ("ring2_diamond", "projective"),
    ("ring3_triangle", "planar"),
    ("ring3_hexhub", "projective"),
    ("ring4_cycle", "planar"),
    ("ring4_cycle", "projective"),
    ("ring5_cycle", "planar"),
    ("ring5_cycle", "projective"),
    ("edge55", "planar"),
    ("strip4", "planar"),
    ("conf1", "planar"),
    ("conf1", "projective"),
    ("triangle555", "projective"),
)


@pytest.mark.parametrize("name,kind", DEFINITION_CASES)
def test_residual_matches_definition_fixpoint(name, kind):
    got = decomposition(name, kind).residual
    assert got == residual_by_definition(islands()[name], kind)


# -- hand-derived expected sets ----------------------------------------------


def test_triangle_island_extends_all_six():
    # Three mutually adjacent edges take three distinct colors; each stub
    # color is the one its vertex does not see, so all permutations appear.
    assert oracle("ring3_triangle") == set(parity_colorings(3))


def test_diamond_island_forces_equal_stubs():
    # The central edge's color is missing at both degree-2 vertices.
    assert oracle("ring2_diamond") == {(0, 0), (1, 1), (2, 2)}
    assert oracle("ring2_diamond") == set(parity_colorings(2))


def test_five_cycle_island_needs_adjacent_singletons():
    # A coloring extends iff its two singleton color classes sit at
    # cyclically adjacent ring positions: 5 adjacent pairs times 6
    # permutations of the colors.
    def singleton_positions(kappa):
        by = {c: [i for i, x in enumerate(kappa) if x == c] for c in COLORS}
        return sorted(i for ps in by.values() if len(ps) == 1 for i in ps)

    expected = set()
    for kappa in parity_colorings(5):
        pos = singleton_positions(kappa)
        if len(pos) == 2 and (pos[1] - pos[0]) % 5 in (1, 4):
            expected.add(kappa)
    assert len(expected) == 30
    assert oracle("ring5_cycle") == expected


def test_five_cycle_absorbs_nothing_past_level_zero():
    for kind in ("planar", "projective"):
        cs = decomposition("ring5_cycle", kind)
        assert cs.levels == (oracle("ring5_cycle"),)
        assert len(cs.residual) == 30


# -- verdicts ------------------------------------------------------------------


def test_small_rings_are_all_reducible():
    # Every island here has ring size at most 4.
    for name in ("ring2_diamond", "ring3_triangle", "ring3_hexhub",
                 "ring3_nested", "ring3_pentachord", "ring4_cycle",
                 "ring4_hexchord"):
        for kind in ("planar", "projective"):
            verdict = check_reducibility(islands()[name], kind, 2)
            assert verdict.kind in ("D", "C"), (name, kind)


def test_five_cycle_island_is_not_reducible():
    for kind in ("planar", "projective"):
        verdict = check_reducibility(islands()["ring5_cycle"], kind, 4)
        assert verdict.kind == "none"
        assert verdict.contraction == ()


def test_birkhoff_small_rings_on_sampled_plane_sides():
    # Birkhoff (Amer. J. Math. 35, 1913): a minimal counterexample has no
    # ring of 3 or 4, and no ring of 5 around more than one region. So
    # every 2-connected island that a side of a plane cubic graph bounds
    # with a ring of 3 or 4 is D, by the Kempe-chain argument alone, and
    # one with a ring of 5 is D or C unless it is the pentagon. Islands are
    # keyed by isomorphism class and ring size. A _decompose that stops
    # after level 0 turns 491 of the 693 ring-4 islands into C.
    verdicts = {}
    for seed in range(20):
        for expansions in (2, 4, 6, 8, 10):
            g = random_planar_cubic(random.Random(seed), expansions)
            for _, _, h, ends in ring_sides(g, 5):
                key = (canonical_key(h), len(ends))
                if key in verdicts:
                    continue
                x = networkx.empty_graph(h.n)
                x.add_edges_from(h.edge_list)
                two_connected = h.n >= 3 and networkx.is_biconnected(x)
                verdicts[key] = two_connected and (h, check_reducibility(Island(h, ends), "planar", 6).kind)
    kinds = collections.defaultdict(collections.Counter)
    for (_, ring), got in verdicts.items():
        if got:
            kinds[ring][got[1]] += 1
    # the sample: distinct 2-connected islands per ring size
    assert {ring: sum(tally.values()) for ring, tally in kinds.items()} == {3: 278, 4: 693, 5: 1018}
    assert set(kinds[3]) == set(kinds[4]) == {"D"}
    assert set(kinds[5]) == {"D", "C", "none"}
    [pentagon] = [h for h, kind in filter(None, verdicts.values()) if kind == "none"]
    assert (pentagon.n, pentagon.m) == (5, 5)


def test_conf1_planar_needs_no_deletion():
    verdict = check_reducibility(islands()["conf1"], "planar", 6)
    assert verdict.kind == "D"
    assert verdict.contraction == ()


def test_conf1_projective_contracts_on_a_recorded_set():
    conf = parse_configuration(fixture_text("conf1.conf"))
    completion = free_completion(conf)
    isl = island_of(completion)
    recorded = [contraction_edges(completion, isl, pairs) for pairs in conf.contracts]
    assert len(recorded) == 2 and recorded[0] != recorded[1]
    for edges in recorded:
        assert len(edges) == 6
        assert admissible_contraction(isl, edges)
        assert not (ring_extension_oracle(isl, edges)
                    & decomposition("conf1", "projective").residual)

    verdict = check_reducibility(isl, "projective", 6)
    assert verdict.kind == "C"
    assert verdict.contraction in [tuple(e) for e in recorded]

    # six deletions are genuinely necessary
    assert check_reducibility(isl, "projective", 5).kind == "none"


def test_check_reducibility_accepts_all_source_forms():
    # a configuration and its free completion reach it as their island
    conf = parse_configuration(fixture_text("conf1.conf"))
    for island in (island_of(conf), island_of(free_completion(conf))):
        assert check_reducibility(island, "planar", 3) == ReducibilityVerdict("D", (), 5)


def test_c_verdicts_pass_the_public_recheck():
    cases = (("fan3_hub7", "projective", 2), ("diamond_hubs66", "planar", 4))
    for name, kind, cap in cases:
        isl = islands()[name]
        verdict = check_reducibility(isl, kind, cap)
        assert verdict.kind == "C"
        assert 1 <= len(verdict.contraction) <= cap
        assert admissible_contraction(isl, verdict.contraction)
        restricted = ring_extension_oracle(isl, verdict.contraction)
        assert restricted
        assert not (restricted & decomposition(name, kind).residual)


def test_verdicts_are_deterministic():
    isl = islands()["fan3_hub7"]
    assert check_reducibility(isl, "projective", 2) == check_reducibility(
        isl, "projective", 2
    )


def test_non_reducible_has_no_admissible_escape():
    # Independent recheck of a "none" verdict at cap 2: every admissible
    # deletion set leaves some surviving coloring inside the residual.
    isl = islands()["edge55"]
    for kind in ("planar", "projective"):
        assert check_reducibility(isl, kind, 2).kind == "none"
        residual = decomposition("edge55", kind).residual
        for size in (1, 2):
            for xs in itertools.combinations(range(isl.graph.m), size):
                if not admissible_contraction(isl, xs):
                    continue
                assert ring_extension_oracle(isl, xs) & residual, (kind, xs)


def petersen_tail():
    """A ring-2 island with no coloring at all.

    Petersen with one edge subdivided by z, z hung on x, and x joined to
    the two ring vertices r, s, which are joined to each other. Deleting
    the edge z-x leaves a closed Petersen component beside the ring.
    """
    p = petersen()
    a, b = p.endpoints(0)
    z, x, r, s = 10, 11, 12, 13
    edges = [p.endpoints(e) for e in range(1, p.m)]
    edges += [(a, z), (z, b), (z, x), (x, r), (x, s), (r, s)]
    return Island(Graph(14, edges), (r, s))


def graph_route(island, deleted):
    """The cut-down island built as a Graph through delete_and_suppress_traced,
    and as the walk's input from planned_cut, with each ring position's stub
    edge found through the provenance."""
    out, pos_edge = cut_down_graph(island, deleted)
    pos_edge = [pos_edge[j] for j in range(len(island.boundary))]
    return out, planned_cut(out.n, out.edge_list, pos_edge)


def planned_cut(n, pairs, pos_edge):
    """The walk's input for a cut-down island given as chains, with every
    stub walked: the chain of ring position j weighs 3**j and the base is
    0, so each ring code is read off the stubs' own colors. Every chain is
    walked, in id order, as the C-search walks a cut-down in slot order."""
    weight = [0] * len(pairs)
    for j, c in enumerate(pos_edge):
        weight[c] += 3**j
    return Cut(n, pairs, list(range(len(pairs))), weight, 0)


def residual_codes(residual):
    return {ring_code(kappa) for kappa in residual}


def test_list_route_matches_graph_route():
    # Every edge set of size at most 2 of the desk islands and of 20 random
    # sides, and of size at most 3 of the fixtures where suppression changes
    # the graph most (a deleted loop, a chain closing through suppressed
    # vertices only, an uncolorable component): the C-search's list-level
    # cut-down agrees with the Graph built by delete_and_suppress_traced on
    # the early-exit residual test under both kinds, and admissibility,
    # read off the island less the set, agrees with that Graph's bridges.
    cases = [(name, isl, 2) for name, isl in islands().items()] + [
        (f"side{s}", Island(*random_planar_side(random.Random(s), 4 + s % 2)), 2)
        for s in range(20)
    ]
    cases += [
        ("kept_loop", kept_loop_island(), 3),
        ("pure_cycle", pure_cycle_island(), 3),
        ("petersen_tail", petersen_tail(), 3),
    ]
    admissible = 0
    for name, isl, most in cases:
        g = isl.graph
        template = _template(isl)
        residuals = [maximal_consistent_residual(isl, kind).residual for kind in KINDS]
        for size in range(most + 1):
            for xs in itertools.combinations(range(g.m), size):
                if 2 in loss_counts(g, xs):
                    assert not admissible_contraction(isl, xs)
                    continue
                out, graph_cut = graph_route(isl, xs)
                expected = bridge_free_graph(out)
                assert admissible_contraction(isl, xs) == expected, (name, xs)
                admissible += expected
                cut = cut_down(template, xs)
                for codes in map(residual_codes, residuals):
                    want = walk_hits(graph_cut, codes.__contains__)
                    got = walk_hits(cut, codes.__contains__)
                    assert got == want, (name, xs)
    assert admissible


def test_early_exit_walk_matches_component_product_oracle():
    # Every deletion set of size at most 2 the guard allows, admissible or
    # not: the collect-and-close walk equals the per-component product, and
    # the early-exit residual test agrees with intersecting that set.
    cases = [(name, isl, name) for name, isl in islands().items()]
    cases.append(("petersen_tail", petersen_tail(), None))
    multi_component = uncolorable = 0
    for name, isl, cached in cases:
        g = isl.graph
        residuals = [
            decomposition(cached, kind).residual
            if cached
            else maximal_consistent_residual(isl, kind).residual
            for kind in ("planar", "projective")
        ]
        for size in range(3):
            for xs in itertools.combinations(range(g.m), size):
                if 2 in loss_counts(g, xs):
                    continue
                expected = component_product_oracle(isl, xs)
                assert ring_extension_oracle(isl, xs) == expected, (name, xs)
                _, cut = graph_route(isl, xs)
                multi_component += len(edge_components(cut.n, cut.pairs)) >= 2
                uncolorable += not expected
                for residual in residuals:
                    hit = walk_hits(cut, residual_codes(residual).__contains__)
                    assert hit == bool(expected & residual), (name, xs)
    assert multi_component and uncolorable


def test_uncolorable_gate_component_avoids_every_residual():
    # Deleting z-x is admissible and leaves a closed Petersen component,
    # so no ring coloring survives and the C test passes for any residual.
    isl = petersen_tail()
    assert maximal_consistent_residual(isl, "planar").levels[0] == frozenset()
    z_x = edge_between(isl.graph, 10, 11)
    assert admissible_contraction(isl, [z_x])
    _, cut = graph_route(isl, [z_x])
    assert len(edge_components(cut.n, cut.pairs)) == 2
    assert not walk_hits(cut, lambda kappa: True)


# -- the one-pass cut-down ------------------------------------------------------


def walk_plan(cut):
    """The walk order, conflict lists and loop flag graphs.color_walk
    plans for cut."""
    return walk_conflicts(cut.n, cut.pairs, cut.free)


def cut_down_oracle(island, deleted):
    """suppress_chains on the stubbed island with the chains it walks, plus
    its walk plan and the chains dropped as pure suppressed cycles.
    Stub j is forced when its chain is still the stub from its ring vertex
    v to its leaf, two other chain ends meet v, and the island has no loop
    at v: it then weighs 0 and is left out of the walk, each of those ends
    takes -3**j from its chain's weight and the base gains 3 * 3**j. Every
    other stub's chain weighs 3**j. The walked chains are every chain not
    forced, in suppress_chains' order, and the plan is walk_conflicts' over
    them with the forced stubs named by no edge."""
    g = island.graph
    n = g.n + len(island.boundary)
    stubbed = with_stubs(g, island.boundary).edge_list
    chains, _, dropped = suppress_chains(n, stubbed, deleted)
    weight = [0] * len(chains)
    base = 0
    walked = list(chains)
    for j, v in enumerate(island.boundary):
        c = next(c for c, ends in enumerate(chains) if g.n + j in ends)
        others = [d for d, ends in enumerate(chains) if d != c for end in ends if end == v]
        if chains[c] == (v, g.n + j) and len(others) == 2 and (v, v) not in g.edge_list:
            for d in others:
                weight[d] -= 3**j
            base += 3 * 3**j
            walked[c] = None
        else:
            weight[c] += 3**j
    order = [c for c, ends in enumerate(walked) if ends]
    return Cut(n, chains, order, weight, base), walk_conflicts(n, walked, order), dropped


def squeezed(cut):
    """cut with its empty slots dropped and its chains renumbered in slot
    order, as suppress_chains numbers them, and its walk plan renumbered
    alike."""
    ids = [r for r, ends in enumerate(cut.pairs) if ends]
    new = {r: i for i, r in enumerate(ids)}
    order, earlier, loop = walk_plan(cut)
    return Cut(
        cut.n,
        [cut.pairs[r] for r in ids],
        [new[r] for r in cut.free if r in new],
        [cut.weight[r] for r in ids],
        cut.base,
    ), ([new[r] for r in order], [tuple(new[x] for x in earlier[r]) for r in ids], loop)


def kept_loop_island():
    """A triangle on ring vertices 1 and 2 whose third vertex hangs a
    looped vertex 3: deleting edge 0-3 suppresses 0 but not 3, whose loop
    is kept."""
    return Island(Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 3)]), (1, 2))


def pure_cycle_island():
    """A hexagon whose vertices 0, 2 and 4 carry spokes to an inner
    triangle: deleting the three spokes suppresses the whole triangle."""
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    inner = [(6, 7), (7, 8), (8, 6), (0, 6), (2, 7), (4, 8)]
    return Island(Graph(9, hexagon + inner), (1, 3, 5))


def test_one_pass_cut_down_matches_suppress_chains():
    # Every edge set of size at most 3: the template pass gives exactly the
    # chains, in slot order once empty slots are dropped, that
    # suppress_chains gives, the forced stubs, code weights and base that
    # the oracle finds on those chains, the walk order of every chain but
    # the forced stubs, and the conflict lists and loop flag that
    # walk_conflicts gives for it, so the walk gets the same input from
    # either; and it refuses exactly the sets the loss guard refuses.
    cases = list(islands().items()) + [
        (f"side{s}", Island(*random_planar_side(random.Random(s), 4 + s % 2)))
        for s in range(20)
    ]
    cases += [
        ("petersen_tail", petersen_tail()),
        ("kept_loop", kept_loop_island()),
        ("pure_cycle", pure_cycle_island()),
    ]
    seen = {"dropped": 0, "loop": 0, "stubless": 0, "walked_stub": 0}
    for name, isl in cases:
        g = isl.graph
        template = _template(isl)
        for size in range(4):
            for xs in itertools.combinations(range(g.m), size):
                cut = cut_down(template, xs)
                if 2 in loss_counts(g, xs):
                    assert cut is None, (name, xs)
                    continue
                expected, plan, dropped = cut_down_oracle(isl, xs)
                assert squeezed(cut) == (expected, plan), (name, xs)
                order, _, walk_loop = walk_plan(cut)
                loop = any(ends[0] == ends[1] for ends in cut.pairs if ends)
                assert walk_loop == loop, (name, xs)
                if loop:
                    # an order holding a loop has no coloring to walk
                    assert not walk_hits(cut, lambda code: True), (name, xs)
                seen["dropped"] += bool(dropped)
                seen["loop"] += loop
                seen["stubless"] += len(edge_components(cut.n, [cut.pairs[r] for r in order])) > 1
                # some stub is walked when not every position adds to the base
                seen["walked_stub"] += expected.base < 3 * (3 ** len(isl.boundary) - 1) // 2
    assert all(seen.values()), seen


# -- the code walk against the stub walk --------------------------------------


def stub_walk(cut, k, leaf):
    """support.recursive_color_walk over every chain of cut, forced stubs
    included: first the chains graphs.color_walk walks, in its order,
    so both pin the same two chains, then the rest. leaf gets the tuple
    of the stubs' colors, each stub's chain found by its leaf vertex."""
    chains = cut.pairs
    order = walk_plan(cut)[0]
    pos = [next(r for r, ends in enumerate(chains) if ends and cut.n - k + j in ends) for j in range(k)]
    rest = [r for r, ends in enumerate(chains) if ends and r not in order]
    return recursive_color_walk(chains, order + rest, lambda color: leaf(tuple(color[r] for r in pos)))


def check_code_walk(cut, k, decompositions):
    """The code walk meets exactly the ring codes the stub walk meets, and
    its residual test hits exactly when the stub walk's tuple leaf, an
    orbit_index lookup and a residual byte per orbit, hits."""
    met, stub_met = set(), set()
    walk_hits(cut, met.add)
    stub_walk(cut, k, lambda kappa: stub_met.add(ring_code(kappa)))
    assert met == stub_met
    index = orbit_index(k)
    for dec in decompositions:
        outside = bytearray(level < 0 for level in dec.rep_level)
        hit = walk_hits(cut, _residual_test(dec))
        assert hit == stub_walk(cut, k, lambda kappa: outside[index[kappa]])
    return bool(met)


def test_code_walk_matches_stub_walk_on_conf_islands():
    # Every edge set of size at most 2 of every .conf island, under both
    # kinds' residuals.
    colorable = 0
    for name, isl in conf_islands().items():
        template = _template(isl)
        decompositions = [maximal_consistent_residual(isl, kind) for kind in KINDS]
        for size in range(3):
            for xs in itertools.combinations(range(isl.graph.m), size):
                cut = cut_down(template, xs)
                if cut is not None:
                    colorable += check_code_walk(cut, len(isl.boundary), decompositions)
    assert colorable


# the benchmark's rows: each row's contraction cap and kinds
ROWS = (
    ("pi(3,6)", 2, KINDS),
    ("pi(4,6)", 2, KINDS),
    ("pi(4,7)", 2, KINDS),
    ("pi(5,8)", 2, KINDS),
    ("pi(3,7)", 5, KINDS),
    ("delta6", 4, ("planar",)),
    ("pi_hat_3_6", 4, ("planar",)),
)


@lru_cache(maxsize=None)
def row_islands(row):
    if row == "delta6":
        return tuple(m.island() for m in generate_delta6())
    if row == "pi_hat_3_6":
        return tuple(m.island() for m in generate_pi_hat_3_6())
    return pi_islands(*map(int, row[3:-1].split(",")))


def fresh(isl):
    """The island on a new copy of its graph, which no check has seen."""
    g = isl.graph
    return Island(Graph(g.n, g.edge_list), isl.boundary)


@lru_cache(maxsize=None)
def member_decompositions(row, i):
    isl = row_islands(row)[i]
    return isl, _template(isl), [maximal_consistent_residual(isl, kind) for kind in KINDS]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_code_walk_matches_stub_walk_on_drawn_subsets(data):
    # Random members of pi(3,7) and Delta6 with random edge sets the loss
    # guard allows, under both kinds' residuals.
    row = data.draw(st.sampled_from(("pi(3,7)", "delta6")))
    i = data.draw(st.integers(0, len(row_islands(row)) - 1))
    isl, template, decompositions = member_decompositions(row, i)
    xs = data.draw(st.sets(st.sampled_from(range(isl.graph.m)), max_size=5))
    cut = cut_down(template, sorted(xs))
    assume(cut is not None)
    check_code_walk(cut, len(isl.boundary), decompositions)


# -- the C-search against its definition ----------------------------------------


@settings(max_examples=40, deadline=None)
@given(drawn_islands(), st.sampled_from(KINDS), st.integers(1, 3))
def test_c_search_matches_definition_oracle(island, kind, cap):
    # The oracle runs the bridge test first on the Graph route and takes
    # the surviving colorings from the per-component product.
    verdict = check_reducibility(island, kind, cap)
    assert (verdict.kind, verdict.contraction) == c_search_oracle(island, kind, cap)


@lru_cache(maxsize=None)
def delta6_member():
    return generate_delta6()[1].island()


def test_bridge_test_rejects_a_walk_miss():
    # Delta6 member 1: (0, 10, 13) is the first subset past the loss guard
    # whose walk finds no residual coloring, because its cut-down island
    # has a bridge and so no coloring at all. A C-search without the bridge
    # test would return it; the true answer needs four edges.
    isl = delta6_member()
    g = isl.graph
    template = _template(isl)
    cut = cut_down(template, (0, 10, 13))
    assert not _bridge_free(cut.n, [ends for ends in cut.pairs if ends])
    assert not walk_hits(cut, lambda kappa: True)
    for kind in KINDS:
        residual = maximal_consistent_residual(isl, kind).residual
        misses = (
            xs
            for size in (1, 2, 3)
            for xs in itertools.combinations(range(g.m), size)
            if 2 not in loss_counts(g, xs)
            and not walk_hits(cut_down(template, xs), residual_codes(residual).__contains__)
        )
        assert next(misses) == (0, 10, 13)
        verdict = check_reducibility(isl, kind, 3)
        assert (verdict.kind, verdict.contraction) == ("none", ())
        assert c_search_oracle(isl, kind, 3) == ("none", ())
        verdict = check_reducibility(isl, kind, 4)
        assert (verdict.kind, verdict.contraction) == ("C", (1, 3, 4, 11))


def test_search_stats_count_the_work():
    # Counted here with the support oracle: every subset before the answer
    # and the answer itself is enumerated, those past the loss guard are
    # walked, and those with no surviving residual coloring get the bridge
    # test.
    isl = delta6_member()
    g = isl.graph
    verdict = check_reducibility(isl, "planar", 4)
    answer = (1, 3, 4, 11)
    assert verdict.contraction == answer
    residual = maximal_consistent_residual(isl, "planar").residual
    tried = [xs for size in (1, 2, 3) for xs in itertools.combinations(range(g.m), size)]
    tried += [xs for xs in itertools.combinations(range(g.m), 4) if xs <= answer]
    walked = bridge_tests = 0
    for xs in tried:
        if 2 not in loss_counts(g, xs):
            walked += 1
            bridge_tests += not component_product_oracle(isl, xs) & residual
    assert verdict.stats == SearchStats(len(tried), walked, bridge_tests)
    assert bridge_tests > 1
    # verdict equality ignores stats, so the counts are pinned too, under
    # both kinds
    assert verdict.stats == SearchStats(1779, 740, 16)
    assert check_reducibility(isl, "projective", 4).stats == verdict.stats
    # stats takes no part in equality or hashing
    bare = ReducibilityVerdict("C", answer, verdict.levels_used)
    assert bare.stats == SearchStats(0, 0, 0)
    assert verdict == bare and hash(verdict) == hash(bare)


# -- the subset tree --------------------------------------------------------------


def same_cut(cut, want):
    """Field by field, weight read at the live slots, the only ones a
    cut-down defines; equal pairs and free give equal walk plans."""
    live = [r for r, ends in enumerate(want.pairs) if ends]
    return cut._replace(weight=None) == want._replace(weight=None) and [cut.weight[r] for r in live] == [
        want.weight[r] for r in live
    ]


def check_subset_tree(isl, cap, seen, oracle=False):
    """_subset_tree for every size up to cap against
    itertools.combinations: each step covers the next count sets in
    combinations order, all starting with its xs; a step short of size
    holds only sets the loss guard refuses, either every set starting with
    xs (a skipped subtree) or those past some next edge (a bounded step); a
    leaf's cut is None exactly when the guard refuses it, and else equals
    _cut_down field by field (and, with oracle, cut_down_oracle once
    squeezed). seen counts skipped subtrees, bounded steps, three-loss
    leaves, chains closing into a loop and, with oracle, dropped cycles."""
    g = isl.graph
    template = _template(isl)
    for size in range(1, cap + 1):
        combos = itertools.combinations(range(g.m), size)
        for xs, count, cut in _subset_tree(template, g.m, size):
            cut = walkable(template, cut)
            block = list(itertools.islice(combos, count))
            assert count >= 1 and len(block) == count, xs
            assert all(ys[: len(xs)] == xs for ys in block), xs
            if len(xs) < size:
                assert cut is None, xs
                assert all(_lost(template.n, template.pairs, ys) is None for ys in block), xs
                whole = math.comb(g.m - 1 - xs[-1], size - len(xs))
                seen["skipped" if count == whole else "bounded"] += 1
                continue
            assert block == [xs]
            lost = _lost(template.n, template.pairs, xs)
            assert (cut is None) == (lost is None), xs
            if cut is None:
                continue
            assert same_cut(cut, cut_down(template, xs)), xs
            seen["three_loss"] += 3 in lost
            seen["loop_chain"] += any(
                ends and ends[0] == ends[1] and ends != template.slots[r] for r, ends in enumerate(cut.pairs)
            )
            if oracle:
                expected, plan, dropped = cut_down_oracle(isl, xs)
                assert squeezed(cut) == (expected, plan), xs
                seen["dropped"] += bool(dropped)
        assert next(combos, None) is None


def tree_islands():
    sides = st.builds(
        lambda seed, k: Island(*random_planar_side(random.Random(seed), k)),
        st.integers(0, 10**6),
        st.sampled_from((4, 5)),
    )
    members = st.sampled_from(("pi(3,7)", "delta6")).flatmap(lambda row: st.sampled_from(row_islands(row)))
    fixed = st.sampled_from((kept_loop_island(), pure_cycle_island(), petersen_tail()))
    return st.one_of(sides, members, fixed)


@settings(max_examples=40, deadline=None)
@given(tree_islands(), st.sampled_from(KINDS), st.integers(1, 4))
@example(pure_cycle_island(), "planar", 3)
def test_subset_tree_matches_plain_combinations(island, kind, cap):
    # Every step of the subset tree against itertools.combinations and the
    # template cut-down, and, on a valid island, the verdict with its stats
    # against the plain loop over _cut_down the C-search was before the
    # tree. The example gives bounded steps, as many drawn islands do.
    check_subset_tree(island, cap, collections.Counter())
    try:
        validate_island(island)
    except ConfigurationError:
        return
    verdict = check_reducibility(island, kind, cap)
    reference = plain_c_search(island, kind, cap)
    assert verdict == reference
    assert verdict.stats == reference.stats


def test_subset_tree_steps_cover_every_kind():
    # The fixed islands and two row members give a skipped subtree, a
    # bounded step, a three-loss leaf cut down from the template, a chain
    # closing into a loop and a dropped cycle, each also checked against
    # cut_down_oracle. Projective pi(3,7)#2 at cap 5, the rows item whose
    # C-search tries every set, gives bounded steps too.
    seen = collections.Counter()
    for isl in (kept_loop_island(), pure_cycle_island(), petersen_tail()):
        check_subset_tree(isl, 4, seen, oracle=True)
    check_subset_tree(row_islands("pi(3,7)")[2], 3, seen, oracle=True)
    check_subset_tree(delta6_member(), 3, seen, oracle=True)
    assert set(seen) == {"skipped", "bounded", "three_loss", "loop_chain", "dropped"} and all(seen.values()), seen
    none_member = collections.Counter()
    check_subset_tree(row_islands("pi(3,7)")[2], 5, none_member)
    assert none_member["bounded"] > 0, none_member


def test_subset_tree_meets_fewer_refused_sets_one_at_a_time():
    # Refused sets the tree yields one at a time, over every member's whole
    # tree: the pi(3,7) row at cap 5 and the Delta6 row at cap 4. Before
    # the tree bounded steps by the edges two-loss vertices owe, and refused
    # a last edge from the loss counts alone, it yielded 40,736 and 65,205.
    one_by_one = collections.Counter()
    for row, cap in (("pi(3,7)", 5), ("delta6", 4)):
        for isl in row_islands(row):
            template = _template(isl)
            for size in range(1, cap + 1):
                for xs, _, cut in _subset_tree(template, isl.graph.m, size):
                    one_by_one[row] += cut is None and len(xs) == size
    assert one_by_one == {"pi(3,7)": 34119, "delta6": 58209}


def test_c_search_cuts_down_only_three_loss_leaves(monkeypatch):
    # Projective pi(3,7)#2, the heaviest rows item, and Delta6 member 1:
    # the C-search builds no component plan, level 0 walks the template
    # itself, and the C-search cuts down from the template only for the
    # sets where a vertex loses all three edges; verdicts and stats are
    # unchanged. The pi(3,7) member is a fresh copy, so that no planar
    # check of it that another test made can shorten the search.
    cases = (
        (fresh(row_islands("pi(3,7)")[2]), "projective", 5, ("none", (), 0), SearchStats(6884, 1076, 4)),
        (delta6_member(), "planar", 4, ("C", (1, 3, 4, 11), 0), SearchStats(1779, 740, 16)),
    )
    references = [plain_c_search(isl, kind, cap) for isl, kind, cap, _, _ in cases]

    def refuse(*args):
        raise AssertionError("a component plan was built")

    monkeypatch.setattr(snarklab.graphs, "edge_components", refuse)
    calls = []
    real_cut_down = snarklab.reducibility._cut_down

    def spy(template, deleted):
        calls.append(tuple(deleted))
        return real_cut_down(template, deleted)

    monkeypatch.setattr(snarklab.reducibility, "_cut_down", spy)
    for (isl, kind, cap, expected, stats), reference in zip(cases, references):
        calls.clear()
        verdict = check_reducibility(isl, kind, cap)
        assert verdict == ReducibilityVerdict(*expected) == reference
        assert verdict.stats == stats == reference.stats
        assert calls and all(xs and 3 in loss_counts(isl.graph, xs) for xs in calls), calls


def test_only_walks_plan_a_cut(monkeypatch):
    # A cut-down stores no walk plan, and only a walk needs a cut-down:
    # admissible_contraction lays out no template, cuts nothing down and
    # plans nothing over every set of at most two edges of the desk islands
    # and of four rows members, and check_reducibility plans level 0 and
    # each cut-down it walks once, on every rows item at its cap. Each
    # item is checked on a fresh copy of its graph: a projective check
    # after a planar one resumes the planar search, and walks fewer
    # cut-downs than its stats count.
    calls = []

    def counted(n, pairs, order):
        calls.append(n)
        return walk_conflicts(n, pairs, order)

    def refused(*args):
        raise AssertionError("admissible_contraction built a cut-down")

    monkeypatch.setattr(snarklab.graphs, "walk_conflicts", counted)
    monkeypatch.setattr(snarklab.reducibility, "_template", refused)
    monkeypatch.setattr(snarklab.reducibility, "_cut_down", refused)
    admissible = 0
    for isl in (*islands().values(), *row_islands("pi(3,7)")[:3], delta6_member()):
        for size in (1, 2):
            for xs in itertools.combinations(range(isl.graph.m), size):
                admissible += admissible_contraction(isl, xs)
    assert admissible and not calls
    monkeypatch.setattr(snarklab.reducibility, "_template", _template)
    monkeypatch.setattr(snarklab.reducibility, "_cut_down", _cut_down)
    walked = 0
    for row, cap, kinds in ROWS:
        for kind in kinds:
            for i, isl in enumerate(row_islands(row)):
                copy = fresh(isl)
                calls.clear()
                stats = check_reducibility(copy, kind, cap).stats
                assert len(calls) == stats.walked + 1, (kind, row, i)
                walked += stats.walked
    assert walked


# -- the planar record ----------------------------------------------------------


@lru_cache(maxsize=None)
def capped_islands():
    """Every .conf fixture island at the benchmark's fixture cap 3, and
    every rows island at its row's cap: the planner islands among them."""
    out = [(isl, 3) for isl in conf_islands().values()]
    for row, cap, _ in ROWS:
        out += [(isl, cap) for isl in row_islands(row)]
    return tuple(out)


def test_a_resumed_check_equals_a_fresh_one():
    # Planar then projective on one graph, and projective then planar on
    # another: each verdict and its stats, which take no part in equality,
    # equal the check of that kind alone on a fresh copy.
    for isl, cap in capped_islands():
        alone = {kind: check_reducibility(fresh(isl), kind, cap) for kind in KINDS}
        for order in (KINDS, KINDS[::-1]):
            shared = fresh(isl)
            for kind in order:
                verdict = check_reducibility(shared, kind, cap)
                assert verdict == alone[kind], (kind, order, cap)
                assert verdict.stats == alone[kind].stats, (kind, order, cap)


def spied_walks(monkeypatch):
    """The n of every graphs.color_walk call check_reducibility makes."""
    walks = []
    color_walk = snarklab.reducibility.color_walk

    def spy(n, *args):
        walks.append(n)
        return color_walk(n, *args)

    monkeypatch.setattr(snarklab.reducibility, "color_walk", spy)
    return walks


def test_a_projective_check_resumes_the_planar_search(monkeypatch):
    # After a planar C the projective check walks level 0 and the
    # cut-downs from the planar answer on. pi(3,7)#0 is C at (0, 3, 7, 10)
    # in both kinds, and #2 is C at (7,) planar but none projective. After
    # the planar none of triangle555 at cap 3, it walks level 0 only.
    walks = spied_walks(monkeypatch)
    for isl, cap, resumed in ((row_islands("pi(3,7)")[0], 5, 1), (row_islands("pi(3,7)")[2], 5, 1069)):
        isl = fresh(isl)
        planar = check_reducibility(isl, "planar", cap)
        walks.clear()
        projective = check_reducibility(isl, "projective", cap)
        assert planar.kind == "C"
        assert len(walks) - 1 == projective.stats.walked - planar.stats.walked + 1 == resumed
    isl = fresh(conf_islands()["triangle555.conf"])
    planar = check_reducibility(isl, "planar", 3)
    walks.clear()
    projective = check_reducibility(isl, "projective", 3)
    assert planar.kind == projective.kind == "none"
    assert len(walks) == 1 and projective.stats == planar.stats


def test_a_planar_record_serves_only_its_own_ring_and_cap(monkeypatch):
    # The same graph with a turned boundary, a planar C past the
    # projective cap and a planar none at another cap each get the full
    # search: a walk per cut-down its stats count, besides level 0. The
    # record goes when the graph does.
    walks = spied_walks(monkeypatch)
    record = snarklab.reducibility._planar
    gc.collect()
    pi0, pi2 = (fresh(row_islands("pi(3,7)")[i]) for i in (0, 2))
    conf = fresh(conf_islands()["triangle555.conf"])
    turned = Island(pi2.graph, pi2.boundary[1:] + pi2.boundary[:1])
    cases = (
        (pi2, 5, turned, 5),
        (pi0, 5, pi0, 3),
        (conf, 2, conf, 3),
        (conf, 4, conf, 3),
    )
    for planar_island, planar_cap, isl, cap in cases:
        assert check_reducibility(planar_island, "planar", planar_cap).kind != "D"
        alone = check_reducibility(fresh(isl), "projective", cap)
        walks.clear()
        verdict = check_reducibility(isl, "projective", cap)
        assert verdict == alone and verdict.stats == alone.stats, cap
        assert len(walks) == verdict.stats.walked + 1, cap
    assert record[pi2.graph][0] == tuple(pi2.boundary)
    graph, size = weakref.ref(pi2.graph), len(record)
    del pi2, turned, cases
    gc.collect()
    assert graph() is None
    assert len(record) == size - 1


def verdict_rank(verdict):
    """D first, then C by contraction size, then none."""
    return ("D", "C", "none").index(verdict.kind), len(verdict.contraction)


def test_a_planar_verdict_is_never_weaker_than_the_projective_one():
    # Every planar table lies inside the projective one, so the planar
    # residual lies inside the projective one and every set the projective
    # C test passes, the planar one passes. Each kind checks its own fresh
    # copy, so no resumed search can make this hold.
    caps = {row: cap for row, cap, _ in ROWS}
    cases = [(isl, 3) for isl in conf_islands().values()]
    for row in ("pi(3,6)", "pi(3,7)", "pi(4,7)", "delta6"):
        cases += [(isl, caps[row]) for isl in row_islands(row)]
    ranks = collections.Counter()
    for isl, cap in cases:
        planar, projective = (verdict_rank(check_reducibility(fresh(isl), kind, cap)) for kind in KINDS)
        assert planar <= projective, (planar, projective)
        ranks[planar < projective] += 1
    assert ranks[True] and ranks[False]


def renamed(isl, rng):
    """The island on a new graph whose vertices are renamed by a random
    permutation, with its edge list shuffled and each edge flipped."""
    g = isl.graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[v], perm[u]) for u, v in g.edge_list]
    rng.shuffle(edges)
    return Island(Graph(g.n, edges), tuple(perm[v] for v in isl.boundary))


def test_verdicts_do_not_depend_on_names_or_where_the_ring_starts():
    # Metamorphic relations: no name, edge order or ring start may change
    # a verdict's kind, contraction size or levels used. Turning or
    # reflecting the ring turns or reflects every level and the residual;
    # it leaves edge ids alone, so the whole verdict is unchanged too.
    # Every verdict comes from a new graph, which no earlier check has seen.
    # pi(3,7) and delta6 run at cap 3 and at cap 5, the deepest rows cap.
    rng = random.Random(18)
    turns = (lambda c: c[1:] + c[:1], lambda c: c[::-1])
    cases = [(isl, cap) for isl in row_islands("pi(3,7)") + row_islands("delta6") for cap in (3, 5)]
    cases += [(m.island(), 3) for y, k in ((3, 6), (3, 7)) for m in generate_gamma(y, k)]
    assert len(cases) == 238
    for isl, cap in cases:
        for kind in KINDS:
            base = check_reducibility(fresh(isl), kind, cap)
            decomposition = maximal_consistent_residual(isl, kind)
            for turn in turns:
                turned = Island(fresh(isl).graph, turn(isl.boundary))
                assert check_reducibility(turned, kind, cap) == base
                moved = maximal_consistent_residual(turned, kind)
                assert moved.levels == tuple(frozenset(map(turn, level)) for level in decomposition.levels)
                assert moved.residual == frozenset(map(turn, decomposition.residual))
            verdict = check_reducibility(renamed(isl, rng), kind, cap)
            assert (verdict.kind, len(verdict.contraction), verdict.levels_used) == (
                base.kind,
                len(base.contraction),
                base.levels_used,
            )


# pi(5, 13) members 29, 1207 and 1501 by first pattern, none at cap 5
RING13_NONE = (
    (0, 1, 1, 1, 0, 1, 3, 2, 2, 2),
    (0, 1, 1, 1, 0, 2, 1, 2, 2, 3),
    (0, 1, 3, 1, 0, 3, 0, 2, 0, 3),
)


@pytest.mark.heavy
def test_ring13_none_verdicts_do_not_depend_on_names_or_ring_direction():
    # The relations above on three ring-13 members the row leaves none,
    # planar at the row's cap, each variant on a fresh graph: a reflected
    # ring gives the whole verdict, a relabeling its kind, contraction
    # size and levels used. About 1.3 s a check.
    members = {m.patterns[0]: m for m in generate_pi(5, 13)}
    rng = random.Random(13)
    for pattern in RING13_NONE:
        isl = members[pattern].island()
        base = check_reducibility(fresh(isl), "planar", 5)
        assert base.kind == "none", pattern
        reflected = Island(fresh(isl).graph, isl.boundary[::-1])
        assert check_reducibility(reflected, "planar", 5) == base, pattern
        verdict = check_reducibility(renamed(isl, rng), "planar", 5)
        got = (verdict.kind, len(verdict.contraction), verdict.levels_used)
        assert got == ("none", 0, base.levels_used), pattern


# -- deletion guards -----------------------------------------------------------


def test_admissibility_blocks_bridges_and_pair_losses():
    nested = islands()["ring3_nested"]
    g = nested.graph
    spoke16 = edge_between(g, 1, 6)
    spoke37 = edge_between(g, 3, 7)
    # dropping two of the three spokes leaves the inner piece hanging on one
    assert not admissible_contraction(nested, [spoke16, spoke37])
    hexhub = islands()["ring3_hexhub"]
    gh = hexhub.graph
    assert not admissible_contraction(hexhub, [edge_between(gh, 1, 6), edge_between(gh, 3, 6)])
    assert admissible_contraction(hexhub, [edge_between(gh, 1, 6)])
    assert admissible_contraction(hexhub, [edge_between(gh, 0, 1)])
    with pytest.raises(ValueError):
        admissible_contraction(hexhub, [gh.m])


@pytest.mark.heavy
def test_admissibility_matches_references_on_every_rows_island():
    # Every island of every rows row: admissible_contraction, read off the
    # stubbed island less the set, agrees on every set of at most two edges
    # with the bridges of the Graph built by delete_and_suppress_traced, and
    # on every set of three with _bridge_free on _cut_down's chains.
    admissible = 0
    for row, _, _ in ROWS:
        for isl in row_islands(row):
            g = isl.graph
            template = _template(isl)
            for size in (1, 2, 3):
                for xs in itertools.combinations(range(g.m), size):
                    if size == 3:
                        cut = cut_down(template, xs)
                        expected = cut is not None and _bridge_free(cut.n, [ends for ends in cut.pairs if ends])
                    else:
                        expected = 2 not in loss_counts(g, xs) and bridge_free_graph(graph_route(isl, xs)[0])
                    assert admissible_contraction(isl, xs) == expected, (row, xs)
                    admissible += expected
    assert admissible


def test_oracle_with_deletion_uses_merged_chains():
    # Deleting one spoke of the hub island merges its two flanking hexagon
    # edges; the surviving colorings still form a subset of the parity set.
    hexhub = islands()["ring3_hexhub"]
    spoke = edge_between(hexhub.graph, 1, 6)
    survivors = ring_extension_oracle(hexhub, [spoke])
    assert survivors
    assert survivors <= set(parity_colorings(3))


def test_oracle_rejects_pair_loss():
    hexhub = islands()["ring3_hexhub"]
    gh = hexhub.graph
    both_at_0 = [e for e in range(gh.m) if 0 in gh.endpoints(e)]
    with pytest.raises(ValueError, match="exactly two"):
        ring_extension_oracle(hexhub, both_at_0)


# -- completion provenance -----------------------------------------------------


def test_contraction_edges_requires_provenance():
    with pytest.raises(ValueError):
        contraction_edges(
            free_completion(parse_configuration(fixture_text("conf1.conf"))),
            islands()["ring5_cycle"],
            [(0, 1)],
        )


# -- input validation ----------------------------------------------------------


def test_kind_and_cap_validation():
    isl = islands()["ring3_triangle"]
    with pytest.raises(ValueError):
        maximal_consistent_residual(isl, "weird")
    with pytest.raises(ValueError):
        check_reducibility(isl, "planar", 0)


def test_a_non_integer_cap_is_refused_before_the_island_is_read(monkeypatch):
    # pi(3,7) member 1 is D and member 2 is C. A cap of 2.5 is refused
    # alike on both, before validate_island runs; it used to give member 1
    # its D and to fail member 2 in range(), after its decomposition.
    d_member, c_member = row_islands("pi(3,7)")[1:3]
    assert check_reducibility(fresh(d_member), "planar", 5).kind == "D"
    assert check_reducibility(fresh(c_member), "planar", 5).kind == "C"

    def refused(island):
        raise AssertionError("the island was validated")

    monkeypatch.setattr(snarklab.reducibility, "validate_island", refused)
    for isl in (d_member, c_member):
        for kind in KINDS:
            with pytest.raises(TypeError):
                check_reducibility(fresh(isl), kind, 2.5)


def test_the_island_bounds_the_search_depth(monkeypatch):
    # The search stops at the island's edge count, so a cap past it gives
    # the verdict and stats of a cap equal to it; at 10**9 a search that
    # ran on to the cap would loop over a billion sizes. triangle555 is
    # none over all 4,095 sets of its 12 edges, and conf1 is projective C
    # of six of its 15. The planar record keeps the depth, so a
    # projective check at another cap of the same depth resumes it and
    # walks level 0 only.
    cases = (
        (islands()["triangle555"], "planar", "none", (), SearchStats(4095, 234, 0)),
        (conf_islands()["conf1.conf"], "projective", "C", (1, 3, 6, 7, 10, 14), SearchStats(7659, 753, 5)),
    )
    for isl, kind, expected, contraction, stats in cases:
        m = isl.graph.m
        full = check_reducibility(fresh(isl), kind, m)
        assert (full.kind, full.contraction, full.stats) == (expected, contraction, stats)
        for cap in (m + 1, 2 * m, 10**9):
            verdict = check_reducibility(fresh(isl), kind, cap)
            assert verdict == full and verdict.stats == full.stats, cap
    walks = spied_walks(monkeypatch)
    isl = fresh(islands()["triangle555"])
    planar = check_reducibility(isl, "planar", 100)
    walks.clear()
    projective = check_reducibility(isl, "projective", 10**9)
    assert (projective.kind, projective.stats) == (planar.kind, planar.stats)
    assert len(walks) == 1


@pytest.mark.parametrize(
    "edges, boundary, message",
    [
        ([(u, v) for u in range(5) for v in range(u + 1, 5)], (), "vertex 0 has degree 4, not 2 or 3"),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2), "boundary must list the degree-2 vertices once each"),
        ([(v, (v + 1) % 5) for v in range(5)], (0, 1, 2, 3), "boundary must list the degree-2 vertices once each"),
    ],
)
def test_every_entry_refuses_a_bad_ring_boundary(edges, boundary, message):
    # check_reducibility checks the boundary through validate_island,
    # maximal_consistent_residual on its own, and admissible_contraction
    # and ring_extension_oracle through _edge_set; _decompose does not
    # check it again.
    isl = Island(Graph(max(max(e) for e in edges) + 1, edges), boundary)
    with pytest.raises(ConfigurationError, match=message):
        maximal_consistent_residual(isl, "planar")
    with pytest.raises(ConfigurationError, match=message):
        check_reducibility(isl, "planar", 1)
    with pytest.raises(ConfigurationError, match=message):
        admissible_contraction(isl, ())
    with pytest.raises(ConfigurationError, match=message):
        ring_extension_oracle(isl)


def test_a_validated_graph_is_not_searched_for_2_connectivity_again(monkeypatch):
    # A family generator and island_of validate every island they build,
    # and the record keeps that while the graph lives, so the verdict runs
    # no second Tarjan search. The islands are built here, so no other
    # test's record is read; an unrecorded copy is searched once, by its
    # first verdict only.
    calls = []
    low_link = snarklab.configurations.low_link

    def spy(*args):
        calls.append(args)
        return low_link(*args)

    member = generate_delta6()[0].island()
    config = parse_configuration(fixture_text("conf1.conf"))
    monkeypatch.setattr(snarklab.configurations, "low_link", spy)
    verdict = check_reducibility(member, "planar", 1)
    assert calls == []
    built = island_of(config)
    assert len(calls) == 1
    check_reducibility(built, "planar", 1)
    assert len(calls) == 1
    g = member.graph
    copy = Island(Graph(g.n, g.edge_list), member.boundary)
    for _ in range(2):
        assert check_reducibility(copy, "planar", 1) == verdict
    assert len(calls) == 2


@pytest.mark.parametrize("cut", [lambda b: b[:-1], lambda b: b + b[:1], lambda b: ()])
def test_a_recorded_graph_still_checks_its_boundary(cut):
    # The record keeps the degree-2 vertices, not the boundary, so every
    # entry refuses a wrong boundary on a validated graph as before; a
    # reordered one passes, as the check reads no order.
    isl = island_of(parse_configuration(fixture_text("conf1.conf")))
    bad = Island(isl.graph, cut(isl.boundary))
    message = "^boundary must list the degree-2 vertices once each$"
    for entry in (
        validate_island,
        lambda i: check_reducibility(i, "planar", 1),
        lambda i: maximal_consistent_residual(i, "planar"),
        lambda i: admissible_contraction(i, ()),
        ring_extension_oracle,
    ):
        with pytest.raises(ConfigurationError, match=message):
            entry(bad)
    validate_island(Island(isl.graph, isl.boundary[::-1]))


def test_ring_size_past_the_table_bound_is_rejected():
    # RING_LIMIT is the largest k whose orbit_codes(k) and _lift_table(k,
    # kind) have been measured to fit in 1 GB for both kinds; k = 15 has
    # not been measured. ru_maxrss of a fresh process that builds both
    # (Python 3.11, x86-64 Linux), representatives / rows / distinct masks
    # / build time / peak with masks / peak with id arrays (the last column
    # taken when the table held one int32 array of lift ids per row and
    # orbit_representatives still kept every restricted growth string
    # before its parity test):
    #   k = 13 planar      66,430 / 199,290 / 1,365 /  0.6 s /  44 MB /   109 MB
    #   k = 13 projective  66,430 / 199,290 / 1,365 /  1.4 s /  48 MB /   246 MB
    #   k = 14 planar     199,291 / 597,873 / 5,461 /  3.6 s / 118 MB /   403 MB
    #   k = 14 projective 199,291 / 597,873 / 5,461 / 19.2 s / 243 MB / 1,538 MB
    n = RING_LIMIT + 1
    cycle = Island(
        graph_from_neighbors([[(v - 1) % n, (v + 1) % n] for v in range(n)]),
        tuple(range(n)),
    )
    with pytest.raises(ValueError):
        maximal_consistent_residual(cycle, "planar")


@pytest.mark.heavy
@pytest.mark.parametrize("kind", KINDS)
def test_tables_at_the_ring_limit_fit_in_one_gigabyte(kind):
    # The measurement behind RING_LIMIT, checked: a fresh process that
    # builds the orbit codes and the lift table at the limit peaks under
    # 1 GB (ru_maxrss is in KiB on Linux).
    script = (
        "import resource\n"
        "from snarklab.reducibility import RING_LIMIT, _lift_table\n"
        "from snarklab.rings import orbit_codes\n"
        f"orbit_codes(RING_LIMIT)\n_lift_table(RING_LIMIT, {kind!r})\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(pathlib.Path(snarklab.reducibility.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 1 << 20
