"""Island family generators and their reducibility tabulation."""

import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest
from support import (
    compositions,
    fingerprint,
    flag_perms_oracle,
    graph_record,
    insert_edge,
    is_biconnected,
    k33,
    pi_patterns_oracle,
    route_chord_oracle,
)

import snarklab.families
from snarklab.configurations import validate_island
from snarklab.families import (
    _edge_perms,
    _patterns,
    _petersen_remnant,
    _pi_hat_chords,
    family_report,
    generate_delta6,
    generate_gamma,
    generate_pi,
    generate_pi513_star,
    generate_pi_hat_3_6,
    generate_v2y,
)
from snarklab.graphs import (
    FaceTrace,
    Graph,
    automorphisms,
    canonical_key,
    edge_list_key,
    petersen,
    subdivide_embedded,
    subdivided_edges,
)
from snarklab.reducibility import SearchStats, admissible_contraction, check_reducibility


@lru_cache(maxsize=None)
def pi(y, k):
    return generate_pi(y, k)


@lru_cache(maxsize=None)
def gamma(y, k):
    return generate_gamma(y, k)


@lru_cache(maxsize=None)
def delta6():
    return generate_delta6()


@lru_cache(maxsize=None)
def pi_hat():
    return generate_pi_hat_3_6()


def keys(members):
    return {canonical_key(m.graph) for m in members}


def profile(report):
    # the aggregates are the tallies of the rows
    verdicts = Counter(row.kind for row in report.rows)
    assert (report.d_count, report.c_count, report.unresolved) == (
        verdicts["D"],
        verdicts["C"],
        verdicts["none"],
    )
    assert set(verdicts) <= {"D", "C", "none"}
    sizes = Counter(len(row.contraction) for row in report.rows if row.kind == "C")
    assert report.c_size_counts == tuple(sorted(sizes.items()))
    return (
        report.d_count,
        report.c_count,
        report.unresolved,
        dict(report.c_size_counts),
    )


def row_fingerprint(report):
    # which member got which verdict, beyond the tallies profile checks
    return fingerprint(
        (row.kind, len(row.contraction) if row.kind == "C" else None) for row in report.rows
    )


# -- crossed cycles ----------------------------------------------------------


def test_crossed_cycle_small_cases():
    v6 = generate_v2y(3)
    assert canonical_key(v6) == canonical_key(k33())
    v10 = generate_v2y(5)
    assert (v10.n, v10.m) == (10, 15)
    assert v10.is_cubic()
    # same size as the Petersen graph but a different graph: the crossed
    # cycle has 4-cycles while Petersen's girth is 5
    assert canonical_key(v10) != canonical_key(petersen())


@pytest.mark.parametrize("y", [3, 4, 5, 6])
def test_crossed_cycle_embedding(y):
    g = generate_v2y(y)
    trace = FaceTrace(g)
    assert trace.chi == 1
    lengths = sorted(len(w) for w in trace.walks)
    assert lengths == [4] * y + [2 * y]
    assert sum(1 for e in range(g.m) if g.sign(e) == -1) == y


@pytest.mark.parametrize("y", [0, 1, 2])
def test_crossed_cycle_rejects_small_y(y):
    with pytest.raises(ValueError):
        generate_v2y(y)


@pytest.mark.parametrize(
    "generate, y, k, message",
    [
        (generate_gamma, 2, 3, "crossed cycle needs y >= 3"),
        (generate_pi, 2, -1, "crossed cycle needs y >= 3"),
        (generate_gamma, 3, -1, "cannot plant a negative number of vertices"),
        (generate_pi, 3, -1, "cannot plant a negative number of vertices"),
    ],
)
def test_cycle_families_refuse_by_message(generate, y, k, message):
    with pytest.raises(ValueError) as exc:
        generate(y, k)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


# -- gamma: all subdivision patterns ------------------------------------------


def test_gamma_without_vertices_is_not_an_island():
    (bare,) = gamma(3, 0)
    assert not bare.is_island
    assert bare.boundary == ()
    assert canonical_key(bare.graph) == canonical_key(k33())
    with pytest.raises(ValueError):
        bare.island()


def test_gamma_single_vertex_is_a_single_class():
    members = gamma(3, 1)
    assert len(members) == 1
    assert members[0].ring_size == 1


@pytest.mark.parametrize(
    "k,abstract,dihedral", [(6, 42, 50), (7, 66, 76), (8, 110, 126)]
)
def test_gamma_class_counts_on_the_hexagon(k, abstract, dihedral):
    members = gamma(3, k)
    assert len(members) == abstract
    assert sum(len(m.patterns) for m in members) == dihedral
    # the class merge is sound: representatives stay pairwise distinct
    assert len(keys(members)) == abstract


# -- pi: covered opposites and spread arcs -------------------------------------


@pytest.mark.parametrize(
    "y,k,count",
    [
        (3, 6, 14),
        (3, 7, 27),
        (3, 8, 50),
        (4, 6, 2),
        (4, 7, 8),
        (4, 8, 30),
        (5, 8, 2),
        (5, 9, 17),
        (5, 10, 78),
        (5, 11, 264),
        (5, 12, 743),
        (5, 13, 1820),
    ],
)
def test_pi_class_counts(y, k, count):
    assert len(pi(y, k)) == count


@pytest.mark.parametrize(
    "y,k",
    [(3, 6), (3, 7), (3, 8), (4, 6), (4, 7), (4, 8), (4, 9), (5, 8), (5, 9), (5, 10), (5, 11)],
)
def test_pruned_pi_patterns_match_generate_and_filter(y, k):
    assert _patterns(k, 2 * y, y) == pi_patterns_oracle(y, k)


@pytest.mark.parametrize("total,parts", [(0, 6), (1, 1), (4, 8), (6, 6), (7, 8)])
def test_unbounded_patterns_are_all_compositions(total, parts):
    assert _patterns(total, parts) == list(compositions(total, parts))


@pytest.mark.parametrize("y,k", [(3, 6), (4, 7), (3, 8)])
def test_pi_members_are_gamma_members(y, k):
    assert keys(pi(y, k)) <= keys(gamma(y, k))
    assert len(pi(y, k)) < len(gamma(y, k))


@pytest.mark.parametrize("y,k", [(3, 6), (4, 7), (5, 8)])
def test_pi_members_are_valid_islands(y, k):
    for m in pi(y, k):
        validate_island(m.island())
        assert m.ring_size == k
        assert m.graph.n == 2 * y + k
        assert FaceTrace(m.graph).chi == 1
        assert is_biconnected(m.graph)
    assert len(keys(pi(y, k))) == len(pi(y, k))


def ring_gaps(member):
    """Branch vertices in ring-face order and the degree-2 runs between
    them, recovered from the graph alone."""
    g = member.graph
    two = set(member.boundary)
    walks = [
        [g.dart_vertex(d) for d in w]
        for w in FaceTrace(g).walks
        if two <= {g.dart_vertex(d) for d in w}
    ]
    assert len(walks) == 1
    verts = walks[0]
    bpos = [i for i, v in enumerate(verts) if g.degree(v) == 3]
    gaps = []
    for j, i in enumerate(bpos):
        nxt = bpos[(j + 1) % len(bpos)]
        gaps.append((nxt - i) % len(verts) - 1)
    return verts, [verts[i] for i in bpos], gaps


def least_turn(x):
    n = len(x)
    options = [tuple(x[(i + r) % n] for i in range(n)) for r in range(n)]
    xr = x[::-1]
    options += [tuple(xr[(i + r) % n] for i in range(n)) for r in range(n)]
    return min(options)


@pytest.mark.parametrize("y,k", [(3, 7), (4, 7)])
def test_pi_conditions_reverified_from_the_graphs(y, k):
    n = 2 * y
    for m in pi(y, k):
        verts, branch, gaps = ring_gaps(m)
        assert len(branch) == n and sum(gaps) == k
        index = {v: i for i, v in enumerate(branch)}
        for i, b in enumerate(branch):
            wi = verts.index(b)
            along = {verts[wi - 1], verts[(wi + 1) % len(verts)]}
            (partner,) = [w for w in m.graph.neighbors(b) if w not in along]
            assert index[partner] == (i + y) % n
        assert all(gaps[i] + gaps[i + y] >= 1 for i in range(y))
        assert all(
            sum(gaps[(i + j) % n] for j in range(s)) >= s - 1
            for s in range(2, y)
            for i in range(n)
        )
        assert least_turn(gaps) in m.patterns


def test_pi513_star_members():
    members = generate_pi513_star()
    assert len(members) == 54
    assert keys(members) <= keys(pi(5, 13))
    for m in members:
        for x in m.patterns:
            assert sum(1 for v in x if v == 0) <= 1
            assert all(x[i] + x[(i + 1) % 10] + x[(i + 2) % 10] >= 3 for i in range(10))
            assert all(
                x[i] + x[(i + 1) % 10] + x[(i + 5) % 10] + x[(i + 6) % 10] >= 4
                for i in range(10)
            )


# -- the Petersen-remnant family -----------------------------------------------


def test_delta6_members():
    members = delta6()
    assert len(members) == 38
    assert sum(len(m.patterns) for m in members) == 90
    for m in members:
        validate_island(m.island())
        assert m.ring_size == 6
        assert (m.graph.n, m.graph.m) == (14, 18)
        assert FaceTrace(m.graph).chi == 1
        assert all(sum(x) == 4 for x in m.patterns)
    assert len(keys(members)) == 38


def test_delta6_reducibility_profile():
    report = family_report(delta6(), "planar", 4)
    assert profile(report) == (10, 28, 0, {1: 26, 2: 1, 4: 1})
    assert row_fingerprint(report) == (
        "e63b31c70ac30f09c7a9a8fdfd56ba7a24ca52e0fd11205ab308104e91d24200"
    )


# -- the chord-extended ring-6 family ---------------------------------------------


def test_pi_hat_members():
    members = pi_hat()
    assert len(members) == 187
    for m in members:
        validate_island(m.island())
        assert m.ring_size == 6
        assert (m.graph.n, m.graph.m) == (14, 18)
        assert FaceTrace(m.graph).chi == 1
        assert is_biconnected(m.graph)
    assert len(keys(members)) == 187


def test_pi_hat_all_reducible():
    report = family_report(pi_hat(), "planar", 4)
    assert profile(report) == (141, 46, 0, {1: 46})
    assert row_fingerprint(report) == (
        "1a8341775ed4ed608d6f326f8f9fa5c6ee6886497add2191227883190bb923a8"
    )


def test_projective_chord_joins_corners_of_one_face():
    # the signed counterpart of the plane rule random_planar_cubic grows
    # by: over every slot and sign choice for every non-adjacent edge pair
    # on a common face of a pi(3, 6) or delta6 member, a chord keeps
    # chi == 1 exactly when FaceTrace routes it, with that sign: its
    # corners share a face, as the subdivided map's own corners say, and
    # on a signed map the sign that splits the face is read from the
    # parent's one trace
    routed = unrouted = 0
    for parent in pi(3, 6) + delta6():
        h = parent.graph
        trace = FaceTrace(h)
        pairs = {
            pair
            for walk in trace.walks
            for pair in itertools.combinations(sorted({d[0] for d in walk}), 2)
            if not set(h.endpoints(pair[0])) & set(h.endpoints(pair[1]))
        }
        for e, f in sorted(pairs):
            routes = {(se, sf): sign for se, sf, sign, _ in trace.chords(e, f)}
            sub, _ = subdivide_embedded(h, {e: 1, f: 1})
            a, b = sub.n - 2, sub.n - 1
            corners = FaceTrace(sub).corners()
            for sa, sb, sign in itertools.product((0, 1), (0, 1), (1, -1)):
                where = (parent.patterns[0], e, f, sa, sb, sign)
                shared = corners[a][sa - 1] == corners[b][sb - 1]
                assert shared == ((sa, sb) in routes), where
                chi = FaceTrace(insert_edge(sub, a, sa, b, sb, sign)).chi
                assert (chi == 1) == (routes.get((sa, sb)) == sign), where
                if chi == 1:
                    routed += 1
                elif shared:
                    unrouted += 1
    assert routed and unrouted


def test_pi_hat_routes_match_trial_build_oracle():
    # every chord's route, read from its parent's trace, is the first slot
    # and sign choice that a trial build keeps projective with one ring
    # face; the one combined build equals the subdivision plus the chord,
    # and the abstract graph that keys the chord is its edge list
    count = 0
    for key, pattern, embed in _pi_hat_chords():
        h, counts, ring_ids, chord = embed.args
        assert pattern[-2:] == tuple(counts) == tuple(sorted(counts))
        sub, chains = subdivide_embedded(h, counts)
        new_ring = {ne for r in ring_ids for ne in chains[r]}
        assert route_chord_oracle(sub, h.n, h.n + 1, new_ring) == (chord[1], chord[3], chord[4])
        built, _ = subdivide_embedded(h, counts, chord)
        assert graph_record(built) == graph_record(insert_edge(sub, *chord))
        n, pairs, _ = subdivided_edges(h, counts)
        assert (n, pairs + [(h.n, h.n + 1)]) == (built.n, built.edge_list)
        assert key == canonical_key(built)
        count += 1
    assert count == 396


def test_delta6_abstract_keys_match_the_embedded_members():
    base, oct_edges = _petersen_remnant()
    for m in delta6():
        for x in m.patterns:
            counts = {oct_edges[i]: x[i] for i in range(8) if x[i]}
            n, pairs, _ = subdivided_edges(base, counts)
            assert canonical_key(Graph(n, pairs)) == canonical_key(m.graph)


def test_merged_families_embed_each_class_once(monkeypatch):
    # candidates are keyed from their abstract graphs; only the first of
    # each class is embedded and traced. Each pi(3, 6) parent is traced
    # twice: once as _planted builds it, once as _pi_hat_chords routes
    # its chords. A chord is keyed once per orbit of edge pairs under its
    # parent's automorphisms, searched once per parent; the crossed
    # cycle's own search is made before counting, once per process
    parents = len(pi(3, 6))
    snarklab.families._crossed_cycle(3)
    calls = Counter()
    key, auts = edge_list_key, automorphisms
    subdivide, trace = subdivide_embedded, FaceTrace.__init__

    def counted_key(n, edges):
        calls["key"] += 1
        return key(n, edges)

    def counted_automorphisms(g):
        calls["automorphisms"] += 1
        return auts(g)

    def counted_subdivide(g, counts, chord=None):
        calls["chord" if chord else "subdivide"] += 1
        return subdivide(g, counts, chord)

    def counted_trace(self, g):
        calls["trace", g.m] += 1
        trace(self, g)

    monkeypatch.setattr(snarklab.families, "edge_list_key", counted_key)
    monkeypatch.setattr(snarklab.families, "automorphisms", counted_automorphisms)
    monkeypatch.setattr(snarklab.families, "subdivide_embedded", counted_subdivide)
    monkeypatch.setattr(FaceTrace, "__init__", counted_trace)
    members = generate_pi_hat_3_6()
    assert len(members) == 187
    assert calls == Counter(
        {"key": 272, "automorphisms": parents, "chord": 187, ("trace", 18): 187,
         "subdivide": parents, ("trace", 15): 2 * parents}
    )
    calls.clear()
    members = generate_delta6()
    assert len(members) == 38
    assert calls["subdivide"] == 38 and calls["trace", 18] == 38
    assert calls["key"] == sum(len(m.patterns) for m in members)
    assert calls["automorphisms"] == 1


def test_edge_perms_refuse_edges_with_the_same_ends():
    # an edge is named by its ends, so a parallel edge or a second loop at
    # a vertex would take another edge's id
    assert len(_edge_perms(k33())) == 72
    theta = Graph(2, [(0, 1)] * 3)
    with pytest.raises(ValueError, match="edge 1 repeats the ends of edge 0"):
        _edge_perms(theta)
    # the ends are checked before the symmetry search runs
    loops = Graph(2, [(0, 0), (0, 1), (0, 0)])
    with pytest.raises(ValueError, match="edge 2 repeats the ends of edge 0"):
        _edge_perms(loops)


def test_flag_perms_match_oracle_on_pi_hat_members():
    for m in pi_hat():
        assert FaceTrace.involutions(m.graph) == flag_perms_oracle(m.graph)


# -- golden fingerprints ------------------------------------------------------------

# sha256 over graph_record, boundary and patterns of every member, in
# generator order, for the benchmark's rows families and for pi(5, 13),
# pinned from the quadratic construction and the generate-and-filter
# pattern search that tests/support.py keeps as oracles
MEMBER_FINGERPRINTS = {
    "pi(3,6)": (lambda: pi(3, 6), "e65723eb643e50a6e32268237a0931a658739c8eac7efa29f949762b0cf8aedd"),
    "pi(4,6)": (lambda: pi(4, 6), "600df696faab6507d70157f5af1cee661c5c42f695ae23fdb5f497a9f3e4d40a"),
    "pi(4,7)": (lambda: pi(4, 7), "c89f6c64c6e69ca628947373b324222825f1d703a1de2d731337476cf3cd9f90"),
    "pi(5,8)": (lambda: pi(5, 8), "acae2d354fc9d3b12d67144dc76ab3ace93fea340a9e1aaa6b4cfed11d04938e"),
    "pi(3,7)": (lambda: pi(3, 7), "c025e7cdbd0deccf6c1accfc4eb59057bb067188c2beb0b8bc874f2879a812d2"),
    "delta6": (delta6, "e66ca44199b1b04b27ef8a4bf462a000c51f008b4287e6100f87ec231a332db2"),
    "pi_hat_3_6": (pi_hat, "e75028cb798cd56e442da049fd0c601fdf6e2777e88463ec5e4f159dd5f3304a"),
    "pi(5,13)": (lambda: pi(5, 13), "1f73c3ebcee4d7ad55a23e03601b8477d13596780f33acc4f0bbacb5aef1a6d3"),
}


@pytest.mark.parametrize("name", MEMBER_FINGERPRINTS)
def test_member_fingerprints(name):
    members, digest = MEMBER_FINGERPRINTS[name]
    records = (graph_record(m.graph) + (m.boundary, m.patterns) for m in members())
    assert fingerprint(records) == digest


# sha256 over the key of every pi-hat and then every delta6 candidate, in
# the order found. Member order only shows how the keys sort; this pins
# their values
CANDIDATE_KEYS_FINGERPRINT = "ef582ddbb5c59965f9585d5b6cea8bb7db6b3a5ed618782334bbf7129d8fbded"


def test_candidate_key_fingerprint(monkeypatch):
    keys = {}
    merge = snarklab.families._merge_isomorphic

    def recorded(family, found):
        found = list(found)
        keys[family] = [key for key, _, _ in found]
        return merge(family, found)

    monkeypatch.setattr(snarklab.families, "_merge_isomorphic", recorded)
    generate_pi_hat_3_6()
    generate_delta6()
    assert (len(keys["pi-hat-3-6"]), len(keys["delta6"])) == (396, 90)
    assert fingerprint(keys["pi-hat-3-6"] + keys["delta6"]) == CANDIDATE_KEYS_FINGERPRINT


# -- reducibility tabulation ------------------------------------------------------


@pytest.mark.parametrize(
    "y,k,cap,expected",
    [
        (3, 6, 2, (5, 9, 0, {1: 8, 2: 1})),
        (4, 6, 2, (2, 0, 0, {})),
        (4, 7, 2, (8, 0, 0, {})),
        (5, 8, 2, (2, 0, 0, {})),
        (4, 8, 2, (29, 1, 0, {1: 1})),
        (5, 9, 4, (16, 1, 0, {1: 1})),
    ],
)
def test_small_row_profiles(y, k, cap, expected):
    assert profile(family_report(pi(y, k), "planar", cap)) == expected


def test_ring7_row_needs_depth_five():
    members = pi(3, 7)
    assert profile(family_report(members, "planar", 4)) == (
        4,
        22,
        1,
        {1: 19, 2: 1, 4: 2},
    )
    report = family_report(members, "planar", 5)
    assert profile(report) == (4, 23, 0, {1: 19, 2: 1, 4: 2, 5: 1})
    deep = [r for r in report.rows if len(r.contraction) >= 4]
    assert len(deep) == 3


# (subsets enumerated, walked, bridge-tested) per pi(3,7) member at cap 5;
# the kinds differ at member 2 only
RING7_STATS = [
    (898, 394, 1), (0, 0, 0), (8, 8, 1), (4, 4, 1), (14, 14, 1), (9, 9, 1),
    (4, 4, 1), (15, 15, 1), (9, 9, 1), (1, 1, 1), (16, 16, 1), (1130, 464, 2),
    (0, 0, 0), (5, 5, 1), (4, 4, 1), (4275, 873, 2), (5, 5, 1), (4, 4, 1),
    (133, 110, 1), (4, 4, 1), (14, 14, 1), (0, 0, 0), (4, 4, 1), (5, 5, 1),
    (7, 7, 1), (4, 4, 1), (0, 0, 0),
]


def test_ring7_search_stats():
    # Verdict equality ignores stats, so the C-search's work is pinned here:
    # a change to how subsets are cut down or walked must not change it.
    for kind, member2 in (("planar", (8, 8, 1)), ("projective", (6884, 1076, 4))):
        expected = [SearchStats(*x) for x in RING7_STATS]
        expected[2] = SearchStats(*member2)
        got = [check_reducibility(m.island(), kind, 5).stats for m in pi(3, 7)]
        assert got == expected, kind


def test_ring7_escapee_is_blocked_by_the_chain_guard():
    # this member's only depth-4 deletion set that would kill the
    # residual leaves a bridged chain, so the checker rejects it and
    # resolves one level deeper
    (esc,) = [m for m in pi(3, 7) if m.patterns == ((0, 1, 0, 2, 2, 2),)]
    island = esc.island()
    assert check_reducibility(island, "planar", 4).kind == "none"
    assert not admissible_contraction(island, (2, 7, 9, 10))
    verdict = check_reducibility(island, "planar", 5)
    assert verdict.kind == "C"
    assert verdict.contraction == (1, 3, 6, 7, 15)


def test_ring8_row_at_depth_five():
    report = family_report(pi(3, 8), "planar", 5)
    assert profile(report) == (6, 44, 0, {1: 35, 2: 3, 4: 4, 5: 2})
    deep = [r for r in report.rows if len(r.contraction) >= 5]
    assert len(deep) == 2


def test_family_report_is_order_independent():
    members = list(pi(3, 6))
    base = family_report(members, "planar", 2)
    random.Random(7).shuffle(members)
    assert family_report(members, "planar", 2) == base


def test_family_report_refuses_a_ringless_member():
    # generate_gamma(3, 0) plants no ring vertex, so its member is no
    # island
    members = generate_gamma(3, 0)
    assert members and not any(m.is_island for m in members)
    with pytest.raises(ValueError) as exc:
        family_report(members)
    assert str(exc.value) == "member has no ring and is not an island"


def test_family_report_refuses_a_bad_kind():
    # the matching tables hold the one kind check, met at the first member
    with pytest.raises(ValueError) as exc:
        family_report(generate_pi(3, 6)[:2], kind="bogus")
    assert str(exc.value) == "kind must be planar or projective"


def test_generators_are_deterministic():
    first = generate_pi(3, 7)
    second = generate_pi(3, 7)
    assert [m.patterns for m in first] == [m.patterns for m in second]
    assert [canonical_key(m.graph) for m in first] == [
        canonical_key(m.graph) for m in second
    ]
    assert [m.patterns for m in generate_delta6()] == [
        m.patterns for m in generate_delta6()
    ]


# -- heavy rows -------------------------------------------------------------------


def test_ring10_row():
    assert profile(family_report(pi(5, 10), "planar", 4)) == (61, 17, 0, {1: 17})


@pytest.mark.heavy
def test_ring11_row():
    assert profile(family_report(pi(5, 11), "planar", 4)) == (
        134,
        130,
        0,
        {1: 119, 3: 11},
    )


@pytest.mark.heavy
def test_ring12_row():
    report = family_report(pi(5, 12), "planar", 4)
    assert (report.d_count, report.c_count, report.unresolved) == (179, 564, 0)


@pytest.mark.heavy
def test_ring13_sample_verdicts_and_stats():
    # a one-edge, a 9-subset and a 17-level depth-5 member, planar at cap 5
    members = pi(5, 13)
    expected = {
        0: ("C", (0,), 4, SearchStats(1, 1, 1)),
        900: ("C", (8,), 7, SearchStats(9, 9, 1)),
        1216: ("C", (1, 4, 7, 9, 13), 16, SearchStats(46495, 17304, 19)),
    }
    for i, want in expected.items():
        verdict = check_reducibility(members[i].island(), "planar", 5)
        got = (verdict.kind, verdict.contraction, verdict.levels_used, verdict.stats)
        assert got == want, i


# the pi(5, 13) members no contraction reduces, by first pattern: none over
# all 2**28 - 1 sets of their 28 island edges, planar (ROADMAP item 20)
IRREDUCIBLE_RING13 = {
    (0, 1, 1, 1, 0, 1, 3, 2, 2, 2): (13, SearchStats(268435455, 322999, 1165)),
    (0, 1, 1, 1, 0, 1, 2, 2, 2, 3): (13, SearchStats(268435455, 322999, 1165)),
    (0, 1, 2, 0, 3, 1, 0, 2, 3, 1): (13, SearchStats(268435455, 322999, 2330)),
    (0, 1, 1, 3, 2, 1, 0, 3, 0, 2): (13, SearchStats(268435455, 322999, 2330)),
    (0, 1, 1, 1, 3, 1, 0, 3, 0, 3): (20, SearchStats(268435455, 322999, 3492)),
    (0, 1, 1, 3, 0, 1, 3, 0, 1, 3): (15, SearchStats(268435455, 322999, 2330)),
}


@lru_cache(maxsize=None)
def ring13_by_pattern():
    members = {m.patterns[0]: m for m in pi(5, 13)}
    assert len(members) == len(pi(5, 13))
    return members


@pytest.mark.heavy
@pytest.mark.parametrize("pattern", IRREDUCIBLE_RING13)
def test_ring13_member_is_none_at_full_depth(pattern):
    # about 14 s each; a cap past the 28 edges searches no deeper
    isl = ring13_by_pattern()[pattern].island()
    assert isl.graph.m == 28
    verdict = check_reducibility(isl, "planar", 10**9)
    assert (verdict.kind, verdict.levels_used, verdict.stats) == ("none", *IRREDUCIBLE_RING13[pattern])


@pytest.mark.heavy
def test_ring13_member_383_is_c_of_nine_edges_at_cap_9():
    # the one member of the row that becomes C at cap 9 (ROADMAP item 1)
    isl = ring13_by_pattern()[(0, 1, 1, 3, 0, 2, 3, 0, 2, 1)].island()
    verdict = check_reducibility(isl, "planar", 9)
    got = (verdict.kind, verdict.contraction, verdict.levels_used, verdict.stats)
    assert got == ("C", (0, 4, 6, 8, 9, 10, 13, 14, 17), 19, SearchStats(6366271, 227821, 1285))


@pytest.mark.heavy
def test_ring13_row():
    # the full ring-13 row; one full run on one core took 637.6 s at
    # 599fd29 and gave (115, 1645, 60) against the pinned (115, 1699, 6)
    # (ROADMAP item 1)
    report = family_report(pi(5, 13), "planar", 5)
    assert (report.d_count, report.c_count, report.unresolved) == (115, 1699, 6)
    deep = sum(n for size, n in report.c_size_counts if size >= 5)
    assert deep == 158
