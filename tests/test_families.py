"""Island family generators and their reducibility tabulation."""

import itertools
import random
from functools import lru_cache

import pytest
from support import (
    compositions,
    fingerprint,
    flag_perms_oracle,
    graph_record,
    is_biconnected,
    pi_patterns_oracle,
)

from snarklab.configurations import validate_island
from snarklab.families import (
    _parent_ring_ids,
    _patterns,
    family_report,
    generate_delta6,
    generate_gamma,
    generate_pi,
    generate_pi513_star,
    generate_pi_hat_3_6,
    generate_v2y,
)
from snarklab.graphs import (
    canonical_key,
    insert_edge,
    is_isomorphic,
    k33,
    petersen,
    subdivide_embedded,
)
from snarklab.reducibility import admissible_contraction, check_reducibility


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
    return (
        report.d_count,
        report.c_count,
        report.unresolved,
        dict(report.c_size_counts),
    )


# -- crossed cycles ----------------------------------------------------------


def test_crossed_cycle_small_cases():
    v6 = generate_v2y(3)
    assert is_isomorphic(v6, k33())
    v10 = generate_v2y(5)
    assert (v10.n, v10.m) == (10, 15)
    assert v10.is_cubic()
    # same size as the Petersen graph but a different graph: the crossed
    # cycle has 4-cycles while Petersen's girth is 5
    assert not is_isomorphic(v10, petersen())


@pytest.mark.parametrize("y", [3, 4, 5, 6])
def test_crossed_cycle_embedding(y):
    g = generate_v2y(y)
    assert g.euler_characteristic() == 1
    lengths = sorted(len(w) for w in g.face_walks())
    assert lengths == [4] * y + [2 * y]
    assert sum(1 for e in range(g.m) if g.sign(e) == -1) == y


@pytest.mark.parametrize("y", [0, 1, 2])
def test_crossed_cycle_rejects_small_y(y):
    with pytest.raises(ValueError):
        generate_v2y(y)


# -- gamma: all subdivision patterns ------------------------------------------


def test_gamma_without_vertices_is_not_an_island():
    (bare,) = gamma(3, 0)
    assert not bare.is_island
    assert bare.boundary == ()
    assert is_isomorphic(bare.graph, k33())
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
        assert m.graph.euler_characteristic() == 1
        assert is_biconnected(m.graph)
    assert len(keys(pi(y, k))) == len(pi(y, k))


def ring_gaps(member):
    """Branch vertices in ring-face order and the degree-2 runs between
    them, recovered from the graph alone."""
    g = member.graph
    two = set(member.boundary)
    walks = [
        [g.dart_vertex(d) for d in w]
        for w in g.face_walks()
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
        assert m.graph.euler_characteristic() == 1
        assert all(sum(x) == 4 for x in m.patterns)
    assert len(keys(members)) == 38


def test_delta6_reducibility_profile():
    report = family_report(delta6(), "planar", 4)
    assert profile(report) == (10, 28, 0, {1: 26, 2: 1, 4: 1})


# -- the chord-extended ring-6 family ---------------------------------------------


def test_pi_hat_members():
    members = pi_hat()
    assert len(members) == 187
    for m in members:
        validate_island(m.island())
        assert m.ring_size == 6
        assert (m.graph.n, m.graph.m) == (14, 18)
        assert m.graph.euler_characteristic() == 1
        assert is_biconnected(m.graph)
    assert len(keys(members)) == 187


def test_pi_hat_all_reducible():
    report = family_report(pi_hat(), "planar", 4)
    assert profile(report) == (141, 46, 0, {1: 46})


def test_projective_chord_joins_corners_of_one_face():
    # the signed counterpart of the plane rule random_planar_cubic grows
    # by: over every slot and sign choice for every chord of the family,
    # chi == 1 puts both corners on one face, so routing only such slot
    # pairs drops no routing; the converse fails on a signed map
    routed = unrouted = 0
    for parent in pi(3, 6):
        h = parent.graph
        ring_ids = _parent_ring_ids(parent)
        for walk in h.face_walks():
            face_edges = sorted({d[0] for d in walk})
            if all(e in ring_ids for e in face_edges):
                continue
            for e, f in itertools.combinations(face_edges, 2):
                if set(h.endpoints(e)) & set(h.endpoints(f)):
                    continue
                sub, _ = subdivide_embedded(h, {e: 1, f: 1})
                a, b = sub.n - 2, sub.n - 1
                corners = sub.corner_faces()
                for sa, sb, sign in itertools.product((0, 1), (0, 1), (1, -1)):
                    chi = insert_edge(sub, a, sa, b, sb, sign).euler_characteristic()
                    shared = corners[a][sa - 1] == corners[b][sb - 1]
                    if chi == 1:
                        assert shared, (parent.patterns[0], e, f, sa, sb, sign)
                        routed += 1
                    elif shared:
                        unrouted += 1
    assert routed and unrouted


def test_flag_perms_match_oracle_on_pi_hat_members():
    for m in pi_hat():
        assert m.graph._flag_perms() == flag_perms_oracle(m.graph)


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
    deep = [r for r in report.rows if r.verdict == "C" and r.contraction_size >= 4]
    assert len(deep) == 3


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
    deep = [r for r in report.rows if r.verdict == "C" and r.contraction_size >= 5]
    assert len(deep) == 2


def test_family_report_is_order_independent():
    members = list(pi(3, 6))
    base = family_report(members, "planar", 2)
    random.Random(7).shuffle(members)
    assert family_report(members, "planar", 2) == base


def test_family_report_parallel_matches_serial():
    members = pi(3, 6)
    assert family_report(members, "planar", 2, jobs=2) == family_report(
        members, "planar", 2
    )


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
def test_ring13_row():
    # the full ring-13 row; projected at about 1 h on one core from 24
    # sampled members (every 76th), not yet run in full
    report = family_report(pi(5, 13), "planar", 5)
    assert (report.d_count, report.c_count, report.unresolved) == (115, 1699, 6)
    deep = sum(n for size, n in report.c_size_counts if size >= 5)
    assert deep == 158
