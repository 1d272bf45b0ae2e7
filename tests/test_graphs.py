"""Graph core: parsing, embeddings, coloring oracle, Kempe chains, suppression."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import (
    delete_and_suppress,
    delete_and_suppress_traced,
    embedding_orientable,
    flag_perms_oracle,
    format_graph,
    graph_from_neighbors_oracle,
    graph_record,
    low_link_oracle,
    relabeled,
    suppress_chains_oracle,
    without_oracle,
)

from snarklab.graphs import (
    Graph,
    antipodal_quotient,
    articulation_points,
    bridges,
    canonical_key,
    connected_components,
    color_walk,
    edge_components,
    graph_from_edges,
    graph_from_neighbors,
    icosahedron,
    is_isomorphic,
    is_proper_coloring,
    k4,
    k33,
    kempe_chain,
    kempe_swap,
    parse_graph,
    petersen,
    prism,
    remove_embedded,
    subdivide_embedded,
    suppress_chains,
    three_edge_color,
    with_stubs,
)
from snarklab.cutanalysis import _rows, random_planar_cubic, random_planar_side
from snarklab.families import generate_v2y
from snarklab.reducibility import _bridge_free

K4_TEXT = """\
# complete graph on four vertices
cubic 4
0: 1 2 3
1: 0 3 2
2: 0 1 3
3: 0 2 1
"""


def random_cubic(rng, n):
    """Random cubic multigraph on n vertices (n even), loops rejected."""
    while True:
        darts = [v for v in range(n) for _ in range(3)]
        rng.shuffle(darts)
        edges = [(darts[i], darts[i + 1]) for i in range(0, len(darts), 2)]
        if any(u == v for u, v in edges):
            continue
        return graph_from_edges(n, edges)


# -- parsing ----------------------------------------------------------------


def test_parse_k4():
    g = parse_graph(K4_TEXT)
    assert g.n == 4
    assert g.m == 6
    assert g.is_cubic()


def test_parse_rejects_degree_4():
    bad = "cubic 2\n0: 1 1 1\n1: 0 0 0\n"
    g = parse_graph(bad)  # triple edge is still cubic
    assert g.m == 3
    worse = "cubic 4\n0: 1 2 3 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n"
    with pytest.raises(ValueError):
        parse_graph(worse)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_graph("nonsense 4\n")
    with pytest.raises(ValueError):
        parse_graph("cubic 2\n0: 1 1\n1: 0 0\n")
    with pytest.raises(ValueError):
        parse_graph("cubic 2\n0: 1 1 1\n0: 1 1 1\n")


def test_parse_inconsistent_adjacency():
    bad = "cubic 4\n0: 1 1 2\n1: 0 2 3\n2: 0 1 3\n3: 1 2 2\n"
    with pytest.raises(ValueError):
        parse_graph(bad)


def test_format_round_trip():
    g = parse_graph(K4_TEXT)
    again = parse_graph(format_graph(g))
    assert again.edge_list == g.edge_list
    assert again.rotations() == g.rotations()


def test_signs_round_trip():
    text = K4_TEXT + "signs:\n0 1 -1\n2 3 -1\n"
    g = parse_graph(text)
    assert sorted(g.sign(e) for e in range(g.m)).count(-1) == 2
    again = parse_graph(format_graph(g))
    assert again.sign_list == g.sign_list


# -- embeddings -------------------------------------------------------------


def test_k4_planar_embedding():
    g = k4()
    assert g.euler_characteristic() == 2
    walks = g.face_walks()
    assert sorted(len(w) for w in walks) == [3, 3, 3, 3]


def test_k4_self_dual():
    g = k4()
    d = g.dual()
    assert d.n == 4 and d.m == 6
    assert is_isomorphic(d, g)
    assert d.euler_characteristic() == 2


def test_dual_of_dual_is_original():
    g = k4()
    dd = g.dual().dual()
    assert is_isomorphic(dd, g)


def test_icosahedron():
    g = icosahedron()
    assert g.n == 12 and g.m == 30
    assert g.euler_characteristic() == 2
    assert all(len(w) == 3 for w in g.face_walks())


def test_projective_quotient_of_icosahedron():
    g, antipode = icosahedron(with_antipode=True)
    q = antipodal_quotient(g, antipode)
    assert q.n == 6 and q.m == 15
    assert q.euler_characteristic() == 1
    assert not embedding_orientable(q)
    assert all(len(w) == 3 for w in q.face_walks())
    # the quotient is K6: every pair adjacent exactly once
    for u in range(6):
        assert sorted(set(q.neighbors(u))) == [v for v in range(6) if v != u]


def test_petersen_fixture_is_projective_and_dualizes_to_k6():
    g, antipode = icosahedron(with_antipode=True)
    p = antipodal_quotient(g, antipode).dual()
    assert p.n == 10 and p.m == 15
    assert p.is_cubic()
    assert p.euler_characteristic() == 1
    assert is_isomorphic(p, petersen())
    d = p.dual()
    assert d.n == 6
    for u in range(6):
        assert sorted(set(d.neighbors(u))) == [v for v in range(6) if v != u]


def test_crosscap_loop_surface():
    g = Graph(1, [(0, 0)], rotations=[[(0, 0), (0, 1)]], signs=[-1])
    assert g.euler_characteristic() == 1
    g2 = Graph(1, [(0, 0)], rotations=[[(0, 0), (0, 1)]], signs=[1])
    assert g2.euler_characteristic() == 2


def random_rotation_system(rng):
    """Neighbor lists of a random multigraph with loops and parallel
    edges, each list in random rotation order, and negative pairs drawn
    from its edges."""
    n = rng.randint(1, 8)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    pairs += rng.sample(pairs, min(len(pairs), 3))
    pairs += [(v, v) for v in rng.sample(range(n), min(n, 2))]
    rows = [[] for _ in range(n)]
    for u, w in pairs:
        rows[u].append(w)
        rows[w].append(u)
    for row in rows:
        rng.shuffle(row)
    return rows, rng.sample(pairs, rng.randint(0, len(pairs)))


CONSTRUCTION_ERRORS = (
    "neighbor out of range",
    "unmatched loop end",
    "inconsistent adjacency",
    "no remaining edge",
)


def construction_outcome(build, rows, negs):
    try:
        return graph_record(build(rows, negs))
    except ValueError as exc:
        return str(exc)


def test_graph_from_neighbors_matches_quadratic_oracle():
    rng = random.Random(13)
    for _ in range(300):
        rows, negs = random_rotation_system(rng)
        got = graph_from_neighbors(rows, negs)
        assert graph_record(got) == graph_record(graph_from_neighbors_oracle(rows, negs))
        assert got.sign_list.count(-1) == len(negs)


def test_graph_from_neighbors_errors_match_quadratic_oracle():
    # one corrupted entry or one extra negative pair per system; both
    # builders give the same graph or the same error
    rng = random.Random(31)
    errors = set()
    for _ in range(600):
        rows, negs = random_rotation_system(rng)
        mutation = rng.randrange(4)
        if mutation == 0 and any(rows):
            row = rng.choice([r for r in rows if r])
            del row[rng.randrange(len(row))]
        elif mutation == 1 and any(rows):
            row = rng.choice([r for r in rows if r])
            row[rng.randrange(len(row))] = rng.randrange(-1, len(rows) + 1)
        elif mutation == 2:
            rng.choice(rows).append(rng.randrange(len(rows)))
        else:
            negs = negs + [(rng.randrange(len(rows)), rng.randrange(len(rows)))]
        got = construction_outcome(graph_from_neighbors, rows, negs)
        assert got == construction_outcome(graph_from_neighbors_oracle, rows, negs)
        if isinstance(got, str):
            errors.update(kind for kind in CONSTRUCTION_ERRORS if kind in got)
    assert errors == set(CONSTRUCTION_ERRORS)


@pytest.mark.parametrize(
    "rows,negs,message",
    [
        ([[1], [5]], (), "neighbor out of range"),
        ([[0, 1], [0]], (), "vertex 0: unmatched loop end"),
        ([[1, 1], [0]], (), "inconsistent adjacency between 0 and 1"),
        ([[1], [0]], [(1, 0), (0, 1)], "no remaining edge between 0 and 1 to sign"),
    ],
)
def test_graph_from_neighbors_errors(rows, negs, message):
    for build in (graph_from_neighbors, graph_from_neighbors_oracle):
        with pytest.raises(ValueError) as exc:
            build(rows, negs)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "rotations,message",
    [
        ([[(0, 0)]], "rotation count mismatch"),
        ([[(0, 0), (2, 0)], [(0, 1)]], "rotation at vertex 0 is not an order of its darts"),
        ([[(0, 0)], [(0, 2)]], "rotation at vertex 1 is not an order of its darts"),
        ([[(0, 1)], [(0, 0)]], "rotation at vertex 0 is not an order of its darts"),
        ([[(0, 0), (0, 0)], [(0, 1)]], "rotation at vertex 0 is not an order of its darts"),
        ([[(0, 0)], []], "rotation at vertex 1 is not an order of its darts"),
    ],
)
def test_rotation_must_order_the_darts_at_its_vertex(rotations, message):
    # an out-of-range dart, a dart of the other end, a repeat, a miss
    with pytest.raises(ValueError) as exc:
        Graph(2, [(0, 1)], rotations)
    assert str(exc.value) == message


def signed_maps():
    g, antipode = icosahedron(with_antipode=True)
    quotient = antipodal_quotient(g, antipode)
    yield quotient
    yield quotient.dual()
    for y in (3, 4, 5, 6):
        yield generate_v2y(y)
    rng = random.Random(7)
    for _ in range(40):
        yield graph_from_neighbors(*random_rotation_system(rng))


def test_flag_perms_match_oracle_on_signed_maps():
    for g in signed_maps():
        assert g._flag_perms() == flag_perms_oracle(g)


def test_corners_partition_the_faces():
    planar = [random_planar_cubic(random.Random(s), 3) for s in range(5)]
    for g in itertools.chain(signed_maps(), planar):
        walks = g.face_walks()
        corners = g.corner_faces()
        assert [len(c) for c in corners] == g.degrees()
        tally = [0] * len(walks)
        for fi in itertools.chain.from_iterable(corners):
            tally[fi] += 1
        assert tally == [len(w) for w in walks]


def test_chord_keeps_the_sphere_exactly_between_corners_of_one_face():
    # the rule random_planar_cubic grows by, checked over every edge pair
    for s in range(4):
        g = random_planar_cubic(random.Random(s), 2)
        for e1, e2 in itertools.combinations(range(g.m), 2):
            sub, chains = subdivide_embedded(g, {e1: 1, e2: 1})
            a, b = sub.n - 2, sub.n - 1
            corners = sub.corner_faces()
            for sa, sb in itertools.product((1, 2), (1, 2)):
                rows = _rows(sub)
                rows[a].insert(sa, b)
                rows[b].insert(sb, a)
                chi = graph_from_neighbors(rows).euler_characteristic()
                assert (chi == 2) == (corners[a][sa - 1] == corners[b][sb - 1])


# -- embedded surgery -------------------------------------------------------


def test_remove_embedded_matches_rebuild_oracle():
    rng = random.Random(17)
    for s in range(40):
        g = random_planar_cubic(random.Random(s), rng.randint(0, 6))
        vertices = rng.sample(range(g.n), rng.randint(0, 3))
        edges = rng.sample(range(g.m), rng.randint(0, 4))
        got, new_id, kept = remove_embedded(g, vertices, edges)
        want, relab = without_oracle(g, vertices, edges)
        assert graph_record(got) == graph_record(want), s
        assert new_id == relab, s
        for i, e in enumerate(kept):
            assert got.endpoints(i) == tuple(new_id[x] for x in g.endpoints(e)), s


def test_remove_embedded_keeps_signs_and_rotation_order():
    ico, antipode = icosahedron(with_antipode=True)
    petersen_map = antipodal_quotient(ico, antipode).dual()
    rng = random.Random(5)
    for host in [petersen_map] + [generate_v2y(y) for y in (3, 4, 5)]:
        for _ in range(20):
            vertices = rng.sample(range(host.n), rng.randint(0, 2))
            edges = rng.sample(range(host.m), rng.randint(0, 3))
            g, new_id, kept = remove_embedded(host, vertices, edges)
            assert kept == [
                e
                for e in range(host.m)
                if e not in edges and not set(host.endpoints(e)) & set(vertices)
            ]
            assert sorted(new_id) == sorted(set(range(host.n)) - set(vertices))
            assert g.sign_list == [host.sign(e) for e in kept]
            for v, i in new_id.items():
                assert [(kept[e], k) for e, k in g.rotation(i)] == [
                    d for d in host.rotation(v) if d[0] in kept
                ]


# -- coloring oracle --------------------------------------------------------


def test_k4_colorable():
    c = three_edge_color(k4())
    assert c is not None
    assert is_proper_coloring(k4(), c)


def test_prism_colorable():
    g = prism(3)
    c = three_edge_color(g)
    assert c is not None
    assert is_proper_coloring(g, c)


def test_petersen_uncolorable():
    assert three_edge_color(petersen()) is None


def test_k33_colorable():
    assert three_edge_color(k33()) is not None


def test_exhaustive_oracle_matches_backtracker():
    # Over a random edge order, the walk's leaves are exactly the proper
    # colorings with the first edge colored 0, and their color
    # permutations are every proper coloring.
    rng = random.Random(7)
    for _ in range(10):
        g = random_cubic(rng, 8)
        order = rng.sample(range(g.m), g.m)
        leaves = set()

        def collect(color):
            leaves.add(tuple(color))
            return False

        assert not color_walk(g.edge_list, order, collect)
        # every one of the 3^m assignments, checked at each vertex's three
        # edges
        triples = [tuple(g.incident_edges(v)) for v in range(g.n)]
        brute = {
            col
            for col in itertools.product(range(3), repeat=g.m)
            if all(col[a] != col[b] != col[c] != col[a] for a, b, c in triples)
        }
        assert leaves == {c for c in brute if c[order[0]] == 0}
        closed = {
            tuple(perm[c] for c in col)
            for col in leaves
            for perm in itertools.permutations(range(3))
        }
        assert closed == brute


def disjoint_union(g, h):
    shifted = [(u + g.n, w + g.n) for u, w in h.edge_list]
    return graph_from_edges(g.n + h.n, list(g.edge_list) + shifted)


def test_oracle_colors_each_component():
    g = disjoint_union(k4(), k4())
    assert len(edge_components(g.n, g.edge_list)) == 2
    c = three_edge_color(g)
    assert c is not None
    assert is_proper_coloring(g, c)


def test_oracle_fails_when_one_component_is_uncolorable():
    assert three_edge_color(disjoint_union(k4(), petersen())) is None


def test_walk_over_a_loop_reaches_no_leaf():
    # two loops joined by an edge: edge 1 is the only non-loop
    g = graph_from_edges(2, [(0, 0), (0, 1), (1, 1)])
    pairs = g.edge_list
    assert not color_walk(pairs, [1, 0, 2], lambda color: True)
    assert not color_walk(pairs, [0], lambda color: True)
    # edges outside the order constrain nothing
    assert color_walk(pairs, [1], lambda color: True)


def test_with_stubs_appends_one_leaf_stub_per_boundary_vertex():
    # the layout cut-down islands and the C-search rely on, over the
    # sampled 4-cut sides of the cut sweeps
    for seed in range(150):
        side, boundary = random_planar_side(random.Random(seed), 4)
        g = with_stubs(side, boundary)
        assert g.edge_list[: side.m] == side.edge_list, seed
        assert g.sign_list[: side.m] == side.sign_list, seed
        assert [g.endpoints(e) for e in range(side.m, g.m)] == [
            (v, side.n + j) for j, v in enumerate(boundary)
        ], seed


def test_color_classes_are_perfect_matchings():
    rng = random.Random(3)
    for _ in range(20):
        g = random_cubic(rng, 10)
        c = three_edge_color(g)
        if c is None:
            continue
        for color in (0, 1, 2):
            cls = [e for e in range(g.m) if c[e] == color]
            touched = []
            for e in cls:
                touched.extend(g.endpoints(e))
            assert sorted(touched) == list(range(g.n))


def test_non_cubic_rejected():
    g = graph_from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        three_edge_color(g)


# -- Kempe chains -----------------------------------------------------------


def test_kempe_chain_k4_is_4cycle():
    g = k4()
    c = three_edge_color(g)
    e0 = next(e for e in range(g.m) if c[e] == 0)
    chain = kempe_chain(g, c, (0, 1), e0)
    assert chain.is_cycle
    assert len(chain.edges) == 4


def test_kempe_chain_endpoint_independent():
    g = prism(3)
    c = three_edge_color(g)
    e0 = next(e for e in range(g.m) if c[e] == 0)
    chain = kempe_chain(g, c, (0, 2), e0)
    for e in chain.edges:
        other = kempe_chain(g, c, (0, 2), e)
        assert set(other.edges) == set(chain.edges)


def test_kempe_chain_rejects_wrong_color():
    g = k4()
    c = three_edge_color(g)
    e2 = next(e for e in range(g.m) if c[e] == 2)
    with pytest.raises(ValueError):
        kempe_chain(g, c, (0, 1), e2)


def test_kempe_swap_involution_random():
    rng = random.Random(11)
    done = 0
    while done < 100:
        g = random_cubic(rng, rng.choice([8, 10, 12, 14, 16]))
        c = three_edge_color(g)
        if c is None:
            continue
        done += 1
        e = rng.randrange(g.m)
        pair = tuple(sorted({c[e], (c[e] + 1) % 3}))
        chain = kempe_chain(g, c, pair, e)
        c2 = kempe_swap(g, c, chain)
        assert is_proper_coloring(g, c2)
        assert c2 != c
        chain2 = kempe_chain(g, c2, pair, e)
        assert set(chain2.edges) == set(chain.edges)
        c3 = kempe_swap(g, c2, chain2)
        assert c3 == c


def test_kempe_chain_path_in_subcubic():
    # a path of three edges colored 0,1,0 is a maximal chain
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    c = {0: 0, 1: 1, 2: 0}
    chain = kempe_chain(g, c, (0, 1), 1)
    assert not chain.is_cycle
    assert set(chain.edges) == {0, 1, 2}


# -- delete and suppress ----------------------------------------------------


def test_suppress_empty_set_is_identity():
    g = petersen()
    h = delete_and_suppress(g, [])
    assert h.n == g.n and h.m == g.m
    assert is_isomorphic(h, g)


def test_suppress_one_petersen_edge():
    g = petersen()
    h = delete_and_suppress(g, [0])
    assert h.n == 8 and h.m == 12
    assert h.is_cubic()


def test_suppress_rejects_two_edges_at_vertex():
    g = petersen()
    inc = g.incident_edges(0)
    with pytest.raises(ValueError):
        delete_and_suppress(g, inc[:2])


def test_suppress_traced_provenance():
    g = petersen()
    h, prov, dropped = delete_and_suppress_traced(g, [0])
    assert dropped == []
    originals = sorted(e for path in prov.values() for e in path)
    assert originals == [e for e in range(1, 15)]
    merged = [path for path in prov.values() if len(path) > 1]
    assert len(merged) == 2  # one merged path per suppressed vertex


def test_suppress_perfect_matching_drops_cycles():
    # deleting a color class leaves an even 2-factor which suppresses away
    g = k4()
    c = three_edge_color(g)
    matching = [e for e in range(g.m) if c[e] == 0]
    h = delete_and_suppress(g, matching)
    assert h.n == 0 and h.m == 0
    _, prov, dropped = delete_and_suppress_traced(g, matching)
    assert prov == {}
    assert len(dropped) >= 1


def test_suppress_keeps_a_vertex_with_a_kept_loop():
    # a kept loop counts three towards its vertex's degree, so losing the
    # edge 0-1 suppresses neither end
    g = graph_from_edges(2, [(0, 0), (0, 1), (1, 1)])
    h, prov, dropped = delete_and_suppress_traced(g, [1])
    assert (h.n, h.edge_list) == (2, [(0, 0), (1, 1)])
    assert prov == {0: (0,), 1: (2,)} and dropped == []


def test_suppression_preserves_colorability_direction():
    # removing one color class of a colored graph leaves an even 2-factor:
    # the suppressed graph of any single edge removal stays colorable
    rng = random.Random(5)
    done = 0
    while done < 30:
        g = random_cubic(rng, rng.choice([8, 10, 12, 14]))
        c = three_edge_color(g)
        if c is None:
            continue
        done += 1
        e = rng.randrange(g.m)
        h = delete_and_suppress(g, [e])
        if h.n == 0 or h.has_loops():
            continue
        assert three_edge_color(h) is not None


# -- connectivity helpers ---------------------------------------------------


def test_components_and_bridges():
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    assert len(connected_components(g)) == 1
    assert bridges(g) == {3}
    assert len(connected_components(g, omit_edges=[3])) == 2


def test_parallel_edges_are_not_bridges():
    g = graph_from_edges(2, [(0, 1), (0, 1)])
    assert bridges(g) == set()


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=18))
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(multigraphs())
# 0-1 doubled and a loop at 1 ahead of the path 1-2-3; a chain whose two
# leaves fuse into one node, so it bridges nothing
@example((4, [(0, 1), (0, 1), (1, 1), (1, 2), (2, 3)]))
@example((3, [(0, 1), (1, 2)]))
def test_low_link_matches_deletion_oracle(case):
    # Loops and parallel edges included. The leaf-fused test maps every
    # degree-1 vertex to one shared node before asking for a bridge.
    n, pairs = case
    g = graph_from_edges(n, pairs)
    bridge_ids, cut_vertices = low_link_oracle(n, pairs)
    assert bridges(g) == bridge_ids
    assert articulation_points(g) == cut_vertices
    node = [n if g.degree(v) == 1 else v for v in range(n)]
    fused = [(node[u], node[w]) for u, w in pairs]
    assert _bridge_free(n, pairs) == (not low_link_oracle(n + 1, fused)[0])


@st.composite
def cubic_pairings(draw):
    """Cubic multigraphs from a random pairing of darts, loops allowed."""
    n = 2 * draw(st.integers(1, 7))
    darts = draw(st.permutations([v for v in range(n) for _ in range(3)]))
    return n, [(darts[i], darts[i + 1]) for i in range(0, len(darts), 2)]


@st.composite
def removals(draw):
    """A multigraph or a cubic pairing, with a random set of its edges."""
    n, pairs = draw(st.one_of(multigraphs(), cubic_pairings()))
    removed = draw(st.sets(st.sampled_from(range(len(pairs))))) if pairs else set()
    return n, pairs, removed


@settings(max_examples=400, deadline=None)
@given(removals())
@example((2, [(0, 0), (0, 1), (1, 1)], {1}))
@example((4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)], {4, 5}))
def test_suppress_chains_matches_walk_per_edge_oracle(case):
    # The oracle starts a chain walk at every kept edge; the shortcut takes
    # a plain edge, neither end suppressed, at its first dart instead.
    n, pairs, removed = case
    assert suppress_chains(n, pairs, removed) == suppress_chains_oracle(n, pairs, removed)


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_edge_components_contract(case):
    # The lists partition the edges, one per component in order of least
    # edge id, each breadth-first from that edge: an edge is found by the
    # earliest listed edge it shares a vertex with, and the finders'
    # positions never decrease along the list.
    n, pairs = case
    comps = edge_components(n, pairs)
    assert sorted(e for comp in comps for e in comp) == list(range(len(pairs)))
    g = graph_from_edges(n, pairs)
    vertex_comps = [c for c in connected_components(g) if g.incident_edges(c[0])]
    assert len(comps) == len(vertex_comps)
    where = {v: i for i, comp in enumerate(vertex_comps) for v in comp}
    assert [comp[0] for comp in comps] == sorted(min(comp) for comp in comps)
    for comp in comps:
        assert len({where[v] for e in comp for v in pairs[e]}) == 1
        finders = [
            next(j for j in range(i) if set(pairs[comp[j]]) & set(pairs[e]))
            for i, e in enumerate(comp)
            if i
        ]
        assert finders == sorted(finders)


# -- isomorphism ------------------------------------------------------------


def test_relabel_is_isomorphic():
    g = petersen()
    perm = list(range(10))
    random.Random(2).shuffle(perm)
    assert is_isomorphic(g, relabeled(g, perm))


def test_petersen_vs_5_prism():
    assert not is_isomorphic(petersen(), prism(5))


def test_k4_vs_k4_minus_edge():
    g = k4()
    h = graph_from_edges(4, [e for i, e in enumerate(g.edge_list) if i != 0])
    assert not is_isomorphic(g, h)


def test_multigraph_iso_discriminates():
    theta = graph_from_edges(2, [(0, 1), (0, 1), (0, 1)])
    tri = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert not is_isomorphic(theta, tri)
    assert canonical_key(theta) != canonical_key(tri)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_relabel_canonical_key(seed):
    rng = random.Random(seed)
    g = random_cubic(rng, rng.choice([6, 8, 10]))
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_key(g) == canonical_key(relabeled(g, perm))
