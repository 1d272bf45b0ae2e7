"""Graph core: parsing, embeddings, coloring oracle, Kempe chains, suppression."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import (
    abstract_petersen,
    antipodal_quotient,
    automorphisms_oracle,
    conflicts_oracle,
    delete_and_suppress,
    delete_and_suppress_traced,
    embedding_orientable,
    first_edge_color_walk,
    fixture_graph,
    flag_perms_oracle,
    format_graph,
    graph_from_neighbors_oracle,
    graph_record,
    icosahedron,
    k33,
    kempe_chain,
    kempe_swap,
    components_oracle,
    least_leaves_oracle,
    low_link_oracle,
    prism,
    random_cubic,
    recursive_color_walk,
    relabeled,
    suppress_chains,
    suppress_chains_oracle,
    with_stubs,
    without_oracle,
)

import snarklab.graphs
from snarklab.graphs import (
    FaceTrace,
    Graph,
    _least_leaves,
    automorphisms,
    canonical_key,
    color_walk,
    edge_components,
    graph_from_neighbors,
    is_proper_coloring,
    k4,
    low_link,
    neighbor_rows,
    parse_graph,
    petersen,
    remove_embedded,
    subdivide_embedded,
    subdivided_edges,
    three_edge_color,
    walk_conflicts,
)
from snarklab.configurations import ConfigurationError, parse_configuration
from snarklab.cutanalysis import random_planar_cubic, random_planar_side
from snarklab.cuts import _is_petersen
from snarklab.families import (
    _crossed_cycle,
    _petersen_remnant,
    _pi_hat_chords,
    generate_delta6,
    generate_pi,
    generate_v2y,
)
from snarklab.reducibility import _bridge_free

K4_TEXT = """\
# complete graph on four vertices
cubic 4
0: 1 2 3
1: 0 3 2
2: 0 1 3
3: 0 2 1
"""


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


EDGE_PAIR = "conf 2 6\n0 5 1 1\n1 5 1 0\n"

# (parser, text, exception class, message): every raise of both parsers,
# the adjacency and sign errors graph_from_neighbors raises for them, and
# the plane-drawing and separation clauses of the .conf validation
PARSE_ERRORS = [
    (parse_graph, "", ValueError, "empty graph file"),
    (parse_graph, "# nothing\n\n   # here\n", ValueError, "empty graph file"),
    (parse_graph, "cubic\n", ValueError, "malformed header"),
    (parse_graph, "cubic 4 4\n", ValueError, "malformed header"),
    (parse_graph, "graph 4\n", ValueError, "malformed header"),
    (parse_graph, "cubic four\n", ValueError, "malformed header"),
    (parse_graph, "cubic 0\n", ValueError, "missing vertex lines"),
    (parse_graph, "cubic 4 # K4\n0: 1 2 3\n", ValueError, "missing vertex lines"),
    (parse_graph, "cubic 2\n0 1 1 1\n1: 0 0 0\n", ValueError, "malformed vertex line: '0 1 1 1'"),
    (parse_graph, "cubic 2\n0: 1 x 1\n1: 0 0 0\n", ValueError, "malformed vertex line: '0: 1 x 1'"),
    (parse_graph, "cubic 2\n0 1: 1 1\n1: 0 0 0\n", ValueError, "malformed vertex line: '0 1: 1 1'"),
    (parse_graph, "cubic 2\n2: 1 1 1\n1: 0 0 0\n", ValueError, "vertex id 2 out of range"),
    (parse_graph, "cubic 2\n0: 1 1 1\n0: 1 1 1\n", ValueError, "duplicate vertex 0"),
    (parse_graph, "cubic 2\n0: 1 1\n1: 0 0 0\n", ValueError, "vertex 0: expected 3 neighbors, got 2"),
    (parse_graph, "cubic 2\n1: 0 0 0 # ok\n0:\n", ValueError, "vertex 0: expected 3 neighbors, got 0"),
    (parse_graph, "cubic 2\n0: 1 1 2\n1: 0 0 0\n", ValueError, "vertex 0: neighbor 2 out of range"),
    (parse_graph, "cubic 2\n0: 1 -1 1\n1: 0 0 0\n", ValueError, "vertex 0: neighbor -1 out of range"),
    (parse_graph, "cubic 2\n0: 1 0 1\n1: 0 0 0\n", ValueError, "vertex 0: loop in cubic graph"),
    (parse_graph, "cubic 4\n0: 1 1 2\n1: 0 2 3\n2: 0 1 3\n3: 1 2 2\n", ValueError,
     "inconsistent adjacency between 0 and 1"),
    (parse_graph, K4_TEXT + "junk\n", ValueError, "unexpected line: 'junk'"),
    (parse_graph, K4_TEXT + "0 1 -1\n", ValueError, "unexpected line: '0 1 -1'"),
    (parse_graph, K4_TEXT + "signs:\n0 1\n", ValueError, "malformed sign line: '0 1'"),
    (parse_graph, K4_TEXT + "signs:\n0 1 1\n", ValueError, "malformed sign line: '0 1 1'"),
    (parse_graph, K4_TEXT + "signs:\nsigns:\n", ValueError, "malformed sign line: 'signs:'"),
    (parse_graph, K4_TEXT + "signs:\na 1 -1\n", ValueError, "malformed sign line: 'a 1 -1'"),
    (parse_graph, K4_TEXT + "signs:\n0 b -1\n", ValueError, "malformed sign line: '0 b -1'"),
    (parse_graph, K4_TEXT + "signs:\n-1\n", ValueError, "malformed sign line: '-1'"),
    (parse_graph, K4_TEXT + "signs:\n0 9 -1\n", ValueError, "no remaining edge between 0 and 9 to sign"),
    (parse_graph, K4_TEXT + "signs:\n0 1 -1\n1 0 -1\n", ValueError,
     "no remaining edge between 1 and 0 to sign"),
    (parse_configuration, "", ConfigurationError, "empty configuration file"),
    (parse_configuration, "# none\n", ConfigurationError, "empty configuration file"),
    (parse_configuration, "conf 1\n", ConfigurationError, "malformed header"),
    (parse_configuration, "cubic 1 3\n", ConfigurationError, "malformed header"),
    (parse_configuration, "conf 1 x\n", ConfigurationError, "malformed header"),
    (parse_configuration, "conf 0 3\n", ConfigurationError, "missing vertex lines"),
    (parse_configuration, "conf 2 6\n0 5 1 1\n", ConfigurationError, "missing vertex lines"),
    (parse_configuration, "conf 1 3\n0 4\n", ConfigurationError, "malformed vertex line: '0 4'"),
    (parse_configuration, "conf 1 3\n0\n", ConfigurationError, "malformed vertex line: '0'"),
    (parse_configuration, "conf 1 3\n0 5 a\n", ConfigurationError, "malformed vertex line: '0 5 a'"),
    (parse_configuration, "conf 1 3\n0: 5 0\n", ConfigurationError, "malformed vertex line: '0: 5 0'"),
    (parse_configuration, "conf 1 3\n1 5 0\n", ConfigurationError, "vertex id 1 out of range"),
    (parse_configuration, "conf 2 6\n0 5 1 1\n0 5 1 1\n", ConfigurationError, "duplicate vertex 0"),
    (parse_configuration, "conf 2 6\n0 5 2 1\n1 5 1 0\n", ConfigurationError,
     "vertex 0: degree 2 but 1 neighbors"),
    (parse_configuration, "conf 2 6\n0 5 2 1 1\n1 5 1 0\n", ConfigurationError, "vertex 0: repeated neighbor"),
    (parse_configuration, "conf 2 6\n0 5 1 0\n1 5 1 0\n", ConfigurationError, "vertex 0: bad neighbor 0"),
    (parse_configuration, "conf 2 6\n0 5 1 2\n1 5 1 0\n", ConfigurationError, "vertex 0: bad neighbor 2"),
    (parse_configuration, "conf 3 9\n0 5 1 1\n1 5 1 2\n2 5 1 1\n", ConfigurationError,
     "inconsistent adjacency between 0 and 1"),
    (parse_configuration, EDGE_PAIR + "junk\n", ConfigurationError, "unexpected line: 'junk'"),
    (parse_configuration, EDGE_PAIR + "contract: 0-x\n", ConfigurationError, "malformed contract pair: '0-x'"),
    (parse_configuration, EDGE_PAIR + "contract: 01\n", ConfigurationError, "malformed contract pair: '01'"),
    (parse_configuration, EDGE_PAIR + "contract:\n", ConfigurationError, "empty contract line"),
    (parse_configuration, EDGE_PAIR + "contract: 3--5\n", ConfigurationError, "contract pair 3--5 is out of range"),
    (parse_configuration, "conf 2 8\n0 5 0\n1 5 0\n", ConfigurationError, "graph is not connected"),
    (parse_configuration, "conf 4 6\n0 5 3 1 2 3\n1 5 3 0 2 3\n2 5 3 0 1 3\n3 5 3 0 1 2\n",
     ConfigurationError, "rotations do not describe a plane drawing"),
    (parse_configuration, "conf 4 9\n0 5 3 1 2 3\n1 5 1 0\n2 5 1 0\n3 5 1 0\n", ConfigurationError,
     "separation clause: removing vertex 0 leaves 3 pieces; "
     "separation clause: vertex 0 meets the unbounded face 3 times"),
    (parse_configuration, "conf 3 6\n0 5 1 1\n1 5 2 0 2\n2 5 1 1\n", ConfigurationError,
     "separation clause: vertex 1 separates the graph, gamma must be degree + 2"),
]


@pytest.mark.parametrize("parse, text, cls, message", PARSE_ERRORS)
def test_parsers_raise_each_error_by_class_and_message(parse, text, cls, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert type(exc.value) is cls
    assert str(exc.value) == message


def test_format_round_trip():
    g = parse_graph(K4_TEXT)
    again = parse_graph(format_graph(g))
    assert again.edge_list == g.edge_list
    assert [again.rotation(v) for v in range(g.n)] == [g.rotation(v) for v in range(g.n)]


def test_signs_round_trip():
    text = K4_TEXT + "signs:\n0 1 -1\n2 3 -1\n"
    g = parse_graph(text)
    assert sorted(g.sign(e) for e in range(g.m)).count(-1) == 2
    again = parse_graph(format_graph(g))
    assert again.sign_list == g.sign_list


# -- embeddings -------------------------------------------------------------


def test_k4_planar_embedding():
    trace = FaceTrace(k4())
    assert trace.chi == 2
    assert sorted(len(w) for w in trace.walks) == [3, 3, 3, 3]


def test_k4_self_dual():
    g = k4()
    d = FaceTrace(g).dual()
    assert d.n == 4 and d.m == 6
    assert canonical_key(d) == canonical_key(g)
    assert FaceTrace(d).chi == 2


def test_dual_of_dual_is_original():
    g = k4()
    dd = FaceTrace(FaceTrace(g).dual()).dual()
    assert canonical_key(dd) == canonical_key(g)


def test_icosahedron():
    g = icosahedron()
    assert g.n == 12 and g.m == 30
    trace = FaceTrace(g)
    assert trace.chi == 2
    assert all(len(w) == 3 for w in trace.walks)


def test_projective_quotient_of_icosahedron():
    g, antipode = icosahedron(with_antipode=True)
    q = antipodal_quotient(g, antipode)
    assert q.n == 6 and q.m == 15
    trace = FaceTrace(q)
    assert trace.chi == 1
    assert not embedding_orientable(q)
    assert all(len(w) == 3 for w in trace.walks)
    # the quotient is K6: every pair adjacent exactly once
    for u in range(6):
        assert sorted(set(q.neighbors(u))) == [v for v in range(6) if v != u]


def test_petersen_fixture_is_projective_and_dualizes_to_k6():
    g, antipode = icosahedron(with_antipode=True)
    p = FaceTrace(antipodal_quotient(g, antipode)).dual()
    assert p.n == 10 and p.m == 15
    assert p.is_cubic()
    trace = FaceTrace(p)
    assert trace.chi == 1
    assert canonical_key(p) == canonical_key(abstract_petersen())
    d = trace.dual()
    assert d.n == 6
    for u in range(6):
        assert sorted(set(d.neighbors(u))) == [v for v in range(6) if v != u]


# -- the one projective Petersen map ------------------------------------------


def test_petersen_literal_is_the_quotient_dual():
    ico, antipode = icosahedron(with_antipode=True)
    assert graph_record(petersen()) == graph_record(FaceTrace(antipodal_quotient(ico, antipode)).dual())


def test_petersen_literal_is_the_petersen_graph():
    assert canonical_key(petersen()) == canonical_key(abstract_petersen())
    g = petersen()
    assert _is_petersen((g.n, g.edge_list))


def test_petersen_fixture_is_the_literal_renumbered():
    # data/petersen.cub numbers edges by sorted vertex pair, the literal
    # as the quotient dual does: same rotations and crosscap pairs
    g, fixture = petersen(), fixture_graph("petersen.cub")
    assert g.edge_list != fixture.edge_list
    assert neighbor_rows(g) == neighbor_rows(fixture)

    def negative_pairs(h):
        return {frozenset(h.endpoints(e)) for e in range(h.m) if h.sign(e) == -1}

    assert negative_pairs(g) == negative_pairs(fixture)


def test_crosscap_loop_surface():
    g = Graph(1, [(0, 0)], rotations=[[(0, 0), (0, 1)]], signs=[-1])
    assert FaceTrace(g).chi == 1
    g2 = Graph(1, [(0, 0)], rotations=[[(0, 0), (0, 1)]], signs=[1])
    assert FaceTrace(g2).chi == 2


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


# (call, message): the constructor's own checks, and the calls that need
# an embedding or a loopless cubic graph
GRAPH_ERRORS = [
    (lambda: Graph(-1, []), "negative vertex count"),
    (lambda: Graph(2, [(0, 2)]), "edge endpoint out of range"),
    (lambda: Graph(2, [(-1, 1)]), "edge endpoint out of range"),
    (lambda: Graph(2, [(0, 1)], signs=[1, 1]), "bad sign vector"),
    (lambda: Graph(2, [(0, 1)], signs=[0]), "bad sign vector"),
    (lambda: Graph(2, [(0, 1)]).rotation(0), "graph has no embedding"),
    (lambda: FaceTrace(Graph(2, [(0, 1)])), "graph has no embedding"),
    (lambda: three_edge_color(Graph(2, [(0, 0), (0, 1), (1, 1)])), "cubic graph has a loop"),
]


@pytest.mark.parametrize("call, message", GRAPH_ERRORS)
def test_graph_inputs_are_refused_by_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edges,rotations,message",
    [
        ([(0, 1)], [[(0, 0)]], "rotation count mismatch"),
        ([(0, 1)], [[(0, 0), (2, 0)], [(0, 1)]], "rotation at vertex 0 is not an order of its darts"),
        ([(0, 1)], [[(0, 0)], [(0, 2)]], "rotation at vertex 1 is not an order of its darts"),
        ([(0, 1)], [[(0, 1)], [(0, 0)]], "rotation at vertex 0 is not an order of its darts"),
        ([(0, 1)], [[(0, 0), (0, 0)], [(0, 1)]], "rotation at vertex 0 is not an order of its darts"),
        ([(0, 1)], [[(0, 0)], []], "rotation at vertex 1 is not an order of its darts"),
        ([(0, 1)], [[(1, 0)], [(0, 1)]], "rotation at vertex 0 is not an order of its darts"),
        ([(0, 1)], [[(-1, 0)], [(0, 1)]], "rotation at vertex 0 is not an order of its darts"),
        (
            [(0, 1), (0, 1)],
            [[(0, 0), (0, 2)], [(0, 1), (1, 1)]],
            "rotation at vertex 0 is not an order of its darts",
        ),
    ],
)
@pytest.mark.parametrize("table", ["grown", "fresh"])
def test_rotation_must_order_the_darts_at_its_vertex(monkeypatch, edges, rotations, message, table):
    # an out-of-range dart, a dart of the other end, a repeat, a miss, a
    # dart of edge m or -1, and an end index 2 whose table slot (2e + k)
    # holds another edge's dart; each refused whether the shared dart
    # table is longer than the graph's or starts empty
    if table == "grown":
        Graph(2, [(0, 1)] * 8)
    else:
        monkeypatch.setattr(snarklab.graphs, "_DARTS", [])
    with pytest.raises(ValueError) as exc:
        Graph(2, edges, rotations)
    assert str(exc.value) == message


def test_darts_are_shared_and_incidence_keeps_its_order():
    # one object per (e, k) across graphs, rotations, incidence and face
    # walks; an embedded graph's incidence is its rotation and an
    # unembedded one's is in edge id order, loops at both ends
    embedded = [p.graph for p in generate_pi(3, 6) + generate_delta6()]
    embedded += [random_planar_cubic(random.Random(s), s % 5) for s in range(20)]
    rng = random.Random(11)
    bare = [Graph(g.n, g.edge_list) for g in embedded]
    for _ in range(20):
        n = rng.randint(1, 6)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
        bare.append(Graph(n, pairs))
    shared: dict = {}
    for g in embedded:
        for v in range(g.n):
            assert g.incident_darts(v) == list(g.rotation(v))
            for a, b in zip(g.incident_darts(v), g.rotation(v)):
                assert shared.setdefault(a, a) is a is b
        for walk in FaceTrace(g).walks:
            for d in walk:
                assert shared.setdefault(d, d) is d
    for g in bare:
        for v in range(g.n):
            darts = g.incident_darts(v)
            assert darts == [(e, k) for e, ends in enumerate(g.edge_list) for k in (0, 1) if ends[k] == v]
            for d in darts:
                assert shared.setdefault(d, d) is d


def signed_maps():
    g, antipode = icosahedron(with_antipode=True)
    quotient = antipodal_quotient(g, antipode)
    yield quotient
    yield FaceTrace(quotient).dual()
    for y in (3, 4, 5, 6):
        yield generate_v2y(y)
    rng = random.Random(7)
    for _ in range(40):
        yield graph_from_neighbors(*random_rotation_system(rng))


def test_flag_perms_match_oracle_on_signed_maps():
    for g in signed_maps():
        assert FaceTrace.involutions(g) == flag_perms_oracle(g)


def test_through_and_chi_match_the_walks_on_signed_maps():
    # through(vs) is the brute-force filter over walks, and chi is
    # n - m + F, on every signed map and on vertex sets drawn from it
    rng = random.Random(3)
    for g in signed_maps():
        trace = FaceTrace(g)
        assert trace.chi == g.n - g.m + len(trace.walks)
        for size in range(min(g.n, 3) + 1):
            vs = rng.sample(range(g.n), size)
            assert trace.through(vs) == [
                i
                for i, walk in enumerate(trace.walks)
                if set(vs) <= {g.dart_vertex(d) for d in walk}
            ]


def test_corners_partition_the_faces():
    planar = [random_planar_cubic(random.Random(s), 3) for s in range(5)]
    for g in itertools.chain(signed_maps(), planar):
        trace = FaceTrace(g)
        walks, corners = trace.walks, trace.corners()
        assert [len(c) for c in corners] == [g.degree(v) for v in range(g.n)]
        tally = [0] * len(walks)
        for fi in itertools.chain.from_iterable(corners):
            tally[fi] += 1
        assert tally == [len(w) for w in walks]


def test_chord_keeps_the_sphere_exactly_between_corners_of_one_face():
    # the rule random_planar_cubic grows by, checked over every edge pair,
    # with the slot pairs FaceTrace reads from g's own trace, all of sign +1
    for s in range(4):
        g = random_planar_cubic(random.Random(s), 2)
        trace = FaceTrace(g)
        for e1, e2 in itertools.combinations(range(g.m), 2):
            sub, chains = subdivide_embedded(g, {e1: 1, e2: 1})
            a, b = sub.n - 2, sub.n - 1
            corners = FaceTrace(sub).corners()
            routes = {(se, sf): sign for se, sf, sign, _ in trace.chords(e1, e2)}
            assert set(routes.values()) <= {1}
            for sa, sb in itertools.product((1, 2), (1, 2)):
                rows = neighbor_rows(sub)
                rows[a].insert(sa, b)
                rows[b].insert(sb, a)
                chi = FaceTrace(graph_from_neighbors(rows)).chi
                assert (chi == 2) == (corners[a][sa - 1] == corners[b][sb - 1])
                assert (chi == 2) == ((sa % 2, sb % 2) in routes)


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
    petersen_map = FaceTrace(antipodal_quotient(ico, antipode)).dual()
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


def test_is_proper_coloring_refuses_missing_edges_and_clashes():
    g = k4()
    c = three_edge_color(g)
    assert is_proper_coloring(g, c)
    # an edge left uncolored, and a color for an edge k4 lacks
    assert not is_proper_coloring(g, {e: c[e] for e in range(g.m - 1)})
    assert not is_proper_coloring(g, {**c, g.m: 0})
    # edge 0 takes the color of an edge it meets
    u, _ = g.endpoints(0)
    other = next(e for e, _ in g.incident_darts(u) if e != 0)
    assert not is_proper_coloring(g, {**c, 0: c[other]})


def test_prism_colorable():
    g = prism(3)
    c = three_edge_color(g)
    assert c is not None
    assert is_proper_coloring(g, c)


def test_petersen_uncolorable():
    assert three_edge_color(petersen()) is None


def test_k33_colorable():
    assert three_edge_color(k33()) is not None


def spelled_weights(m, order):
    """Weights under which color_walk's code spells the coloring over
    order in base 3, digit i the color of order[i]."""
    weight = [0] * m
    for i, e in enumerate(order):
        weight[e] = 3**i
    return weight


def spelled_coloring(code, m, order):
    """The color tuple, indexed by edge id, that code spells under
    spelled_weights(m, order); edges outside order are 0."""
    color = [0] * m
    for i, e in enumerate(order):
        color[e] = code // 3**i % 3
    return tuple(color)


def test_exhaustive_oracle_matches_backtracker():
    # The walk's leaves are exactly the proper colorings with the first
    # edge colored 0 and, when the second edge meets it, the second
    # colored 1; their color permutations are every proper coloring. When
    # the first two edges meet no two leaves are permutations of each
    # other; when they do not, the first edge's pin is the only one. Each
    # graph gets a random order, one whose second edge meets the first
    # and one whose second edge does not.
    rng = random.Random(7)
    perms = list(itertools.permutations(range(3)))
    colorable = 0
    for _ in range(10):
        g = random_cubic(rng, 8)
        # every one of the 3^m assignments, checked at each vertex's three
        # edges
        triples = [tuple(e for e, _ in g.incident_darts(v)) for v in range(g.n)]
        brute = {
            col
            for col in itertools.product(range(3), repeat=g.m)
            if all(col[a] != col[b] != col[c] != col[a] for a, b, c in triples)
        }
        first = rng.randrange(g.m)
        ends = set(g.endpoints(first))
        meeting = [e for e in range(g.m) if e != first and ends & set(g.endpoints(e))]
        apart = [e for e in range(g.m) if e != first and not ends & set(g.endpoints(e))]
        orders = [rng.sample(range(g.m), g.m)]
        for second in (rng.choice(meeting), rng.choice(apart)):
            rest = [e for e in range(g.m) if e not in (first, second)]
            rng.shuffle(rest)
            orders.append([first, second] + rest)
        for order in orders:
            leaves = set()

            def collect(code):
                leaves.add(spelled_coloring(code, g.m, order))
                return False

            assert color_walk(g.n, g.edge_list, order, collect, spelled_weights(g.m, order), 0) is None
            meet = bool(set(g.endpoints(order[0])) & set(g.endpoints(order[1])))
            assert leaves == {
                c for c in brute if c[order[0]] == 0 and (not meet or c[order[1]] == 1)
            }
            closed = {tuple(perm[c] for c in col) for col in leaves for perm in perms}
            assert closed == brute
            if meet:
                orbits = {frozenset(tuple(perm[c] for c in col) for perm in perms) for col in leaves}
                assert len(orbits) == len(leaves)
        colorable += bool(brute)
    # most draws are colorable, so the leaf sets checked are not all empty
    assert colorable >= 5


def test_pinned_walk_colors_as_the_first_edge_walk(monkeypatch):
    # Both walks try color 1 before color 2 on the second edge, so the
    # second pin only drops subtrees the first coloring never reaches:
    # three_edge_color returns the same dict with either walk.
    graphs = [k4(), k33(), petersen()]
    graphs += [random_planar_cubic(random.Random(s), 2 + s % 7) for s in range(300)]
    pinned = [three_edge_color(g) for g in graphs]
    monkeypatch.setattr(snarklab.graphs, "color_walk", first_edge_color_walk)
    assert [three_edge_color(g) for g in graphs] == pinned
    assert pinned[2] is None
    assert all(is_proper_coloring(g, c) for g, c in zip(graphs, pinned) if c is not None)


def disjoint_union(g, h):
    shifted = [(u + g.n, w + g.n) for u, w in h.edge_list]
    return Graph(g.n + h.n, list(g.edge_list) + shifted)


def test_oracle_colors_each_component():
    g = disjoint_union(k4(), k4())
    assert len(edge_components(g.n, g.edge_list)) == 2
    c = three_edge_color(g)
    assert c is not None
    assert is_proper_coloring(g, c)


def test_oracle_fails_when_one_component_is_uncolorable():
    assert three_edge_color(disjoint_union(k4(), petersen())) is None


def test_walk_conflicts_flag_an_order_holding_a_loop():
    # two loops joined by an edge: edge 1 is the only non-loop
    g = Graph(2, [(0, 0), (0, 1), (1, 1)])
    pairs = g.edge_list
    assert walk_conflicts(g.n, pairs, [1, 0, 2])[2]
    assert walk_conflicts(g.n, pairs, [0])[2]
    # edges outside the order constrain nothing
    assert not walk_conflicts(g.n, pairs, [1])[2]
    assert color_walk(g.n, pairs, [1], lambda code: True, [0] * g.m, 0) == [0, 0, 0]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 2**16),
    st.integers(0, 24),
    st.sampled_from(["any", "meet", "apart"]),
    st.integers(-1, 24),
    st.integers(0, 40),
)
@example(2, 0, 0, "any", -1, 0)
@example(2, 0, 1, "any", -1, 1)
@example(2, 0, 2, "meet", -1, 0)
@example(2, 0, 2, "apart", -1, 2)
@example(5, 3, 24, "apart", -1, 0)
@example(5, 3, 24, "meet", -1, 7)
@example(4, 1, 24, "meet", 3, 0)
def test_flat_walk_matches_recursive_walk(half, seed, length, second, loop_at, stop):
    # On a random cubic multigraph with a random order cut to length, the
    # flat loop reaches the recursion's leaves in the same order, and when
    # leaf returns True on call stop both stop there, the flat loop
    # returning the coloring of that leaf. The flat loop's leaves read
    # their colorings off codes that spell them. second moves an edge
    # that meets the first, or one that does not, into second place;
    # loop_at, unless -1, puts a new loop into the order, which
    # walk_conflicts flags, and then neither walk reaches a leaf.
    rng = random.Random(seed)
    g = random_cubic(rng, 2 * half)
    pairs = list(g.edge_list)
    order = rng.sample(range(g.m), g.m)
    if second != "any":
        ends = set(pairs[order[0]])
        fits = [e for e in order[1:] if bool(ends & set(pairs[e])) == (second == "meet")]
        if fits:
            order.remove(fits[0])
            order.insert(1, fits[0])
    order = order[:length]
    if loop_at >= 0:
        v = rng.randrange(g.n)
        pairs.append((v, v))
        order.insert(min(loop_at, len(order)), len(pairs) - 1)
    else:
        assert walk_conflicts(g.n, pairs, order) == (order, conflicts_oracle(pairs, order), False)
    assert walk_conflicts(g.n, pairs, order)[2] == (loop_at >= 0)

    def recorder(log):
        def leaf(color):
            log.append(tuple(color))
            return len(log) == stop

        return leaf

    flat, recursive = [], []
    flat_leaf = recorder(flat)
    weight = spelled_weights(len(pairs), order)
    got = color_walk(g.n, pairs, order, lambda code: flat_leaf(spelled_coloring(code, len(pairs), order)), weight, 0)
    hit = got is not None
    assert hit == recursive_color_walk(pairs, order, recorder(recursive))
    assert flat == recursive
    assert hit == (0 < stop <= len(flat) and loop_at < 0)
    assert not (loop_at >= 0 and flat)
    assert not hit or tuple(got) == flat[-1]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**16), st.integers(0, 18), st.integers(-50, 50))
@example(1, 0, 0, 7)
@example(1, 0, 1, -3)
def test_weighted_walk_hands_each_leaf_its_code(half, seed, length, base):
    # The flat loop reaches the recursion's leaves in the same order,
    # handing each the code base + sum(weight[e] * color[e]) over the
    # order, kept per depth.
    rng = random.Random(seed)
    g = random_cubic(rng, 2 * half)
    pairs = g.edge_list
    order = rng.sample(range(g.m), g.m)[:length]
    weight = [rng.randrange(-30, 30) for _ in pairs]
    codes, expected = [], []
    color_walk(g.n, pairs, order, lambda code: codes.append(code), weight, base)
    recursive_color_walk(
        pairs, order, lambda color: expected.append(base + sum(weight[e] * color[e] for e in order))
    )
    assert codes == expected


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6), st.integers(0, 2**16), st.integers(0, 18), st.integers(-50, 50), st.integers(0, 40)
)
@example(1, 0, 0, 7, 1)
@example(2, 0, 6, 0, 0)
@example(3, 1, 9, -4, 2)
def test_walk_returns_the_coloring_its_stopping_leaf_saw(half, seed, length, base, stop):
    # When leaf returns True on call stop, color_walk returns the very
    # color list the recursion's leaf sees on its call stop, and that
    # list's code is the one leaf accepted; when no call stops it, None.
    rng = random.Random(seed)
    g = random_cubic(rng, 2 * half)
    pairs = g.edge_list
    order = rng.sample(range(g.m), g.m)[:length]
    weight = [rng.randrange(-30, 30) for _ in pairs]
    codes, seen = [], []

    def coded(code):
        codes.append(code)
        return len(codes) == stop

    def colored(color):
        seen.append(tuple(color))
        return len(seen) == stop

    got = color_walk(g.n, pairs, order, coded, weight, base)
    hit = recursive_color_walk(pairs, order, colored)
    assert (got is not None) == hit == (0 < stop <= len(codes))
    assert len(codes) == len(seen)
    if hit:
        assert tuple(got) == seen[-1]
        assert base + sum(weight[e] * got[e] for e in order) == codes[-1]


def test_walk_returns_none_on_a_loop_and_a_list_on_an_empty_order():
    # An order holding a loop has no coloring: None, with leaf never
    # called. An order with no edge has one leaf, at base, and a hit
    # returns the color list of every edge at 0, which is [] on no edges,
    # so a hit reads "is not None". Holes name no edge.
    calls = []

    def accept(code):
        calls.append(code)
        return True

    g = Graph(2, [(0, 0), (0, 1), (1, 1)])
    assert color_walk(g.n, g.edge_list, [1, 0, 2], accept, [1, 1, 1], 0) is None
    assert color_walk(g.n, g.edge_list, [2], accept, [1, 1, 1], 0) is None
    assert calls == []
    got = color_walk(0, [], [], accept, [], 5)
    assert got is not None and got == []
    assert calls == [5]
    assert color_walk(0, [], [], lambda code: False, [], 5) is None
    assert color_walk(2, [None, None], [0, 1], accept, [1, 1], -2) == [0, 0]
    assert calls == [5, -2]


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
    g = Graph(2, [(0, 1)])
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
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c = {0: 0, 1: 1, 2: 0}
    chain = kempe_chain(g, c, (0, 1), 1)
    assert not chain.is_cycle
    assert set(chain.edges) == {0, 1, 2}


# -- delete and suppress ----------------------------------------------------


def test_suppress_empty_set_is_identity():
    g = petersen()
    h = delete_and_suppress(g, [])
    assert h.n == g.n and h.m == g.m
    assert canonical_key(h) == canonical_key(g)


def test_suppress_one_petersen_edge():
    g = petersen()
    h = delete_and_suppress(g, [0])
    assert h.n == 8 and h.m == 12
    assert h.is_cubic()


def test_suppress_rejects_two_edges_at_vertex():
    g = petersen()
    inc = [e for e, _ in g.incident_darts(0)]
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
    g = Graph(2, [(0, 0), (0, 1), (1, 1)])
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
    pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
    # the bridge's ends each leave two pieces
    assert low_link(6, pairs) == ({3}, [1, 1, 2, 2, 1, 1], 1)
    assert len(components_oracle(range(6), pairs[:3] + pairs[4:])) == 2


def test_parallel_edges_are_not_bridges():
    assert low_link(2, [(0, 1), (0, 1)])[0] == set()


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
    # Loops and parallel edges included: bridges, the pieces each vertex
    # leaves and the component count all match deletion counts. The
    # leaf-fused test maps every degree-1 vertex to one shared node before
    # asking for a bridge.
    n, pairs = case
    g = Graph(n, pairs)
    expected = low_link_oracle(n, pairs)
    assert low_link(n, pairs) == expected
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
    # positions never decrease along the list. walk_conflicts gives each
    # list's conflict lists as the dict-based oracle does, and the loop
    # flag over all of them.
    n, pairs = case
    comps = edge_components(n, pairs)
    walk = [e for comp in comps for e in comp]
    assert walk_conflicts(n, pairs, walk)[2] == any(u == w for u, w in pairs)
    for comp in comps:
        if not any(pairs[e][0] == pairs[e][1] for e in comp):
            assert walk_conflicts(n, pairs, comp) == (comp, conflicts_oracle(pairs, comp), False)
    assert sorted(e for comp in comps for e in comp) == list(range(len(pairs)))
    g = Graph(n, pairs)
    vertex_comps = [c for c in components_oracle(range(n), pairs) if g.degree(c[0])]
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


@settings(max_examples=300, deadline=None)
@given(removals(), st.data())
def test_walk_conflicts_leave_out_holes_and_skipped_edges(case, data):
    # The cut-down walk's input: None entries name no edge, and the order
    # is every edge but the skipped ones, in id order, holes included.
    # walk_conflicts keeps the order's edges that are no hole. Holes and
    # skipped edges are in no conflict list and the loop flag is that of
    # the edges kept. The conflict lists are those of the edges left,
    # renumbered compactly and mapped back, and edge_components skips the
    # holes.
    n, pairs, holes = case
    kept = [e for e in range(len(pairs)) if e not in holes]
    skip = data.draw(st.sets(st.sampled_from(kept))) if kept else set()
    with_holes = [None if e in holes else ends for e, ends in enumerate(pairs)]
    left = [e for e in kept if e not in skip]
    walked, earlier, loop = walk_conflicts(n, with_holes, [e for e in range(len(pairs)) if e not in skip])
    assert walked == left
    assert loop == any(pairs[e][0] == pairs[e][1] for e in left)
    compact = [pairs[e] for e in left]
    _, want_earlier, _ = walk_conflicts(n, compact, range(len(left)))
    assert [earlier[e] for e in left] == [tuple(left[c] for c in want_earlier[i]) for i in range(len(left))]
    assert all(earlier[e] == () for e in range(len(pairs)) if e not in left)
    comps = edge_components(n, [with_holes[e] if e in left else None for e in range(len(pairs))])
    assert comps == [[left[c] for c in comp] for comp in edge_components(n, compact)]


# -- isomorphism ------------------------------------------------------------


def test_relabel_is_isomorphic():
    g = petersen()
    perm = list(range(10))
    random.Random(2).shuffle(perm)
    assert canonical_key(g) == canonical_key(relabeled(g, perm))


def test_petersen_vs_5_prism():
    assert canonical_key(petersen()) != canonical_key(prism(5))


def test_k4_vs_k4_minus_edge():
    g = k4()
    h = Graph(4, [e for i, e in enumerate(g.edge_list) if i != 0])
    assert canonical_key(g) != canonical_key(h)


def test_multigraph_iso_discriminates():
    theta = Graph(2, [(0, 1), (0, 1), (0, 1)])
    tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert canonical_key(theta) != canonical_key(tri)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_relabel_canonical_key(seed):
    rng = random.Random(seed)
    g = random_cubic(rng, rng.choice([6, 8, 10]))
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_key(g) == canonical_key(relabeled(g, perm))


def keeps_edges(g, perm):
    mapped = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edge_list)
    return mapped == sorted(tuple(sorted(p)) for p in g.edge_list)


AUTOMORPHISM_GROUP_ORDERS = {
    "v2y(3)": (lambda: generate_v2y(3), 72),
    "v2y(4)": (lambda: generate_v2y(4), 16),
    "v2y(5)": (lambda: generate_v2y(5), 20),
    "v2y(6)": (lambda: generate_v2y(6), 24),
    "petersen remnant": (lambda: _petersen_remnant()[0], 8),
    "petersen": (petersen, 120),
    "k33": (k33, 72),
    "prism(3)": (lambda: prism(3), 12),
    "prism(5)": (lambda: prism(5), 20),
    "k4": (k4, 24),
}


@pytest.mark.parametrize("name", AUTOMORPHISM_GROUP_ORDERS)
def test_automorphisms_match_backtracking_oracle(name):
    build, order = AUTOMORPHISM_GROUP_ORDERS[name]
    g = build()
    auts = automorphisms(g)
    assert len(auts) == order
    assert auts == automorphisms_oracle(g)
    assert all(keeps_edges(g, p) for p in auts)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 4))
def test_automorphisms_match_oracle_on_random_planar_cubic(seed, expansions):
    g = random_planar_cubic(random.Random(seed), expansions)
    auts = automorphisms(g)
    assert auts == automorphisms_oracle(g)
    assert all(keeps_edges(g, p) for p in auts)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1)] * 3,
        [(0, 0), (0, 1), (1, 1)],
        [(0, 1), (0, 1), (1, 2), (2, 0)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0), (2, 2)],
    ],
)
def test_automorphisms_of_multigraphs_keep_the_edge_multiset(edges):
    # the simple-graph oracle cannot see loops or parallel edges, so every
    # permutation is tried instead
    g = Graph(1 + max(map(max, edges)), edges)
    perms = itertools.permutations(range(g.n))
    assert automorphisms(g) == [p for p in perms if keeps_edges(g, p)]


def assert_search_matches_oracle(g):
    # the same least signature and the same leaf ranks, in the same order,
    # as re-signing every vertex in every round; so the same key and group
    sig, ranks = least_leaves_oracle(g)
    assert _least_leaves(g.n, g.edge_list) == [sig, ranks]
    first = sorted(range(g.n), key=ranks[0].__getitem__)
    assert canonical_key(g) == (g.n, g.m, sig)
    assert automorphisms(g) == sorted({tuple(first[r] for r in rank) for rank in ranks})


def test_search_matches_oracle_on_every_family_graph(monkeypatch):
    # every graph the benchmark's row generators search: the crossed
    # cycles for y = 3, 4, 5, the Petersen remnant, delta6's 90 candidates,
    # the 14 pi(3, 6) parents and one chord per orbit; then all 396 chords
    searched = []
    search = snarklab.graphs._least_leaves

    def recorded(n, edges):
        searched.append(Graph(n, list(edges)))
        return search(n, edges)

    monkeypatch.setattr(snarklab.graphs, "_least_leaves", recorded)
    _crossed_cycle.cache_clear()
    for y, k in ((3, 6), (4, 6), (4, 7), (5, 8), (3, 7)):
        generate_pi(y, k)
    generate_delta6()
    chords = list(_pi_hat_chords())
    monkeypatch.undo()
    assert len(searched) == 3 + 1 + 90 + 14 + 272
    for _, _, embed in chords:
        h, counts, _, chord = embed.args
        n, pairs, _ = subdivided_edges(h, counts)
        searched.append(Graph(n, pairs + [(chord[0], chord[2])]))
    assert len(chords) == 396
    for g in searched:
        assert_search_matches_oracle(g)


@pytest.mark.parametrize("seed", range(4))
def test_search_matches_oracle_on_random_multigraphs(seed):
    # loops, parallel edges and degree up to 4 (a loop counts twice); the
    # oracle visits every leaf, which is factorial on sparse graphs, so
    # n stays at most 7
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(0, 7)
        deg = [0] * n
        edges = []
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if max(deg[u], deg[v]) + 1 + (u == v) <= 4:
                deg[u] += 1
                deg[v] += 1
                edges.append((u, v))
        assert_search_matches_oracle(Graph(n, edges))
