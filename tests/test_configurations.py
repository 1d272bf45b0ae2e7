"""Configuration parsing, free completions, and islands."""

import gc
import weakref
from importlib import resources

import pytest
from support import (
    desk_configurations,
    face_built_completion,
    fingerprint,
    fixture_text,
    graph_record,
    icosahedron,
    interior_vertices,
)

import snarklab.configurations
from snarklab.configurations import (
    Configuration,
    ConfigurationError,
    FreeCompletion,
    Island,
    check_ring_boundary,
    free_completion,
    island_of,
    parse_configuration,
    validate_island,
)
from snarklab.graphs import FaceTrace, Graph, graph_from_neighbors, low_link, neighbor_rows, remove_embedded

EDGE_PAIR = """conf 2 6
0 5 1 1
1 5 1 0
"""


def load(name):
    return parse_configuration(fixture_text(name))


# the icosahedron less its south pole: a pentagon of degree-4 vertices
# around degree-5 ones, so with gamma 5 everywhere it owes no ring vertex
CAPPED_PENTAGON = remove_embedded(icosahedron(), vertices=(11,))[0]


# -- parsing and the defining clauses ---------------------------------------


def test_parse_single_vertex():
    k = load("single5.conf")
    assert k.n == 1
    assert k.ring_size == 4  # 5 - 0 - 1
    assert interior_vertices(k) == []
    # a lone vertex leaves no piece
    assert low_link(k.n, k.graph.edge_list)[1] == [0]


def test_parse_triangle():
    k = load("triangle555.conf")
    assert k.ring_size == 6  # three vertices, 5 - 2 - 1 each


def test_parse_conf1():
    k = load("conf1.conf")
    assert k.n == 4
    assert k.ring_size == 6
    assert [k.graph.degree(v) for v in range(4)] == [3, 3, 2, 2]
    assert len(k.contracts) == 2
    assert all(len(cset) == 6 for cset in k.contracts)


def test_parse_wheel():
    k = load("wheel5.conf")
    assert k.ring_size == 5
    assert interior_vertices(k) == [0]


def test_parse_bowtie_cut_vertex():
    k = load("bowtie.conf")
    assert k.ring_size == 8
    # removing the shared corner leaves two pieces, one per triangle
    assert low_link(k.n, k.graph.edge_list)[1] == [2, 1, 1, 1, 1]


def test_parse_edge_pair():
    k = parse_configuration(EDGE_PAIR)
    assert k.ring_size == 6  # (5 - 1 - 1) twice


def test_parse_rejects_low_gamma():
    with pytest.raises(ConfigurationError, match="degree clause: vertex 0 has gamma 4"):
        parse_configuration("conf 1 3\n0 4 0\n")


def test_parse_rejects_interior_gamma_mismatch():
    bad = fixture_text("wheel5.conf").replace("0 5 5", "0 6 5")
    with pytest.raises(ConfigurationError, match="degree clause: interior vertex 0"):
        parse_configuration(bad)


def test_parse_rejects_boundary_gamma_at_degree():
    # a fan of five triangles: its center lies on the boundary with degree 6
    fan = """conf 7 7
0 6 6 6 5 4 3 2 1
1 5 2 0 2
2 5 3 1 0 3
3 5 3 2 0 4
4 5 3 3 0 5
5 5 3 4 0 6
6 5 2 5 0
"""
    with pytest.raises(ConfigurationError, match="degree clause: boundary vertex 0"):
        parse_configuration(fan)


def test_parse_rejects_unmarked_cut_vertex():
    bad = fixture_text("bowtie.conf").replace("0 6 4", "0 7 4")
    with pytest.raises(ConfigurationError, match="separation clause: vertex 0"):
        parse_configuration(bad)


def test_parse_rejects_header_mismatch():
    bad = fixture_text("triangle555.conf").replace("conf 3 6", "conf 3 7")
    with pytest.raises(ConfigurationError, match="header declares ring-size 7, graph yields 6"):
        parse_configuration(bad)


def test_parse_rejects_a_ring_below_two():
    rows = neighbor_rows(CAPPED_PENTAGON)
    lines = [f"{v} 5 {len(row)} " + " ".join(map(str, row)) for v, row in enumerate(rows)]
    text = "\n".join([f"conf {len(rows)} 0", *lines]) + "\n"
    with pytest.raises(ConfigurationError) as err:
        parse_configuration(text)
    assert str(err.value) == "ring clause: ring-size 0 is below 2"


def test_parse_rejects_non_triangulation():
    square = """conf 4 8
0 5 2 1 3
1 5 2 2 0
2 5 2 3 1
3 5 2 0 2
"""
    with pytest.raises(ConfigurationError, match="not triangles"):
        parse_configuration(square)


def test_parse_reports_every_violation():
    bad = fixture_text("wheel5.conf").replace("0 5 5", "0 6 5").replace("1 5 3", "1 4 3")
    with pytest.raises(ConfigurationError) as err:
        parse_configuration(bad)
    assert "interior vertex 0" in str(err.value)
    assert "vertex 1 has gamma 4" in str(err.value)


# -- free completions --------------------------------------------------------


def test_completion_single_vertex_unreachable():
    with pytest.raises(ConfigurationError, match="unreachable"):
        free_completion(load("single5.conf"))


def test_completion_conf1():
    k = load("conf1.conf")
    fc = free_completion(k)
    s = fc.completion
    assert s.n == 10
    assert fc.ring == (4, 5, 6, 7, 8, 9)
    assert [s.degree(v) for v in range(4)] == [5, 5, 5, 5]
    trace = FaceTrace(s)
    assert trace.chi == 2
    # the first four vertices induce exactly the configuration
    kept = {frozenset(e) for e in s.edge_list if max(e) < 4}
    assert kept == {frozenset(e) for e in k.graph.edge_list}
    assert sorted(len(w) for w in trace.walks) == [3] * 12 + [6]


def test_completion_conf1_contract_pairs_are_edges():
    k = load("conf1.conf")
    s = free_completion(k).completion
    for cset in k.contracts:
        for u, v in cset:
            assert len(s.edges_between(u, v)) == 1


def test_completion_triangle():
    s = free_completion(load("triangle555.conf")).completion
    assert s.n == 9
    assert [s.degree(v) for v in range(3)] == [5, 5, 5]


def test_completion_edge_pair():
    s = free_completion(parse_configuration(EDGE_PAIR)).completion
    assert s.n == 8
    assert [s.degree(v) for v in range(2)] == [5, 5]


def test_completion_wheel():
    s = free_completion(load("wheel5.conf")).completion
    assert s.n == 11
    assert [s.degree(v) for v in range(6)] == [5] * 6


def test_completion_bowtie_cut_vertex():
    s = free_completion(load("bowtie.conf")).completion
    assert s.n == 13
    assert s.degree(0) == 6
    assert FaceTrace(s).chi == 2


def test_completion_ring_length_matches_ring_size():
    configs = [load(n) for n in ("conf1.conf", "triangle555.conf", "wheel5.conf", "bowtie.conf")]
    configs.append(parse_configuration(EDGE_PAIR))
    for k in configs:
        fc = free_completion(k)
        assert len(fc.ring) == k.ring_size
        # ring vertices close a cycle bounding the unbounded face
        r = len(fc.ring)
        for j, v in enumerate(fc.ring):
            nxt = fc.ring[(j + 1) % r]
            assert len(fc.completion.edges_between(v, nxt)) == 1


def test_completion_is_deterministic():
    a = free_completion(load("conf1.conf"))
    b = free_completion(load("conf1.conf"))
    assert a.completion.edge_list == b.completion.edge_list
    assert a.ring == b.ring


@pytest.mark.parametrize(
    "name,gamma", [("tri556", (5, 5, 2)), ("diamond_hub6", (6, 3, 5, 5)), ("diamond_hub6", (2, 5, 5, 5))]
)
def test_completion_rejects_negative_owed_counts(name, gamma):
    # a boundary vertex owing gamma - deg - 1 < 0 ring vertices is turned
    # away before any ring is written
    graph = dict(desk_configurations())[name].graph
    with pytest.raises(ConfigurationError, match="degree target unreachable"):
        free_completion(Configuration(graph, gamma))


def test_completion_rejects_an_empty_ring():
    with pytest.raises(ConfigurationError) as err:
        free_completion(Configuration(CAPPED_PENTAGON, (5,) * CAPPED_PENTAGON.n))
    assert str(err.value) == "ring of length 0 cannot bound a triangulated disk"


def test_completion_rejects_an_interior_degree_it_cannot_reach():
    # the wheel's hub is interior: the ring leaves its degree at 5
    wheel = load("wheel5.conf")
    with pytest.raises(ConfigurationError) as err:
        free_completion(Configuration(wheel.graph, (6,) + wheel.gamma[1:]))
    assert str(err.value) == "degree target unreachable: vertex 0 completes to degree 5, needs 6"


def test_island_of_refuses_a_ring_out_of_cycle_order():
    fc = free_completion(load("wheel5.conf"))
    ring = (fc.ring[1], fc.ring[0]) + fc.ring[2:]
    with pytest.raises(ConfigurationError) as err:
        island_of(FreeCompletion(fc.completion, ring))
    assert str(err.value) == "completion failed: broken ring cycle"


def test_island_of_refuses_a_ring_cycle_that_bounds_no_face():
    # the wheel's rim is a cycle of the completion, with the hub inside it
    # and the ring outside
    fc = free_completion(load("wheel5.conf"))
    with pytest.raises(ConfigurationError) as err:
        island_of(FreeCompletion(fc.completion, (1, 2, 3, 4, 5)))
    assert str(err.value) == "completion failed: ring does not bound a face"


def test_completion_refuses_a_configuration_drawn_on_the_torus():
    # K7 triangulates the torus, rotating 1, 3, 2, 6, 4, 5 around each
    # vertex; the completion takes its first face as the unbounded one and
    # keeps the torus, so its Euler characteristic stays 0
    k7 = graph_from_neighbors([[(v + d) % 7 for d in (1, 3, 2, 6, 4, 5)] for v in range(7)])
    trace = FaceTrace(k7)
    assert trace.chi == 0 and {len(w) for w in trace.walks} == {3}
    # each vertex of the first face owes one ring vertex, so the ring has 3
    outer = {k7.dart_vertex(d) for d in trace.walks[0]}
    gamma = [8 if v in outer else 6 for v in range(7)]
    with pytest.raises(ConfigurationError) as err:
        free_completion(Configuration(k7, tuple(gamma)))
    assert str(err.value) == "completion failed: result is not a plane drawing"


def test_island_of_refuses_a_completion_with_a_bridge():
    # two triangles joined by the bridge 2-3: the bridge has one face on
    # both sides, so the dual keeps a loop once the unbounded face is gone
    g = graph_from_neighbors([[1, 2], [2, 0], [0, 1, 3], [2, 4, 5], [5, 3], [3, 4]])
    with pytest.raises(ConfigurationError) as err:
        island_of(FreeCompletion(g, (0, 1, 2)))
    assert str(err.value) == "completion failed: unbounded face leaks past the ring"


def test_completion_rejects_a_fan_around_the_whole_ring():
    # end 0 owes nothing, so end 1's fan runs the whole ring and meets ring
    # vertex 0 from both sides
    graph = dict(desk_configurations())["edge55"].graph
    with pytest.raises(ConfigurationError, match="parallel edges"):
        free_completion(Configuration(graph, (2, 6)))


def test_completion_refuses_a_negative_edge(monkeypatch):
    # a configuration is drawn in the plane: an edge with sign -1 is named
    # and turned away before the map is traced
    star = graph_from_neighbors([[1], [0, 2, 3], [1], [1]], [(0, 1)])

    def no_trace(g):
        raise AssertionError("traced")

    with monkeypatch.context() as patch:
        patch.setattr(snarklab.configurations, "FaceTrace", no_trace)
        with pytest.raises(ConfigurationError, match=r"edge 0 \(0, 1\) has sign -1"):
            free_completion(Configuration(star, (3, 6, 5, 5)))
    # every data configuration but the lone vertex still completes
    completing = [name for name, _ in _completing_fixtures()]
    assert completing == ["bowtie.conf", "conf1.conf", "triangle555.conf", "wheel5.conf"]


def _completing_fixtures():
    for entry in sorted((resources.files("snarklab") / "data").iterdir(), key=lambda p: p.name):
        if entry.name.endswith(".conf"):
            conf = load(entry.name)
            try:
                free_completion(conf)
            except ConfigurationError:
                continue
            yield entry.name, conf


def test_completion_matches_face_oracle():
    # the ring written into the configuration's rotations gives the graph
    # the face list builds: the same edges, the same rotations up to their
    # first dart, and so the same island
    def cyclic(row):
        i = row.index(min(row))
        return row[i:] + row[:i]

    cases = desk_configurations() + list(_completing_fixtures())
    assert len(cases) == 27
    for name, conf in cases:
        fc = free_completion(conf)
        oracle = face_built_completion(conf)
        assert fc.completion.edge_list == oracle.edge_list, name
        for v in range(oracle.n):
            assert cyclic(fc.completion.rotation(v)) == cyclic(oracle.rotation(v)), (name, v)
        a, b = island_of(fc), island_of(FreeCompletion(oracle, fc.ring))
        assert graph_record(a.graph) + (a.boundary, a.edge_origin, a.face_of) == graph_record(
            b.graph
        ) + (b.boundary, b.edge_origin, b.face_of), name


# -- islands -----------------------------------------------------------------


def test_island_conf1():
    k = load("conf1.conf")
    isl = island_of(k)
    g = isl.graph
    assert g.n == 12  # 2 inner faces + 6 fans + 4 corners
    assert g.m == 15  # 21 completion edges minus 6 ring edges
    assert len(isl.boundary) == 6
    assert sorted(g.degree(v) for v in range(g.n)) == [2] * 6 + [3] * 6
    assert FaceTrace(g).chi == 2


def test_island_triangle():
    isl = island_of(load("triangle555.conf"))
    assert isl.graph.n == 10  # 1 inner face + 6 fans + 3 corners
    assert len(isl.boundary) == 6


def test_island_wheel():
    isl = island_of(load("wheel5.conf"))
    assert isl.graph.n == 15  # 5 inner faces + 5 fans + 5 corners
    assert len(isl.boundary) == 5


def test_island_degree2_count_equals_ring_size():
    for name in ("conf1.conf", "triangle555.conf", "wheel5.conf", "bowtie.conf"):
        k = load(name)
        isl = island_of(k)
        twos = [v for v in range(isl.graph.n) if isl.graph.degree(v) == 2]
        assert len(twos) == k.ring_size
        assert sorted(isl.boundary) == twos


def test_island_provenance():
    k = load("conf1.conf")
    fc = free_completion(k)
    isl = island_of(fc)
    ring_edges = {fc.completion.edges_between(fc.ring[j], fc.ring[(j + 1) % 6])[0] for j in range(6)}
    # island edges cross exactly the non-ring completion edges, in id order
    assert sorted(isl.edge_origin) == sorted(set(range(fc.completion.m)) - ring_edges)
    # every boundary island vertex stands on a face with two ring corners
    for v in isl.boundary:
        assert len(set(isl.face_of[v]) & set(fc.ring)) == 2
    # every island vertex stands on a triangle of the completion
    for tri_face in isl.face_of:
        assert len(tri_face) == 3


# sha256 over graph_record, boundary, edge_origin and face_of of the island
# of every fixture that completes, pinned from the inner dual built by
# hand-filtering the completion's dual
ISLAND_FINGERPRINTS = {
    "bowtie.conf": "ea8ce79cbd4dd50568cd7b8d0499d504c0fe7d5a02067db22439ecfefc893874",
    "conf1.conf": "850b6fc41d1b2dc7782e4a56aa57da491c5ab282ce6aacb682544dff9201fab5",
    "triangle555.conf": "d1f5a030125b66fe6a9266c4f12b0d691cb75e66319a6ea94217b36fa261c318",
    "wheel5.conf": "cb14d676d3c3c1fc39d53595c7cb685a8d65062bb059a035697f898bfa8da333",
}


@pytest.mark.parametrize("name", sorted(ISLAND_FINGERPRINTS))
def test_island_fingerprints(name):
    isl = island_of(load(name))
    record = graph_record(isl.graph) + (isl.boundary, isl.edge_origin, isl.face_of)
    assert fingerprint([record]) == ISLAND_FINGERPRINTS[name]


# (edges, boundary, message): the ring check islands and cut sides share,
# met on 2-connected graphs so that validate_island reaches it
RING_BOUNDARY_ERRORS = [
    ([(u, v) for u in range(5) for v in range(u + 1, 5)], (), "vertex 0 has degree 4, not 2 or 3"),
    ([(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2), "boundary must list the degree-2 vertices once each"),
    ([(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2, 2), "boundary must list the degree-2 vertices once each"),
    ([(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)], (0,), "boundary must list the degree-2 vertices once each"),
]


@pytest.mark.parametrize("edges, boundary, message", RING_BOUNDARY_ERRORS)
def test_ring_boundary_check_raises_by_message(edges, boundary, message):
    # a failed check is not recorded, so a second call fails the same way
    n = 1 + max(max(p) for p in edges)
    g = Graph(n, edges, None, None)
    for _ in range(2):
        with pytest.raises(ConfigurationError) as exc:
            validate_island(Island(g, boundary))
        assert str(exc.value) == message
        assert g not in snarklab.configurations._islands


def test_validate_island_rejects_paths():
    path = Graph(3, [(0, 1), (1, 2)], [[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]], [1, 1])
    for _ in range(2):
        with pytest.raises(ConfigurationError) as exc:
            validate_island(Island(path, (0, 2)))
        assert str(exc.value) == "island is not 2-connected"
        assert path not in snarklab.configurations._islands


def test_ring_boundary_check_never_records():
    # Two disjoint triangles pass the degree and boundary check, which
    # searches no 2-connectivity, so it records nothing and validate_island
    # still refuses them.
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], None, None)
    check_ring_boundary(g, range(6))
    assert g not in snarklab.configurations._islands
    with pytest.raises(ConfigurationError, match="^island is not 2-connected$"):
        validate_island(Island(g, tuple(range(6))))


def test_the_island_record_dies_with_its_graph():
    # island_of validates what it builds, so its graph is recorded with its
    # degree-2 vertices; the entry goes when the graph does.
    record = snarklab.configurations._islands
    gc.collect()
    isl = island_of(load("conf1.conf"))
    assert record[isl.graph] == sorted(isl.boundary)
    graph, size = weakref.ref(isl.graph), len(record)
    del isl
    gc.collect()
    assert graph() is None
    assert len(record) == size - 1
