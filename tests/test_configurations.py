"""Configuration parsing, free completions, and islands."""

import pytest
from support import fingerprint, fixture_text, graph_record

from snarklab.configurations import (
    ConfigurationError,
    Island,
    free_completion,
    island_of,
    parse_configuration,
    validate_island,
)
from snarklab.graphs import Graph

EDGE_PAIR = """conf 2 6
0 5 1 1
1 5 1 0
"""


def load(name):
    return parse_configuration(fixture_text(name))


# -- parsing and the defining clauses ---------------------------------------


def test_parse_single_vertex():
    k = load("single5.conf")
    assert k.n == 1
    assert k.ring_size == 4  # 5 - 0 - 1
    assert k.boundary_vertices() == [0]
    assert k.interior_vertices() == []
    assert not k.has_cut_vertex


def test_parse_triangle():
    k = load("triangle555.conf")
    assert k.ring_size == 6  # three vertices, 5 - 2 - 1 each
    assert k.boundary_vertices() == [0, 1, 2]


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
    assert k.interior_vertices() == [0]
    assert k.boundary_vertices() == [1, 2, 3, 4, 5]


def test_parse_bowtie_cut_vertex():
    k = load("bowtie.conf")
    assert k.ring_size == 8
    assert k.cut_vertices() == {0}
    assert k.has_cut_vertex


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
    assert s.euler_characteristic() == 2
    # the first four vertices induce exactly the configuration
    kept = {frozenset(e) for e in s.edge_list if max(e) < 4}
    assert kept == {frozenset(e) for e in k.graph.edge_list}
    walks = s.face_walks()
    assert sorted(len(w) for w in walks) == [3] * 12 + [6]


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
    assert s.euler_characteristic() == 2


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


# -- islands -----------------------------------------------------------------


def test_island_conf1():
    k = load("conf1.conf")
    isl = island_of(k)
    g = isl.graph
    assert g.n == 12  # 2 inner faces + 6 fans + 4 corners
    assert g.m == 15  # 21 completion edges minus 6 ring edges
    assert len(isl.boundary) == 6
    assert sorted(g.degree(v) for v in range(g.n)) == [2] * 6 + [3] * 6
    assert g.euler_characteristic() == 2


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


def test_validate_island_rejects_paths():
    path = Graph(3, [(0, 1), (1, 2)], [[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]], [1, 1])
    with pytest.raises(ConfigurationError):
        validate_island(Island(path, (0, 2)))
