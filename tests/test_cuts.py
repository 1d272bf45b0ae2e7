"""Cyclic cut enumeration, low-cut reduction, Petersen-core detection, merging."""

import dataclasses
import gc
import os
import pathlib
import random
import subprocess
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    components_oracle,
    cyclic_cut_oracle,
    cyclic_edge_connectivity,
    expand_to_triangle,
    fingerprint,
    fixture_graph,
    ilp_colorable,
    is_petersen_oracle,
    k33,
    low_cut_reduce,
    low_link_oracle,
    petersen_dot_product,
    petersen_like_oracle,
    prism,
    random_cubic,
    relabeled,
    side_index,
)

import snarklab.cuts
import snarklab.graphs
from snarklab.cutanalysis import random_planar_cubic
from snarklab.cuts import (
    SMALL,
    BridgeError,
    CyclicCut,
    PipelineResult,
    _is_petersen,
    _piece_cuts,
    _reduce_side,
    color_pipeline,
    enumerate_cyclic_cuts,
    is_petersen_like,
    merge_colorings,
)
from snarklab.graphs import (
    Graph,
    canonical_key,
    is_proper_coloring,
    k4,
    petersen,
    three_edge_color,
)


def dodecahedron():
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(i, 10 + i) for i in range(10)]
    edges += [(10 + i, 10 + (i + 2) % 10) for i in range(10)]
    return Graph(20, edges)


def bridged_cubic():
    """Two 5-vertex blocks joined by a single bridge."""
    block = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 4), (3, 4)]
    edges = list(block)
    edges += [(u + 5, v + 5) for u, v in block]
    edges.append((4, 9))
    return Graph(10, edges)


def fresh_copy(g):
    """An equal Graph that is a distinct object, so it shares no memo entry
    with g; the cut layer reads no embedding, so none is copied."""
    return Graph(g.n, g.edge_list, None, g.sign_list)


def random_pairing(rng, n):
    """Random cubic multigraph on n vertices; loops and parallel edges kept."""
    darts = [v for v in range(n) for _ in range(3)]
    rng.shuffle(darts)
    return Graph(n, list(zip(darts[::2], darts[1::2])))


# -- enumeration -------------------------------------------------------------


def test_petersen_has_no_small_cyclic_cuts():
    assert enumerate_cyclic_cuts(petersen(), 4) == []


def test_petersen_five_cuts_isolate_all_twelve_five_cycles():
    # 6 distinct cut sets; the two sides of each are complementary 5-cycles,
    # so the 12 sides are exactly the 12 five-cycles of the graph
    g = petersen()
    cuts = enumerate_cyclic_cuts(g, 5)
    assert len(cuts) == 6
    sides = set()
    for cut in cuts:
        assert len(cut.edges) == 5
        for side in (cut.side_a, cut.side_b):
            assert len(side) == 5
            inside = set(side)
            inner = [
                e
                for e in range(g.m)
                if g.endpoints(e)[0] in inside and g.endpoints(e)[1] in inside
            ]
            assert len(inner) == 5
            for v in side:
                assert sum(1 for e in inner if v in g.endpoints(e)) == 2
            sides.add(side)
    assert len(sides) == 12


def test_prism_has_one_cyclic_cut():
    cuts = enumerate_cyclic_cuts(prism(3), 3)
    assert len(cuts) == 1
    assert len(cuts[0].edges) == 3
    assert sorted(map(len, (cuts[0].side_a, cuts[0].side_b))) == [3, 3]


def test_enumeration_matches_subset_oracle():
    rng = random.Random(7)
    graphs = [
        k4(),
        k33(),
        prism(3),
        petersen(),
        fixture_graph("theta_2cut.cub"),
        fixture_graph("petersen_triangle.cub"),
    ]
    graphs += [random_cubic(rng, 12, connected=True) for _ in range(3)]
    graphs += [random_cubic(rng, 14, connected=True) for _ in range(2)]
    # 12-vertex plane graphs, the family the benchmark draws from
    graphs += [random_planar_cubic(random.Random(seed), 4) for seed in range(3)]
    cases = [(g, 5) for g in graphs]
    # larger plane graphs, n = 20 and 28, at the k where the subset oracle
    # still takes under a second each
    cases += [(random_planar_cubic(random.Random(0), 8), k) for k in (3, 4)]
    cases.append((random_planar_cubic(random.Random(0), 12), 3))
    for g, k in cases:
        got = {frozenset(c.edges) for c in enumerate_cyclic_cuts(g, k)}
        assert got == cyclic_cut_oracle(g, k)


def random_multigraphs(seed, half):
    """A connected cubic multigraph on 2 * half vertices, and a second one
    that keeps the loops its pairing draws."""
    rng = random.Random(seed)
    g = random_cubic(rng, 2 * half, connected=True)
    looped = random_pairing(rng, 2 * half)
    while len(components_oracle(range(looped.n), looped.edge_list)) > 1:
        looped = random_pairing(rng, 2 * half)
    return g, looped


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.integers(1, 5))
def test_enumeration_matches_oracle_on_random_multigraphs(seed, half, k):
    for h in random_multigraphs(seed, half):
        cuts = enumerate_cyclic_cuts(h, k)
        assert {frozenset(c.edges) for c in cuts} == cyclic_cut_oracle(h, k)
        assert all(0 in c.side_a for c in cuts)
        keys = [(len(c.edges), c.edges) for c in cuts]
        assert keys == sorted(keys)
        for c in cuts:
            assert sorted(c.side_a + c.side_b) == list(range(h.n))
            a = set(c.side_a)
            crossing = [e for e in range(h.m) if (h.endpoints(e)[0] in a) != (h.endpoints(e)[1] in a)]
            assert tuple(crossing) == c.edges


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.integers(1, 5), st.randoms(use_true_random=False))
def test_enumeration_is_independent_of_labels(seed, half, k, shuffler):
    # the branch order depends on vertex labels; the cuts found must not
    for h in random_multigraphs(seed, half):
        perm = list(range(h.n))
        order = list(range(h.m))
        shuffler.shuffle(perm)
        shuffler.shuffle(order)
        # edge i of the relabelled graph is edge order[i] of h
        moved = Graph(h.n, [(perm[u], perm[v]) for u, v in map(h.endpoints, order)])
        got = {
            (frozenset(order[e] for e in c.edges), frozenset(map(frozenset, (c.side_a, c.side_b))))
            for c in enumerate_cyclic_cuts(moved, k)
        }
        want = {
            (frozenset(c.edges), frozenset(frozenset(perm[v] for v in side) for side in (c.side_a, c.side_b)))
            for c in enumerate_cyclic_cuts(h, k)
        }
        assert got == want


def test_enumeration_sides_are_components():
    g = fixture_graph("theta_2cut.cub")
    for cut in enumerate_cyclic_cuts(g, 3):
        assert sorted(cut.side_a + cut.side_b) == list(range(g.n))
        for e in cut.edges:
            u, v = g.endpoints(e)
            assert (u in cut.side_a) != (v in cut.side_a)


def test_four_cuts_split_into_four_endpoints_each():
    # lem:M-4XYsplit: in a cyclically 4-edge-connected cubic graph both
    # sides of a cyclic 4-cut meet it in four distinct endpoints
    graphs = cuts = 0
    for s in range(100):
        for e in range(4, 9):
            g = random_planar_cubic(random.Random(10 * s + e), e)
            if enumerate_cyclic_cuts(g, 3):
                continue
            graphs += 1
            for cut in enumerate_cyclic_cuts(g, 4):
                assert len(cut.edges) == 4
                ends = [g.endpoints(x) for x in cut.edges]
                for side in (set(cut.side_a), set(cut.side_b)):
                    assert len({u if u in side else w for u, w in ends}) == 4, (s, e, cut)
                cuts += 1
    assert graphs >= 10 and cuts >= 60


def test_enumeration_rejects_disconnected():
    block = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = block + [(u + 4, v + 4) for u, v in block]
    g = Graph(8, edges)
    with pytest.raises(ValueError):
        enumerate_cyclic_cuts(g, 3)


def test_graph_without_vertices_has_no_cut():
    # The empty graph is cubic and has no component, so neither check
    # refuses it; it has no cycle, so no cut, and the pipeline colors its
    # no edges.
    g = Graph(0, [])
    assert enumerate_cyclic_cuts(g, 5) == []
    assert color_pipeline(g) == PipelineResult({}, None, False)
    assert is_petersen_like(g)[0] is False


def test_bridges_are_the_enumerated_one_cuts():
    # A bridge leaves two connected sides S with |delta(S)| = 1 <= |S|, so
    # the enumerator returns it as a cyclic 1-cut, and nothing else has
    # one edge; checked against deletion counts
    rng = random.Random(29)
    bridged = 0
    for _ in range(400):
        n = 2 * rng.randint(1, 10)
        g = random_cubic(rng, n, connected=True)
        cuts = enumerate_cyclic_cuts(g, 3)
        ones = [c.edges[0] for c in cuts if len(c.edges) == 1]
        bridge_ids = low_link_oracle(n, g.edge_list)[0]
        assert sorted(ones) == sorted(bridge_ids)
        bridged += bool(bridge_ids)
    assert bridged >= 10


# -- cyclic edge connectivity ------------------------------------------------


def test_connectivity_petersen():
    k, cut = cyclic_edge_connectivity(petersen())
    assert k == 5
    assert len(cut.edges) == 5


def test_connectivity_prism():
    k, cut = cyclic_edge_connectivity(prism(3))
    assert k == 3
    assert len(cut.edges) == 3


def test_connectivity_undefined_without_disjoint_cycles():
    assert cyclic_edge_connectivity(k4()) == (None, None)
    assert cyclic_edge_connectivity(k33()) == (None, None)


# -- low-cut reduction -------------------------------------------------------


def test_reduce_triangle_expansion_splits_off_k4():
    g = fixture_graph("petersen_triangle.cub")
    cuts = enumerate_cyclic_cuts(g, 3)
    assert len(cuts) == 1
    pieces = [piece for _, piece in low_cut_reduce(g, cuts[0])]
    assert any(canonical_key(p) == canonical_key(k4()) for p in pieces)
    assert any(canonical_key(p) == canonical_key(petersen()) for p in pieces)


def test_reduce_two_cut_gives_k4_blocks():
    g = fixture_graph("theta_2cut.cub")
    cuts = [c for c in enumerate_cyclic_cuts(g, 3) if len(c.edges) == 2]
    assert len(cuts) == 1
    (_, pa), (_, pb) = low_cut_reduce(g, cuts[0])
    assert canonical_key(pa) == canonical_key(k4())
    assert canonical_key(pb) == canonical_key(k4())
    assert pa.is_cubic() and pb.is_cubic()


def test_reduce_rejects_large_cut():
    g = petersen()
    cut = enumerate_cyclic_cuts(g, 5)[0]
    with pytest.raises(ValueError):
        low_cut_reduce(g, cut)


# -- merging -----------------------------------------------------------------


def test_merge_across_two_cut():
    g = fixture_graph("theta_2cut.cub")
    cut = [c for c in enumerate_cyclic_cuts(g, 3) if len(c.edges) == 2][0]
    (ra, pa), (rb, pb) = low_cut_reduce(g, cut)
    ca, cb = three_edge_color(pa), three_edge_color(pb)
    merged = merge_colorings(cut, (ca, cb), (ra, rb))
    assert set(merged) == set(range(g.m))
    assert is_proper_coloring(g, merged)


def test_merge_across_three_cut():
    g = prism(3)
    cut = enumerate_cyclic_cuts(g, 3)[0]
    (ra, pa), (rb, pb) = low_cut_reduce(g, cut)
    ca, cb = three_edge_color(pa), three_edge_color(pb)
    merged = merge_colorings(cut, (ca, cb), (ra, rb))
    assert set(merged) == set(range(g.m))
    assert is_proper_coloring(g, merged)


def test_merge_rejects_broken_cut_parity():
    # a 3-cut side whose gadget edges repeat a color
    g = prism(3)
    cut = enumerate_cyclic_cuts(g, 3)[0]
    (ra, pa), (rb, pb) = low_cut_reduce(g, cut)
    ca, cb = three_edge_color(pa), three_edge_color(pb)
    bad = {**cb, rb.gadget[2]: cb[rb.gadget[0]]}
    with pytest.raises(AssertionError, match="3-cut parity violated"):
        merge_colorings(cut, (ca, bad), (ra, rb))
    # a 2-cut side's one gadget edge stands for both cut edges, so parity
    # breaks only where a cut edge is named by a differently colored edge
    g = fixture_graph("theta_2cut.cub")
    cut = [c for c in enumerate_cyclic_cuts(g, 3) if len(c.edges) == 2][0]
    (ra, pa), (rb, pb) = low_cut_reduce(g, cut)
    ca, cb = three_edge_color(pa), three_edge_color(pb)
    e = ra.gadget[0]
    other = next(f for f in range(pa.m) if ca[f] != ca[e])
    bad_side = dataclasses.replace(ra, gadget=(e, other))
    with pytest.raises(AssertionError, match="2-cut parity violated"):
        merge_colorings(cut, (ca, cb), (bad_side, rb))


def test_pipeline_checks_its_coloring_under_optimize():
    # python -O strips assert statements; the pipeline's check of its
    # result must still refuse an all-zero coloring of k4
    script = (
        "import snarklab.cuts\n"
        "from snarklab.graphs import k4\n"
        "snarklab.cuts.three_edge_color = lambda h: {e: 0 for e in range(h.m)}\n"
        "try:\n"
        "    snarklab.cuts.color_pipeline(k4())\n"
        "except AssertionError as exc:\n"
        "    print('refused:', exc)\n"
    )
    src = str(pathlib.Path(snarklab.cuts.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("refused:")


# -- Petersen-core detection -------------------------------------------------


def test_petersen_itself_is_petersen_like():
    ok, trace = is_petersen_like(petersen())
    assert ok
    assert trace.steps == ()
    assert canonical_key(trace.terminal) == canonical_key(petersen())


def test_triangle_expansion_is_petersen_like():
    g = fixture_graph("petersen_triangle.cub")
    ok, trace = is_petersen_like(g)
    assert ok
    assert len(trace.steps) >= 1
    assert len(trace.steps[0].cut_edges) == 3
    assert canonical_key(trace.terminal) == canonical_key(petersen())


def test_double_expansion_is_petersen_like():
    g = expand_to_triangle(fixture_graph("petersen_triangle.cub"), 5)
    ok, trace = is_petersen_like(g)
    assert ok
    assert canonical_key(trace.terminal) == canonical_key(petersen())


def test_colorable_graphs_are_not_petersen_like():
    for g in (k4(), prism(3), fixture_graph("theta_2cut.cub"), dodecahedron()):
        ok, trace = is_petersen_like(g)
        assert not ok


def test_petersen_like_rejects_bridge():
    with pytest.raises(BridgeError):
        is_petersen_like(bridged_cubic())


# (graph, message): the enumerator checks cubic and connected before a
# bridge is looked for, so a disconnected bridged graph reports the
# disconnection, as a plain ValueError
LOW_CUT_ERRORS = [
    (Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), "graph is not cubic"),
    (
        Graph(14, bridged_cubic().edge_list + [(u + 10, v + 10) for u, v in k4().edge_list]),
        "graph is disconnected",
    ),
]


@pytest.mark.parametrize("run", [color_pipeline, is_petersen_like])
@pytest.mark.parametrize("g, message", LOW_CUT_ERRORS)
def test_cut_layer_entry_points_refuse_by_class_and_message(run, g, message):
    with pytest.raises(ValueError) as exc:
        run(g)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def replay_reduction(g, trace):
    """Follow a trace's steps from g; return the piece they end on."""
    h = g
    for step in trace.steps:
        cut = next(c for c in enumerate_cyclic_cuts(h, 3) if c.edges == step.cut_edges)
        assert step.side_vertices in (cut.side_a, cut.side_b)
        (_, pa), (_, pb) = low_cut_reduce(h, cut)
        h = pa if step.side_vertices == cut.side_a else pb
    return h


def test_petersen_like_trace_replays_to_its_terminal():
    graphs = [
        fixture_graph("petersen_triangle.cub"),
        expand_to_triangle(fixture_graph("petersen_triangle.cub"), 5),
    ]
    rng = random.Random(31)
    graphs += [
        random_cubic(rng, n, connected=True, bridgeless=True)
        for n in (10, 12, 14, 16)
        for _ in range(3)
    ]
    for g in graphs:
        ok, trace = is_petersen_like(g)
        piece = replay_reduction(g, trace)
        assert piece.edge_list == trace.terminal.edge_list
        assert enumerate_cyclic_cuts(piece, 3) == []
        assert ok == (canonical_key(piece) == canonical_key(petersen()))


def test_petersen_like_order_independent():
    targets = [
        (fixture_graph("petersen_triangle.cub"), True),
        (expand_to_triangle(fixture_graph("petersen_triangle.cub"), 5), True),
        (fixture_graph("theta_2cut.cub"), False),
        (expand_to_triangle(prism(3), 0), False),
    ]
    for g, expected in targets:
        ok, _ = is_petersen_like(g)
        assert ok == expected
    for seed in range(20):
        rng = random.Random(seed)
        for g, expected in targets:
            ok, _ = petersen_like_oracle(g, rng=rng)
            assert ok == expected


def test_girth_test_matches_canonical_key_oracle(monkeypatch):
    rng = random.Random(8)
    graphs = [petersen(), prism(5), fixture_graph("petersen.cub")]
    graphs += [relabeled(petersen(), rng.sample(range(10), 10)) for _ in range(10)]
    graphs += [random_cubic(rng, 10) for _ in range(200)]
    graphs += [random_pairing(rng, 10) for _ in range(200)]
    # the terminal pieces of is_petersen_like's search on the seed-201
    # graphs of the bench's cuts workload and on its fixtures
    bench_rng = random.Random(201)
    bench_graphs = [random_planar_cubic(bench_rng, 4) for _ in range(100)]
    bench_graphs += [fixture_graph("petersen.cub"), fixture_graph("petersen_triangle.cub")]
    reached = []
    monkeypatch.setattr(snarklab.cuts, "_is_petersen", reached.append)
    for g in bench_graphs:
        is_petersen_like(g)
    monkeypatch.undo()
    terminals = [h for h in reached if h.n == 10]
    assert {is_petersen_oracle(h) for h in terminals} == {False, True}
    graphs += terminals
    assert any(h.has_loops() for h in graphs)
    assert any(len(set(map(frozenset, h.edge_list))) < h.m for h in graphs)
    assert [_is_petersen(h) for h in graphs] == [is_petersen_oracle(h) for h in graphs]


def test_petersen_like_matches_fresh_search():
    rng = random.Random(17)
    graphs = [
        fixture_graph("petersen.cub"),
        fixture_graph("petersen_triangle.cub"),
        expand_to_triangle(fixture_graph("petersen_triangle.cub"), 5),
    ]
    graphs += [random_planar_cubic(random.Random(s), e) for s in range(15) for e in (4, 8)]
    graphs += [
        random_cubic(rng, n, connected=True, bridgeless=True)
        for n in (10, 12, 14, 16)
        for _ in range(5)
    ]
    for g in graphs:
        ok, trace = is_petersen_like(g)
        want_ok, want = petersen_like_oracle(g)
        assert ok == want_ok
        assert trace.steps == want.steps
        assert trace.terminal.edge_list == want.terminal.edge_list
        want_ok, _ = petersen_like_oracle(g, rng=random.Random(5))
        assert ok == want_ok


def test_cut_layer_never_calls_canonical_labelling(monkeypatch):
    def refuse(g):
        raise AssertionError("canonical labelling called")

    monkeypatch.setattr(snarklab.graphs, "canonical_key", refuse)
    assert not hasattr(snarklab.cuts, "canonical_key")
    for name in ("petersen.cub", "petersen_triangle.cub"):
        g = fixture_graph(name)
        ok, trace = is_petersen_like(g)
        assert ok and trace.terminal.n == 10
        res = color_pipeline(g)
        assert not res.succeeded
        assert res.obstruction_is_petersen


def seed201_graphs():
    """The 100 graphs of the bench's cuts workload at seed 201."""
    rng = random.Random(201)
    return [random_planar_cubic(rng, 4) for _ in range(100)]


def test_piece_cuts_match_enumeration(monkeypatch):
    rng = random.Random(29)
    graphs = seed201_graphs()
    graphs += [
        fixture_graph("petersen.cub"),
        fixture_graph("petersen_triangle.cub"),
        expand_to_triangle(fixture_graph("petersen_triangle.cub"), 5),
    ]
    graphs += [
        random_cubic(rng, n, connected=True, bridgeless=True)
        for n in range(6, 21, 2)
        for _ in range(8)
    ]
    reached = []
    derive = snarklab.cuts._piece_cuts

    def spy(cuts, cut, index, red, piece):
        got = derive(cuts, cut, index, red, piece)
        reached.append((len(cut.edges), piece, got))
        return got

    monkeypatch.setattr(snarklab.cuts, "_piece_cuts", spy)
    for g in graphs:
        color_pipeline(g)
        is_petersen_like(g)
    monkeypatch.undo()
    # every cut of the input graph and both of its sides, not only the
    # first cut that the searches take
    for g in graphs:
        cuts = enumerate_cyclic_cuts(g, 3)
        for cut in cuts:
            for side in (cut.side_a, cut.side_b):
                index = side_index(side)
                red, piece = _reduce_side(g, cut, index)
                reached.append((len(cut.edges), piece, _piece_cuts(cuts, cut, index, red, piece)))
    assert any(size == 2 for size, _, _ in reached)
    assert any(len(set(map(frozenset, p.edge_list))) < p.m for _, p, _ in reached)
    # each piece against a search on a copy that no call has seen
    for _, piece, got in reached:
        assert got == enumerate_cyclic_cuts(fresh_copy(piece), 3)
        for c in got:
            assert c.edges == tuple(sorted(c.edges))


# sha256 over, per graph, color_pipeline's coloring (sorted items), its
# obstruction's edge list and Petersen flag, and is_petersen_like's verdict,
# steps and terminal edge list; pinned before the two searches shared their
# entry check and piece step
CUT_LAYER_FINGERPRINT = "4c0e818e1b4f5e8f993569c2ed1cb1364d66eb49a05f5386c3dffe167c37532b"


def two_cut_multigraphs():
    """Bridgeless cubic multigraphs on 6-24 vertices, most with a 2-cut."""
    rng = random.Random(43)
    return [random_cubic(rng, n, connected=True, bridgeless=True) for n in range(6, 25, 2) for _ in range(5)]


def pipeline_record(g):
    res = color_pipeline(g)
    return (
        sorted(res.coloring.items()) if res.succeeded else None,
        res.obstruction.edge_list if res.obstruction is not None else None,
        res.obstruction_is_petersen,
    )


def petersen_record(g):
    ok, trace = is_petersen_like(g)
    return ok, trace.steps, trace.terminal.edge_list


def cut_layer_records(graphs):
    return [pipeline_record(g) + petersen_record(g) for g in graphs]


def cut_layer_graphs():
    """The seed-201 graphs, both Petersen fixtures and the 2-cut multigraphs."""
    graphs = seed201_graphs() + [fixture_graph("petersen.cub"), fixture_graph("petersen_triangle.cub")]
    return graphs + two_cut_multigraphs()


def test_cut_layer_outputs_fingerprint(monkeypatch):
    graphs = cut_layer_graphs()
    # most multigraphs have a 2-cut, which both searches reduce first
    first = [enumerate_cyclic_cuts(fresh_copy(g), 3)[:1] for g in graphs]
    assert sum(len(c[0].edges) == 2 for c in first if c) >= 30
    # cold, on copies that no call has seen and with no small piece colored
    # yet, then warmed by those colorings and with trees grown by the k = 5
    # enumeration that the bench makes before both searches
    monkeypatch.setattr(snarklab.cuts, "_small_colorings", {})
    assert fingerprint(cut_layer_records([fresh_copy(g) for g in graphs])) == CUT_LAYER_FINGERPRINT
    assert snarklab.cuts._small_colorings
    for g in graphs:
        enumerate_cyclic_cuts(g, 5)
    assert fingerprint(cut_layer_records(graphs)) == CUT_LAYER_FINGERPRINT


# sha256 over every cut's (edges, side_a, side_b), in list order, of
# enumerate_cyclic_cuts(g, 5) on the seed-201 graphs and the two Petersen
# fixtures, then of enumerate_cyclic_cuts(g, 3) on larger plane graphs;
# pinned before the search moved to an edge mask and its branch order
# came to depend on the excluded side
ENUMERATOR_FINGERPRINT = "e203d74cfb7cdf370628bf6b9b6242f389b00e987a94b1e8fab5f25f21d09d00"


def test_enumerator_outputs_fingerprint():
    fives = seed201_graphs() + [fixture_graph("petersen.cub"), fixture_graph("petersen_triangle.cub")]
    threes = [random_planar_cubic(random.Random(s), e) for e in (8, 12, 20, 48) for s in range(3)]
    records = [
        [(c.edges, c.side_a, c.side_b) for c in enumerate_cyclic_cuts(g, k)]
        for k, graphs in ((5, fives), (3, threes))
        for g in graphs
    ]
    assert sum(map(len, records)) >= 500
    assert fingerprint(records) == ENUMERATOR_FINGERPRINT


# each reducer twice, either one first
ORDERS = [
    (color_pipeline, is_petersen_like, color_pipeline, is_petersen_like),
    (is_petersen_like, color_pipeline, is_petersen_like, color_pipeline),
]


def test_cut_layer_enumerates_once_per_graph(monkeypatch):
    calls, searches, built = [], [], Counter()
    enumerate_real = snarklab.cuts.enumerate_cyclic_cuts
    search_real = snarklab.cuts._search_cuts
    reduce_real = snarklab.cuts._reduce_side

    def counted(g, k_max):
        calls.append(g)
        return enumerate_real(g, k_max)

    def searched(g, k_max):
        searches.append(g)
        return search_real(g, k_max)

    def reduced(g, cut, index):
        built[g, cut.edges, tuple(index)] += 1
        return reduce_real(g, cut, index)

    monkeypatch.setattr(snarklab.cuts, "enumerate_cyclic_cuts", counted)
    monkeypatch.setattr(snarklab.cuts, "_search_cuts", searched)
    monkeypatch.setattr(snarklab.cuts, "_reduce_side", reduced)
    two_cut_pieces = 0
    for g in cut_layer_graphs():
        for order in ORDERS:
            h = fresh_copy(g)
            calls.clear()
            searches.clear()
            built.clear()
            order[0](h)
            first = len(built)
            for run in order[1:]:
                run(h)
            # the graph is enumerated once, by whichever reducer runs first;
            # each piece is built once, and a 2-cut piece searched once
            assert calls == [h]
            assert searches[0] is h and len(set(map(id, searches))) == len(searches)
            assert set(built.values()) <= {1}
            two_cut_pieces += len(searches) - 1
            # the first call grows the whole tree, so no later call of
            # either reducer builds a piece
            assert len(built) == first
    assert two_cut_pieces >= 100


def test_reducers_agree_in_either_order():
    graphs = cut_layer_graphs()
    records = {order: [] for order in ORDERS}
    for g in graphs:
        # each reducer alone on a copy that no call has seen
        want = {color_pipeline: pipeline_record(fresh_copy(g)), is_petersen_like: petersen_record(fresh_copy(g))}
        for order in ORDERS:
            h = fresh_copy(g)
            got = [(pipeline_record if run is color_pipeline else petersen_record)(h) for run in order]
            assert got == [want[run] for run in order]
            records[order].append(got[order.index(color_pipeline)] + got[order.index(is_petersen_like)])
    for order in ORDERS:
        assert fingerprint(records[order]) == CUT_LAYER_FINGERPRINT


# -- the reduction-tree memo -------------------------------------------------


def inner_nodes(node):
    """The nodes of a reduction tree that have sides."""
    if node.sides:
        yield node
        for _, child in node.sides:
            yield from inner_nodes(child)


def tree_terminals(root):
    """The pieces that root's reduction tree keeps, checking each node's
    shape: an inner node keeps one cut of at most 3 edges, its two sides
    and no graph; a terminal keeps no cut, and its piece unless it is the
    root, which its graph keys."""

    def walk(node, is_root):
        if node.cut is None:
            assert not node.sides
            assert (node.graph is None) == is_root
            return [] if is_root else [node.graph]
        assert type(node.cut) is CyclicCut and len(node.cut.edges) <= 3
        assert len(node.sides) == 2 and node.graph is None
        return [p for _, child in node.sides for p in walk(child, False)]

    return walk(root, True)


def test_a_search_at_least_3_deep_grows_a_whole_tree():
    trees = snarklab.cuts._trees
    for g in cut_layer_graphs():
        want = {k: enumerate_cyclic_cuts(fresh_copy(g), k) for k in range(1, 6)}
        for first in range(1, 6):
            h = fresh_copy(g)
            assert enumerate_cyclic_cuts(h, first) == want[first]
            # only a search at least LOW deep grows a tree
            assert (h in trees) == (first >= 3)
            root = trees.get(h)
            # every later call searches afresh, and the first tree stays
            for k in range(1, 6):
                assert enumerate_cyclic_cuts(h, k) == want[k], (first, k)
            assert root is None or trees[h] is root
        # the root holds the first low cut, and no terminal piece has one
        root = trees[h]
        assert root.cut == (want[3][0] if want[3] else None)
        for piece in tree_terminals(root):
            assert enumerate_cyclic_cuts(fresh_copy(piece), 3) == []


def test_returned_lists_belong_to_the_caller():
    junk = CyclicCut((0,), (0,), (1,))
    for g in cut_layer_graphs():
        want = enumerate_cyclic_cuts(fresh_copy(g), 3)
        h = fresh_copy(g)
        # every call returns its own search's list, before the tree is
        # grown and after
        for k in (2, 3, 3, 5):
            got = enumerate_cyclic_cuts(h, k)
            got.clear()
            assert enumerate_cyclic_cuts(h, 3) == want
            enumerate_cyclic_cuts(h, k).append(junk)
            assert enumerate_cyclic_cuts(h, 3) == want


def test_refused_graphs_raise_alike_and_leave_no_entry(monkeypatch):
    trees = snarklab.cuts._trees
    runs = (lambda h: enumerate_cyclic_cuts(h, 5), color_pipeline, is_petersen_like)
    cases = [(g, ValueError, message, runs) for g, message in LOW_CUT_ERRORS]
    bridged = bridged_cubic()
    # the enumerator answers a bridged graph, but grows no tree the cut
    # layer would refuse
    assert len(enumerate_cyclic_cuts(bridged, 5)[0].edges) == 1
    cases.append((bridged, BridgeError, "graph has a bridge", runs[1:]))
    gc.collect()
    before = len(trees)
    built = []
    monkeypatch.setattr(snarklab.cuts, "_reduce_side", lambda *args: built.append(args))
    for g, cls, message, entries in cases:
        for run in entries * 2:
            with pytest.raises(ValueError) as exc:
                run(g)
            assert type(exc.value) is cls
            assert str(exc.value) == message
            # no entry, so no tree, and no piece was built to grow one
            assert g not in trees
            assert len(trees) == before and not built


def test_trees_stay_whole_and_die_with_their_graphs():
    trees = snarklab.cuts._trees
    gc.collect()
    before = len(trees)
    graphs = cut_layer_graphs()
    for g in graphs:
        enumerate_cyclic_cuts(g, 5)
        root = trees[g]
        kept = [id(p) for p in tree_terminals(root)]
        # the reducers walk the tree as grown, and a deeper search keeps it
        color_pipeline(g)
        is_petersen_like(g)
        enumerate_cyclic_cuts(g, 5)
        assert trees[g] is root and [id(p) for p in tree_terminals(root)] == kept
    # the pieces live in their host's tree, not in the memo
    assert len(trees) == before + len(graphs)
    refs = [weakref.ref(g) for g in graphs]
    pieces = [weakref.ref(p) for g in graphs for p in tree_terminals(trees[g])]
    assert len(pieces) >= 2 * len(graphs)
    del g, root, graphs
    gc.collect()
    assert not any(r() for r in refs)
    assert not any(r() for r in pieces)
    assert len(trees) == before


def test_a_tree_keeps_one_cut_per_inner_node_and_terminal_pieces_only(monkeypatch):
    trees = snarklab.cuts._trees
    reduce_real = snarklab.cuts._reduce_side
    built = []

    def caught(h, cut, index):
        red, piece = reduce_real(h, cut, index)
        built.append(piece)
        return red, piece

    monkeypatch.setattr(snarklab.cuts, "_reduce_side", caught)
    firsts = (lambda h: enumerate_cyclic_cuts(h, 3), color_pipeline, is_petersen_like)
    grown, refs = [], []
    for g in cut_layer_graphs():
        for run in firsts:
            h = fresh_copy(g)
            built.clear()
            run(h)
            root = trees[h]
            kept = tree_terminals(root)
            # every terminal piece is one the build made, and no other
            # piece outlives it
            assert {id(p) for p in kept} <= {id(p) for p in built}
            assert len(built) == 2 * sum(1 for _ in inner_nodes(root))
            refs += [weakref.ref(p) for p in built if all(p is not q for q in kept)]
            grown.append((h, root, kept))
    built.clear()
    gc.collect()
    assert len(refs) >= 150 and not any(r() for r in refs)
    for h, root, kept in grown:
        assert trees[h] is root and tree_terminals(root) == kept


def test_cut_layer_searches_once_per_graph(monkeypatch):
    searches, built = [], []
    search = snarklab.cuts._search_cuts
    reduce_real = snarklab.cuts._reduce_side

    def counted(g, k_max):
        searches.append((g, k_max))
        return search(g, k_max)

    def reduced(*args):
        built.append(args)
        return reduce_real(*args)

    monkeypatch.setattr(snarklab.cuts, "_search_cuts", counted)
    monkeypatch.setattr(snarklab.cuts, "_reduce_side", reduced)
    # the bench's item: these graphs have no 2-cut, so no piece is searched
    for g in seed201_graphs():
        searches.clear()
        enumerate_cyclic_cuts(g, 5)
        color_pipeline(g)
        is_petersen_like(g)
        assert searches == [(g, 5)]
    # every enumeration searches, and the first at least LOW deep grows
    # the tree, searching each 2-cut piece it builds; neither reducer then
    # builds a piece or searches
    two_cut_pieces = 0
    for g in cut_layer_graphs():
        h = fresh_copy(g)
        searches.clear()
        built.clear()
        enumerate_cyclic_cuts(h, 2)
        assert searches == [(h, 2)] and not built
        enumerate_cyclic_cuts(h, 3)
        assert searches[1] == (h, 3) and all(p is not h for p, _ in searches[2:])
        two_cut_pieces += len(searches) - 2
        grown = len(searches), len(built)
        enumerate_cyclic_cuts(h, 3)
        assert searches[grown[0] :] == [(h, 3)]
        for run in ORDERS[0]:
            run(h)
        assert (len(searches), len(built)) == (grown[0] + 1, grown[1])
    assert two_cut_pieces >= 100


# -- coloring pipeline -------------------------------------------------------


def test_pipeline_matches_oracle_on_fixtures():
    rng = random.Random(23)
    graphs = [
        k4(),
        k33(),
        prism(3),
        prism(4),
        petersen(),
        fixture_graph("theta_2cut.cub"),
        fixture_graph("petersen_triangle.cub"),
        expand_to_triangle(fixture_graph("petersen_triangle.cub"), 5),
        dodecahedron(),
    ]
    graphs += [
        random_cubic(rng, n, connected=True, bridgeless=True)
        for n in (10, 12, 14)
        for _ in range(3)
    ]
    graphs += [random_planar_cubic(random.Random(s), e) for s in range(20) for e in (4, 8)]
    for g in graphs:
        res = color_pipeline(g)
        oracle = three_edge_color(g)
        assert res.succeeded == (oracle is not None)
        if res.succeeded:
            assert set(res.coloring) == set(range(g.m))
            assert is_proper_coloring(g, res.coloring)


def terminal_edge_maps(node, to_root=None):
    """(piece, its edge map into the root's graph) for every terminal piece
    below node: an edge the root's graph lacks, a gadget edge at some
    level, maps to None, and to_root=None is the root's own map."""
    if node.graph is not None:
        yield node.graph, to_root
    for red, child in node.sides:
        edges = red.edge_to_original
        if to_root is not None:
            edges = [f if f is None else to_root[f] for f in edges]
        yield from terminal_edge_maps(child, edges)


class Forgetful(dict):
    """A dict that drops every item it is given."""

    def __setitem__(self, key, value):
        pass


def test_pipeline_catches_an_improper_piece_coloring(monkeypatch):
    trees = snarklab.cuts._trees
    color_real = snarklab.cuts.three_edge_color
    edge_maps, corrupted = {}, []

    def corrupt(piece):
        coloring = color_real(piece)
        # the first piece with an edge of g: that edge takes the color of
        # an edge it meets, which leaves every gadget's colors, and so
        # every cut's parity, whole
        e = next((e for e, f in enumerate(edge_maps[id(piece)]) if f is not None), None)
        if corrupted or coloring is None or e is None:
            return coloring
        f = next(d[0] for d in piece.incident_darts(piece.endpoints(e)[0]) if d[0] != e)
        corrupted.append(piece)
        return {**coloring, e: coloring[f]}

    graphs = [g for g in cut_layer_graphs() if enumerate_cyclic_cuts(g, 3)]
    # grows each tree, with true colorings
    colorable = [color_pipeline(g).succeeded for g in graphs]
    monkeypatch.setattr(snarklab.cuts, "three_edge_color", corrupt)
    for g, ok in zip(graphs, colorable):
        edge_maps = {id(piece): to_g for piece, to_g in terminal_edge_maps(trees[g])}
        corrupted.clear()
        # an empty piece-coloring memo that keeps nothing, so every small
        # piece reaches corrupt: a kept corrupted coloring would reach the
        # next piece with its edge list, where the corrupted edge may stand
        # for a cut edge and break parity
        monkeypatch.setattr(snarklab.cuts, "_small_colorings", Forgetful())
        if ok:
            # the one check, on g, finds the piece's clash
            with pytest.raises(AssertionError) as exc:
                color_pipeline(g)
            assert "parity" not in str(exc.value)
            assert len(corrupted) == 1
        else:
            assert not color_pipeline(g).succeeded
    assert sum(colorable) >= 100


def test_petersen_dot_product_is_an_obstruction_but_not_petersen_like():
    g = petersen_dot_product()
    assert (g.n, g.m) == (18, 27) and g.is_cubic()
    assert enumerate_cyclic_cuts(fresh_copy(g), 3) == []
    assert [len(c.edges) for c in enumerate_cyclic_cuts(fresh_copy(g), 4)] == [4, 4]
    assert three_edge_color(g) is None
    # with no low cut the graph is its own obstruction; its triangle
    # expansion reduces once, to an 18-vertex terminal, in either order
    for h, steps in ((g, 0), (expand_to_triangle(g, 5), 1)):
        for order in ORDERS:
            h = fresh_copy(h)
            for run in order:
                if run is color_pipeline:
                    res = color_pipeline(h)
                    assert not res.succeeded
                    assert res.obstruction.n == 18 and not res.obstruction_is_petersen
                    assert canonical_key(res.obstruction) == canonical_key(g)
                else:
                    ok, trace = is_petersen_like(h)
                    assert not ok
                    assert len(trace.steps) == steps and trace.terminal.n == 18
                    assert canonical_key(trace.terminal) == canonical_key(g)


def test_pipeline_reports_petersen_obstruction():
    res = color_pipeline(fixture_graph("petersen_triangle.cub"))
    assert not res.succeeded
    assert res.obstruction is not None
    assert res.obstruction_is_petersen
    assert res.obstruction.n == 10


def test_pipeline_rejects_bridge():
    with pytest.raises(BridgeError):
        color_pipeline(bridged_cubic())


def flower_snark(k):
    """The flower snark J_k for odd k (J_k for even k is colorable): centres
    a_i joined to b_i on a k-cycle and to c_i and d_i on one 2k-cycle
    c_0 ... c_{k-1} d_0 ... d_{k-1}."""
    a, b, c, d = (range(j * k, (j + 1) * k) for j in range(4))
    edges = [(a[i], x[i]) for i in range(k) for x in (b, c, d)]
    edges += [(b[i], b[(i + 1) % k]) for i in range(k)]
    ring = list(c) + list(d)
    edges += [(ring[i], ring[(i + 1) % (2 * k)]) for i in range(2 * k)]
    return Graph(4 * k, edges)


def test_pipeline_agrees_with_the_ilp_oracle():
    # snarks on both sides of the 4-cut case, the Petersen graph behind a
    # 3-cut and a snark with no low cut, and a colorable flower graph
    graphs = [fixture_graph("petersen.cub"), fixture_graph("petersen_triangle.cub")]
    graphs += [expand_to_triangle(petersen(), 0), petersen_dot_product()]
    graphs += [flower_snark(5), flower_snark(7), flower_snark(9), flower_snark(4)]
    # plane graphs of 20-60 vertices, colorable by the four color theorem
    rng = random.Random(51)
    graphs += [random_planar_cubic(rng, rng.randint(8, 28)) for _ in range(20)]
    assert all(20 <= g.n <= 60 for g in graphs[8:])
    got = [ilp_colorable(g) for g in graphs]
    assert got == [False] * 7 + [True] * 21
    assert [color_pipeline(g).succeeded for g in graphs] == got


# -- the small-piece coloring memo --------------------------------------------


def memo_graphs():
    """The cut-layer graphs, K4, whose root is its one small piece, and
    plane graphs of 28 and 52 vertices, whose pieces are mostly K4s."""
    graphs = cut_layer_graphs() + [k4()]
    return graphs + [random_planar_cubic(random.Random(s), e) for e in (12, 24) for s in range(3)]


def test_small_pieces_are_colored_once_per_process(monkeypatch):
    color_real = snarklab.cuts.three_edge_color
    colored = []

    def spy(piece):
        colored.append(piece.n)
        return color_real(piece)

    memo = {}
    monkeypatch.setattr(snarklab.cuts, "_small_colorings", memo)
    monkeypatch.setattr(snarklab.cuts, "three_edge_color", spy)
    graphs = memo_graphs()
    want = [pipeline_record(g) for g in graphs]
    # every key is a piece on at most SMALL vertices, colored once and
    # kept as three_edge_color colors it; a larger piece is never kept
    assert memo and all(n <= SMALL for n, _ in memo)
    assert sum(n <= SMALL for n in colored) == len(memo)
    assert any(n > SMALL for n in colored)
    for (n, edges), coloring in memo.items():
        assert coloring == color_real(Graph(n, edges))
    # copies share no tree: only their larger pieces are colored again
    keys = set(memo)
    colored.clear()
    assert [pipeline_record(fresh_copy(g)) for g in graphs] == want
    assert colored and min(colored) > SMALL and set(memo) == keys


def test_a_returned_coloring_is_the_callers(monkeypatch):
    monkeypatch.setattr(snarklab.cuts, "_small_colorings", {})
    for g in memo_graphs():
        want = pipeline_record(fresh_copy(g))
        res = color_pipeline(g)
        if res.succeeded:
            res.coloring.update(dict.fromkeys(res.coloring, 0))
        assert pipeline_record(g) == want
        assert pipeline_record(fresh_copy(g)) == want
    # K4 is its own small piece, so each hit must hand out a new dict
    a, b = color_pipeline(k4()).coloring, color_pipeline(k4()).coloring
    assert a == b and a is not b
    assert all(c is not a and c is not b for c in snarklab.cuts._small_colorings.values())
