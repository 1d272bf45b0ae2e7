"""Degree-specified near-triangulations, their completions, and islands.

A configuration is a connected plane near-triangulation (every bounded
face a triangle) carrying a degree target gamma(v) >= 5 per vertex.
Interior vertices already meet their target; each boundary vertex is
owed gamma(v) - deg(v) further edges. The completion pays that debt
canonically: a cycle of new ring vertices is wrapped around the boundary
walk and the gap is triangulated fan-wise, leaving the configuration as
the interior of a triangulated disk whose outer cycle is the ring. The
ring is written into the configuration's own rotations, at the outer
corners one trace of its boundary walk names.

The inner dual of the completed disk (a vertex per bounded face, an
edge per completion edge shared by two bounded faces) is an island: a
2-connected plane graph with degrees 2 and 3 whose degree-2 vertices
trace the ring in cyclic order. check_ring_boundary is the one check of
the degrees and the ring order, for islands and cut sides alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence, Union
from weakref import WeakKeyDictionary

from .graphs import (
    Dart,
    FaceTrace,
    Graph,
    graph_from_neighbors,
    low_link,
    neighbor_rows,
    read_vertex_lines,
    remove_embedded,
)


class ConfigurationError(ValueError):
    """Malformed file, violated defining clause, or impossible completion."""


# -- configurations ----------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """A near-triangulation with degree targets.

    contracts holds optional edge sets of the completed graph, recorded
    as vertex pairs where ring vertices are numbered n, n+1, ... in
    boundary order; they parameterize later reducibility checks.
    """

    graph: Graph
    gamma: tuple[int, ...]
    contracts: tuple[tuple[tuple[int, int], ...], ...] = ()

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def ring_size(self) -> int:
        """Length of the ring a completion must add."""
        if self.graph.m == 0:
            return self.gamma[0] - 1
        _, _, cs = _boundary(FaceTrace(self.graph), self.gamma)
        return sum(cs)


def _boundary(trace: FaceTrace, gamma: Sequence[int]) -> tuple[int, list[Dart], list[int]]:
    """The walks index of the unbounded face of the traced graph, its
    dart walk, and the ring vertices owed at each walk position.

    The unbounded face is the unique non-triangle; in an all-triangle
    drawing the first face stands in (the choices are symmetric). The
    walk is rotated so its vertex sequence is lexicographically least. A
    vertex visited once owns gamma - deg - 1 ring vertices; a separating
    vertex is visited twice, owes two corner edges, and owns none
    (gamma = deg + 2 there).
    """
    nontri = [i for i, w in enumerate(trace.walks) if len(w) != 3]
    if len(nontri) > 1:
        raise ConfigurationError(f"{len(nontri)} faces are not triangles")
    oi = nontri[0] if nontri else 0
    g = trace.graph
    walk = trace.walks[oi]
    verts = [g.dart_vertex(d) for d in walk]
    best = min(range(len(walk)), key=lambda o: verts[o:] + verts[:o])
    counts = Counter(verts)
    cs = [gamma[v] - g.degree(v) - 1 if counts[v] == 1 else 0 for v in verts]
    return oi, walk[best:] + walk[:best], cs[best:] + cs[:best]


def parse_configuration(text: str) -> Configuration:
    """Parse the .conf format.

    Line 1 is ``conf <n> <ring-size>``; each of the next n lines is
    ``<id> <gamma> <deg> <nbrs...>`` with neighbors in clockwise order.
    Optional ``contract: <u-v> <u-v> ...`` lines each record one edge
    set of the completed graph, whose ring vertices are numbered n,
    n+1, ... in boundary order. ``#`` starts a comment. Every error is a
    ConfigurationError.
    """

    def vertex(n: int, v: int, ints: list[int]) -> tuple[int, list[int]]:
        gam, deg, *row = ints
        if deg != len(row):
            raise ValueError(f"vertex {v}: degree {deg} but {len(row)} neighbors")
        if len(set(row)) != len(row):
            raise ValueError(f"vertex {v}: repeated neighbor")
        for w in row:
            if not (0 <= w < n) or w == v:
                raise ValueError(f"vertex {v}: bad neighbor {w}")
        return gam, row

    try:
        (_, declared_ring), rows, rest = read_vertex_lines(text, "configuration", "conf", 2, None, 2, vertex)
        contracts: list[tuple[tuple[int, int], ...]] = []
        for line in rest:
            if not line.startswith("contract:"):
                raise ValueError(f"unexpected line: {line!r}")
            pairs: list[tuple[int, int]] = []
            for tok in line[len("contract:") :].split():
                a, _, b = tok.partition("-")
                try:
                    pairs.append((int(a), int(b)))
                except ValueError:
                    raise ValueError(f"malformed contract pair: {tok!r}") from None
            if not pairs:
                raise ValueError("empty contract line")
            contracts.append(tuple(pairs))
        g = graph_from_neighbors([row for _, row in rows])
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    config = Configuration(g, tuple(gam for gam, _ in rows), tuple(contracts))
    _validate(config, declared_ring)
    return config


def _validate(config: Configuration, declared_ring: Optional[int]) -> None:
    """Check the three defining clauses; report every violation by name."""
    g, gamma = config.graph, config.gamma
    _, pieces, components = low_link(g.n, g.edge_list)
    if components > 1:
        raise ConfigurationError("graph is not connected")
    if g.m:
        trace = FaceTrace(g)
        if trace.chi != 2:
            raise ConfigurationError("rotations do not describe a plane drawing")
        _, darts, cs = _boundary(trace, gamma)
        occurrences = Counter(map(g.dart_vertex, darts))
        ring = sum(cs)
    else:
        occurrences = Counter({0: 1})
        ring = config.ring_size

    problems: list[str] = []
    for v in range(g.n):
        if pieces[v] > 2:
            problems.append(f"separation clause: removing vertex {v} leaves {pieces[v]} pieces")
        elif pieces[v] == 2 and gamma[v] != g.degree(v) + 2:
            problems.append(
                f"separation clause: vertex {v} separates the graph, gamma must be degree + 2"
            )
        if occurrences[v] > 2:
            problems.append(f"separation clause: vertex {v} meets the unbounded face {occurrences[v]} times")
    for v in range(g.n):
        if gamma[v] < 5:
            problems.append(f"degree clause: vertex {v} has gamma {gamma[v]} below 5")
        elif v in occurrences:
            if gamma[v] <= g.degree(v):
                problems.append(f"degree clause: boundary vertex {v} needs gamma above its degree")
        elif gamma[v] != g.degree(v):
            problems.append(f"degree clause: interior vertex {v} needs gamma equal to its degree")

    if ring < 2:
        problems.append(f"ring clause: ring-size {ring} is below 2")
    if declared_ring is not None and ring != declared_ring:
        problems.append(f"header declares ring-size {declared_ring}, graph yields {ring}")

    limit = g.n + max(ring, 0)
    for cset in config.contracts:
        for u, w in cset:
            if not (0 <= u < limit and 0 <= w < limit) or u == w:
                problems.append(f"contract pair {u}-{w} is out of range")
    if problems:
        raise ConfigurationError("; ".join(problems))


# -- free completions --------------------------------------------------------


@dataclass(frozen=True)
class FreeCompletion:
    """A configuration completed into a triangulated disk.

    completion's vertices before the ring's induce exactly the
    configuration (edge ids are renumbered); ring lists the rest, the
    bounding ring, in cyclic order along the unbounded face.
    """

    completion: Graph
    ring: tuple[int, ...]


def free_completion(config: Configuration) -> FreeCompletion:
    """Wrap a ring around the boundary and triangulate the gap.

    Deterministic: ring vertex n+j sits at offset j along the boundary
    walk, counted from the walk's lexicographically least rotation; each
    boundary occurrence owns a fan of its owed ring vertices and the
    corner between consecutive occurrences is shared. The ring is written
    into the configuration's own rotations: each fan goes into the outer
    corner its occurrence passes, and each ring vertex's row runs from
    one ring neighbour through its owners to the other. The map takes the
    sense of the first bounded face, or of the first fan when there is
    none. Raises ConfigurationError on a sign -1 edge or an unmet degree target.
    """
    g, gamma = config.graph, config.gamma
    n = g.n
    if -1 in g.sign_list:
        e = g.sign_list.index(-1)
        raise ConfigurationError(f"edge {e} {g.endpoints(e)} has sign -1; a configuration is drawn in the plane")
    if g.m == 0:
        raise ConfigurationError(
            f"degree target unreachable: an isolated vertex meets at most its {gamma[0] - 1} ring vertices"
        )
    trace = FaceTrace(g)
    oi, darts, cs = _boundary(trace, gamma)
    verts = [g.dart_vertex(d) for d in darts]
    for v, c in zip(verts, cs):
        if c < 0:
            raise ConfigurationError(
                f"degree target unreachable: boundary vertex {v} already has degree {g.degree(v)}, gamma {gamma[v]}"
            )
    ring_len = sum(cs)
    if ring_len < 3:
        raise ConfigurationError(f"ring of length {ring_len} cannot bound a triangulated disk")
    starts = list(accumulate(cs, initial=0))
    forward = trace.forward(oi)
    rows = neighbor_rows(g)
    # position i fans out to ring offsets starts[i]..starts[i + 1]; a
    # forward walk passes the outer corner just before its dart, any other
    # walk just after it
    owners: list[list[int]] = [[] for _ in range(ring_len + 1)]
    fans = []
    for i, (d, v) in enumerate(zip(darts, verts)):
        span = range(starts[i], starts[i + 1] + 1)
        for j in span:
            owners[j].append(v)
        fan = [n + j % ring_len for j in span]
        fans.append((v, g.rotation(v).index(d) + (not forward), fan if forward else fan[::-1]))
    # later slots first, so that earlier ones stay put
    for v, slot, fan in sorted(fans, reverse=True):
        rows[v][slot:slot] = fan
    # the last fan wraps to offset ring_len, ring vertex n, and comes first there
    owners[0][:0] = owners.pop()
    for j, around in enumerate(owners):
        prev, nxt = n + (j - 1) % ring_len, n + (j + 1) % ring_len
        rows.append([nxt, *around[::-1], prev] if forward else [prev, *around, nxt])
    if len(trace.walks) > 1:
        flip = not trace.forward(1 if oi == 0 else 0)
    else:
        flip = forward == (cs[0] > 0)
    s = graph_from_neighbors([row[::-1] for row in rows] if flip else rows)
    for v in range(n):
        if s.degree(v) != gamma[v]:
            raise ConfigurationError(
                f"degree target unreachable: vertex {v} completes to degree {s.degree(v)}, needs {gamma[v]}"
            )
    if len(set(s.edge_list)) != s.m:
        raise ConfigurationError("completion failed: the completion has parallel edges")
    trace = FaceTrace(s)
    if trace.chi != 2:
        raise ConfigurationError("completion failed: result is not a plane drawing")
    ring = tuple(range(n, n + ring_len))
    _ring_face(trace, ring)
    return FreeCompletion(s, ring)


def _ring_face(trace: FaceTrace, ring: Sequence[int]) -> tuple[list[int], int]:
    """Edge ids along the ring cycle of the traced graph and the walks
    index of the face it bounds; the ring must bound a face."""
    s = trace.graph
    k = len(ring)
    eids = []
    for j in range(k):
        between = s.edges_between(ring[j], ring[(j + 1) % k])
        if len(between) != 1:
            raise ConfigurationError("completion failed: broken ring cycle")
        eids.append(between[0])
    want = sorted(eids)
    for fi, w in enumerate(trace.walks):
        if sorted(d[0] for d in w) == want:
            return eids, fi
    raise ConfigurationError("completion failed: ring does not bound a face")


# -- islands -----------------------------------------------------------------


@dataclass(frozen=True)
class Island:
    """Inner dual of a triangulated disk, or a family member's graph.

    graph: 2-connected, degrees 2 and 3 only (no embedding is checked);
    boundary: the degree-2 vertices in cyclic order along the disk edge;
    edge_origin: per island edge, the completion edge it crosses;
    face_of: per island vertex, the completion face it stands on.
    The provenance fields stay None for islands built directly.
    """

    graph: Graph
    boundary: tuple[int, ...]
    edge_origin: Optional[tuple[int, ...]] = None
    face_of: Optional[tuple[tuple[int, ...], ...]] = None


# per live graph that passed validate_island: its degree-2 vertices, sorted
_islands: WeakKeyDictionary[Graph, list[int]] = WeakKeyDictionary()


def check_ring_boundary(g: Graph, boundary: Sequence[int]) -> None:
    """Raise ConfigurationError unless g has degrees 2 and 3 only and
    boundary lists its degree-2 vertices once each. The degrees of a graph
    that validate_island recorded are not scanned again; this never records."""
    twos = _islands.get(g)
    if twos is None:
        degree = [g.degree(v) for v in range(g.n)]
        bad = [v for v, d in enumerate(degree) if d not in (2, 3)]
        if bad:
            raise ConfigurationError(f"vertex {bad[0]} has degree {degree[bad[0]]}, not 2 or 3")
        twos = [v for v, d in enumerate(degree) if d == 2]
    if sorted(boundary) != twos:
        raise ConfigurationError("boundary must list the degree-2 vertices once each")


def validate_island(island: Island) -> None:
    """Raise ConfigurationError unless the graph is 2-connected on at least 3
    vertices and check_ring_boundary holds. A graph that passes is recorded
    for as long as it lives, and a later call checks only its boundary."""
    g = island.graph
    if g in _islands:
        return check_ring_boundary(g, island.boundary)
    _, pieces, components = low_link(g.n, g.edge_list)
    if g.n < 3 or components > 1 or max(pieces) > 1:
        raise ConfigurationError("island is not 2-connected")
    check_ring_boundary(g, island.boundary)
    _islands[g] = sorted(island.boundary)


def island_of(source: Union[Configuration, FreeCompletion]) -> Island:
    """Inner dual of the completion.

    One island vertex per bounded face; one island edge per completion
    edge interior to the disk (ring edges border the unbounded face and
    drop out). Island edge ids run in completion edge id order.
    """
    fc = source if isinstance(source, FreeCompletion) else free_completion(source)
    s = fc.completion
    trace = FaceTrace(s)
    ordered_ring, o = _ring_face(trace, fc.ring)
    dual = trace.dual()
    # dual vertex o is the unbounded face, and its edges are exactly the
    # ring edges
    graph, new_id, keep = remove_embedded(dual, vertices=(o,))
    if graph.has_loops():
        raise ConfigurationError("completion failed: unbounded face leaks past the ring")
    face_of = [
        tuple(sorted({x for e, _ in dual.incident_darts(v) for x in s.endpoints(e)}))
        for v in new_id
    ]
    boundary = []
    for e in ordered_ring:
        u, w = dual.endpoints(e)
        boundary.append(new_id[u if w == o else w])
    island = Island(graph, tuple(boundary), tuple(keep), tuple(face_of))
    validate_island(island)
    return island
