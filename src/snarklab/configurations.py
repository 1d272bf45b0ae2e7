"""Degree-specified near-triangulations, their completions, and islands.

A configuration is a connected plane near-triangulation (every bounded
face a triangle) carrying a degree target gamma(v) >= 5 per vertex.
Interior vertices already meet their target; each boundary vertex is
owed gamma(v) - deg(v) further edges. The completion pays that debt
canonically: a cycle of new ring vertices is wrapped around the boundary
walk and the gap is triangulated fan-wise, leaving the configuration as
the interior of a triangulated disk whose outer cycle is the ring.

The inner dual of the completed disk (a vertex per bounded face, an
edge per completion edge shared by two bounded faces) is an island: a
2-connected plane graph with degrees 2 and 3 whose degree-2 vertices
trace the ring in cyclic order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .graphs import (
    Graph,
    articulation_points,
    connected_components,
    graph_from_faces,
    graph_from_neighbors,
    is_connected,
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

    def cut_vertices(self) -> set[int]:
        return articulation_points(self.graph)

    @property
    def has_cut_vertex(self) -> bool:
        return bool(self.cut_vertices())

    def boundary_vertices(self) -> list[int]:
        """Vertices on the unbounded face, ascending."""
        if self.graph.m == 0:
            return list(range(self.n))
        verts, _ = _outer_walk(self.graph)
        return sorted(set(verts))

    def interior_vertices(self) -> list[int]:
        on_walk = set(self.boundary_vertices())
        return [v for v in range(self.n) if v not in on_walk]

    @property
    def ring_size(self) -> int:
        """Length of the ring a completion must add."""
        if self.graph.m == 0:
            return self.gamma[0] - 1
        _, _, cs = _arc_lengths(self.graph, self.gamma)
        return sum(cs)


def _outer_face(g: Graph) -> tuple[list[list[tuple[int, int]]], int]:
    """All face walks plus the index of the unbounded one.

    The unbounded face is the unique non-triangle; in an all-triangle
    drawing the first face stands in (the choices are symmetric).
    """
    walks = g.face_walks()
    nontri = [i for i, w in enumerate(walks) if len(w) != 3]
    if len(nontri) > 1:
        raise ConfigurationError(f"{len(nontri)} faces are not triangles")
    return walks, (nontri[0] if nontri else 0)


def _outer_walk(g: Graph) -> tuple[list[int], list[int]]:
    """Vertex and edge sequence of the unbounded face.

    Rotated so the vertex sequence is lexicographically least; step i
    runs from verts[i] to verts[i+1] through edges[i], cyclically.
    """
    walks, oi = _outer_face(g)
    walk = walks[oi]
    verts = [g.dart_vertex(d) for d in walk]
    eids = [d[0] for d in walk]
    k = len(walk)
    best = min(range(k), key=lambda o: [verts[(o + j) % k] for j in range(k)])
    return (
        [verts[(best + j) % k] for j in range(k)],
        [eids[(best + j) % k] for j in range(k)],
    )


def _arc_lengths(g: Graph, gamma: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Boundary walk plus the ring vertices owed at each walk position.

    A vertex visited once owns gamma - deg - 1 ring vertices; a
    separating vertex is visited twice, owes two corner edges, and owns
    none (gamma = deg + 2 there).
    """
    verts, eids = _outer_walk(g)
    counts = Counter(verts)
    cs = [gamma[v] - g.degree(v) - 1 if counts[v] == 1 else 0 for v in verts]
    return verts, eids, cs


def parse_configuration(text: str) -> Configuration:
    """Parse the .conf format.

    Line 1 is ``conf <n> <ring-size>``; each of the next n lines is
    ``<id> <gamma> <deg> <nbrs...>`` with neighbors in clockwise order.
    Optional ``contract: <u-v> <u-v> ...`` lines each record one edge
    set of the completed graph, whose ring vertices are numbered n,
    n+1, ... in boundary order. ``#`` starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ConfigurationError("empty configuration file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "conf":
        raise ConfigurationError("malformed header")
    try:
        n, declared_ring = int(head[1]), int(head[2])
    except ValueError:
        raise ConfigurationError("malformed header") from None
    if n < 1 or len(lines) < 1 + n:
        raise ConfigurationError("missing vertex lines")

    gamma: list[Optional[int]] = [None] * n
    nbrs: list[Optional[list[int]]] = [None] * n
    for line in lines[1 : 1 + n]:
        try:
            parts = [int(x) for x in line.split()]
        except ValueError:
            raise ConfigurationError(f"malformed vertex line: {line!r}") from None
        if len(parts) < 3:
            raise ConfigurationError(f"malformed vertex line: {line!r}")
        v, gam, deg, row = parts[0], parts[1], parts[2], parts[3:]
        if not (0 <= v < n):
            raise ConfigurationError(f"vertex id {v} out of range")
        if nbrs[v] is not None:
            raise ConfigurationError(f"duplicate vertex {v}")
        if deg != len(row):
            raise ConfigurationError(f"vertex {v}: degree {deg} but {len(row)} neighbors")
        if len(set(row)) != len(row):
            raise ConfigurationError(f"vertex {v}: repeated neighbor")
        for w in row:
            if not (0 <= w < n) or w == v:
                raise ConfigurationError(f"vertex {v}: bad neighbor {w}")
        gamma[v] = gam
        nbrs[v] = row
    missing = [v for v in range(n) if nbrs[v] is None]
    if missing:
        raise ConfigurationError(f"vertex {missing[0]} has no line")

    contracts: list[tuple[tuple[int, int], ...]] = []
    for line in lines[1 + n :]:
        if not line.startswith("contract:"):
            raise ConfigurationError(f"unexpected line: {line!r}")
        pairs: list[tuple[int, int]] = []
        for tok in line[len("contract:") :].split():
            a, dash, b = tok.partition("-")
            try:
                u, w = int(a), int(b)
            except ValueError:
                raise ConfigurationError(f"malformed contract pair: {tok!r}") from None
            if not dash:
                raise ConfigurationError(f"malformed contract pair: {tok!r}")
            pairs.append((u, w))
        if not pairs:
            raise ConfigurationError("empty contract line")
        contracts.append(tuple(pairs))

    try:
        g = graph_from_neighbors([row for row in nbrs if row is not None])
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    config = Configuration(g, tuple(x for x in gamma if x is not None), tuple(contracts))
    _validate(config, declared_ring)
    return config


def _validate(config: Configuration, declared_ring: Optional[int]) -> None:
    """Check the three defining clauses; report every violation by name."""
    g, gamma = config.graph, config.gamma
    if not is_connected(g):
        raise ConfigurationError("graph is not connected")
    if g.m:
        if g.has_loops():
            raise ConfigurationError("loops are not allowed")
        if any(len(g.edges_between(u, v)) > 1 for u, v in g.edge_list):
            raise ConfigurationError("parallel edges are not allowed")
        if g.euler_characteristic() != 2:
            raise ConfigurationError("rotations do not describe a plane drawing")
        _outer_face(g)  # rejects a second unbounded candidate
        walk_verts, _ = _outer_walk(g)
        occurrences = Counter(walk_verts)
    else:
        occurrences = Counter({0: 1})
    boundary = set(occurrences)

    problems: list[str] = []
    for v in range(g.n):
        # v is left isolated, and is no piece
        pieces = len(connected_components(g, g.incident_edges(v))) - 1
        if pieces > 2:
            problems.append(f"separation clause: removing vertex {v} leaves {pieces} pieces")
        elif pieces == 2 and gamma[v] != g.degree(v) + 2:
            problems.append(
                f"separation clause: vertex {v} separates the graph, gamma must be degree + 2"
            )
        if occurrences.get(v, 0) == 2 and pieces != 2:
            problems.append(
                f"separation clause: vertex {v} meets the unbounded face twice without separating"
            )
        elif occurrences.get(v, 0) > 2:
            problems.append(f"separation clause: vertex {v} meets the unbounded face {occurrences[v]} times")
    for v in range(g.n):
        if gamma[v] < 5:
            problems.append(f"degree clause: vertex {v} has gamma {gamma[v]} below 5")
        elif v in boundary:
            if gamma[v] <= g.degree(v):
                problems.append(f"degree clause: boundary vertex {v} needs gamma above its degree")
        elif gamma[v] != g.degree(v):
            problems.append(f"degree clause: interior vertex {v} needs gamma equal to its degree")

    ring = config.ring_size
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

    completion's first core.n vertices induce exactly the configuration
    (edge ids are renumbered); the rest form the bounding ring, in
    cyclic order along the unbounded face.
    """

    core: Configuration
    completion: Graph
    ring: tuple[int, ...]


def free_completion(config: Configuration) -> FreeCompletion:
    """Wrap a ring around the boundary and triangulate the gap.

    Deterministic: ring vertex n+j sits at offset j along the boundary
    walk, counted from the walk's lexicographically least rotation; each
    boundary occurrence owns a fan of its owed ring vertices and the
    corner between consecutive occurrences is shared. Raises
    ConfigurationError when a degree target cannot be met.
    """
    g, gamma = config.graph, config.gamma
    n = g.n
    if g.m == 0:
        raise ConfigurationError(
            f"degree target unreachable: an isolated vertex meets at most its {gamma[0] - 1} ring vertices"
        )
    verts, _, cs = _arc_lengths(g, gamma)
    length = len(verts)
    ring_len = sum(cs)
    if ring_len < 3:
        raise ConfigurationError(f"ring of length {ring_len} cannot bound a triangulated disk")
    starts = [0] * length
    for i in range(1, length):
        starts[i] = starts[i - 1] + cs[i - 1]

    def rv(j: int) -> int:
        return n + (j % ring_len)

    walks, oi = _outer_face(g)
    faces: list[tuple[int, ...]] = []
    for i, w in enumerate(walks):
        if i != oi:
            faces.append(tuple(g.dart_vertex(d) for d in w))
    for i in range(length):
        v = verts[i]
        for j in range(cs[i]):
            faces.append((v, rv(starts[i] + j), rv(starts[i] + j + 1)))
        faces.append((v, verts[(i + 1) % length], rv(starts[i] + cs[i])))
    try:
        s = graph_from_faces(n + ring_len, faces)
    except ValueError as exc:
        raise ConfigurationError(f"completion failed: {exc}") from None
    for v in range(n):
        if s.degree(v) != gamma[v]:
            raise ConfigurationError(
                f"degree target unreachable: vertex {v} completes to degree {s.degree(v)}, needs {gamma[v]}"
            )
    if s.euler_characteristic() != 2:
        raise ConfigurationError("completion failed: result is not a plane drawing")
    ring = tuple(range(n, n + ring_len))
    _ring_face_edges(s, ring)
    return FreeCompletion(config, s, ring)


def _ring_face_edges(s: Graph, ring: Sequence[int]) -> list[int]:
    """Edge ids along the ring cycle; the ring must bound a face."""
    k = len(ring)
    eids = []
    for j in range(k):
        between = s.edges_between(ring[j], ring[(j + 1) % k])
        if len(between) != 1:
            raise ConfigurationError("completion failed: broken ring cycle")
        eids.append(between[0])
    want = sorted(eids)
    for w in s.face_walks():
        if sorted(d[0] for d in w) == want:
            return eids
    raise ConfigurationError("completion failed: ring does not bound a face")


# -- islands -----------------------------------------------------------------


@dataclass(frozen=True)
class Island:
    """Inner dual of a triangulated disk.

    graph: 2-connected plane graph with degrees 2 and 3 only;
    boundary: the degree-2 vertices in cyclic order along the disk edge;
    edge_origin: per island edge, the completion edge it crosses;
    face_of: per island vertex, the completion face it stands on.
    The provenance fields stay None for islands built directly.
    """

    graph: Graph
    boundary: tuple[int, ...]
    edge_origin: Optional[tuple[int, ...]] = None
    face_of: Optional[tuple[tuple[int, ...], ...]] = None


def validate_island(island: Island) -> None:
    """Check the island invariants, raising ConfigurationError."""
    g = island.graph
    if g.n < 3 or not is_connected(g) or articulation_points(g):
        raise ConfigurationError("island is not 2-connected")
    bad = [v for v in range(g.n) if g.degree(v) not in (2, 3)]
    if bad:
        raise ConfigurationError(f"island vertex {bad[0]} has degree {g.degree(bad[0])}")
    two = [v for v in range(g.n) if g.degree(v) == 2]
    if sorted(island.boundary) != two:
        raise ConfigurationError("island boundary must list the degree-2 vertices once each")


def island_of(source: Union[Configuration, FreeCompletion]) -> Island:
    """Inner dual of the completion.

    One island vertex per bounded face; one island edge per completion
    edge interior to the disk (ring edges border the unbounded face and
    drop out). Island edge ids run in completion edge id order.
    """
    fc = source if isinstance(source, FreeCompletion) else free_completion(source)
    s = fc.completion
    ordered_ring = _ring_face_edges(s, fc.ring)
    ring_edges = set(ordered_ring)
    dual = s.dual()
    # the unbounded face is the dual vertex whose edges are exactly the ring
    outer = [v for v in range(dual.n) if set(dual.incident_edges(v)) == ring_edges]
    if len(outer) != 1:
        raise ConfigurationError("completion failed: unbounded face is not ring-bounded")
    o = outer[0]
    # the edges at o are exactly the ring edges
    graph, new_id, keep = remove_embedded(dual, vertices=(o,))
    if graph.has_loops():
        raise ConfigurationError("completion failed: unbounded face leaks past the ring")
    face_of = [
        tuple(sorted({x for e in dual.incident_edges(v) for x in s.endpoints(e)}))
        for v in new_id
    ]
    boundary = []
    for e in ordered_ring:
        u, w = dual.endpoints(e)
        boundary.append(new_id[u if w == o else w])
    island = Island(graph, tuple(boundary), tuple(keep), tuple(face_of))
    validate_island(island)
    return island
