"""Embedded multigraphs, the 3-edge-coloring oracle, and canonical keys.

A graph is an undirected multigraph on vertices 0..n-1 with numbered edges.
An embedding, when present, is a rotation system with edge signs: the cyclic
order of edge ends around every vertex, plus a sign in {+1, -1} per edge.
Sign -1 marks an edge that crosses the crosscap; an embedding lies in the
projective plane exactly when the traced Euler characteristic is 1, which
forces some cycle with negative sign product. A dart, the end k of edge
e, is the tuple (e, k) from one module-level table, so every graph and
face walk holds the same object for it.

Graphs are built from rotation-ordered neighbour rows, never from face
lists; neighbor_rows reads a graph's rows back for editing. Embedded
surgery (remove_embedded, subdivide_embedded with its optional chord)
cuts and joins every embedded graph the package builds. FaceTrace is the
one reader of a map's faces: from one trace it gives the face walks, the
Euler characteristic, the sense of each walk, the face at each corner,
the faces through given vertices, the dual, and which chords between
vertices put on its edges split a face, and with which sign. One
individualization-refinement search gives both canonical keys and
automorphism groups. low_link is the one edge-list connectivity pass: one
Tarjan DFS gives the bridges, the pieces each vertex leaves and the
component count. color_walk is the one 3-edge-coloring backtracker: it
plans its own walk, hands each leaf a code linear in the colors and
returns the coloring at the first leaf that accepts; three_edge_color
takes the first leaf of each component. read_vertex_lines reads the
layout the .cub and .conf formats share, so that each parser checks
only its own fields.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

Dart = tuple[int, int]  # (edge id, end index 0 or 1)
T = TypeVar("T")

# _DARTS[2e + k] is the one (e, k) tuple that every graph and face walk
# holds, grown to the largest edge count seen
_DARTS: list[Dart] = []


def _darts(m: int) -> list[Dart]:
    """The shared dart table, grown to hold the darts of edges 0..m-1."""
    for e in range(len(_DARTS) // 2, m):
        _DARTS.extend(((e, 0), (e, 1)))
    return _DARTS


class Graph:
    """Undirected multigraph with an optional rotation-system embedding.

    Edges are numbered 0..m-1 in construction order; edge e joins the pair
    ``endpoints(e)``. A dart (e, k) is the end of edge e at vertex
    ``endpoints(e)[k]``; loops contribute two darts at the same vertex.
    ``rotation(v)`` lists the darts at v in cyclic order when the graph
    carries an embedding.

    Darts are shared tuples: every graph holds the same (e, k) object for
    end k of its edge e. The incidence of an embedded graph is its
    rotation, held once; an unembedded graph lists its darts in edge id
    order.

    A graph never changes once built, and it is weak-referenceable so that
    three records keep an entry per live graph without keeping it alive:
    its reduction tree (cuts._trees), its degree-2 vertices once it is a
    validated island (configurations._islands) and its last planar C or
    none verdict, which a projective check resumes from (reducibility._planar).
    """

    __slots__ = ("_n", "_edges", "_signs", "_rot", "_inc", "__weakref__")

    def __init__(
        self,
        num_vertices: int,
        edges: Sequence[tuple[int, int]],
        rotations: Optional[Sequence[Sequence[Dart]]] = None,
        signs: Optional[Sequence[int]] = None,
    ):
        if num_vertices < 0:
            raise ValueError("negative vertex count")
        self._n = num_vertices
        self._edges = [(int(u), int(v)) for u, v in edges]
        for u, v in self._edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError("edge endpoint out of range")
        m = len(self._edges)
        if signs is None:
            self._signs = [1] * m
        else:
            self._signs = [int(s) for s in signs]
            if len(self._signs) != m or any(s not in (-1, 1) for s in self._signs):
                raise ValueError("bad sign vector")

        # darts in edge id order per vertex; loops appear twice at theirs
        darts = _darts(m)
        inc: list[list[Dart]] = [[] for _ in range(num_vertices)]
        ends = iter(darts)
        for (u, v), d0, d1 in zip(self._edges, ends, ends):
            inc[u].append(d0)
            inc[v].append(d1)

        self._rot = None
        if rotations is not None:
            # a dart of no edge keeps its own tuple, which the check below
            # refuses; a table lookup alone would read (0, 2) as (1, 0)
            rot = [
                tuple([
                    darts[2 * e + k]
                    if 0 <= (e := int(a)) < m and 0 <= (k := int(b)) <= 1
                    else (int(a), int(b))
                    for a, b in r
                ])
                for r in rotations
            ]
            if len(rot) != num_vertices:
                raise ValueError("rotation count mismatch")
            # each rotation orders exactly the darts at its vertex, which
            # inc lists sorted
            for v, r in enumerate(rot):
                if sorted(r) != inc[v]:
                    raise ValueError(f"rotation at vertex {v} is not an order of its darts")
            self._rot = rot
        self._inc = inc if self._rot is None else self._rot

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._edges[e]

    def sign(self, e: int) -> int:
        return self._signs[e]

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        return list(self._edges)

    @property
    def sign_list(self) -> list[int]:
        return list(self._signs)

    def rotation(self, v: int) -> tuple[Dart, ...]:
        if self._rot is None:
            raise ValueError("graph has no embedding")
        return tuple(self._rot[v])

    def incident_darts(self, v: int) -> list[Dart]:
        return list(self._inc[v])

    def dart_vertex(self, d: Dart) -> int:
        e, k = d
        return self._edges[e][k]

    def degree(self, v: int) -> int:
        return len(self._inc[v])

    def neighbors(self, v: int) -> list[int]:
        return [self._edges[e][1 - k] for e, k in self._inc[v]]

    def edges_between(self, u: int, v: int) -> list[int]:
        return [e for e, (a, b) in enumerate(self._edges) if {a, b} == {u, v}]

    def has_loops(self) -> bool:
        return any(u == v for u, v in self._edges)

    def is_cubic(self) -> bool:
        return all(len(self._inc[v]) == 3 for v in range(self._n))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


# -- construction helpers --------------------------------------------------


def graph_from_neighbors(
    neighbor_lists: Sequence[Sequence[int]],
    negative_pairs: Iterable[tuple[int, int]] = (),
) -> Graph:
    """Build a graph from per-vertex neighbor lists in rotation order.

    Parallel edges are matched occurrence by occurrence: the k-th time w
    appears in v's list pairs with the k-th time v appears in w's list.
    Loops pair consecutive occurrences of v in its own list. Edges are
    numbered by vertex pair u <= w in lexicographic order, then by
    occurrence. negative_pairs assigns sign -1, one edge per listed pair
    in edge order. One pass over the lists and one sort of the distinct
    vertex pairs build it.
    """
    n = len(neighbor_lists)
    # positions of w in v's list, per (v, w)
    occ: dict[tuple[int, int], list[int]] = {}
    for v, row in enumerate(neighbor_lists):
        for i, w in enumerate(row):
            if not (0 <= w < n):
                raise ValueError("neighbor out of range")
            occ.setdefault((v, w), []).append(i)
    edges: list[tuple[int, int]] = []
    rotations: list[list[Dart]] = [[(0, 0)] * len(row) for row in neighbor_lists]
    for u, w in sorted({(v, w) if v <= w else (w, v) for v, w in occ}):
        pu = occ.get((u, w), [])
        if u == w:
            if len(pu) % 2:
                raise ValueError(f"vertex {u}: unmatched loop end")
            for t in range(0, len(pu), 2):
                rotations[u][pu[t]] = (len(edges), 0)
                rotations[u][pu[t + 1]] = (len(edges), 1)
                edges.append((u, u))
        else:
            pw = occ.get((w, u), [])
            if len(pu) != len(pw):
                raise ValueError(f"inconsistent adjacency between {u} and {w}")
            for i, j in zip(pu, pw):
                rotations[u][i] = (len(edges), 0)
                rotations[w][j] = (len(edges), 1)
                edges.append((u, w))
    signs = [1] * len(edges)
    # per vertex pair its still positive edges, highest id first, so that
    # pop() signs the least of them
    unsigned: dict[tuple[int, int], list[int]] = {}
    for e in range(len(edges) - 1, -1, -1):
        unsigned.setdefault(edges[e], []).append(e)
    for u, v in negative_pairs:
        free = unsigned.get((min(u, v), max(u, v)))
        if not free:
            raise ValueError(f"no remaining edge between {u} and {v} to sign")
        signs[free.pop()] = -1
    return Graph(n, edges, rotations, signs)


def neighbor_rows(g: Graph) -> list[list[int]]:
    """Per vertex, the other end of each of its darts in rotation order:
    the lists graph_from_neighbors builds g from."""
    return [g.neighbors(v) for v in range(g.n)]


# -- embedded surgery ------------------------------------------------------


def remove_embedded(
    g: Graph, vertices: Iterable[int] = (), edges: Iterable[int] = ()
) -> tuple[Graph, dict[int, int], list[int]]:
    """g without the given vertices, the edges at them and the given edges.

    Returns the graph, the new id of each kept vertex and the host id of
    each kept edge. Kept vertices and edges keep their relative order;
    rotations are filtered and signs kept.
    """
    dead = set(vertices)
    new_id = {v: i for i, v in enumerate(x for x in range(g.n) if x not in dead)}
    dead_edges = set(edges)
    kept = [
        e
        for e, (u, w) in enumerate(g._edges)
        if e not in dead_edges and u in new_id and w in new_id
    ]
    edge_id = {e: i for i, e in enumerate(kept)}
    rot = [[(edge_id[e], k) for e, k in g.rotation(v) if e in edge_id] for v in new_id]
    pairs = [(new_id[g._edges[e][0]], new_id[g._edges[e][1]]) for e in kept]
    return Graph(len(new_id), pairs, rot, [g._signs[e] for e in kept]), new_id, kept


def subdivided_edges(
    g: Graph, counts: dict[int, int]
) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """Vertex count, edge list and per-edge chains of subdivide_embedded(g,
    counts), numbered as it numbers them, with no embedding built."""
    pairs: list[tuple[int, int]] = []
    chains: list[list[int]] = []
    nid = g.n
    for e, (u, v) in enumerate(g._edges):
        t = counts.get(e, 0)
        verts = [u, *range(nid, nid + t), v]
        nid += t
        chains.append(list(range(len(pairs), len(pairs) + t + 1)))
        pairs += zip(verts, verts[1:])
    return nid, pairs, chains


def subdivide_embedded(
    g: Graph,
    counts: dict[int, int],
    chord: Optional[tuple[int, int, int, int, int]] = None,
) -> tuple[Graph, list[list[int]]]:
    """Replace edge e by a chain of counts.get(e, 0) + 1 segments.

    The chain occupies the same two faces as the edge it replaces; the
    first segment inherits the edge sign and the rest are positive.
    chord = (u, slot_u, v, slot_v, sign), over the new vertex ids, adds a
    last edge u-v of that sign with its ends put at those rotation slots.
    Returns the new graph and, per original edge, its chain's new edge
    ids in endpoint order.
    """
    n, pairs, chains = subdivided_edges(g, counts)
    signs = [1] * len(pairs)
    for e, chain in enumerate(chains):
        signs[chain[0]] = g._signs[e]
    # end k of edge e becomes end k of its chain's first (k = 0) or last
    # (k = 1) segment
    rot = [[(chains[e][-k], k) for e, k in g.rotation(v)] for v in range(g.n)]
    rot += [[(c[j - 1], 1), (c[j], 0)] for c in chains for j in range(1, len(c))]
    if chord is not None:
        u, slot_u, v, slot_v, sign = chord
        rot[u].insert(slot_u, (len(pairs), 0))
        rot[v].insert(slot_v, (len(pairs), 1))
        pairs.append((u, v))
        signs.append(sign)
    return Graph(n, pairs, rot, signs), chains


class FaceTrace:
    """One face trace of an embedded graph g, the one reader of its faces.

    graph is g; walks holds one boundary walk per face, as a sequence of
    shared dart tuples of the face degree; chi is V - E + F, meaningful
    for connected embeddings. The other readings (corners, faces through
    vertices, chords, the dual) come from the same trace.

    Flags are (dart, side) pairs packed as 4*e + 2*k + t with t=0 for side
    +1 and t=1 for side -1. The three involutions generate the embedding:
      s0: walk along the edge (side flips unless the edge sign is -1)
      s1: step around the vertex, to the next dart in the rotation from
          side +1 and to the previous one from side -1 (side flips)
      s2: flip the side
    Faces are orbits of s1*s0; each face yields two mirror orbits whose
    length equals the face degree, and walks holds the one the trace
    emits. Corner i at v, between rotation darts i and i + 1, is the s1
    pair of their side +1 and side -1 flags.

    A vertex put on edge e by subdivide_embedded takes a new end at slot
    0 in corner 1, on the face of g's flag 4e (4e + 1 when e has sign -1),
    and at slot 1 in corner 0, on the face of flag 4e + 2. A chord between
    two such corners keeps the Euler characteristic only when they lie on
    one face, which it splits when its sign is +1 exactly for two flags on
    the same side of the face's emitted orbit; any other chord merges two
    faces or adds a crosscap.
    """

    __slots__ = ("graph", "walks", "chi", "_face", "_emitted")

    def __init__(self, g: Graph):
        s0, s1 = self.involutions(g)
        step = [s1[f] for f in s0]
        face = [-1] * len(s0)
        emitted = [False] * len(s0)
        walks: list[list[Dart]] = []
        darts = _darts(g.m)
        for start in range(len(s0)):
            if face[start] >= 0:
                continue
            fi = len(walks)
            walk: list[Dart] = []
            f = start
            # step is a permutation, as each dart lies in one rotation, so
            # the orbit closes at start; s0 maps it onto its face's other
            # orbit, which no earlier face labelled
            while face[f] < 0:
                face[f] = fi
                emitted[f] = True
                walk.append(darts[f >> 1])
                f = step[f]
            # label the mirror orbit without emitting it
            f = s0[start]
            while face[f] < 0:
                face[f] = fi
                f = step[f]
            walks.append(walk)
        self.walks = walks
        self.chi = g.n - g.m + len(walks)
        self.graph, self._face, self._emitted = g, face, emitted

    @staticmethod
    def involutions(g: Graph) -> tuple[list[int], list[int]]:
        """The flag involutions s0, from the signs, and s1, from one pass
        over each rotation."""
        if g._rot is None:
            raise ValueError("graph has no embedding")
        signs = g._signs
        s0 = [f ^ 3 if signs[f >> 2] == 1 else f ^ 2 for f in range(4 * g.m)]
        s1 = [0] * (4 * g.m)
        for r in g._rot:
            fs = [4 * e + 2 * k for e, k in r]
            for f, nf in zip(fs, fs[1:] + fs[:1]):
                s1[f] = nf + 1
                s1[nf + 1] = f
        return s0, s1

    def forward(self, i: int) -> bool:
        """Whether walk i starts on side -1 flags, which leave the vertex
        at the end of a positive edge by the rotation dart after the one
        they came in on, not the one before; with no negative edge the
        whole walk runs so."""
        e, k = self.walks[i][0]
        return self._face[4 * e + 2 * k] != i

    def corners(self) -> list[list[int]]:
        """Per vertex, the walks index of each corner: corner i lies
        between darts i and i + 1 of the rotation, cyclically."""
        face = self._face
        return [[face[4 * e + 2 * k] for e, k in r] for r in self.graph._rot]

    def through(self, vertices: Iterable[int]) -> list[int]:
        """The walks indices of the faces that visit every given vertex."""
        wanted = set(vertices)
        edges = self.graph._edges
        return [i for i, walk in enumerate(self.walks) if wanted <= {edges[e][k] for e, k in walk}]

    def chords(self, e: int, f: int) -> list[tuple[int, int, int, int]]:
        """(slot_e, slot_f, sign, face) of each chord that joins a vertex
        put on edge e to one put on edge f across one face, splitting the
        face with that walks index, in slot order."""
        face, emitted = self._face, self._emitted
        ends = [(4 * x + (self.graph._signs[x] == -1), 4 * x + 2) for x in (e, f)]
        return [
            (se, sf, 1 if emitted[xe] == emitted[xf] else -1, face[xe])
            for se, xe in enumerate(ends[0])
            for sf, xf in enumerate(ends[1])
            if face[xe] == face[xf]
        ]

    def dual(self) -> Graph:
        """Face-vertex dual of g.

        Dual edge ids equal primal edge ids. The dual carries the embedding
        induced by the face walks; tracing its faces recovers the primal
        vertices. A dual edge is negative when both sides of one flag pair
        were emitted in the same traversal direction.
        """
        m = self.graph.m
        # per edge, its (face, slot) visits in face order
        visits: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for fi, walk in enumerate(self.walks):
            for slot, (e, _) in enumerate(walk):
                visits[e].append((fi, slot))
        end = [[0] * len(walk) for walk in self.walks]
        edges: list[tuple[int, int]] = []
        # of each flag f and s0[f] exactly one is emitted, so each edge
        # is visited twice
        for (fa, _), (fb, sb) in visits:
            edges.append((fa, fb))
            end[fb][sb] = 1
        emitted = self._emitted
        signs = [1 if emitted[4 * e] != emitted[4 * e + 1] else -1 for e in range(m)]
        rot = [[(e, end[fi][slot]) for slot, (e, _) in enumerate(walk)] for fi, walk in enumerate(self.walks)]
        return Graph(len(self.walks), edges, rot, signs)


# -- file format -----------------------------------------------------------


def read_vertex_lines(
    text: str, name: str, tag: str, size: int, sep: Optional[str], fields: int,
    check: Callable[[int, int, list[int]], T],
) -> tuple[list[int], list[T], list[str]]:
    """Read the layout the package's file formats share.

    ``#`` starts a comment and blank lines drop out. Line 1 is ``<tag>``
    and size ints, n first; each of the next n lines is a vertex id v in
    0..n-1, then sep when given, then at least fields more ints. No id
    comes twice, so every vertex has its line. In line order, check(n, v,
    ints) checks the ints after v's id and returns v's row. Returns the
    header's ints, the rows by vertex and the lines after the vertex
    lines. name names the format in the empty-file error; every error is
    a ValueError.
    """
    lines = [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ValueError(f"empty {name} file")
    head = lines[0].split()
    try:
        header = [int(x) for x in head[1:]] if head[0] == tag else []
    except ValueError:
        header = []
    if len(header) != size:
        raise ValueError("malformed header")
    n = header[0]
    if n < 1 or len(lines) < 1 + n:
        raise ValueError("missing vertex lines")
    rows: list = [None] * n
    for line in lines[1 : 1 + n]:
        try:
            left, right = line.split(sep, 1)
            v, ints = int(left), [int(x) for x in right.split()]
        except ValueError:
            raise ValueError(f"malformed vertex line: {line!r}") from None
        if len(ints) < fields:
            raise ValueError(f"malformed vertex line: {line!r}")
        if not (0 <= v < n):
            raise ValueError(f"vertex id {v} out of range")
        if rows[v] is not None:
            raise ValueError(f"duplicate vertex {v}")
        rows[v] = check(n, v, ints)
    return header, rows, lines[1 + n :]


def parse_graph(text: str) -> Graph:
    """Parse the cubic graph file format.

    Line 1 is ``cubic <n>``; each of the next n lines is
    ``<id>: <nbr> <nbr> <nbr>`` listing the neighbors in rotation order; an
    optional ``signs:`` section lists ``<u> <v> -1`` per crosscap edge.
    ``#`` starts a comment.
    """

    def neighbors(n: int, v: int, row: list[int]) -> list[int]:
        if len(row) != 3:
            raise ValueError(f"vertex {v}: expected 3 neighbors, got {len(row)}")
        for w in row:
            if not (0 <= w < n):
                raise ValueError(f"vertex {v}: neighbor {w} out of range")
            if w == v:
                raise ValueError(f"vertex {v}: loop in cubic graph")
        return row

    _, nbrs, rest = read_vertex_lines(text, "graph", "cubic", 1, ":", 0, neighbors)
    negative: list[tuple[int, int]] = []
    if rest:
        if rest[0] != "signs:":
            raise ValueError(f"unexpected line: {rest[0]!r}")
        for line in rest[1:]:
            parts = line.split()
            try:
                u, v = map(int, parts[:2])
            except ValueError:
                parts = []
            if len(parts) != 3 or parts[2] != "-1":
                raise ValueError(f"malformed sign line: {line!r}")
            negative.append((u, v))
    # three neighbours each, none the vertex itself, make the graph cubic
    return graph_from_neighbors(nbrs, negative)


# -- connectivity ----------------------------------------------------------


def low_link(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[set[int], list[int], int]:
    """Bridges, pieces and component count of the multigraph on 0..n-1
    whose edge e joins pairs[e].

    One iterative Tarjan DFS. pieces[v] counts the pieces that removing v
    leaves of its component: a root's DFS children, or 1 plus the
    children whose low point is not below v's DFS number; v is a cut
    vertex exactly when it leaves two or more. Loops are skipped, and a
    vertex skips only the id of the edge it was entered by, so a parallel
    edge counts as a back edge and is never a bridge.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, w) in enumerate(pairs):
        if u != w:
            adj[u].append((w, e))
            adj[w].append((u, e))
    num = [-1] * n
    low = [0] * n
    pieces = [1] * n
    bridge_ids: set[int] = set()
    counter = components = 0
    for root in range(n):
        if num[root] != -1:
            continue
        components += 1
        num[root] = low[root] = counter
        counter += 1
        pieces[root] = 0
        stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = [(root, -1, iter(adj[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for w, e in it:
                if e == in_edge:
                    continue
                if num[w] == -1:
                    num[w] = low[w] = counter
                    counter += 1
                    stack.append((w, e, iter(adj[w])))
                    break
                if num[w] < low[v]:
                    low[v] = num[w]
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] > num[p]:
                    bridge_ids.add(in_edge)
                # a root's number is its component's least, so each of its
                # children counts
                if low[v] >= num[p]:
                    pieces[p] += 1
    return bridge_ids, pieces, components


# -- 3-edge-coloring oracle ------------------------------------------------

EdgeColoring = dict  # edge id -> color in {0, 1, 2}


def edge_components(n: int, pairs: Sequence[Optional[tuple[int, int]]]) -> list[list[int]]:
    """Edges per connected component of the multigraph on 0..n-1 whose
    edge e joins pairs[e], each list breadth-first through shared vertices
    from its least edge id. An edge's new neighbours join in edge id order,
    those at its first end before those at its second. An id whose entry
    in pairs is None names no edge."""
    at: list[list[int]] = [[] for _ in range(n)]
    edges = list(compress(range(len(pairs)), pairs))
    for e in edges:
        u, w = pairs[e]
        at[u].append(e)
        if w != u:
            at[w].append(e)
    seen = [False] * len(pairs)
    reached = [False] * n
    comps = []
    for root in edges:
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for e in order:
            for v in pairs[e]:
                if not reached[v]:
                    reached[v] = True
                    for f in at[v]:
                        if not seen[f]:
                            seen[f] = True
                            order.append(f)
        comps.append(order)
    return comps


def walk_conflicts(
    n: int, pairs: Sequence[Optional[tuple[int, int]]], order: Iterable[int]
) -> tuple[list[int], list[tuple[int, ...]], bool]:
    """The edges of order that pairs names (None names none), in order,
    with the conflict lists color_walk works from and whether they hold a
    loop, for edges joining vertices of 0..n-1. Indexed by edge id, the
    lists hold for each kept edge the kept edges before it that meet it,
    those at its first end first, and () for every other edge."""
    placed: list[tuple[int, ...]] = [()] * n
    earlier: list[tuple[int, ...]] = [()] * len(pairs)
    kept: list[int] = []
    loop = False
    for e in order:
        ends = pairs[e]
        if ends is None:
            continue
        u, w = ends
        loop = loop or u == w
        kept.append(e)
        earlier[e] = placed[u] + placed[w]
        placed[u] += (e,)
        placed[w] += (e,)
    return kept, earlier, loop


def color_walk(
    n: int, pairs: Sequence[Optional[tuple[int, int]]], order: Iterable[int],
    leaf: Callable[[int], object], weight: Sequence[int], base: int,
) -> Optional[list[int]]:
    """Color the edges of order that pairs names with 0, 1, 2, edges
    sharing a vertex apart, and call leaf on the code of each complete
    coloring until it returns True; return the color list the walk held
    then, indexed by edge id, or None when no leaf does.

    Edge e joins pairs[e], vertices of 0..n-1, and None names no edge.
    The walk plans its order and conflict lists in one walk_conflicts
    pass; an order holding a loop has no coloring, so leaf is never
    called. The first edge only takes color 0, and a second edge that
    meets it only takes color 1, so leaf meets every orbit of colorings
    under the six color permutations, once when the first two edges meet
    and at most twice otherwise. A coloring's code is base +
    sum(weight[e] * color[e]) over the walked edges, weight indexed by
    edge id, kept per depth as the walk colors. Edges outside the walk
    stay 0 and constrain nothing.
    """
    order, earlier, loop = walk_conflicts(n, pairs, order)
    if loop:
        return None
    color = [0] * len(pairs)
    last = len(order) - 1
    if last < 1:
        return color if leaf(base) else None
    # the first edge keeps color 0; swapping colors 1 and 2 fixes it, so
    # a second edge that meets it needs only color 1. rem[i] holds the
    # colors depth i has still to try, one bit each, and code[i] the code
    # of the depths before i
    rem = [0] * (last + 1)
    rem[1] = 2 if earlier[order[1]] else 7
    code = [base] * (last + 1)
    i = 1
    while i:
        r = rem[i]
        if r:
            e = order[i]
            c, rem[i] = _POP[r]
            color[e] = c
            if i < last:
                code[i + 1] = code[i] + c * weight[e]
                i += 1
                taken = 0
                for f in earlier[order[i]]:
                    taken |= _BIT[color[f]]
                rem[i] = 7 ^ taken
            elif leaf(code[i] + c * weight[e]):
                return color
        else:
            i -= 1
    return None


# a color's bit, and for each nonzero set of color bits its least color
# and the set without it
_BIT = (1, 2, 4)
_POP = [(0, 0)] + [((r & -r).bit_length() - 1, r & (r - 1)) for r in range(1, 8)]


def three_edge_color(g: Graph) -> Optional[EdgeColoring]:
    """First proper 3-edge-coloring of a cubic graph, or None.

    Each connected component is walked on its own, with every code 0 and
    the first leaf taken, so an uncolorable one ends the search without
    backtracking through the others.
    """
    if not g.is_cubic():
        raise ValueError("graph is not cubic")
    if g.has_loops():
        raise ValueError("cubic graph has a loop")
    weight = [0] * g.m
    coloring: EdgeColoring = {}
    for comp in edge_components(g.n, g._edges):
        color = color_walk(g.n, g._edges, comp, lambda code: True, weight, 0)
        if color is None:
            return None
        coloring.update((e, color[e]) for e in comp)
    return coloring


def is_proper_coloring(g: Graph, coloring: EdgeColoring) -> bool:
    if set(coloring.keys()) != set(range(g.m)):
        return False
    for v in range(g.n):
        cs = [coloring[d[0]] for d in g._inc[v]]
        if len(cs) != len(set(cs)):
            return False
    return True


# -- isomorphism -----------------------------------------------------------


def _least_leaves(n: int, edges: Sequence[tuple[int, int]]) -> list:
    """[least leaf signature, ranks of every leaf reaching it] of the
    individualization-refinement search on the multigraph (n, edges).
    Each cell of a node's ordered partition is labelled by its start
    position. In each synchronous round a cell splits into sub-cells
    sorted by loop count, then by sorted neighbour labels, that take its
    place, so a cell that does not split keeps its label; only cells next
    to a vertex whose label moved in the last round can split, and only
    they are re-signed. Each vertex of the first cell of two or more is
    in turn labelled above every other; a leaf's cell order ranks the
    vertices. Re-signing every vertex each round with dense class ids
    meets the same leaves in the same order: cells keep their places, and
    a relabelling that keeps the cell order changes no comparison.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    loops = [0] * n
    for u, v in edges:
        if u == v:
            loops[u] += 2
        else:
            nbrs[u].append(v)
            nbrs[v].append(u)
    best: list = [None, []]

    def search(label: list[int], cells: dict[int, list[int]], hit: set[int], top: int) -> None:
        while hit:
            splits = []
            for t in hit:
                if len(cells[t]) > 1:
                    groups: dict[tuple, list[int]] = {}
                    for v in cells[t]:
                        groups.setdefault((loops[v], tuple(sorted([label[w] for w in nbrs[v]]))), []).append(v)
                    if len(groups) > 1:
                        splits.append((t, groups))
            moved: list[int] = []
            for t, groups in splits:
                start = t
                for sig in sorted(groups):
                    part = cells[start] = groups[sig]
                    if start != t:
                        for v in part:
                            label[v] = start
                        moved += part
                    start += len(part)
            hit = {label[w] for v in moved for w in nbrs[v]}
        if len(cells) == n:
            pos = {t: i for i, t in enumerate(sorted(label))}
            rank = [pos[t] for t in label]
            sig = tuple(sorted((min(rank[u], rank[v]), max(rank[u], rank[v])) for u, v in edges))
            if best[0] is None or sig < best[0]:
                best[:] = [sig, [rank]]
            elif sig == best[0]:
                best[1].append(rank)
            return
        target = min(t for t, cell in cells.items() if len(cell) > 1)
        for v in cells[target]:
            child = {**cells, target: [u for u in cells[target] if u != v], top: [v]}
            search(label[:v] + [top] + label[v + 1 :], child, {label[w] for w in nbrs[v]}, top + 1)

    root = {0: list(range(n))} if n else {}
    search([0] * n, root, set(root), n)
    return best


def edge_list_key(n: int, edges: Sequence[tuple[int, int]]) -> tuple:
    """canonical_key of the multigraph on vertices 0..n-1 with these edges."""
    return (n, len(edges), _least_leaves(n, edges)[0])


def canonical_key(g: Graph) -> tuple:
    """Hashable key equal for isomorphic multigraphs (signs ignored)."""
    return edge_list_key(g.n, g._edges)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation of g that keeps its edge multiset (signs
    ignored), in lexicographic order. The search visits every leaf, and
    leaves with the least signature differ by exactly one automorphism,
    so mapping each of them onto the first gives the whole group."""
    _, ranks = _least_leaves(g.n, g._edges)
    first = sorted(range(g.n), key=ranks[0].__getitem__)  # rank -> vertex
    return sorted({tuple(first[r] for r in rank) for rank in ranks})


# -- standard graphs -------------------------------------------------------

# k4 carries a planar rotation system; petersen is the one projective
# Petersen map, written out as a literal.


def k4() -> Graph:
    """K4 with a planar rotation system."""
    return graph_from_neighbors([
        [1, 2, 3],
        [0, 3, 2],
        [0, 1, 3],
        [0, 2, 1],
    ])


def petersen() -> Graph:
    """The Petersen graph on the projective plane: the hemi-dodecahedron,
    whose six faces are pentagons.

    Vertices 0-4 form a pentagon with spokes to the pentagram on 5-9. The
    edge ids are those of the dual of the icosahedron's antipodal
    quotient, and the Δ6 family's edge ids follow them.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 5), (0, 6), (5, 7),
             (6, 7), (2, 8), (5, 9), (8, 9), (3, 7), (6, 8), (4, 9)]
    rotations = [[(0, 0), (6, 0), (4, 0)], [(0, 1), (5, 0), (1, 0)], [(1, 1), (9, 0), (2, 0)],
                 [(2, 1), (12, 0), (3, 0)], [(3, 1), (14, 0), (4, 1)], [(5, 1), (10, 0), (7, 0)],
                 [(6, 1), (13, 0), (8, 0)], [(7, 1), (12, 1), (8, 1)], [(9, 1), (13, 1), (11, 0)],
                 [(10, 1), (14, 1), (11, 1)]]
    signs = [-1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1]
    return Graph(10, edges, rotations, signs)
