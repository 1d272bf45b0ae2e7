"""Embedded multigraphs, the 3-edge-coloring oracle, and Kempe chain operations.

A graph is an undirected multigraph on vertices 0..n-1 with numbered edges.
An embedding, when present, is a rotation system with edge signs: the cyclic
order of edge ends around every vertex, plus a sign in {+1, -1} per edge.
Sign -1 marks an edge that crosses the crosscap; an embedding lies in the
projective plane exactly when the traced Euler characteristic is 1, which
forces some cycle with negative sign product.

Embedded surgery (remove_embedded, subdivide_embedded, insert_edge,
faces_through) cuts and joins every embedded graph the package builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

Dart = tuple[int, int]  # (edge id, end index 0 or 1)


class Graph:
    """Undirected multigraph with an optional rotation-system embedding.

    Edges are numbered 0..m-1 in construction order; edge e joins the pair
    ``endpoints(e)``. A dart (e, k) is the end of edge e at vertex
    ``endpoints(e)[k]``; loops contribute two darts at the same vertex.
    ``rotation(v)`` lists the darts at v in cyclic order when the graph
    carries an embedding.
    """

    __slots__ = ("_n", "_edges", "_signs", "_rot", "_inc")

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

        # incidence lists; loops appear twice at their vertex
        inc: list[list[Dart]] = [[] for _ in range(num_vertices)]
        for e, (u, v) in enumerate(self._edges):
            inc[u].append((e, 0))
            inc[v].append((e, 1))
        self._inc = inc

        self._rot = None
        if rotations is not None:
            rot = [tuple([(int(e), int(k)) for e, k in r]) for r in rotations]
            if len(rot) != num_vertices:
                raise ValueError("rotation count mismatch")
            # each rotation orders exactly the darts at its vertex, which
            # inc lists sorted
            for v, r in enumerate(rot):
                if sorted(r) != inc[v]:
                    raise ValueError(f"rotation at vertex {v} is not an order of its darts")
            self._rot = rot

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

    def rotations(self) -> list[tuple[Dart, ...]]:
        if self._rot is None:
            raise ValueError("graph has no embedding")
        return [tuple(r) for r in self._rot]

    def incident_darts(self, v: int) -> list[Dart]:
        if self._rot is not None:
            return list(self._rot[v])
        return list(self._inc[v])

    def incident_edges(self, v: int) -> list[int]:
        return [e for e, _ in self.incident_darts(v)]

    def dart_vertex(self, d: Dart) -> int:
        e, k = d
        return self._edges[e][k]

    def dart_other_vertex(self, d: Dart) -> int:
        e, k = d
        return self._edges[e][1 - k]

    def other_end(self, e: int, v: int) -> int:
        u, w = self._edges[e]
        if u == v:
            return w
        if w == v:
            return u
        raise ValueError("vertex not on edge")

    def degree(self, v: int) -> int:
        return len(self._inc[v])

    def degrees(self) -> list[int]:
        return [len(self._inc[v]) for v in range(self._n)]

    def neighbors(self, v: int) -> list[int]:
        return [self.dart_other_vertex(d) for d in self.incident_darts(v)]

    def edges_between(self, u: int, v: int) -> list[int]:
        return [e for e, (a, b) in enumerate(self._edges) if {a, b} == {u, v} or (u == v and a == b == u)]

    def is_loop(self, e: int) -> bool:
        u, v = self._edges[e]
        return u == v

    def has_loops(self) -> bool:
        return any(u == v for u, v in self._edges)

    def is_cubic(self) -> bool:
        return all(len(self._inc[v]) == 3 for v in range(self._n))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"

    # -- face tracing ------------------------------------------------------

    # Flags are (dart, side) pairs packed as 4*e + 2*k + t with t=0 for side
    # +1 and t=1 for side -1. The three involutions generate the embedding:
    #   s0: walk along the edge (side flips unless the edge sign is -1)
    #   s1: step around the vertex, to the next dart in the rotation from
    #       side +1 and to the previous one from side -1 (side flips)
    #   s2: flip the side
    # s0 comes from the signs, s1 from one pass over each rotation. Faces
    # are orbits of s1*s0; each face yields two mirror orbits whose length
    # equals the face degree. Corner i at v, between rotation darts i and
    # i + 1, is the s1 pair of their side +1 and side -1 flags.

    def _flag_perms(self) -> tuple[list[int], list[int]]:
        if self._rot is None:
            raise ValueError("graph has no embedding")
        signs = self._signs
        s0 = [f ^ 3 if signs[f >> 2] == 1 else f ^ 2 for f in range(4 * self.m)]
        s1 = [0] * (4 * self.m)
        for r in self._rot:
            fs = [4 * e + 2 * k for e, k in r]
            for f, nf in zip(fs, fs[1:] + fs[:1]):
                s1[f] = nf + 1
                s1[nf + 1] = f
        return s0, s1

    def _face_orbits(self) -> tuple[list[list[int]], list[int]]:
        """The emitted s1*s0 orbit of every face, as flags, and the face
        index of every flag, mirror orbits included."""
        s0, s1 = self._flag_perms()
        step = [s1[f] for f in s0]
        face = [-1] * (4 * self.m)
        orbits: list[list[int]] = []
        for start in range(4 * self.m):
            if face[start] >= 0:
                continue
            fi = len(orbits)
            orbit: list[int] = []
            f = start
            while face[f] < 0:
                face[f] = fi
                orbit.append(f)
                f = step[f]
            if f != start:
                raise ValueError("inconsistent embedding data")
            # label the mirror orbit without emitting it
            f = s0[start]
            if face[f] >= 0:
                raise ValueError("inconsistent embedding data")
            while face[f] < 0:
                face[f] = fi
                f = step[f]
            orbits.append(orbit)
        return orbits, face

    def face_walks(self) -> list[list[Dart]]:
        """One boundary walk per face, as a dart sequence of the face degree."""
        if self.m == 0:
            return []
        return [[(f >> 2, (f >> 1) & 1) for f in orbit] for orbit in self._face_orbits()[0]]

    def corner_faces(self) -> list[list[int]]:
        """Per vertex, the face_walks() index of each corner: corner i lies
        between darts i and i + 1 of the rotation, cyclically."""
        face = self._face_orbits()[1]
        return [[face[4 * e + 2 * k] for e, k in r] for r in self._rot]

    def face_count(self) -> int:
        return len(self._face_orbits()[0]) if self.m else 0

    def euler_characteristic(self) -> int:
        """V - E + F from face tracing; meaningful for connected embeddings."""
        return self._n - self.m + self.face_count()

    def surface(self) -> str:
        chi = self.euler_characteristic()
        if chi == 2:
            return "sphere"
        if chi == 1:
            return "projective-plane"
        return f"chi={chi}"

    def dual(self) -> "Graph":
        """Face-vertex dual of the embedded graph.

        Dual edge ids equal primal edge ids. The dual carries the embedding
        induced by the face walks; tracing its faces recovers the primal
        vertices.
        """
        orbits, _ = self._face_orbits()
        chosen = [False] * (4 * self.m)
        # per edge, its (face, slot) visits in face order
        visits: list[list[tuple[int, int]]] = [[] for _ in range(self.m)]
        for fi, orbit in enumerate(orbits):
            for slot, f in enumerate(orbit):
                chosen[f] = True
                visits[f >> 2].append((fi, slot))

        edges: list[tuple[int, int]] = []
        signs: list[int] = []
        end_of_visit: dict[tuple[int, int], int] = {}
        for e, vis in enumerate(visits):
            if len(vis) != 2:
                raise ValueError("inconsistent embedding data")
            edges.append((vis[0][0], vis[1][0]))
            end_of_visit[vis[0]] = 0
            end_of_visit[vis[1]] = 1
            # dual sign from the chosen-flag rule: negative when both sides
            # of one flag pair were swallowed by the same traversal direction
            ext_a = 1 if chosen[4 * e] else -1
            ext_b = 1 if chosen[4 * e + 1] else -1
            signs.append(-ext_a * ext_b)

        rot = [
            [(f >> 2, end_of_visit[(fi, slot)]) for slot, f in enumerate(orbit)]
            for fi, orbit in enumerate(orbits)
        ]
        return Graph(len(orbits), edges, rot, signs)


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


def graph_from_edges(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    """Graph without embedding data."""
    return Graph(n, edges, None, None)


def with_stubs(g: Graph, attach: Sequence[int]) -> Graph:
    """g plus one pendant stub per listed vertex, without embedding.

    g's edges keep their ids and signs; stub j is edge g.m + j, signed +1,
    running from attach[j] to the new leaf vertex g.n + j.
    """
    edges = g.edge_list + [(v, g.n + j) for j, v in enumerate(attach)]
    signs = g.sign_list + [1] * len(attach)
    return Graph(g.n + len(attach), edges, None, signs)


def induced_edges(
    g: Graph, vertices: Iterable[int]
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Edges, signs and host edge ids of the subgraph induced on a vertex set.

    Vertex i of the subgraph is the i-th least of the given vertices; the
    edges are the host edges with both ends inside, in host id order.
    """
    index = {v: i for i, v in enumerate(sorted(set(vertices)))}
    edges: list[tuple[int, int]] = []
    signs: list[int] = []
    kept: list[int] = []
    for e, (u, w) in enumerate(g._edges):
        if u in index and w in index:
            edges.append((index[u], index[w]))
            signs.append(g._signs[e])
            kept.append(e)
    return edges, signs, kept


# -- embedded surgery ------------------------------------------------------

# A new end put at slot s of a rotation lies in corner s - 1, counted
# cyclically, and so on that corner's face: corner_faces() read once
# tells which slots an added edge may take.


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


def subdivide_embedded(
    g: Graph, counts: dict[int, int]
) -> tuple[Graph, list[list[int]]]:
    """Replace edge e by a chain of counts.get(e, 0) + 1 segments.

    The chain occupies the same two faces as the edge it replaces; the
    first segment inherits the edge sign and the rest are positive.
    Returns the new graph and, per original edge, its chain's new edge
    ids in endpoint order.
    """
    edges: list[tuple[int, int]] = []
    signs: list[int] = []
    half: dict[Dart, Dart] = {}
    chain_rot: dict[int, list[Dart]] = {}
    chains: list[list[int]] = []
    nid = g.n
    for e in range(g.m):
        t = counts.get(e, 0)
        u, v = g.endpoints(e)
        if t == 0:
            ne = len(edges)
            edges.append((u, v))
            signs.append(g.sign(e))
            half[(e, 0)] = (ne, 0)
            half[(e, 1)] = (ne, 1)
            chains.append([ne])
            continue
        verts = [u] + [nid + j for j in range(t)] + [v]
        nid += t
        first = len(edges)
        for a, b in zip(verts, verts[1:]):
            edges.append((a, b))
            signs.append(1)
        signs[first] = g.sign(e)
        half[(e, 0)] = (first, 0)
        half[(e, 1)] = (len(edges) - 1, 1)
        chains.append(list(range(first, len(edges))))
        for j in range(1, t + 1):
            chain_rot[verts[j]] = [(first + j - 1, 1), (first + j, 0)]
    rot = [[half[d] for d in g.rotation(v)] for v in range(g.n)]
    rot += [chain_rot[w] for w in range(g.n, nid)]
    return Graph(nid, edges, rot, signs), chains


def insert_edge(g: Graph, u: int, slot_u: int, v: int, slot_v: int, sign: int) -> Graph:
    """g plus a new last edge u-v with the given sign, its ends spliced
    into the rotations of u and v at the given slots."""
    rot = g.rotations()
    ne = g.m
    rot[u] = rot[u][:slot_u] + ((ne, 0),) + rot[u][slot_u:]
    rot[v] = rot[v][:slot_v] + ((ne, 1),) + rot[v][slot_v:]
    return Graph(g.n, g._edges + [(u, v)], rot, g._signs + [sign])


def faces_through(g: Graph, vertices: Iterable[int]) -> list[list[Dart]]:
    """The face walks of g, in face_walks() order, that visit every given
    vertex."""
    wanted = set(vertices)
    return [
        walk
        for walk in g.face_walks()
        if wanted <= {g._edges[e][k] for e, k in walk}
    ]


# -- file format -----------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the cubic graph file format.

    Line 1 is ``cubic <n>``; each of the next n lines is
    ``<id>: <nbr> <nbr> <nbr>`` listing the neighbors in rotation order; an
    optional ``signs:`` section lists ``<u> <v> -1`` per crosscap edge.
    ``#`` starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "cubic":
        raise ValueError("malformed header")
    try:
        n = int(head[1])
    except ValueError:
        raise ValueError("malformed header") from None
    if n < 1 or len(lines) < 1 + n:
        raise ValueError("missing vertex lines")
    nbrs: list[Optional[list[int]]] = [None] * n
    for line in lines[1 : 1 + n]:
        if ":" not in line:
            raise ValueError(f"malformed vertex line: {line!r}")
        left, right = line.split(":", 1)
        try:
            v = int(left)
            row = [int(x) for x in right.split()]
        except ValueError:
            raise ValueError(f"malformed vertex line: {line!r}") from None
        if not (0 <= v < n):
            raise ValueError(f"vertex id {v} out of range")
        if nbrs[v] is not None:
            raise ValueError(f"duplicate vertex {v}")
        if len(row) != 3:
            raise ValueError(f"vertex {v}: expected 3 neighbors, got {len(row)}")
        for w in row:
            if not (0 <= w < n):
                raise ValueError(f"vertex {v}: neighbor {w} out of range")
            if w == v:
                raise ValueError(f"vertex {v}: loop in cubic graph")
        nbrs[v] = row
    missing = [v for v in range(n) if nbrs[v] is None]
    if missing:
        raise ValueError(f"vertex {missing[0]} has no line")

    rest = lines[1 + n :]
    negative: list[tuple[int, int]] = []
    if rest:
        if rest[0] != "signs:":
            raise ValueError(f"unexpected line: {rest[0]!r}")
        for line in rest[1:]:
            parts = line.split()
            if len(parts) != 3 or parts[2] != "-1":
                raise ValueError(f"malformed sign line: {line!r}")
            negative.append((int(parts[0]), int(parts[1])))
    g = graph_from_neighbors([row for row in nbrs if row is not None], negative)
    if not g.is_cubic():
        raise ValueError("graph is not cubic")
    return g


# -- connectivity ----------------------------------------------------------


def connected_components(g: Graph, omit_edges: Iterable[int] = ()) -> list[list[int]]:
    """Vertex sets of the components of g minus the omitted edges."""
    omit = set(omit_edges)
    seen = [False] * g.n
    comps: list[list[int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for d in g._inc[v]:
                e = d[0]
                if e in omit:
                    continue
                w = g.dart_other_vertex(d)
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def low_link(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[set[int], set[int]]:
    """Bridges and cut vertices of the multigraph on 0..n-1 whose edge e
    joins pairs[e].

    One iterative Tarjan DFS. Loops are skipped, and a vertex skips only
    the id of the edge it was entered by, so a parallel edge counts as a
    back edge and is never a bridge.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, w) in enumerate(pairs):
        if u != w:
            adj[u].append((w, e))
            adj[w].append((u, e))
    num = [-1] * n
    low = [0] * n
    bridge_ids: set[int] = set()
    cut_vertices: set[int] = set()
    counter = 0
    for root in range(n):
        if num[root] != -1:
            continue
        num[root] = low[root] = counter
        counter += 1
        root_children = 0
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
                if p == root:
                    root_children += 1
                elif low[v] >= num[p]:
                    cut_vertices.add(p)
        if root_children >= 2:
            cut_vertices.add(root)
    return bridge_ids, cut_vertices


def bridges(g: Graph) -> set[int]:
    """Edge ids whose removal disconnects their component. Loops and
    parallel edges never count."""
    return low_link(g.n, g._edges)[0]


def articulation_points(g: Graph) -> set[int]:
    """Vertices whose removal disconnects their component. Loops never count."""
    return low_link(g.n, g._edges)[1]


# -- 3-edge-coloring oracle ------------------------------------------------

EdgeColoring = dict  # edge id -> color in {0, 1, 2}


def edge_components(n: int, pairs: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Edges per connected component of the multigraph on 0..n-1 whose
    edge e joins pairs[e], each list breadth-first through shared vertices
    from its least edge id. An edge's new neighbours join in edge id order,
    those at its first end before those at its second."""
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for e, (u, w) in enumerate(pairs):
        by_vertex[u].append(e)
        if w != u:
            by_vertex[w].append(e)
    seen = [False] * len(pairs)
    out: list[list[int]] = []
    for root in range(len(pairs)):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for e in order:
            for v in pairs[e]:
                for f in by_vertex[v]:
                    if not seen[f]:
                        seen[f] = True
                        order.append(f)
        out.append(order)
    return out


def color_walk(
    pairs: Sequence[tuple[int, int]], order: Sequence[int], leaf: Callable[[list[int]], bool]
) -> bool:
    """Color the edges in order with 0, 1, 2, edges sharing a vertex
    apart, and call leaf on each complete coloring until it returns True;
    report whether it did.

    Edge e joins pairs[e]. The first edge only takes color 0, so leaf
    meets every orbit of colorings under the six color permutations at
    least once but not every member. leaf gets the live color list,
    indexed by edge id, which the walk goes on changing: a caller that
    keeps it must copy it. Edges outside order stay 0 and constrain
    nothing. An order holding a loop reaches no leaf, since both ends of
    a loop meet its vertex.
    """
    placed: dict[int, list[int]] = {}
    earlier: list[tuple[int, ...]] = []
    for e in order:
        u, w = pairs[e]
        if u == w:
            return False
        at_u = placed.setdefault(u, [])
        at_w = placed.setdefault(w, [])
        earlier.append(tuple(at_u + at_w))
        at_u.append(e)
        at_w.append(e)
    color = [0] * len(pairs)
    last = len(order)

    def walk(i: int) -> bool:
        if i == last:
            return leaf(color)
        e = order[i]
        taken = 0
        for f in earlier[i]:
            taken |= _BIT[color[f]]
        for c in _FREE[taken] if i else (0,):
            color[e] = c
            if walk(i + 1):
                return True
        return False

    return walk(0)


# a color's bit, and the colors free under each set of taken bits
_BIT = (1, 2, 4)
_FREE = [tuple(c for c in (0, 1, 2) if not taken >> c & 1) for taken in range(8)]


def three_edge_color(g: Graph) -> Optional[EdgeColoring]:
    """First proper 3-edge-coloring of a cubic graph, or None.

    Each connected component is walked on its own, so an uncolorable one
    ends the search without backtracking through the others.
    """
    if not g.is_cubic():
        raise ValueError("graph is not cubic")
    if g.has_loops():
        raise ValueError("cubic graph has a loop")
    coloring: EdgeColoring = {}
    for comp in edge_components(g.n, g._edges):

        def keep(color: list[int]) -> bool:
            coloring.update((e, color[e]) for e in comp)
            return True

        if not color_walk(g._edges, comp, keep):
            return None
    return coloring


def is_proper_coloring(g: Graph, coloring: EdgeColoring) -> bool:
    if set(coloring.keys()) != set(range(g.m)):
        return False
    for v in range(g.n):
        cs = [coloring[d[0]] for d in g._inc[v]]
        if len(cs) != len(set(cs)):
            return False
    return True


# -- Kempe chains ----------------------------------------------------------


@dataclass(frozen=True)
class KempeChain:
    colors: frozenset
    edges: tuple[int, ...]
    is_cycle: bool


def kempe_chain(g: Graph, coloring: EdgeColoring, pair: tuple[int, int], start: int) -> KempeChain:
    """Maximal path or even cycle through start using the two colors of pair."""
    a, b = pair
    if a == b:
        raise ValueError("color pair must be distinct")
    if coloring[start] not in (a, b):
        raise ValueError("start edge not colored with the pair")

    def next_edge(v: int, want: int, avoid: int) -> Optional[int]:
        for d in g._inc[v]:
            e = d[0]
            if e != avoid and coloring[e] == want:
                return e
        return None

    u0, v0 = g.endpoints(start)
    chain = [start]
    # forward from v0
    v, prev = v0, start
    while True:
        want = a if coloring[prev] == b else b
        e = next_edge(v, want, prev)
        if e is None:
            closed = False
            break
        if e == start:
            closed = True
            break
        chain.append(e)
        v = g.other_end(e, v)
        prev = e
    if not closed:
        # backward from u0
        v, prev = u0, start
        while True:
            want = a if coloring[prev] == b else b
            e = next_edge(v, want, prev)
            if e is None:
                break
            chain.insert(0, e)
            v = g.other_end(e, v)
            prev = e
    return KempeChain(colors=frozenset((a, b)), edges=tuple(chain), is_cycle=closed)


def kempe_swap(g: Graph, coloring: EdgeColoring, chain: KempeChain) -> EdgeColoring:
    """Exchange the chain's two colors along it; properness is preserved."""
    a, b = sorted(chain.colors)
    out = dict(coloring)
    for e in chain.edges:
        if out[e] == a:
            out[e] = b
        elif out[e] == b:
            out[e] = a
        else:
            raise ValueError("chain edge not colored with the pair")
    return out


# -- delete and suppress ---------------------------------------------------


def loss_counts(g: Graph, removed: Iterable[int]) -> list[int]:
    """Per vertex, how many removed edges it meets, a removed loop counting
    three. The deletion rules forbid a vertex that loses exactly two."""
    lost = [0] * g.n
    for e in removed:
        u, v = g.endpoints(e)
        lost[u] += 1
        lost[v] += 1 if u != v else 2
    return lost


def suppress_chains(
    n: int, pairs: Sequence[tuple[int, int]], removed: Iterable[int]
) -> tuple[list[tuple[int, int]], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Remove edges from the multigraph on 0..n-1 whose edge e joins
    pairs[e] and suppress every vertex they leave with degree 2, a kept
    loop counting three.

    Returns (chains, provenance, dropped) in the input's vertex ids: new
    edge i joins chains[i] and is made of the input edges provenance[i],
    in order along it; dropped lists the chains that close on themselves
    through suppressed vertices only. Vertices left with no edge end no
    chain, and a vertex of degree 2 that lost no edge is not suppressed.
    New edges are numbered by their first end, in vertex order, then by
    that end's incidence order.
    """
    rem = set(removed)
    touched: set[int] = set()
    inc_kept: list[list[Dart]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(pairs):
        if e in rem:
            touched.update((u, v))
        else:
            inc_kept[u].append((e, 0))
            inc_kept[v].append((e, 1))
    suppressed = {
        v
        for v in touched
        if len(inc_kept[v]) == 2 and inc_kept[v][0][0] != inc_kept[v][1][0]
    }

    used: set[int] = set()
    chains: list[tuple[int, int]] = []
    provenance: list[tuple[int, ...]] = []
    dropped: list[tuple[int, ...]] = []

    def walk(d: Dart) -> tuple[Optional[int], list[int]]:
        """Follow kept edges from a dart until a vertex that is not
        suppressed (returned) or an edge already walked (None)."""
        path = []
        while d[0] not in used:
            e, k = d
            used.add(e)
            path.append(e)
            w = pairs[e][1 - k]
            if w not in suppressed:
                return w, path
            # a suppressed vertex has exactly two kept darts
            a, b = inc_kept[w]
            d = b if a == (e, 1 - k) else a
        return None, path

    for v, darts in enumerate(inc_kept):
        if v in suppressed:
            continue
        for e, k in darts:
            w = pairs[e][1 - k]
            if w not in suppressed:
                # neither end suppressed: a chain of its own, at its first dart
                if v < w or v == w and not k:
                    chains.append((v, w))
                    provenance.append((e,))
            elif e not in used:
                w, path = walk((e, k))
                chains.append((v, w))
                provenance.append(tuple(path))

    # remaining kept edges lie on pure suppressed cycles
    for v in sorted(suppressed):
        for d in inc_kept[v]:
            if d[0] not in used:
                dropped.append(tuple(walk(d)[1]))
    return chains, provenance, dropped


# -- isomorphism -----------------------------------------------------------


def _refine(nbrs: list[list[int]], loops: list[int], colors: list[int]) -> list[int]:
    """Stable neighborhood refinement; class ids ordered by signature.
    nbrs[v] lists v's non-loop neighbours, loops[v] counts its loop ends."""
    while True:
        sigs = [(colors[v], loops[v], tuple(sorted([colors[w] for w in nb]))) for v, nb in enumerate(nbrs)]
        lookup = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [lookup[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _canon_search(edges: list, nbrs: list, loops: list[int], colors: list[int], best: list) -> None:
    colors = _refine(nbrs, loops, colors)
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = c
            break
    if target is None:
        # every color is now its own cell, so it ranks the vertices
        rank = [0] * len(colors)
        for i, v in enumerate(sorted(range(len(colors)), key=lambda v: colors[v])):
            rank[v] = i
        sig = tuple(sorted((min(rank[u], rank[v]), max(rank[u], rank[v])) for u, v in edges))
        if best[0] is None or sig < best[0]:
            best[0] = sig
        return
    for v in cells[target]:
        child = list(colors)
        child[v] = len(cells) + max(colors) + 1  # fresh color, splits the cell
        _canon_search(edges, nbrs, loops, child, best)


def canonical_key(g: Graph) -> tuple:
    """Hashable key equal for isomorphic multigraphs (signs ignored)."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    loops = [0] * g.n
    for u, v in g._edges:
        if u == v:
            loops[u] += 2
        else:
            nbrs[u].append(v)
            nbrs[v].append(u)
    best: list = [None]
    _canon_search(g._edges, nbrs, loops, [0] * g.n, best)
    return (g.n, g.m, best[0])


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact multigraph isomorphism by canonical labeling."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return canonical_key(g1) == canonical_key(g2)


# -- standard graphs -------------------------------------------------------


def k4() -> Graph:
    """K4 with a planar rotation system."""
    return graph_from_neighbors([
        [1, 2, 3],
        [0, 3, 2],
        [0, 1, 3],
        [0, 2, 1],
    ])


def prism(k: int = 3) -> Graph:
    """The circular prism on 2k vertices (two k-cycles joined by a matching)."""
    if k < 3:
        raise ValueError("prism needs k >= 3")
    nbrs = []
    for i in range(k):
        nbrs.append([(i + 1) % k, k + i, (i - 1) % k])
    for i in range(k):
        nbrs.append([k + (i + 1) % k, i, k + (i - 1) % k])
    return graph_from_neighbors(nbrs)


def petersen() -> Graph:
    """The Petersen graph (abstract rotations, all signs +1)."""
    nbrs = []
    for i in range(5):
        nbrs.append([(i + 1) % 5, 5 + i, (i - 1) % 5])
    for i in range(5):
        nbrs.append([5 + (i + 2) % 5, i, 5 + (i - 2) % 5])
    return graph_from_neighbors(nbrs)


def k33() -> Graph:
    """K_{3,3} (abstract rotations)."""
    nbrs = [[3, 4, 5], [3, 4, 5], [3, 4, 5], [0, 1, 2], [0, 1, 2], [0, 1, 2]]
    return graph_from_neighbors(nbrs)


def orient_faces(faces: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Flip face cycles so every shared edge is traversed once per direction.

    Works for face sets of an orientable surface, with or without boundary;
    raises when an edge is used by more than two face sides or when no
    consistent orientation exists.
    """
    faces = [tuple(f) for f in faces]
    by_edge: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(faces):
        if len(f) < 3:
            raise ValueError("face with fewer than 3 vertices")
        for i in range(len(f)):
            a, b = f[i], f[(i + 1) % len(f)]
            if a == b:
                raise ValueError("face repeats a vertex consecutively")
            key = (min(a, b), max(a, b))
            by_edge.setdefault(key, []).append(fi)
    for key, fs in by_edge.items():
        if len(fs) > 2:
            raise ValueError(f"edge {key} used by more than two faces")

    flip = [None] * len(faces)

    def directed(fi: int, key: tuple[int, int]) -> bool:
        """True if face fi (after flip) walks key as (min, max)."""
        f = faces[fi]
        for i in range(len(f)):
            a, b = f[i], f[(i + 1) % len(f)]
            if (min(a, b), max(a, b)) == key:
                forward = (a, b) == key
                return forward != flip[fi]
        raise AssertionError

    for root in range(len(faces)):
        if flip[root] is not None:
            continue
        flip[root] = False
        queue = [root]
        while queue:
            fi = queue.pop()
            f = faces[fi]
            for i in range(len(f)):
                a, b = f[i], f[(i + 1) % len(f)]
                key = (min(a, b), max(a, b))
                for fj in by_edge[key]:
                    if fj == fi:
                        continue
                    want = not directed(fi, key)
                    if flip[fj] is None:
                        # fj must walk the edge in the opposite direction
                        flip[fj] = False
                        if directed(fj, key) != want:
                            flip[fj] = True
                        queue.append(fj)
                    elif directed(fj, key) != want:
                        raise ValueError("face set is not orientable")
    return [tuple(reversed(f)) if flip[fi] else f for fi, f in enumerate(faces)]


def graph_from_faces(num_vertices: int, faces: Sequence[Sequence[int]]) -> Graph:
    """Embedded simple graph from its face list.

    Faces are vertex cycles in arbitrary orientation; they are first made
    consistent, then rotations are read off the corners. Boundary (edges on
    a single face) is allowed: boundary vertices get the open fan order.
    """
    oriented = orient_faces(faces)
    succ: dict[tuple[int, int], int] = {}
    verts: dict[int, set[int]] = {}
    for f in oriented:
        k = len(f)
        for i in range(k):
            a, v, b = f[i - 1], f[i], f[(i + 1) % k]
            if (v, a) in succ:
                raise ValueError("corner conflict: directed edge reused")
            succ[(v, a)] = b
            verts.setdefault(v, set()).update((a, b))
    nbrs: list[list[int]] = [[] for _ in range(num_vertices)]
    for v in range(num_vertices):
        around = verts.get(v, set())
        if not around:
            continue
        preds = {succ[(v, w)] for w in around if (v, w) in succ}
        starts = [w for w in sorted(around) if w not in preds]
        if len(starts) > 1:
            raise ValueError(f"vertex {v} has a pinched neighborhood")
        w = starts[0] if starts else min(around)
        chain = [w]
        while (v, w) in succ and succ[(v, w)] != chain[0]:
            w = succ[(v, w)]
            chain.append(w)
        if len(chain) != len(around):
            raise ValueError(f"vertex {v} has a pinched neighborhood")
        nbrs[v] = chain
    return graph_from_neighbors(nbrs)


def icosahedron(with_antipode: bool = False):
    """The icosahedron as an embedded sphere triangulation.

    Vertices: 0 = north pole, 1..5 = upper ring, 6..10 = lower ring,
    11 = south pole. With with_antipode=True also returns the fixed-point
    free antipodal automorphism as a list.
    """
    N, S = 0, 11

    def up(i: int) -> int:
        return 1 + i % 5

    def lo(i: int) -> int:
        return 6 + i % 5

    faces: list[tuple[int, int, int]] = []
    for i in range(5):
        faces.append((N, up(i), up(i + 1)))
        faces.append((up(i), up(i + 1), lo(i)))
        faces.append((lo(i), lo(i + 1), up(i + 1)))
        faces.append((S, lo(i), lo(i + 1)))
    g = graph_from_faces(12, faces)
    if not with_antipode:
        return g
    antipode = [0] * 12
    antipode[N], antipode[S] = S, N
    for i in range(5):
        antipode[up(i)] = lo(i + 2)
        antipode[lo(i + 2)] = up(i)
    return g, antipode


def antipodal_quotient(g: Graph, antipode: Sequence[int]) -> Graph:
    """Quotient of an embedded simple graph by a fixed-point free involution.

    The involution must be an automorphism with no vertex adjacent to its
    image. Edge orbits become single edges; an orbit is signed -1 unless one
    of its members joins two class representatives. Quotienting an orientable
    chi=2 embedding yields a projective-plane embedding.
    """
    n = g.n
    if sorted(antipode) != list(range(n)):
        raise ValueError("antipode is not a permutation")
    for v in range(n):
        if antipode[antipode[v]] != v or antipode[v] == v:
            raise ValueError("antipode is not a fixed-point free involution")
    edge_ids: dict[frozenset, int] = {}
    for e in range(g.m):
        u, v = g.endpoints(e)
        if u == v or len(g.edges_between(u, v)) != 1:
            raise ValueError("quotient needs a simple graph")
        if antipode[u] == v:
            raise ValueError("edge between antipodal vertices")
        edge_ids[frozenset((u, v))] = e

    reps = [v for v in range(n) if v < antipode[v]]
    cls = {}
    for i, r in enumerate(reps):
        cls[r] = i
        cls[antipode[r]] = i

    orbit_id: dict[int, int] = {}
    q_edges: list[tuple[int, int]] = []
    q_signs: list[int] = []
    for e in range(g.m):
        if e in orbit_id:
            continue
        u, v = g.endpoints(e)
        mate_key = frozenset((antipode[u], antipode[v]))
        if mate_key not in edge_ids:
            raise ValueError("antipode is not an automorphism")
        mate = edge_ids[mate_key]
        qe = len(q_edges)
        orbit_id[e] = qe
        orbit_id[mate] = qe
        if cls[u] == cls[v]:
            raise ValueError("edge orbit collapses to a loop")
        # +1 when some orbit member joins two representatives: the lift then
        # stays inside the fundamental domain and keeps its orientation
        rep_rep = (u < antipode[u]) == (v < antipode[v])
        q_edges.append((cls[u], cls[v]))
        q_signs.append(1 if rep_rep else -1)

    rotations: list[list[Dart]] = [[] for _ in range(len(reps))]
    for i, r in enumerate(reps):
        for d in g.rotation(r):
            e = d[0]
            qe = orbit_id[e]
            a, b = q_edges[qe]
            if a == i and b == i:
                raise ValueError("edge orbit collapses to a loop")
            rotations[i].append((qe, 0 if a == i else 1))
    return Graph(len(reps), q_edges, rotations, q_signs)
