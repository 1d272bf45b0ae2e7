"""Shared helpers for the test suite."""

import hashlib
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from snarklab.cuts import (
    CyclicCut,
    ReductionStep,
    ReductionTrace,
    SideReduction,
    _reduce_side,
    enumerate_cyclic_cuts,
)
from snarklab.graphs import (
    _BIT,
    Dart,
    EdgeColoring,
    FaceTrace,
    Graph,
    canonical_key,
    color_walk,
    graph_from_neighbors,
    low_link,
    parse_graph,
    petersen,
    remove_embedded,
)
from snarklab.rings import (
    COLOR_PERMUTATIONS,
    COLORS,
    Match,
    canonical_matching,
    get_kempe,
    orbit_representatives,
)


def fixture_text(name):
    return (resources.files("snarklab") / "data" / name).read_text()


def fixture_graph(name):
    return parse_graph(fixture_text(name))


def format_graph(g: Graph) -> str:
    """Serialize a cubic embedded graph in the parse_graph format."""
    if not g.is_cubic():
        raise ValueError("only cubic graphs have a file form")
    out = [f"cubic {g.n}"]
    for v in range(g.n):
        row = " ".join(map(str, g.neighbors(v)))
        out.append(f"{v}: {row}")
    neg = [e for e in range(g.m) if g.sign(e) == -1]
    if neg:
        out.append("signs:")
        for e in neg:
            u, v = g.endpoints(e)
            out.append(f"{u} {v} -1")
    return "\n".join(out) + "\n"


def random_cubic(rng, n, connected=False, bridgeless=False):
    """Random cubic multigraph on n vertices (n even), loops rejected."""
    while True:
        darts = [v for v in range(n) for _ in range(3)]
        rng.shuffle(darts)
        edges = [(darts[i], darts[i + 1]) for i in range(0, len(darts), 2)]
        if any(u == v for u, v in edges):
            continue
        g = Graph(n, edges)
        if connected and len(components_oracle(range(n), edges)) > 1:
            continue
        if bridgeless and low_link(n, edges)[0]:
            continue
        return g


def relabeled(g, perm):
    """New graph with vertex v renamed perm[v]; edge ids and order kept."""
    if sorted(perm) != list(range(g._n)):
        raise ValueError("not a permutation")
    edges = [(perm[u], perm[v]) for u, v in g._edges]
    rot = None
    if g._rot is not None:
        rot = [()] * g._n
        for v in range(g._n):
            rot[perm[v]] = g._rot[v]
    return Graph(g._n, edges, rot, g._signs)


def automorphisms_oracle(g):
    """All vertex permutations preserving adjacency, by plain
    backtracking, in lexicographic order (simple graphs only)."""
    n = g.n
    adj = [set(g.neighbors(v)) for v in range(n)]
    degs = [g.degree(v) for v in range(n)]
    out = []
    perm = [-1] * n
    used = [False] * n

    def rec(v):
        if v == n:
            out.append(tuple(perm))
            return
        for w in range(n):
            if used[w] or degs[w] != degs[v]:
                continue
            if all((u in adj[v]) == (perm[u] in adj[w]) for u in range(v)):
                perm[v] = w
                used[w] = True
                rec(v + 1)
                used[w] = False
        perm[v] = -1

    rec(0)
    return out


# -- the canonical search with every vertex re-signed each round ----------------


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
    """Individualization-refinement over every leaf. best holds the least
    leaf signature so far and the vertex ranks of each leaf that ties it."""
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
            best[:] = [sig, [rank]]
        elif sig == best[0]:
            best[1].append(rank)
        return
    for v in cells[target]:
        child = list(colors)
        child[v] = len(cells) + max(colors) + 1  # fresh color, splits the cell
        _canon_search(edges, nbrs, loops, child, best)


def least_leaves_oracle(g: Graph) -> list:
    """[least leaf signature, ranks of every leaf reaching it] of g's
    search, refining by re-signing every vertex in every round."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    loops = [0] * g.n
    for u, v in g._edges:
        if u == v:
            loops[u] += 2
        else:
            nbrs[u].append(v)
            nbrs[v].append(u)
    best: list = [None, []]
    _canon_search(g._edges, nbrs, loops, [0] * g.n, best)
    return best


def embedding_orientable(g):
    """True iff every cycle of g has positive sign product (gauge test)."""
    gauge = [0] * g._n
    for root in range(g._n):
        if gauge[root]:
            continue
        gauge[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for e, k in g._inc[v]:
                w = g._edges[e][1 - k]
                want = gauge[v] * g._signs[e]
                if gauge[w] == 0:
                    gauge[w] = want
                    stack.append(w)
                elif gauge[w] != want:
                    return False
    return True


def expand_to_triangle(g, v):
    """Replace vertex v of a simple cubic graph by a triangle."""
    a, b, c = sorted(g.neighbors(v))
    n1, n2 = g.n, g.n + 1
    edges = []
    for e in range(g.m):
        x, y = g.endpoints(e)
        if v not in (x, y):
            edges.append((x, y))
    edges += [(v, a), (n1, b), (n2, c), (v, n1), (n1, n2), (n2, v)]
    return Graph(g.n + 2, edges)


def petersen_dot_product():
    """Isaacs' dot product of two Petersen graphs, a snark on 18 vertices:
    one copy loses edge (0, 1) and the edge (2, 3) disjoint from it, the
    other, shifted to vertices 10-17, its adjacent vertices 0 and 1, and
    the ends of each removed edge are joined to the other neighbors of one
    removed vertex."""
    p = petersen()
    first = [e for e in p.edge_list if e not in ((0, 1), (2, 3))]
    second = [(u + 8, w + 8) for u, w in p.edge_list if not {u, w} & {0, 1}]
    # 0's other neighbors are 4 and 6, 1's are 2 and 5
    return Graph(18, first + second + [(0, 12), (1, 14), (2, 10), (3, 13)])


def cyclic_cut_oracle(g, k_max):
    """Minimal cyclic cuts of size <= k_max by exhaustive subset search."""
    found = set()
    for k in range(1, k_max + 1):
        for cand in itertools.combinations(range(g.m), k):
            cset = set(cand)
            comps = components_oracle(range(g.n), [p for e, p in enumerate(g.edge_list) if e not in cset])
            if len(comps) != 2:
                continue
            where = {}
            for idx, comp in enumerate(comps):
                for v in comp:
                    where[v] = idx
            crossing = all(
                where[g.endpoints(e)[0]] != where[g.endpoints(e)[1]] for e in cand
            )
            if not crossing:
                continue
            inner = [0, 0]
            for e in range(g.m):
                if e not in cset:
                    inner[where[g.endpoints(e)[0]]] += 1
            if all(inner[i] >= len(comps[i]) for i in (0, 1)):
                found.add(frozenset(cand))
    return found


def cyclic_edge_connectivity(g: Graph) -> tuple[Optional[int], Optional[CyclicCut]]:
    """Smallest cyclic cut size with a witness, or (None, None) if undefined.

    Undefined means the graph has no two vertex-disjoint cycles, so no cyclic
    cut of any size exists. The witness is the first cut listed, which relies
    on enumerate_cyclic_cuts returning its cuts sorted by (size, edges).
    """
    for k in range(1, g.m + 1):
        cuts = enumerate_cyclic_cuts(g, k)
        if cuts:
            return len(cuts[0].edges), cuts[0]
    return None, None


@lru_cache(maxsize=None)
def _petersen_key():
    return canonical_key(abstract_petersen())


def is_petersen_oracle(h):
    """Whether a cubic graph is the Petersen graph, by canonical key."""
    return h.n == 10 and h.m == 15 and canonical_key(h) == _petersen_key()


def petersen_like_oracle(g, rng=None):
    """is_petersen_like searched afresh: every piece's cuts are enumerated
    and both sides of every reduction searched to the end, on any cut when
    rng is given, and terminals are compared by canonical key."""

    def search(h):
        cuts = enumerate_cyclic_cuts(h, 3)
        if not cuts:
            return is_petersen_oracle(h), (), h
        cut = rng.choice(cuts) if rng is not None else cuts[0]
        sides = low_cut_reduce(h, cut)
        fallback = None
        for (_, piece), side_vertices in zip(sides, (cut.side_a, cut.side_b)):
            ok, steps, terminal = search(piece)
            step = ReductionStep(cut_edges=cut.edges, side_vertices=side_vertices)
            if ok:
                return True, (step,) + steps, terminal
            if fallback is None:
                fallback = (False, (step,) + steps, terminal)
        return fallback

    ok, steps, terminal = search(g)
    return ok, ReductionTrace(steps=steps, terminal=terminal)


def ring_sides(g, k_max):
    """Each side of each cyclic cut of g of at most k_max edges whose
    cut-edge ends are distinct and lie on one face of the side, each once:
    the side's vertex set, its cut edges in that face's walk order, the
    side as a graph of its own and the cut edges' ends in it, in the same
    order."""
    for cut in enumerate_cyclic_cuts(g, k_max):
        for side in (cut.side_a, cut.side_b):
            inside = set(side)
            end = {v: c for c in cut.edges for v in g.endpoints(c) if v in inside}
            if len(end) < len(cut.edges):
                continue
            h, new_id, _ = remove_embedded(g, [v for v in range(g.n) if v not in inside])
            at = {new_id[v]: c for v, c in end.items()}
            for walk in FaceTrace(h).walks:
                ends = [v for v in map(h.dart_vertex, walk) if v in at]
                if sorted(at[v] for v in ends) == sorted(cut.edges):
                    yield inside, [at[v] for v in ends], h, tuple(ends)
                    break


def ilp_colorable(g: Graph) -> bool:
    """Whether the cubic graph g has a proper 3-edge-coloring, decided by
    scipy's MILP solver on no code of the package's coloring search.

    Binary x[3e + c] says edge e takes color c: each edge takes one color,
    and each color meets each vertex at most once, a loop twice. The three
    edges at vertex 0 take colors 0, 1 and 2 in their dart order, which
    any coloring reaches by renaming its colors.
    """
    if not g.is_cubic():
        raise ValueError("graph is not cubic")
    m = g.m
    rows = np.zeros((m + 3 * g.n, 3 * m))
    for e in range(m):
        rows[e, 3 * e : 3 * e + 3] = 1
        for v in g.endpoints(e):
            rows[m + 3 * v : m + 3 * v + 3, 3 * e : 3 * e + 3] += np.eye(3)
    lower = np.zeros(3 * m)
    for c, (e, _) in enumerate(g.incident_darts(0)):
        lower[3 * e + c] = 1
    res = milp(
        np.zeros(3 * m),
        integrality=np.ones(3 * m),
        bounds=Bounds(lower, 1),
        constraints=LinearConstraint(rows, np.r_[np.ones(m), np.zeros(3 * g.n)], 1),
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"milp ended without a decision: {res.message}")
    return res.status == 0


def side_index(side):
    """The vertex index that cuts._grow hands to _reduce_side and
    _piece_cuts: the side's i-th least vertex maps to i."""
    return {v: i for i, v in enumerate(sorted(side))}


def low_cut_reduce(g: Graph, cut: CyclicCut) -> tuple[tuple[SideReduction, Graph], tuple[SideReduction, Graph]]:
    """Replace a cyclic 2-cut by an edge or a 3-cut by a vertex on each
    side: each side's map to g and its piece."""
    return _reduce_side(g, cut, side_index(cut.side_a)), _reduce_side(g, cut, side_index(cut.side_b))


def components_oracle(vertices, edges):
    """Vertex sets of the components of the multigraph on the given
    vertices with these edges, each sorted, by least vertex: one
    union-find, independent of any depth-first search."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, w in edges:
        parent[find(u)] = find(w)
    comps = {}
    for v in parent:
        comps.setdefault(find(v), []).append(v)
    return sorted(sorted(c) for c in comps.values())


def is_biconnected(g):
    """At least 3 vertices, connected, and no vertex whose deletion
    leaves two pieces, by the deletion oracle."""
    _, pieces, components = low_link_oracle(g.n, g.edge_list)
    return g.n >= 3 and components == 1 and max(pieces) == 1


def low_link_oracle(n, pairs):
    """low_link(n, pairs) by deletion: an edge is a bridge exactly when
    deleting it raises the component count, and deleting v turns its one
    component into pieces[v] of them."""
    base = len(components_oracle(range(n), pairs))
    bridge_ids = {
        e
        for e in range(len(pairs))
        if len(components_oracle(range(n), pairs[:e] + pairs[e + 1 :])) > base
    }
    pieces = [
        len(components_oracle([x for x in range(n) if x != v], [p for p in pairs if v not in p])) - base + 1
        for v in range(n)
    ]
    return bridge_ids, pieces, base


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
    loop counting three. The reference for the C-search's one-pass
    reducibility._cut_down, which must give the same chains.

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


def suppress_chains_oracle(n, pairs, removed):
    """suppress_chains as it was before its plain-edge shortcut:
    every kept edge, plain or not, starts one chain walk from its first
    dart in vertex then incidence order and is marked walked."""
    rem = set(removed)
    touched = set()
    inc_kept = [[] for _ in range(n)]
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

    used = set()
    chains = []
    provenance = []
    dropped = []

    def walk(d):
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
        for d in darts:
            if d[0] not in used:
                w, path = walk(d)
                chains.append((v, w))
                provenance.append(tuple(path))

    # remaining kept edges lie on pure suppressed cycles
    for v in sorted(suppressed):
        for d in inc_kept[v]:
            if d[0] not in used:
                dropped.append(tuple(walk(d)[1]))
    return chains, provenance, dropped


def delete_and_suppress_traced(
    g: Graph, removed: Iterable[int]
) -> tuple[Graph, dict[int, tuple[int, ...]], list[tuple[int, ...]]]:
    """Remove edges, suppress degree-2 vertices, drop isolated vertices.

    Returns (graph, provenance, dropped) where provenance maps each new edge
    to the ordered tuple of original edges merged into it, and dropped lists
    purely cyclic chains that suppressed away entirely. The graph keeps the
    surviving vertices in their old order; a merged edge's sign is the
    product of its parts' signs.
    """
    rem = set(removed)
    for e in rem:
        if not (0 <= e < g.m):
            raise ValueError("removed edge out of range")
    chains, paths, dropped = suppress_chains(g.n, g._edges, rem)
    index = {v: i for i, v in enumerate(sorted({v for ends in chains for v in ends}))}
    out = Graph(
        len(index),
        [(index[u], index[w]) for u, w in chains],
        None,
        [math.prod(g._signs[e] for e in path) for path in paths],
    )
    return out, dict(enumerate(paths)), dropped


def delete_and_suppress(g: Graph, removed: Iterable[int]) -> Graph:
    """Delete the edge set and suppress the resulting degree-2 vertices.

    Requires every endpoint of a removed edge to have degree 3 and no vertex
    to meet exactly two removed edges.
    """
    rem = set(removed)
    for e in rem:
        if any(g.degree(v) != 3 for v in g.endpoints(e)):
            raise ValueError("removed edge endpoint does not have degree 3")
    lost = loss_counts(g, rem)
    if 2 in lost:
        raise ValueError(f"vertex {lost.index(2)} is incident with exactly two removed edges")
    out, _, _ = delete_and_suppress_traced(g, rem)
    return out


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


def face_built_completion(config):
    """The free completion's graph built from its face list: every bounded
    face written as a vertex cycle, oriented and read back by
    graph_from_faces. The oracle for free_completion, which writes the
    ring into the configuration's rotations instead.
    """
    from snarklab.configurations import _boundary

    g, gamma, n = config.graph, config.gamma, config.n
    trace = FaceTrace(g)
    oi, darts, cs = _boundary(trace, gamma)
    verts = [g.dart_vertex(d) for d in darts]
    ring_len = sum(cs)
    starts = list(itertools.accumulate(cs, initial=0))
    faces = [tuple(map(g.dart_vertex, w)) for i, w in enumerate(trace.walks) if i != oi]
    for i, v in enumerate(verts):
        for j in range(starts[i], starts[i + 1]):
            faces.append((v, n + j % ring_len, n + (j + 1) % ring_len))
        faces.append((v, verts[(i + 1) % len(verts)], n + starts[i + 1] % ring_len))
    return graph_from_faces(n + ring_len, faces)


def conf_from_faces(num_vertices, faces, gamma, contracts=()):
    """Validated configuration from an inner face list.

    Rotations come from the faces; the text round-trip runs the full
    clause validation.
    """
    return _conf_round_trip(graph_from_faces(num_vertices, faces), gamma, contracts)


def conf_from_neighbors(nbrs, gamma, contracts=()):
    """Validated configuration from rotation-ordered neighbor lists."""
    from snarklab.graphs import graph_from_neighbors

    return _conf_round_trip(graph_from_neighbors(nbrs), gamma, contracts)


def _conf_round_trip(g, gamma, contracts):
    from snarklab.configurations import Configuration, parse_configuration

    ring = Configuration(g, tuple(gamma), ()).ring_size
    lines = [f"conf {g.n} {ring}"]
    for v in range(g.n):
        row = g.neighbors(v)
        lines.append(f"{v} {gamma[v]} {len(row)} " + " ".join(str(w) for w in row))
    for pairs in contracts:
        lines.append("contract: " + " ".join(f"{u}-{w}" for u, w in pairs))
    return parse_configuration("\n".join(lines))


def desk_configurations():
    """Named small configurations spanning ring sizes five to eight."""
    from snarklab.configurations import parse_configuration

    out = []
    for name in ("triangle555", "wheel5", "bowtie", "conf1"):
        out.append((name, parse_configuration(fixture_text(name + ".conf"))))
    for ga, gb in ((5, 5), (5, 6), (5, 7), (6, 6)):
        out.append((f"edge{ga}{gb}", conf_from_neighbors([[1], [0]], (ga, gb))))
    for gammas in ((5, 5, 6), (5, 5, 7), (5, 6, 6)):
        name = "tri" + "".join(str(x) for x in gammas)
        out.append((name, conf_from_faces(3, [[0, 1, 2]], gammas)))
    diamond = [[0, 1, 2], [1, 0, 3]]
    for label, gammas in (
        ("hub6", (6, 5, 5, 5)),
        ("tip6", (5, 5, 6, 5)),
        ("hub7", (7, 5, 5, 5)),
        ("tip7", (5, 5, 7, 5)),
        ("hubs66", (6, 6, 5, 5)),
        ("mixed66", (6, 5, 6, 5)),
        ("tips66", (5, 5, 6, 6)),
    ):
        out.append((f"diamond_{label}", conf_from_faces(4, diamond, gammas)))
    fan3 = [[0, 1, 2], [0, 2, 3], [0, 3, 4]]
    out.append(("fan3_hub6", conf_from_faces(5, fan3, (6, 5, 5, 5, 5))))
    out.append(("fan3_hub7", conf_from_faces(5, fan3, (7, 5, 5, 5, 5))))
    strip4 = [[0, 1, 2], [1, 3, 2], [2, 3, 4], [3, 5, 4]]
    out.append(("strip4", conf_from_faces(6, strip4, (5, 5, 5, 5, 5, 5))))
    out.append(
        (
            "diamond_pendant_hub",
            conf_from_neighbors(
                [[2, 1, 3, 4], [3, 0, 2], [1, 0], [0, 1], [0]], (6, 5, 5, 5, 5)
            ),
        )
    )
    out.append(
        (
            "diamond_pendant_tip",
            conf_from_neighbors(
                [[2, 1, 3], [3, 0, 2], [1, 0, 4], [0, 1], [2]], (5, 5, 5, 5, 5)
            ),
        )
    )
    return out


def desk_islands():
    """Every desk configuration's island plus handmade direct builds."""
    from snarklab.configurations import Island, free_completion, island_of
    from snarklab.graphs import graph_from_neighbors

    out = [
        (name, island_of(free_completion(conf)))
        for name, conf in desk_configurations()
    ]
    out.append(
        (
            "ring3_triangle",
            Island(graph_from_neighbors([[1, 2], [0, 2], [0, 1]]), (0, 1, 2)),
        )
    )
    out.append(
        (
            "ring5_cycle",
            Island(
                graph_from_neighbors([[4, 1], [0, 2], [1, 3], [2, 4], [3, 0]]),
                (0, 1, 2, 3, 4),
            ),
        )
    )
    out.append(
        (
            "ring2_diamond",
            Island(graph_from_neighbors([[1, 2, 3], [0, 2, 3], [0, 1], [0, 1]]), (2, 3)),
        )
    )
    out.append(
        (
            "ring4_cycle",
            Island(
                graph_from_neighbors([[3, 1], [0, 2], [1, 3], [2, 0]]), (0, 1, 2, 3)
            ),
        )
    )
    out.append(
        (
            "ring3_hexhub",
            Island(
                graph_from_neighbors(
                    [[5, 1], [0, 6, 2], [1, 3], [2, 6, 4], [3, 5], [4, 6, 0], [1, 3, 5]]
                ),
                (0, 2, 4),
            ),
        )
    )
    out.append(
        (
            "ring3_nested",
            Island(
                graph_from_neighbors(
                    [
                        [5, 1],
                        [0, 6, 2],
                        [1, 3],
                        [2, 7, 4],
                        [3, 5],
                        [4, 8, 0],
                        [1, 7, 8],
                        [3, 8, 6],
                        [5, 6, 7],
                    ]
                ),
                (0, 2, 4),
            ),
        )
    )
    out.append(
        (
            "ring3_pentachord",
            Island(
                graph_from_neighbors([[4, 1], [0, 4, 2], [1, 3], [2, 4], [3, 0, 1]]),
                (0, 2, 3),
            ),
        )
    )
    out.append(
        (
            "ring4_hexchord",
            Island(
                graph_from_neighbors(
                    [[5, 3, 1], [0, 2], [1, 3], [2, 0, 4], [3, 5], [4, 0]]
                ),
                (1, 2, 4, 5),
            ),
        )
    )
    return out


# -- independent ring coloring oracles -----------------------------------------
#
# Both routes below enumerate differently from the production walk in
# snarklab.reducibility, which backtracks once over all stubbed components
# with one edge pinned: they share only its delete-and-suppress step.


class Extender:
    """Decides whether a single stub coloring extends into the island.

    Backtracks over island edges with the two edges at ring position j
    barred from that stub's color; nothing is pinned. A loop meets itself
    at its vertex, so it conflicts with itself and every color is barred
    from it.
    """

    def __init__(self, island):
        g = island.graph
        self.graph = g
        self.boundary = island.boundary
        self.adjacent = []
        self.loops = []
        for e in range(g.m):
            u, w = g.endpoints(e)
            near = {d[0] for x in (u, w) for d in g.incident_darts(x)}
            near.discard(e)
            self.adjacent.append(sorted(near))
            if u == w:
                self.loops.append(e)
        self.order = _propagation_order(g, list(range(g.m)))

    def extends(self, kappa):
        g = self.graph
        banned = [set() for _ in range(g.m)]
        for e in self.loops:
            banned[e].update((0, 1, 2))
        for j, v in enumerate(self.boundary):
            for e, _ in g.incident_darts(v):
                banned[e].add(kappa[j])
        color = [-1] * g.m

        def walk(i):
            if i == len(self.order):
                return True
            e = self.order[i]
            for c in (0, 1, 2):
                if c in banned[e]:
                    continue
                if any(color[f] == c for f in self.adjacent[e]):
                    continue
                color[e] = c
                if walk(i + 1):
                    return True
            color[e] = -1
            return False

        return walk(0)


def component_product_oracle(island, deleted=()):
    """Stub colorings of the cut-down island, component by component.

    Enumerates every coloring of each component of the suppressed
    island-with-stubs separately, then takes the product of the
    per-component stub restrictions.
    """
    out, pos_edge = cut_down_graph(island, deleted)
    groups = _component_restrictions(out, pos_edge)
    if groups is None:
        return set()
    found = set()
    for combo in itertools.product(*(parts for _, parts in groups)):
        arr = [0] * len(island.boundary)
        for (positions, _), chosen in zip(groups, combo):
            for j, c in zip(positions, chosen):
                arr[j] = c
        found.add(tuple(arr))
    return found


def _component_restrictions(g, pos_edge):
    """Per component: its ring positions and their realizable colorings.

    Colors edges so that the three at any degree-3 vertex are pairwise
    distinct; leaves constrain nothing. Components without ring positions
    only gate feasibility. None means some component has no coloring.
    """
    # A loop here always sits at a degree-3 vertex and uses the same color
    # on two of its three ends, so its component has no coloring at all.
    if any(is_loop(g, e) for e in range(g.m)):
        return None
    comp = list(range(g.n))

    def find(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for e in range(g.m):
        u, w = g.endpoints(e)
        ru, rw = find(u), find(w)
        if ru != rw:
            comp[max(ru, rw)] = min(ru, rw)
    edges_in = {}
    for e in range(g.m):
        edges_in.setdefault(find(g.endpoints(e)[0]), []).append(e)

    out = []
    for root in sorted(edges_in):
        edge_ids = edges_in[root]
        order = _propagation_order(g, edge_ids)
        checks = _vertex_checks(g, edge_ids)
        positions = tuple(
            sorted(j for j, e in pos_edge.items() if find(g.endpoints(e)[0]) == root)
        )
        parts = set()
        want_all = bool(positions)
        color = {}

        def walk(i):
            if i == len(order):
                parts.add(tuple(color[pos_edge[j]] for j in positions))
                return not want_all
            e = order[i]
            for c in (0, 1, 2):
                ok = True
                for other in checks[e]:
                    if color.get(other) == c:
                        ok = False
                        break
                if ok:
                    color[e] = c
                    if walk(i + 1):
                        return True
                    del color[e]
            return False

        walk(0)
        if not parts:
            return None
        if positions:
            out.append((positions, sorted(parts)))
    return out


def _propagation_order(g, edge_ids):
    """Edges of one component, breadth-first through shared vertices."""
    pending = set(edge_ids)
    by_vertex = {}
    for e in edge_ids:
        for v in set(g.endpoints(e)):
            by_vertex.setdefault(v, []).append(e)
    order = []
    while pending:
        queue = [min(pending)]
        pending.discard(queue[0])
        while queue:
            e = queue.pop(0)
            order.append(e)
            for v in set(g.endpoints(e)):
                for f in by_vertex[v]:
                    if f in pending:
                        pending.discard(f)
                        queue.append(f)
    return order


def _vertex_checks(g, edge_ids):
    """Per edge: the edges it must differ from (shared degree-3 endpoint)."""
    checks = {e: set() for e in edge_ids}
    inc = {}
    for e in edge_ids:
        for v in set(g.endpoints(e)):
            inc.setdefault(v, []).append(e)
    for v, es in inc.items():
        if g.degree(v) != 3:
            continue
        for e in es:
            for f in es:
                if f != e:
                    checks[e].add(f)
    return {e: sorted(fs) for e, fs in checks.items()}


# -- the Graph route of the C test ----------------------------------------------


def with_stubs(g: Graph, attach: Sequence[int]) -> Graph:
    """g plus one pendant stub per listed vertex, without embedding.

    g's edges keep their ids and signs; stub j is edge g.m + j, signed +1,
    running from attach[j] to the new leaf vertex g.n + j.
    """
    edges = g.edge_list + [(v, g.n + j) for j, v in enumerate(attach)]
    signs = g.sign_list + [1] * len(attach)
    return Graph(g.n + len(attach), edges, None, signs)


def contraction_edges(completion, island, pairs) -> tuple[int, ...]:
    """Island edge ids crossing the given completion edges.

    pairs name completion vertices, ring vertices included; the island
    must carry provenance from that completion.
    """
    if island.edge_origin is None:
        raise ValueError("island carries no completion provenance")
    origin_index = {orig: i for i, orig in enumerate(island.edge_origin)}
    out = []
    for u, w in pairs:
        es = completion.completion.edges_between(u, w)
        if len(es) != 1:
            raise ValueError(f"completion has no single edge {u}-{w}")
        if es[0] not in origin_index:
            raise ValueError(f"edge {u}-{w} borders the unbounded face")
        out.append(origin_index[es[0]])
    return tuple(sorted(out))


def cut_down_graph(island, deleted):
    """The island with its stubs, the edges deleted and suppressed, built
    as a Graph, plus the map from ring position to the edge now carrying
    that stub (found through the provenance)."""
    m = island.graph.m
    stubbed = with_stubs(island.graph, island.boundary)
    out, provenance, _ = delete_and_suppress_traced(stubbed, frozenset(deleted))
    pos_edge = {}
    for eid, path in provenance.items():
        for orig in path:
            if orig >= m:
                pos_edge[orig - m] = eid
    return out, pos_edge


def bridge_free_graph(g):
    """True iff no edge of g separates its component once every degree-1
    vertex is fused into one shared node."""
    node = [g.n if g.degree(v) == 1 else v for v in range(g.n)]
    pairs = [(node[u], node[w]) for u, w in g.edge_list]
    return not low_link(g.n + 1, pairs)[0]


# -- the C-search by its definition ---------------------------------------------


def c_search_oracle(island, kind, cap):
    """(kind, contraction) of check_reducibility, from the definition.

    D when the residual is empty; else C with the first edge set of at
    most cap edges, by size then position, that passes the loss guard,
    whose cut-down island has no bridge once its leaves are fused, and
    whose surviving ring colorings, taken component by component, avoid
    the residual; else none. The bridge test comes first here.
    """
    from snarklab.reducibility import maximal_consistent_residual

    residual = maximal_consistent_residual(island, kind).residual
    if not residual:
        return "D", ()
    g = island.graph
    for size in range(1, cap + 1):
        for xs in itertools.combinations(range(g.m), size):
            if 2 in loss_counts(g, xs):
                continue
            if not bridge_free_graph(cut_down_graph(island, xs)[0]):
                continue
            if not component_product_oracle(island, xs) & residual:
                return "C", xs
    return "none", ()


class Cut(NamedTuple):
    """A cut-down stubbed island as the walk reads it, on vertices
    0..n-1: the chain in slot r joins pairs[r], None marking an empty
    slot, free is the slots to walk in increasing order, and a coloring's
    ring code is base + sum(weight[r] * color[r]) over the live ones. The
    C-search reads n and free off its template; a cut-down no template
    made carries them here."""

    n: int
    pairs: list
    free: list
    weight: list
    base: int


def walkable(template, cut):
    """A cut-down of template as reducibility._cut_down and _subset_tree
    give it, (slots, weight, base) or None, as a Cut or None."""
    return cut and Cut(template.n, cut[0], template.free, *cut[1:])


def cut_down(template, xs):
    """reducibility._cut_down of the edge set xs as a Cut, or None when
    the loss guard refuses it."""
    from snarklab.reducibility import _cut_down

    return walkable(template, _cut_down(template, xs))


# whether leaf accepts the ring code of some coloring of a cut-down island
def walk_hits(cut, leaf):
    return color_walk(cut.n, cut.pairs, cut.free, leaf, cut.weight, cut.base) is not None


def template_oracle(island):
    """The reference that reducibility._template must equal, laid out in
    separate steps: a flattened rank list, a second pass over the darts
    for merge, first as a min over each edge's two ranks, and 3**j per
    ring position."""
    from snarklab.reducibility import _Template

    g = island.graph
    pairs = g.edge_list + [(v, g.n + j) for j, v in enumerate(island.boundary)]
    end = [v for ends in pairs for v in ends]
    darts: list[list[int]] = [[] for _ in range(g.n + len(island.boundary))]
    for d, v in enumerate(end):
        darts[v].append(d)
    rank = [0] * len(end)
    for r, d in enumerate([d for at_v in darts for d in at_v]):
        rank[d] = r
    merge: list[Optional[tuple[int, int]]] = [None] * len(rank)
    for a, b, c in (at_v for at_v in darts if len(at_v) == 3):
        for d, rest in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
            if rest[0] >> 1 != rest[1] >> 1:
                merge[d] = rest
    first = [min(rank[2 * e], rank[2 * e + 1]) for e in range(len(pairs))]
    slots: list[Optional[tuple[int, int]]] = [None] * len(rank)
    for e, r in enumerate(first):
        slots[r] = pairs[e] if r == rank[2 * e] else pairs[e][::-1]
    power = [0] * len(darts)
    walked = [True] * len(rank)
    weight = [0] * len(rank)
    base = 0
    for j, v in enumerate(island.boundary):
        power[v] = 3**j
        rest = merge[2 * (g.m + j)]
        if rest:
            walked[first[g.m + j]] = False
            weight[first[rest[0] >> 1]] -= power[v]
            weight[first[rest[1] >> 1]] -= power[v]
            base += 3 * power[v]
        else:
            weight[first[g.m + j]] += power[v]
    far = [0] * len(rank)
    far[::2] = range(1, len(rank), 2)
    far[1::2] = range(0, len(rank), 2)
    free = list(itertools.compress(range(len(rank)), walked))
    return _Template(len(darts), pairs, end, rank, slots, first, merge, far, power, free, weight, base)


def plain_c_search(island, kind, cap):
    """check_reducibility's verdict, stats included, from the plain loop
    its C-search was before it walked the subset tree: every edge set of
    at most cap edges, by size in itertools.combinations order, is cut
    down from the template by reducibility._cut_down, walked, and
    bridge-tested on a miss."""
    from snarklab.reducibility import (
        ReducibilityVerdict,
        SearchStats,
        _bridge_free,
        _decompose,
        _residual_test,
    )

    decomposition, template = _decompose(island, kind)
    used = decomposition.max_level
    if min(decomposition.rep_level) >= 0:
        return ReducibilityVerdict("D", (), used)
    in_residual = _residual_test(decomposition)
    subsets = walked = bridge_tests = 0
    for size in range(1, cap + 1):
        for xs in itertools.combinations(range(island.graph.m), size):
            subsets += 1
            cut = cut_down(template, xs)
            if cut is None:
                continue
            walked += 1
            if walk_hits(cut, in_residual):
                continue
            bridge_tests += 1
            if _bridge_free(cut.n, [ends for ends in cut.pairs if ends]):
                return ReducibilityVerdict("C", xs, used, SearchStats(subsets, walked, bridge_tests))
    return ReducibilityVerdict("none", (), used, SearchStats(subsets, walked, bridge_tests))


# -- parity colorings and theta fits ---------------------------------------------


def is_parity_coloring(kappa):
    counts = [kappa.count(c) for c in COLORS]
    return len({c % 2 for c in counts}) == 1


def parity_colorings(k):
    """All colorings of k ring positions whose color classes share a parity."""
    if k < 2:
        raise ValueError("ring size must be at least 2")
    return [
        kappa
        for kappa in itertools.product(COLORS, repeat=k)
        if is_parity_coloring(kappa)
    ]


def parity_classes(k):
    """Parity colorings grouped into orbits under color permutation."""
    groups = {}
    for kappa in parity_colorings(k):
        rep = min(
            tuple(perm[c] for c in kappa)
            for perm in itertools.permutations(COLORS)
        )
        groups.setdefault(rep, []).append(kappa)
    return [tuple(sorted(groups[rep])) for rep in sorted(groups)]


def match_span(matches):
    """The ring positions covered by a signed matching."""
    return {x for (a, b), _ in matches for x in (a, b)}


def theta_fit(kappa, matches, theta):
    """True iff the matching covers exactly the non-theta positions and each
    match joins equal colors exactly when its sign is positive."""
    ms = tuple(matches)
    covered = match_span(ms)
    non_theta = {i + 1 for i, c in enumerate(kappa) if c != theta}
    if covered != non_theta:
        return False
    for (a, b), mu in ms:
        if (kappa[a - 1] == kappa[b - 1]) != (mu == 1):
            return False
    return True


def fit_neighbors(kappa, matches, theta):
    """All parity colorings that theta-fit the same signed matching.

    This is the set reachable from kappa by Kempe changes along the matching;
    it always contains kappa itself.
    """
    ms = tuple(matches)
    if not is_parity_coloring(kappa):
        raise ValueError("kappa is not a parity coloring")
    if not theta_fit(kappa, ms, theta):
        raise ValueError("kappa does not theta-fit the matching")
    return {
        k2 for k2 in parity_colorings(len(kappa)) if theta_fit(k2, ms, theta)
    }


# -- the level decomposition by fit enumeration ------------------------------------


def fit_levels(level0, k, kind):
    """Levels and residual of the decomposition, built level by level.

    level0 is the set of ring colorings that extend into the island. A
    coloring joins the next level when for some color every matching of
    its other positions has a fit in an earlier level; fits are enumerated
    per signed matching. Returns (levels, residual) as frozensets.
    """
    structs_for = {0: ((),)}
    for r in range(1, k // 2 + 1):
        structs_for[r] = tuple(sorted(get_kempe(r, kind)))
    fits = {}
    pending = [kappa for kappa in parity_colorings(k) if kappa not in level0]
    levels = [frozenset(level0)]
    known = set(level0)
    while pending:
        added = [
            kappa for kappa in pending if _joins(kappa, known, structs_for, k, fits)
        ]
        if not added:
            break
        levels.append(frozenset(added))
        known.update(added)
        taken = set(added)
        pending = [kappa for kappa in pending if kappa not in taken]
    return tuple(levels), frozenset(pending)


def _fits(k, theta, signed):
    """All colorings of k positions that theta-fit the signed matching.

    Unmatched positions take theta; a positive match shares one of the two
    other colors, a negative match splits them. The empty matching fits
    exactly the constant coloring.
    """
    first, second = [c for c in COLORS if c != theta]
    base = [theta] * k
    out = []

    def walk(i):
        if i == len(signed):
            out.append(tuple(base))
            return
        (p, q), mu = signed[i]
        if mu == 1:
            for c in (first, second):
                base[p - 1] = base[q - 1] = c
                walk(i + 1)
        else:
            base[p - 1], base[q - 1] = first, second
            walk(i + 1)
            base[p - 1], base[q - 1] = second, first
            walk(i + 1)
        base[p - 1] = base[q - 1] = theta

    walk(0)
    return tuple(out)


def signed_lift(kappa, positions, struct):
    """Place an abstract matching on the non-theta positions and read the
    signs off the coloring: equal colors mean +1."""
    out = []
    for a, b in struct:
        p, q = positions[a - 1], positions[b - 1]
        mu = 1 if kappa[p - 1] == kappa[q - 1] else -1
        out.append(((p, q), mu))
    return tuple(out)


def _joins(kappa, known, structs_for, k, fits):
    """True when some color lets every matching reach a known coloring."""
    for theta in COLORS:
        positions = tuple(i + 1 for i, c in enumerate(kappa) if c != theta)
        structs = structs_for[len(positions) // 2]
        good = True
        for struct in structs:
            signed = signed_lift(kappa, positions, struct)
            key = (theta, signed)
            if key not in fits:
                fits[key] = _fits(k, theta, signed)
            if not any(nb in known for nb in fits[key]):
                good = False
                break
        if good:
            return True
    return False


# -- matching shape predicates -----------------------------------------------------


def overlaps(m1: Match, m2: Match) -> bool:
    """True iff the two matches interleave around the ring order."""
    a, b = sorted(m1)
    c, d = sorted(m2)
    if a == b or c == d:
        raise ValueError("a match joins two distinct positions")
    return a < c < b < d or c < a < d < b


def _check_disjoint(pairs):
    seen = set()
    for a, b in pairs:
        if a in seen or b in seen or a == b:
            raise ValueError("matches must be pairwise disjoint on positions")
        seen.update((a, b))


def is_planar_matching(pairs):
    """No two matches overlap."""
    ps = canonical_matching(pairs)
    _check_disjoint(ps)
    return not any(overlaps(p, q) for p, q in itertools.combinations(ps, 2))


def is_projective_matching(pairs):
    """The matches involved in any overlap must overlap pairwise.

    Splitting off that bundle as the through-crosscap part leaves a part
    that overlaps nothing, which is the defining partition.
    """
    ps = canonical_matching(pairs)
    _check_disjoint(ps)
    busy = [
        p
        for p in ps
        if any(overlaps(p, q) for q in ps if q != p)
    ]
    return all(overlaps(p, q) for p, q in itertools.combinations(busy, 2))


# -- embedded-graph kernel oracles ----------------------------------------------


def graph_record(g):
    """Vertex count, edge list, rotations and signs of an embedded graph."""
    return (g.n, g.edge_list, [g.rotation(v) for v in range(g.n)], g.sign_list)


def fingerprint(records):
    """sha256 over the reprs of the records, in order."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr(r).encode())
    return h.hexdigest()


def graph_from_neighbors_oracle(neighbor_lists, negative_pairs=()):
    """graph_from_neighbors by scanning every vertex pair: the quadratic
    construction it replaced, kept to pin edge numbering, rotations,
    signs and error messages."""
    n = len(neighbor_lists)
    nbrs = [list(r) for r in neighbor_lists]
    for v, row in enumerate(nbrs):
        for w in row:
            if not (0 <= w < n):
                raise ValueError("neighbor out of range")
    edges = []
    dart_at = {}
    for u in range(n):
        for w in range(u, n):
            pu = [i for i, x in enumerate(nbrs[u]) if x == w]
            if u == w:
                if len(pu) % 2:
                    raise ValueError(f"vertex {u}: unmatched loop end")
                for t in range(0, len(pu), 2):
                    e = len(edges)
                    edges.append((u, u))
                    dart_at[(u, pu[t])] = (e, 0)
                    dart_at[(u, pu[t + 1])] = (e, 1)
            else:
                pw = [i for i, x in enumerate(nbrs[w]) if x == u]
                if len(pu) != len(pw):
                    raise ValueError(f"inconsistent adjacency between {u} and {w}")
                for t in range(len(pu)):
                    e = len(edges)
                    edges.append((u, w))
                    dart_at[(u, pu[t])] = (e, 0)
                    dart_at[(w, pw[t])] = (e, 1)
    rotations = [[dart_at[(v, i)] for i in range(len(nbrs[v]))] for v in range(n)]
    signs = [1] * len(edges)
    for u, v in negative_pairs:
        hit = [e for e, (a, b) in enumerate(edges) if {a, b} == {u, v} or (u == v and a == b == u)]
        free = [e for e in hit if signs[e] == 1]
        if not free:
            raise ValueError(f"no remaining edge between {u} and {v} to sign")
        signs[free[0]] = -1
    return Graph(n, edges, rotations, signs)


def without_oracle(g, vertices=(), edges=()):
    """Embedded subgraph after removing vertices and edges, with the
    vertex relabeling, rebuilt from neighbour rows: the removal that
    remove_embedded replaced, which numbers edges as graph_from_neighbors
    does and so agrees with it on simple graphs built that way."""
    dead_v = set(vertices)
    dead_e = set(edges)
    keep = [v for v in range(g.n) if v not in dead_v]
    relab = {v: i for i, v in enumerate(keep)}
    rows = []
    negs = []
    for v in keep:
        row = []
        for e, k in g.rotation(v):
            w = g.endpoints(e)[1 - k]
            if e in dead_e or w in dead_v:
                continue
            row.append(relab[w])
            if g.sign(e) == -1 and v < w:
                negs.append((relab[v], relab[w]))
        rows.append(row)
    return graph_from_neighbors(rows, negs), relab


def insert_edge(g: Graph, u: int, slot_u: int, v: int, slot_v: int, sign: int) -> Graph:
    """g plus a new last edge u-v with the given sign, its ends spliced
    into the rotations of u and v at the given slots."""
    rot = [g.rotation(v) for v in range(g.n)]
    ne = g.m
    rot[u] = rot[u][:slot_u] + ((ne, 0),) + rot[u][slot_u:]
    rot[v] = rot[v][:slot_v] + ((ne, 1),) + rot[v][slot_v:]
    return Graph(g.n, g.edge_list + [(u, v)], rot, g.sign_list + [sign])


def route_chord_oracle(
    sub: Graph, ve: int, vf: int, ring_edges: set[int]
) -> Optional[tuple[int, int, int]]:
    """(slot_ve, slot_vf, sign) of the first chord ve-vf, in slot and then
    sign order, whose corners share a face and whose trial build stays
    projective and keeps one face on the ring edges; None when none does.
    This is the trial-build router that FaceTrace.chords replaced."""
    corners = FaceTrace(sub).corners()
    for slot_e, slot_f, sign in itertools.product((0, 1), (0, 1), (1, -1)):
        if corners[ve][slot_e - 1] != corners[vf][slot_f - 1]:
            continue
        cand = FaceTrace(insert_edge(sub, ve, slot_e, vf, slot_f, sign))
        on_ring = [walk for walk in cand.walks if {d[0] for d in walk} <= ring_edges]
        if cand.chi == 1 and len(on_ring) == 1:
            return slot_e, slot_f, sign
    return None


def flag_perms_oracle(g):
    """The flag involutions s0 and s1 of FaceTrace.involutions, flag by flag
    from a dart-position lookup."""
    rot = [g.rotation(v) for v in range(g.n)]
    pos = {d: (v, i) for v, r in enumerate(rot) for i, d in enumerate(r)}
    s0 = [0] * (4 * g.m)
    s1 = [0] * (4 * g.m)
    for e in range(g.m):
        for k in (0, 1):
            for t in (0, 1):
                f = 4 * e + 2 * k + t
                t0 = (1 - t) if g.sign(e) == 1 else t
                s0[f] = 4 * e + 2 * (1 - k) + t0
                v, i = pos[(e, k)]
                step = 1 if t == 0 else -1
                e2, k2 = rot[v][(i + step) % len(rot[v])]
                s1[f] = 4 * e2 + 2 * k2 + (1 - t)
    return s0, s1


def compositions(total, parts):
    """Every way to write total as parts non-negative integers, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def opposites_covered(y, x):
    """Every cycle edge or the edge opposite it carries a new vertex."""
    return all(x[i] + x[i + y] >= 1 for i in range(y))


def arcs_covered(y, x):
    """Every run of s consecutive cycle edges, 2 <= s < y, carries at
    least s - 1 new vertices."""
    n = 2 * y
    return all(
        sum(x[(i + j) % n] for j in range(s)) >= s - 1
        for s in range(2, y)
        for i in range(n)
    )


def pi_patterns_oracle(y, k):
    """The pi patterns by generate and filter, in lexicographic order."""
    return [
        x
        for x in compositions(k, 2 * y)
        if opposites_covered(y, x) and arcs_covered(y, x)
    ]


# -- standard graphs only the tests use ------------------------------------------
#
# prism and k33 carry abstract rotations.


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


def k33() -> Graph:
    """K_{3,3} (abstract rotations)."""
    nbrs = [[3, 4, 5], [3, 4, 5], [3, 4, 5], [0, 1, 2], [0, 1, 2], [0, 1, 2]]
    return graph_from_neighbors(nbrs)


# -- the projective Petersen map by construction ----------------------------------
#
# graphs.petersen() writes the hemi-dodecahedron out as a literal. These
# build it instead: the icosahedron's antipodal quotient is K6 on the
# projective plane, and its dual is the Petersen map with the literal's
# numbering. abstract_petersen is the graph alone, as an isomorphism
# reference.


def abstract_petersen() -> Graph:
    """The Petersen graph (abstract rotations, all signs +1)."""
    nbrs = []
    for i in range(5):
        nbrs.append([(i + 1) % 5, 5 + i, (i - 1) % 5])
    for i in range(5):
        nbrs.append([5 + (i + 2) % 5, i, 5 + (i - 2) % 5])
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


# -- the color walk as a recursion ------------------------------------------------
#
# graphs.color_walk runs one flat loop over the conflict lists it plans. These
# are the recursive walks it replaced: recursive_color_walk pins the first
# edge to color 0 and a second edge that meets it to color 1, as the flat
# loop does, and is the reference for its leaf sequence. The first-edge
# walk pins the first edge only: it meets each color orbit twice, once
# with each order of colors 1 and 2, and is the reference for what the
# second pin leaves out. walk_nodes counts the nodes of an exhaustive walk
# in a given order, and densest_first_oracle is the brute-force reference
# for the order that the exhaustive walks in reducibility plan.


# the colors free under each set of taken color bits
_FREE = [tuple(c for c in (0, 1, 2) if not taken >> c & 1) for taken in range(8)]


def conflicts_oracle(
    pairs: Sequence[tuple[int, int]], order: Sequence[int]
) -> Optional[list[tuple[int, ...]]]:
    """Per edge id, the edges before it in order that share a vertex with
    it, those at its first end first; None when order holds a loop."""
    placed: dict[int, list[int]] = {}
    earlier: list[tuple[int, ...]] = [()] * len(pairs)
    for e in order:
        u, w = pairs[e]
        if u == w:
            return None
        at_u = placed.setdefault(u, [])
        at_w = placed.setdefault(w, [])
        earlier[e] = tuple(at_u + at_w)
        at_u.append(e)
        at_w.append(e)
    return earlier


def recursive_color_walk(
    pairs: Sequence[tuple[int, int]], order: Sequence[int], leaf: Callable[[list[int]], bool]
) -> bool:
    """graphs.color_walk as a recursion, one call per node: the same
    pins and the same leaf order. leaf gets the live color list, which
    color_walk returns when that leaf stops it."""
    earlier = conflicts_oracle(pairs, order)
    if earlier is None:
        return False
    color = [0] * len(pairs)
    last = len(order)

    def walk(i: int) -> bool:
        if i == last:
            return leaf(color)
        e = order[i]
        taken = 0
        for f in earlier[e]:
            taken |= _BIT[color[f]]
        for c in _FREE[taken]:
            color[e] = c
            if walk(i + 1):
                return True
        return False

    if last < 2:
        return leaf(color)
    second = order[1]
    for c in (1,) if earlier[second] else _FREE[0]:
        color[second] = c
        if walk(2):
            return True
    return False


def first_edge_color_walk(
    n: int,
    pairs: Sequence[Optional[tuple[int, int]]],
    order: Iterable[int],
    leaf: Callable[[int], object],
    weight: Sequence[int],
    base: int,
) -> Optional[list[int]]:
    """graphs.color_walk with the first edge pinned to color 0 only, so
    leaf meets every orbit of colorings under the six color permutations
    at least once but not every member. leaf gets base + sum(weight[e] *
    color[e]) over the walked edges, summed at the leaf, and the walk
    returns the color list at the first leaf that returns True, or None
    when none does or the order holds a loop."""
    order = [e for e in order if pairs[e]]
    earlier = conflicts_oracle(pairs, order)
    if earlier is None:
        return None
    color = [0] * len(pairs)
    last = len(order)

    def walk(i: int) -> bool:
        if i == last:
            return leaf(base + sum(weight[e] * color[e] for e in order))
        e = order[i]
        taken = 0
        for f in earlier[e]:
            taken |= _BIT[color[f]]
        for c in _FREE[taken] if i else (0,):
            color[e] = c
            if walk(i + 1):
                return True
        return False

    return color if walk(0) else None


def walk_nodes(n: int, pairs: Sequence[Optional[tuple[int, int]]], order: Iterable[int]) -> int:
    """The nodes of an exhaustive graphs.color_walk over the entries of
    order that pairs names: every color it gives an entry past the first,
    which the first pin fixes, with a second entry that meets the first
    pinned to color 1. 0 when the order holds a loop or at most one entry."""
    order = [e for e in order if pairs[e]]
    earlier = conflicts_oracle(pairs, order)
    if earlier is None:
        return 0
    color = [0] * len(pairs)

    def walk(i: int) -> int:
        if i >= len(order):
            return 0
        e = order[i]
        taken = 0
        for f in earlier[e]:
            taken |= _BIT[color[f]]
        count = 0
        for c in (1,) if i == 1 and earlier[e] else _FREE[taken]:
            color[e] = c
            count += 1 + walk(i + 1)
        return count

    return walk(1)


def densest_first_oracle(pairs: Sequence[Optional[tuple[int, int]]], order: Sequence[int]) -> list[int]:
    """reducibility._densest_first by brute force: each step scores every
    untaken entry of order that pairs names by the ends of taken entries
    at each of its two ends, so a loop counts its vertex twice, and takes
    the first of the highest."""
    rest = [e for e in order if pairs[e]]
    ends: dict[int, int] = {}
    out = []
    while rest:
        best = max(rest, key=lambda e: ends.get(pairs[e][0], 0) + ends.get(pairs[e][1], 0))
        rest.remove(best)
        out.append(best)
        for v in pairs[best]:
            ends[v] = ends.get(v, 0) + 1
    return out


# -- orbit naming by tuple key ------------------------------------------------------


@lru_cache(maxsize=None)
def orbit_index(k: int) -> dict[tuple[int, ...], int]:
    """Every parity coloring of k positions, mapped to the index of its
    orbit's representative in orbit_representatives(k), built by permuting
    the representatives' colors: the reference for rings.orbit_codes. Its
    first keys are the representatives themselves, in order."""
    reps = orbit_representatives(k)
    index = dict(zip(reps, range(len(reps))))
    raws = [bytes(kappa) for kappa in reps]
    # COLOR_PERMUTATIONS[0] is the identity
    for table in COLOR_PERMUTATIONS[1:]:
        index.update(zip([tuple(raw.translate(table)) for raw in raws], range(len(raws))))
    return index


def ring_code(kappa) -> int:
    """The ring code sum(kappa[j] * 3**j) of a ring coloring."""
    return sum(c * 3**j for j, c in enumerate(kappa))


# -- accessors only the tests read -------------------------------------------------


def is_loop(g: Graph, e: int) -> bool:
    u, v = g.endpoints(e)
    return u == v


def level_of(cs, kappa) -> Optional[int]:
    """The index of the ColorableSet level holding kappa, or None."""
    for i, level in enumerate(cs.levels):
        if kappa in level:
            return i
    return None


def interior_vertices(conf) -> list[int]:
    """A Configuration's vertices off its unbounded face, ascending: those
    that already have their target degree."""
    return [v for v in range(conf.n) if conf.gamma[v] == conf.graph.degree(v)]


# -- Kempe chains in an edge-colored host -------------------------------------------


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

    def next_dart(v: int, want: int, avoid: int) -> Optional[Dart]:
        for e, k in g._inc[v]:
            if e != avoid and coloring[e] == want:
                return e, k
        return None

    u0, v0 = g.endpoints(start)
    chain = [start]
    # forward from v0
    v, prev = v0, start
    while True:
        want = a if coloring[prev] == b else b
        d = next_dart(v, want, prev)
        if d is None:
            closed = False
            break
        e, k = d
        if e == start:
            closed = True
            break
        chain.append(e)
        v = g.endpoints(e)[1 - k]
        prev = e
    if not closed:
        # backward from u0
        v, prev = u0, start
        while True:
            want = a if coloring[prev] == b else b
            d = next_dart(v, want, prev)
            if d is None:
                break
            e, k = d
            chain.insert(0, e)
            v = g.endpoints(e)[1 - k]
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
