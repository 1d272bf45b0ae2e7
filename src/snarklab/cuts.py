"""Cyclic edge cuts, low-cut reductions, Petersen-core detection, merging.

A cyclic cut is an edge set whose removal leaves two components that both
contain cycles. Inclusion-minimal cyclic cuts are exactly the bonds with two
cycle-containing sides, which is what the enumerator returns. Cuts of size 2
and 3 reduce: each side becomes a smaller cubic graph with the cut replaced
by an edge or a new vertex, and colorings of the sides merge back.

The enumerator grows the side of each bond that holds vertex 0 on int
masks: vertex masks for the side, the excluded vertices and the frontier,
and an edge mask for the cut, so a leaf reads its cut edges off the mask
in id order. It branches next to the excluded side first, which spends
cut edges early; any branch order read off the search state finds each
bond once. One mask search checks that the graph is connected, and a
leaf's far side only when the least cut found does not prove it: on a
3-connected graph, no leaf of at most 5 edges. Ids come from one
per-process table, a tuple per W-bit chunk value, both sides' at once.

color_pipeline reduces 2- and 3-cuts until none is left and hands every
remaining piece to three_edge_color, the package's one 3-edge-coloring
search; is_petersen_like follows the same reductions looking for a
Petersen piece. Both walk the graph's reduction tree, which cuts each
piece at its first cut of size at most 3. enumerate_cyclic_cuts grows
it whole, once per live graph, from the first search at least that
deep, and keeps it in a weak-keyed memo: _tree makes that search unless
the caller did, so an earlier k = 5 enumeration leaves both reducers no
search. A piece is its vertex count and edge tuple, (n, edges), made a
Graph only to be searched, walked or reported: a 3-cut piece reads its
cuts off its parent's; only a 2-cut piece is searched again. An inner
node keeps its one cut and its two sides, a terminal below the root its
piece and the root nothing, so the tree holds no inner piece and dies
with its graph. A terminal piece on at most SMALL vertices, most often
a triangle's side closed into a K4, is colored once per process:
_small_colorings keeps three_edge_color's answer per piece, of which
one of at most six edges has finitely many, and _reduce_side, numbering
a side and its gadget alike every time, makes few.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence
from weakref import WeakKeyDictionary

from .graphs import (
    EdgeColoring,
    Graph,
    is_proper_coloring,
    three_edge_color,
)


class BridgeError(ValueError):
    """Raised when an operation requires a bridgeless graph."""


@dataclass(frozen=True)
class CyclicCut:
    """A cyclic cut: its edges and its two sides, each in increasing order."""

    edges: tuple[int, ...]
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


# the largest cut the reductions take
LOW = 3

# per process: _ID_ROWS[j][c] is the tuple of ids W*j + i, in increasing
# order, for the set bits i of the W-bit chunk value c, grown to hold the
# largest id listed: ceil(ids / W) rows of 2^W tuples
W = 6
_ID_ROWS: list[tuple[tuple[int, ...], ...]] = []


def _id_rows(size: int) -> list[tuple[tuple[int, ...], ...]]:
    """The shared id table, grown to list the ids 0..size-1."""
    for j in range(len(_ID_ROWS), -(-size // W)):
        _ID_ROWS.append(tuple(tuple(W * j + i for i in range(W) if c >> i & 1) for c in range(1 << W)))
    return _ID_ROWS


def _ids(mask: int) -> tuple[int, ...]:
    """The set bits of mask in increasing order, one table entry per W-bit
    chunk; _id_rows must have grown the table to mask's top bit."""
    rows, chunk = _ID_ROWS, (1 << W) - 1
    out: tuple[int, ...] = ()
    j = 0
    while mask:
        out += rows[j][mask & chunk]
        mask >>= W
        j += 1
    return out


def _split(mask: int, whole: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """_ids(mask) and _ids(whole ^ mask), for mask within whole, listed in
    one pass over the chunks."""
    rows, chunk = _ID_ROWS, (1 << W) - 1
    a: tuple[int, ...] = ()
    b, j = a, 0
    while whole:
        c = mask & chunk
        a, b = a + rows[j][c], b + rows[j][whole & chunk ^ c]
        mask, whole, j = mask >> W, whole >> W, j + 1
    return a, b


# a piece of a reduction tree: its vertex count and its edges
Piece = tuple[int, tuple[tuple[int, int], ...]]


@dataclass(eq=False, slots=True)
class _Node:
    """A node of a reduction tree: an inner node keeps its piece's first
    cyclic cut of at most LOW edges and both its sides reduced, each as
    the host edges it keeps (_reduce_side) with its piece's node; a
    terminal below the root, with no such cut, keeps its piece (n,
    edges), no Graph. The root is keyed by its graph and keeps nothing."""

    cut: Optional[CyclicCut] = None
    sides: tuple[tuple[tuple[int, ...], _Node], ...] = ()
    piece: Optional[Piece] = None


# per live graph: the root of its reduction tree, grown whole
_trees: WeakKeyDictionary[Graph, _Node] = WeakKeyDictionary()


def enumerate_cyclic_cuts(g: Graph, k_max: int) -> list[CyclicCut]:
    """All inclusion-minimal cyclic cuts of size at most k_max, sorted by
    (size, edges), as _search_cuts finds them; every call searches and
    returns a new list the caller owns.

    A search with k_max >= LOW of a graph with no tree yet grows its
    reduction tree whole from the cuts of at most LOW edges it found, and
    stores it keyed weakly by the Graph object. Errors store nothing, so a
    tree serves only a graph that passed the cubic and connectivity checks;
    nor does a bridged graph, which the cut layer refuses (_tree): a bridge
    leaves two connected sides S with |delta(S)| = 1 <= |S|, so it is a
    cyclic 1-cut and sorts first.
    """
    cuts = _search_cuts(g, k_max)
    if k_max >= LOW and g not in _trees and (not cuts or len(cuts[0].edges) > 1):
        low = [c for c in cuts if len(c.edges) <= LOW]
        _trees[g] = _grow((g.n, g.edge_list), low) if low else _Node()
    return cuts


def _search_cuts(g: Graph, k_max: int) -> list[CyclicCut]:
    """enumerate_cyclic_cuts(g, k_max), searched afresh.

    Minimal cyclic cuts are the bonds whose two sides both contain cycles.
    The search grows the connected side S that holds vertex 0. S, the
    excluded set X and the frontier N(S) - (S | X) are int vertex masks, and
    delta(S) is an int edge mask into which each vertex joining S xors its
    edges, so edges inside S, loops too, drop out. A frontier vertex is
    either excluded, which spends its edges into S, or included, which
    spends its edges into X; a branch dies once the spent edges exceed k_max
    or can no longer pass the cycle test below, and a node with one live
    branch loops instead of recursing. The branch takes the least frontier
    vertex next to X, else the least one: any choice read off the node's
    state leaves each bond at one leaf, as a leaf's X is N(S) - S. A leaf
    has an empty frontier and its cut is delta(S). As the graph is cubic, a
    connected side S contains a cycle exactly when |delta(S)| <= |S|, so a
    leaf is a candidate when that holds for both sides and delta(S) is not
    empty, and its cut is kept when V - S is also connected.

    That last test searches V - S only where it can fail. Let lam be 3 or
    the least candidate's cut size, whichever is smaller; lam is at most
    the edge connectivity L. A least edge cut of the connected cubic graph
    is a bond. If it has at most 2 edges, neither side is a tree, since a
    tree side T has |delta(T)| = |T| + 2 >= 3; so it is a cyclic bond and
    a candidate, unless it has more than k_max edges, when no candidate
    exists. Every candidate's cut is an edge cut, of at least L edges. If
    V - S has r >= 2 components, each sends an edge cut of at least L
    edges into S, so |delta(S)| >= 2 L >= 2 lam: a candidate with fewer
    cut edges keeps V - S connected unsearched. On a 3-connected graph no
    cut of at most 5 edges is searched. Cuts come sorted by (size, edges),
    side_a holding vertex 0, their ids listed from the shared table.
    """
    if not g.is_cubic():
        raise ValueError("graph is not cubic")
    n = g.n
    nbr_mask = [0] * n
    edge_mask = [0] * n
    for e, (u, w) in enumerate(g.edge_list):
        edge_mask[u] ^= 1 << e
        edge_mask[w] ^= 1 << e
        nbr_mask[u] |= 1 << w
        nbr_mask[w] |= 1 << u
    everything = (1 << n) - 1
    # (|delta(S)|, delta(S), S) per candidate leaf
    leaves: list[tuple[int, int, int]] = []

    def connected(mask: int) -> bool:
        seen = todo = mask & -mask
        while todo:
            low = todo & -todo
            todo ^= low
            new = nbr_mask[low.bit_length() - 1] & mask & ~seen
            seen |= new
            todo |= new
        return seen == mask

    if not connected(everything):
        raise ValueError("graph is disconnected")
    if not n:  # no vertex, so no cycle to cut
        return []

    def grow(s: int, x: int, front: int, cut: int, x_edges: int, xadj: int, spent: int, size: int) -> None:
        while front:
            # each frontier vertex will add at least 1 to spent or to |S|,
            # and a leaf needs spent <= n - |S|
            if spent + size + front.bit_count() > n:
                return
            pick = front & xadj or front
            low = pick & -pick
            v = low.bit_length() - 1
            edges = edge_mask[v]
            into_s = (edges & cut).bit_count()
            into_x = (edges & x_edges).bit_count()
            front ^= low
            if spent + into_x > k_max:
                if spent + into_s > k_max:
                    return
                x, x_edges, xadj, spent = x | low, x_edges | edges, xadj | nbr_mask[v], spent + into_s
                continue
            if spent + into_s <= k_max:
                grow(s, x | low, front, cut, x_edges | edges, xadj | nbr_mask[v], spent + into_s, size)
            s |= low
            front = (front | nbr_mask[v]) & ~(s | x)
            cut ^= edges
            spent += into_x
            size += 1
        # spent is |delta(S)|, which is 0 only when S is all of V
        if 0 < spent <= min(size, n - size):
            leaves.append((spent, cut, s))

    grow(1, 0, nbr_mask[0] & ~1, edge_mask[0], 0, 0, 0, 1)
    if not leaves:
        return []
    # edge ids run past vertex ids, as m = 3n/2; no two leaves share a cut,
    # so the sort compares no S
    _id_rows(g.m)
    found = sorted((spent, _ids(cut), s) for spent, cut, s in leaves)
    lam = min(3, found[0][0])
    return [
        CyclicCut(edges, *_split(s, everything))
        for spent, edges, s in found
        if spent < 2 * lam or connected(everything ^ s)
    ]


def _reduce_side(
    host: Sequence[tuple[int, int]], cut: CyclicCut, index: dict[int, int]
) -> tuple[tuple[int, ...], Piece]:
    """One side of the cut of the host with these edges, the cut edges
    replaced by a gadget: an edge for a 2-cut, a new vertex for a 3-cut.
    index maps the side's i-th least vertex to i. Returns kept, the ids of
    the host edges inside the side in increasing order, and the piece
    (n, edges): its edge e < len(kept) is host edge kept[e], and the
    gadget edges follow, cut edge i's being len(kept) + i, save that a
    2-cut's one gadget edge len(kept) stands for both its cut edges."""
    k = len(cut.edges)
    if k not in (2, 3):
        raise ValueError("cut size out of range")
    kept, edges = [], []
    for e, (u, w) in enumerate(host):
        if u in index and w in index:
            kept.append(e)
            edges.append((index[u], index[w]))
    n = len(index)
    # each cut edge's end on this side
    ends = [index[u] if u in index else index[w] for u, w in (host[e] for e in cut.edges)]
    added = [(ends[0], ends[1])] if k == 2 else [(a, n) for a in ends]
    return tuple(kept), (n + (k == 3), tuple(edges + added))


def _piece_cuts(
    cuts: Sequence[CyclicCut], cut: CyclicCut, index: dict[int, int], kept: tuple[int, ...], piece: Piece
) -> list[CyclicCut]:
    """enumerate_cyclic_cuts(Graph(*piece), 3) for kept, piece =
    _reduce_side(h.edge_list, cut, index), derived from cuts =
    enumerate_cyclic_cuts(h, 3).

    A 3-cut piece is h with the other side B, connected and cyclic,
    contracted to its last vertex z. Its cyclic cuts are the cuts of h that
    leave B whole, with B read as z: lifting a piece cut puts B back in
    place of z and keeps its edges, host edge kept[e] as piece edge e and
    cut edge i as gadget edge len(kept) + i. Such a cut stays cyclic
    exactly when z's side still has at least as many vertices as cut
    edges; this drops cut itself, whose z side is z alone. A 2-cut piece
    is searched afresh as a Graph, as a cut through its gadget edge stands
    for a 4-cut of h; the piece lives in h's reduction tree, so it gets no
    tree of its own.
    """
    if len(cut.edges) == 2:
        return _search_cuts(Graph(*piece), LOW)
    z = len(index)
    edge_index = {f: i for i, f in enumerate(kept + cut.edges)}
    out = []
    for d in cuts:
        a = [index[v] for v in d.side_a if v in index]
        b = [index[v] for v in d.side_b if v in index]
        if len(a) < len(d.side_a):
            if len(b) < len(d.side_b):
                continue
            a.append(z)
        else:
            b.append(z)
        if len(d.edges) > min(len(a), len(b)):
            continue
        a, b = (b, a) if a[0] else (a, b)
        out.append(CyclicCut(tuple(sorted(edge_index[e] for e in d.edges)), tuple(a), tuple(b)))
    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


def _grow(h: Piece, cuts: Sequence[CyclicCut]) -> _Node:
    """h's node, grown whole: h's first cut and both its sides reduced,
    each with its piece's node, down to pieces with no cut, which their
    nodes keep; cuts are h's cyclic cuts of at most LOW edges. An inner
    piece is dropped once its sides are grown."""
    if not cuts:
        return _Node(piece=h)
    cut = cuts[0]
    sides = []
    for side in (cut.side_a, cut.side_b):
        index = {v: j for j, v in enumerate(side)}
        kept, piece = _reduce_side(h[1], cut, index)
        sides.append((kept, _grow(piece, _piece_cuts(cuts, cut, index, kept, piece))))
    return _Node(cut, tuple(sides))


def _tree(g: Graph) -> _Node:
    """g's tree, grown by enumerate_cyclic_cuts(g, LOW) unless g was
    enumerated that deep before. A graph that search answers but grows no
    tree for has a bridge, and is refused."""
    if g not in _trees:
        enumerate_cyclic_cuts(g, LOW)
        if g not in _trees:
            raise BridgeError("graph has a bridge")
    return _trees[g]


def merge_colorings(
    cut: CyclicCut,
    colorings: tuple[EdgeColoring, EdgeColoring],
    kept: tuple[tuple[int, ...], tuple[int, ...]],
) -> EdgeColoring:
    """Combine colorings of the two reduced sides of cut into one of their host.

    kept are the host edges that cut.side_a and cut.side_b keep, as
    _reduce_side reduces them, and the colorings color their pieces, in
    which the gadget edges follow the kept ones. The second side's colors
    are permuted so the cut edges agree. A 2-cut's one gadget edge gives
    both its cut edges one color; cut parity makes a 3-cut's gadget edges
    take three colors, and is checked. A vertex a side's coloring leaves
    improper stays so in the host, so color_pipeline's one check of its
    result finds it.
    """
    (ka, kb), (ca, cb) = kept, colorings
    if len(cut.edges) == 2:
        a, b = ca[len(ka)], cb[len(kb)]
        perm = {c: c for c in (0, 1, 2)}
        perm[b], perm[a] = a, b
        fa = (a, a)
    else:
        fa = [ca[len(ka) + i] for i in range(3)]
        fb = [cb[len(kb) + i] for i in range(3)]
        if len(set(fa)) != 3 or len(set(fb)) != 3:
            raise AssertionError("3-cut parity violated")
        perm = dict(zip(fb, fa))

    out = {f: ca[e] for e, f in enumerate(ka)}
    out.update((f, perm[cb[e]]) for e, f in enumerate(kb))
    out.update(zip(cut.edges, fa))
    return out


# -- Petersen-like membership ------------------------------------------------


@dataclass(frozen=True)
class ReductionStep:
    cut_edges: tuple[int, ...]
    side_vertices: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    terminal: Graph


def _is_petersen(piece: tuple[int, Sequence[tuple[int, int]]]) -> bool:
    """Whether the multigraph (n, edges) is the Petersen graph, by girth.

    The Petersen graph is the unique cubic graph on 10 vertices with girth
    5, the (3,5)-cage. Within distance 2 of a vertex of a cubic graph lie
    at most 1 + 3 + 6 = 10 vertices, and exactly 10 when no loop, parallel
    edge, triangle or 4-cycle passes through it.
    """
    n, edges = piece
    if n != 10 or len(edges) != 15:
        return False
    # a loop is listed once, so with 15 edges all rows of 3 mean cubic
    adj = [[u + w - v for u, w in edges if v in (u, w)] for v in range(10)]
    cubic = all(len(a) == 3 for a in adj)
    return cubic and all(len({v, *adj[v], *(x for w in adj[v] for x in adj[w])}) == 10 for v in range(10))


def is_petersen_like(g: Graph) -> tuple[bool, ReductionTrace]:
    """True iff low-cut reductions lead to a piece isomorphic to the Petersen graph.

    Reduction is greedy on the smallest available cut, and only terminal
    pieces are compared with Petersen. The trace records the path to the
    Petersen piece when found, else the leftmost fully reduced path. The
    search walks g's reduction tree, which color_pipeline shares (_tree).
    """

    def search(node: _Node) -> tuple[bool, tuple[tuple[CyclicCut, tuple[int, ...]], ...], Optional[Piece]]:
        if not node.sides:
            return _is_petersen(node.piece or (g.n, g.edge_list)), (), node.piece
        cut = node.cut
        fallback = None
        for (_, child), side in zip(node.sides, (cut.side_a, cut.side_b)):
            ok, path, piece = search(child)
            path = ((cut, side),) + path
            if ok:
                return True, path, piece
            if fallback is None:
                fallback = (False, path, piece)
        return fallback

    ok, path, piece = search(_tree(g))
    steps = tuple(ReductionStep(cut_edges=cut.edges, side_vertices=side) for cut, side in path)
    return ok, ReductionTrace(steps=steps, terminal=g if piece is None else Graph(*piece))


# -- coloring pipeline -------------------------------------------------------


# the most vertices a terminal piece may have for its coloring to be kept
SMALL = 4

# per process: three_edge_color of each terminal piece on at most SMALL
# vertices, None included, keyed by the piece
_small_colorings: dict[Piece, Optional[EdgeColoring]] = {}


@dataclass(frozen=True)
class PipelineResult:
    coloring: Optional[EdgeColoring]
    obstruction: Optional[Graph]

    @property
    def succeeded(self) -> bool:
        return self.coloring is not None

    @property
    def obstruction_is_petersen(self) -> bool:
        return self.obstruction is not None and _is_petersen((self.obstruction.n, self.obstruction.edge_list))


def color_pipeline(g: Graph) -> PipelineResult:
    """Color by recursive cut decomposition, or report the obstruction.

    Cyclic 2- and 3-cuts are reduced and the side colorings merged; every
    piece left without one goes to three_edge_color. The first piece it
    cannot color is the obstruction, flagged when it is the Petersen graph.
    The walk is over g's reduction tree, which is_petersen_like shares
    (_tree); the colorings are merged afresh on every call, a piece on at
    most SMALL vertices is colored once per process (_small_colorings) and
    handed out as a copy, and a coloring is checked once, on g, before it
    is returned.
    """

    def solve(node: _Node) -> PipelineResult:
        if not node.sides:
            # the root's own graph, else one built for the piece when it is walked or reported
            piece, h = (node.piece, None) if node.piece else ((g.n, tuple(g.edge_list)), g)
            if piece[0] > SMALL:
                coloring = three_edge_color(h := h or Graph(*piece))
            else:
                try:
                    stored = _small_colorings[piece]
                except KeyError:
                    stored = _small_colorings[piece] = three_edge_color(h := h or Graph(*piece))
                coloring = None if stored is None else dict(stored)
            if coloring is None:
                return PipelineResult(None, h or Graph(*piece))
            return PipelineResult(coloring, None)
        colorings = []
        for _, child in node.sides:
            sub = solve(child)
            if not sub.succeeded:
                return sub
            colorings.append(sub.coloring)
        kept = tuple(k for k, _ in node.sides)
        return PipelineResult(merge_colorings(node.cut, tuple(colorings), kept), None)

    result = solve(_tree(g))
    if result.coloring is not None and not is_proper_coloring(g, result.coloring):
        raise AssertionError("color_pipeline built an improper coloring")
    return result
