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
bond once. One mask search answers both of its connectivity questions.

color_pipeline reduces 2- and 3-cuts until none is left and hands every
remaining piece to three_edge_color, the package's one 3-edge-coloring
search; is_petersen_like follows the same reductions looking for a
Petersen piece. Both walk the graph's reduction tree, which cuts each
piece at its first cut of size at most 3. enumerate_cyclic_cuts grows
it whole, once per live graph, from the first search at least that
deep, and keeps it in a weak-keyed memo: _tree makes that search unless
the caller did, so an earlier k = 5 enumeration leaves both reducers no
search. A 3-cut piece reads its cuts off its parent's; only a 2-cut
piece is searched again. An inner node keeps its one cut and its two
sides, a terminal below the root its piece and the root no graph, so
the tree holds no inner piece and dies with its graph. A terminal
piece on at most SMALL vertices, most often a triangle's side closed
into a K4, is colored once per process: _small_colorings keeps
three_edge_color's answer per labelled edge list, of which a piece of
at most six edges has finitely many, and _reduce_side, numbering a side
and its gadget alike every time, makes few.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence
from weakref import WeakKeyDictionary

from .graphs import (
    EdgeColoring,
    Graph,
    is_proper_coloring,
    neighbor_rows,
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


@dataclass(eq=False, slots=True)
class _Node:
    """A node of a reduction tree: an inner node keeps its piece's first
    cyclic cut of at most LOW edges and both its sides reduced, with their
    nodes; a terminal below the root, with no such cut, keeps its piece.
    The root is keyed by its graph, so it keeps no graph."""

    cut: Optional[CyclicCut] = None
    sides: tuple[tuple[SideReduction, _Node], ...] = ()
    graph: Optional[Graph] = None


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
    nor does a bridged graph, which the cut layer refuses.
    """
    cuts = _search_cuts(g, k_max)
    if k_max >= LOW and g not in _trees and (not cuts or len(cuts[0].edges) > 1):
        low = [c for c in cuts if len(c.edges) <= LOW]
        _trees[g] = _grow(g, low) if low else _Node()
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
    connected side S contains a cycle exactly when |delta(S)| <= |S|, so the
    cut is kept when that holds for both sides and V - S is connected and
    non-empty: one mask search asks this, and first whether the graph is
    connected. Cuts come sorted by (size, edges), side_a holding vertex 0.
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
    out: list[CyclicCut] = []

    def bits(mask: int) -> list[int]:
        found = []
        while mask:
            low = mask & -mask
            found.append(low.bit_length() - 1)
            mask ^= low
        return found

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
        if 0 < spent <= min(size, n - size) and connected(everything ^ s):
            out.append(CyclicCut(tuple(bits(cut)), tuple(bits(s)), tuple(bits(everything ^ s))))

    grow(1, 0, nbr_mask[0] & ~1, edge_mask[0], 0, 0, 0, 1)
    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


@dataclass(frozen=True)
class SideReduction:
    """How one side of a low-cut reduction maps to its host.

    edge_to_original maps side edge ids to original edge ids, with None for
    the gadget edges that replace the cut; gadget[i] is the side edge that
    stands for cut edge i, so a 2-cut's one gadget edge is named twice.
    """

    edge_to_original: tuple[Optional[int], ...]
    gadget: tuple[int, ...]


def _reduce_side(g: Graph, cut: CyclicCut, index: dict[int, int]) -> tuple[SideReduction, Graph]:
    """One side of the cut with the cut edges replaced by a gadget: an
    edge for a 2-cut, a new vertex for a 3-cut, with its map to g. index
    maps the side's i-th least vertex to i, and the host edges inside the
    side keep their id order. The piece carries no embedding."""
    k = len(cut.edges)
    if k not in (2, 3):
        raise ValueError("cut size out of range")
    host = g.edge_list
    eto, edges = [], []
    for e, (u, w) in enumerate(host):
        if u in index and w in index:
            eto.append(e)
            edges.append((index[u], index[w]))
    n, m = len(index), len(edges)
    # each cut edge's end on this side
    ends = [index[u] if u in index else index[w] for u, w in (host[e] for e in cut.edges)]
    added = [(ends[0], ends[1])] if k == 2 else [(a, n) for a in ends]
    red = SideReduction(
        edge_to_original=tuple(eto) + (None,) * len(added),
        gadget=(m, m) if k == 2 else (m, m + 1, m + 2),
    )
    return red, Graph(n + (k == 3), edges + added)


def _piece_cuts(
    cuts: Sequence[CyclicCut], cut: CyclicCut, index: dict[int, int], red: SideReduction, piece: Graph
) -> list[CyclicCut]:
    """enumerate_cyclic_cuts(piece, 3) for red, piece = _reduce_side(h, cut,
    index), derived from cuts = enumerate_cyclic_cuts(h, 3).

    A 3-cut piece is h with the other side B, connected and cyclic,
    contracted to its last vertex z. Its cyclic cuts are the cuts of h that
    leave B whole, with B read as z: lifting a piece cut puts B back in
    place of z and keeps its edges. Such a cut stays cyclic exactly when z's
    side still has at least as many vertices as cut edges; this drops cut
    itself, whose z side is z alone. A 2-cut piece is searched afresh, as
    a cut through its gadget edge stands for a 4-cut of h; the piece lives
    in h's reduction tree, so it gets no tree of its own.
    """
    if len(cut.edges) == 2:
        return _search_cuts(piece, LOW)
    z = len(index)
    edge_index = {f: i for i, f in enumerate(red.edge_to_original) if f is not None}
    edge_index.update(zip(cut.edges, red.gadget))
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


def _grow(h: Graph, cuts: Sequence[CyclicCut]) -> _Node:
    """h's node, grown whole: h's first cut and both its sides reduced,
    each with its piece's node, down to pieces with no cut, which their
    nodes keep; cuts are h's cyclic cuts of at most LOW edges. An inner
    piece is dropped once its sides are grown."""
    if not cuts:
        return _Node(graph=h)
    cut = cuts[0]
    sides = []
    for side in (cut.side_a, cut.side_b):
        index = {v: j for j, v in enumerate(side)}
        red, piece = _reduce_side(h, cut, index)
        sides.append((red, _grow(piece, _piece_cuts(cuts, cut, index, red, piece))))
    return _Node(cut, tuple(sides))


def _tree(g: Graph) -> _Node:
    """g's tree, grown by enumerate_cyclic_cuts(g, LOW) unless g was
    enumerated that deep before, once g is checked bridgeless: a bridge
    leaves two connected sides S with |delta(S)| = 1 <= |S|, so it is a
    cyclic 1-cut and sorts first, and such a graph gets no tree."""
    node = _trees.get(g)
    if node is None:
        cuts = enumerate_cyclic_cuts(g, LOW)
        if cuts and len(cuts[0].edges) == 1:
            raise BridgeError("graph has a bridge")
        node = _trees[g]
    return node


def merge_colorings(
    cut: CyclicCut,
    colorings: tuple[EdgeColoring, EdgeColoring],
    reductions: tuple[SideReduction, SideReduction],
) -> EdgeColoring:
    """Combine colorings of the two reduced sides of cut into one of their host.

    reductions are the two sides of the cut, reduced as _reduce_side
    reduces cut.side_a and cut.side_b, which the colorings color. The
    second side's colors are permuted so the cut edges agree; cut parity
    makes this always possible for 2- and 3-cuts, and is checked. A vertex
    a side's coloring leaves improper stays so in the host, so
    color_pipeline's one check of its result finds it.
    """
    (ra, rb), (ca, cb) = reductions, colorings
    fa, fb = [ca[e] for e in ra.gadget], [cb[e] for e in rb.gadget]
    if len(cut.edges) == 2:
        if fa[0] != fa[1] or fb[0] != fb[1]:
            raise AssertionError("2-cut parity violated")
        perm = {c: c for c in (0, 1, 2)}
        perm[fb[0]], perm[fa[0]] = fa[0], fb[0]
    else:
        if len(set(fa)) != 3 or len(set(fb)) != 3:
            raise AssertionError("3-cut parity violated")
        perm = dict(zip(fb, fa))

    out = {f: ca[e] for e, f in enumerate(ra.edge_to_original) if f is not None}
    out.update((f, perm[cb[e]]) for e, f in enumerate(rb.edge_to_original) if f is not None)
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


def _is_petersen(h: Graph) -> bool:
    """Whether h is the Petersen graph, by girth.

    The Petersen graph is the unique cubic graph on 10 vertices with girth
    5, the (3,5)-cage. Within distance 2 of a vertex of a cubic graph lie
    at most 1 + 3 + 6 = 10 vertices, and exactly 10 when no loop, parallel
    edge, triangle or 4-cycle passes through it.
    """
    if h.n != 10 or h.m != 15 or not h.is_cubic():
        return False
    adj = neighbor_rows(h)
    return all(len({v, *adj[v], *(x for w in adj[v] for x in adj[w])}) == 10 for v in range(10))


def is_petersen_like(g: Graph) -> tuple[bool, ReductionTrace]:
    """True iff low-cut reductions lead to a piece isomorphic to the Petersen graph.

    Reduction is greedy on the smallest available cut, and only terminal
    pieces are compared with Petersen. The trace records the path to the
    Petersen piece when found, else the leftmost fully reduced path. The
    search walks g's reduction tree, which color_pipeline shares (_tree).
    """

    def search(h: Graph, node: _Node) -> tuple[bool, tuple[ReductionStep, ...], Graph]:
        if not node.sides:
            return _is_petersen(h), (), h
        cut = node.cut
        fallback = None
        for (_, child), side in zip(node.sides, (cut.side_a, cut.side_b)):
            ok, steps, terminal = search(child.graph, child)
            steps = (ReductionStep(cut_edges=cut.edges, side_vertices=side),) + steps
            if ok:
                return True, steps, terminal
            if fallback is None:
                fallback = (False, steps, terminal)
        return fallback

    ok, steps, terminal = search(g, _tree(g))
    return ok, ReductionTrace(steps=steps, terminal=terminal)


# -- coloring pipeline -------------------------------------------------------


# the most vertices a terminal piece may have for its coloring to be kept
SMALL = 4

# per process: three_edge_color of each terminal piece on at most SMALL
# vertices, None included, keyed by (n, edge list)
_small_colorings: dict[tuple[int, tuple[tuple[int, int], ...]], Optional[EdgeColoring]] = {}


@dataclass(frozen=True)
class PipelineResult:
    coloring: Optional[EdgeColoring]
    obstruction: Optional[Graph]
    obstruction_is_petersen: bool

    @property
    def succeeded(self) -> bool:
        return self.coloring is not None


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

    def solve(h: Graph, node: _Node) -> PipelineResult:
        if not node.sides:
            if h.n > SMALL:
                coloring = three_edge_color(h)
            else:
                key = (h.n, tuple(h.edge_list))
                try:
                    stored = _small_colorings[key]
                except KeyError:
                    stored = _small_colorings[key] = three_edge_color(h)
                coloring = None if stored is None else dict(stored)
            if coloring is None:
                return PipelineResult(None, h, _is_petersen(h))
            return PipelineResult(coloring, None, False)
        colorings = []
        for _, child in node.sides:
            sub = solve(child.graph, child)
            if not sub.succeeded:
                return sub
            colorings.append(sub.coloring)
        reductions = tuple(red for red, _ in node.sides)
        return PipelineResult(merge_colorings(node.cut, tuple(colorings), reductions), None, False)

    result = solve(g, _tree(g))
    if result.coloring is not None and not is_proper_coloring(g, result.coloring):
        raise AssertionError("color_pipeline built an improper coloring")
    return result
