"""Coloring analysis across small cyclic cuts.

A cut of size 4 or 5 splits a cubic graph into two sides. Each side,
together with the cut edges as stubs, induces a set of cut colorings;
their structure carries the obstructions used to rule such cuts out.
For size 5 that structure is the coloring graph on the five cut
positions, a frozenset of position pairs (i, j) with i < j. This module
computes those sets exactly, checks the argument conclusions on them,
builds the auxiliary completion graphs behind the individual
arguments, and samples random planar sides to sweep them over.

Cut colorings are stored up to global color permutation, as partitions
of the cut positions 0..k-1 in the supplied edge order.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .configurations import Island, check_ring_boundary, validate_island
from .graphs import (
    FaceTrace,
    Graph,
    graph_from_neighbors,
    k4,
    neighbor_rows,
    remove_embedded,
)
from .families import dihedral_canon
from .reducibility import ring_extension_oracle

# the three ways to pair the four positions of a 4-cut
FOUR_CUT_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

GADGETS = ("tripod", "butterfly", "pentagon", "pentagram")


def partition_by_color(colors: Sequence[int]) -> frozenset[frozenset[int]]:
    """Positions grouped by color, quotienting out the color names."""
    classes: dict[int, list[int]] = {}
    for pos, c in enumerate(colors):
        classes.setdefault(c, []).append(pos)
    return frozenset(frozenset(v) for v in classes.values())


def _negatives(g: Graph) -> list[tuple[int, int]]:
    return [g.endpoints(e) for e in range(g.m) if g.sign(e) == -1]


def _check_boundary(side: Graph, boundary: Sequence[int], k: int) -> None:
    if len(boundary) != k:
        raise ValueError(f"expected {k} boundary vertices, got {len(boundary)}")
    check_ring_boundary(side, boundary)


def side_coloring_set(side: Graph, boundary: Sequence[int]) -> set[frozenset[frozenset[int]]]:
    """All cut colorings a side realizes, over boundary positions.

    The side carries one stub per degree-2 boundary vertex; a coloring
    of side plus stubs restricts to the stubs and is recorded as a
    partition of the positions.
    """
    if len(boundary) not in (4, 5):
        raise ValueError("cut size must be 4 or 5")
    kappas = ring_extension_oracle(Island(side, tuple(boundary)))
    return {partition_by_color(kappa) for kappa in kappas}


# -- the graph on a 5-cut's edges -------------------------------------------


def side_coloring_graph(side: Graph, boundary: Sequence[int]) -> frozenset:
    """Realizable singleton pairs of a size-5 cut: the position pairs
    (i, j), i < j, such that the partition {{i}, {j}, rest} is realizable
    on the side. By the parity lemma every color class of a 5-cut
    coloring is odd, so each realizable partition splits 1 + 1 + 3."""
    if len(boundary) != 5:
        raise ValueError("coloring graphs need a cut of size 5")
    parts = side_coloring_set(side, boundary)
    return frozenset(tuple(sorted(min(c) for c in part if len(c) == 1)) for part in parts)


# -- argument-level checks on a coloring graph --------------------------------

# checks whose derivations need only a colorable planar side with the
# cut on its outer face; safe to assert over arbitrary such sides
ASSERTED_LEMMAS = ("degree_one_free", "triangle", "butterfly", "pentagon")

# checks whose derivations also consume global minimality of a host
# counterexample; reported for diagnosis, never asserted
DIAGNOSTIC_LEMMAS = (
    "pentagram",
    "degrees_even",
    "isolated_at_most_one",
    "two_step",
)


def verify_LX_lemmas(pairs: frozenset) -> dict[str, bool]:
    """Pass/fail per named check on side_coloring_graph's pairs, reading
    positions mod 5; see ASSERTED_LEMMAS for which of them hold
    unconditionally."""

    def has(i: int, j: int) -> bool:
        return (min(i % 5, j % 5), max(i % 5, j % 5)) in pairs

    deg = [sum(i in p for p in pairs) for i in range(5)]
    triangle = all(
        has(i, j) or has(j, k) or has(k, i)
        for i in range(5)
        for j in range(i + 1, 5)
        for k in range(j + 1, 5)
    )
    butterfly = all(
        has(i + 1, i + 3) or has(i + 1, i + 4) or has(i + 2, i + 3) or has(i + 2, i + 4)
        for i in range(5)
    )
    two_step = all(
        has(i, i + 2) and not has(i, i - 2)
        for i in range(5)
        if has(i, i + 1) and not has(i, i - 1)
    )
    return {
        "degree_one_free": all(d != 1 for d in deg),
        "triangle": triangle,
        "butterfly": butterfly,
        "pentagon": any(has(i, i + 1) for i in range(5)),
        "pentagram": any(has(i, i + 2) for i in range(5)),
        "degrees_even": all(d % 2 == 0 for d in deg),
        "isolated_at_most_one": sum(1 for d in deg if d == 0) <= 1,
        "two_step": two_step,
    }


# -- completion graphs behind the 4-cut argument ------------------------------


def _closed(
    side: Graph, hubs: Sequence[Sequence[int]], chords: Sequence[tuple[int, int]] = ()
) -> Graph:
    """side completed by new vertices and chords. hubs lists the rows of
    the new vertices, which take ids side.n, side.n + 1, ...; chords join
    pairs of side vertices. Each new end goes last in its side vertex's
    rotation, so the rotations are not claimed to be plane or projective.
    """
    rows = neighbor_rows(side)
    for u, row in enumerate(hubs, side.n):
        for x in row:
            if x < side.n:
                rows[x].append(u)
    for x, y in chords:
        rows[x].append(y)
        rows[y].append(x)
    return graph_from_neighbors(rows + [list(row) for row in hubs], _negatives(side))


def build_4cut_variants(side: Graph, boundary: Sequence[int]) -> list[Graph]:
    """The six cubic completions of a 4-cut side.

    The first three close the boundary with two chords, one per pairing
    in FOUR_CUT_PAIRINGS; the last three route the two pairs of the same
    pairings through two new adjacent vertices. A chord between boundary
    vertices that are already adjacent makes a parallel edge.
    """
    _check_boundary(side, boundary, 4)
    b = list(boundary)
    u, v = side.n, side.n + 1
    pairings = [((b[p], b[q]), (b[r], b[s])) for (p, q), (r, s) in FOUR_CUT_PAIRINGS]
    return [_closed(side, (), pairs) for pairs in pairings] + [
        _closed(side, ([p, q, v], [r, s, u])) for (p, q), (r, s) in pairings
    ]


# -- completion graphs behind the 5-cut argument ------------------------------


def _leaf_ring(side: Graph, boundary: Sequence[int], offset: int) -> Graph:
    """side with one leaf per boundary vertex, the leaves joined offset
    apart: one apart closes a pentagon in the plane, two apart a pentagram
    through the crosscap. Leaves take ids side.n + position and all open
    into one face that holds the rest of the boundary.

    A leaf at slot s of a degree-2 vertex joins the face of corner s - 1
    and splits no face, so one trace of the side picks every slot. Each
    of the two ways to turn the leaves' links is traced until one gives
    the surface.
    """
    trace = FaceTrace(side)
    on_face = [{side.dart_vertex(d) for d in walk} for walk in trace.walks]
    corners = trace.corners()
    rows = neighbor_rows(side)
    face = None
    for idx, v in enumerate(boundary):
        rest = set(boundary[idx + 1 :])
        for slot in (1, 2):
            f = corners[v][slot - 1]
            if face in (None, f) and rest <= on_face[f]:
                break
        else:
            raise ValueError("boundary vertices do not share a face in order")
        face = f
        rows[v].insert(slot, side.n + idx)
    ring = [(v, side.n + (i + offset) % 5, side.n + (i - offset) % 5) for i, v in enumerate(boundary)]
    negs = _negatives(side) + ([(side.n + i, a) for i, (_, a, _) in enumerate(ring)] if offset == 2 else [])
    for flip in (0, 1):
        leaves = [[v, a, b] if flip == 0 else [v, b, a] for v, a, b in ring]
        g = graph_from_neighbors(rows + leaves, negs)
        if FaceTrace(g).chi == (2 if offset == 1 else 1):
            return g
    raise ValueError("no leaf linking matches the requested surface")


def build_5cut_gadgets(side: Graph, boundary: Sequence[int], gadget: str) -> Graph:
    """The named cubic completion of a 5-cut side.

    tripod: one new vertex joined to positions 0-2, a chord across
    positions 3-4 (a parallel edge when those two are already adjacent).
    butterfly: two new vertices over the spans next to position 0, tied
    back to it through a third. pentagon: five new vertices joined
    consecutively around the boundary face (plane embedding). pentagram:
    the same five joined two apart through a crosscap in the boundary
    face (projective embedding). A caller picks another trio or anchor by
    reordering boundary.
    """
    _check_boundary(side, boundary, 5)
    b = list(boundary)
    if gadget == "tripod":
        return _closed(side, (b[:3],), [(b[3], b[4])])
    if gadget == "butterfly":
        w = side.n + 2
        return _closed(side, ([b[1], b[2], w], [b[3], b[4], w], [b[0], side.n, side.n + 1]))
    if gadget == "pentagon":
        return _leaf_ring(side, b, 1)
    if gadget == "pentagram":
        return _leaf_ring(side, b, 2)
    raise ValueError(f"unknown gadget {gadget!r}; pick one of {GADGETS}")


# -- the second-coloring argument on 4-cut sides -------------------------------


def no_singleton_side(side: Graph, boundary: Sequence[int]) -> bool:
    """A colorable 4-cut side never realizes exactly one cut class.

    The classes are the exact set side_coloring_set computes. An
    uncolorable side passes vacuously with zero classes.
    """
    _check_boundary(side, boundary, 4)
    return len(side_coloring_set(side, boundary)) != 1


# -- random planar sides for the argument sweeps -------------------------------


def random_planar_cubic(rng: random.Random, expansions: int) -> Graph:
    """Random simple cubic plane graph grown from K4 by repeatedly
    subdividing two edges of a face and joining the new vertices."""
    trace = FaceTrace(k4())
    for _ in range(expansions):
        trace = _expand(trace, rng)
    return trace.graph


def _expand(trace: FaceTrace, rng: random.Random) -> FaceTrace:
    """One face join on trace.graph, returned as the grown map's trace:
    its chi check is also the next join's face pick."""
    g = trace.graph
    walk = trace.walks[rng.randrange(len(trace.walks))]
    edges = [d[0] for d in walk]
    e1 = rng.choice(edges)
    e2 = rng.choice([e for e in edges if e != e1])
    # g's rows with new vertices put on e1 and e2 as subdivide_embedded puts them
    rows = neighbor_rows(g)
    new = {e1: g.n + (e1 > e2), e2: g.n + (e2 > e1)}
    for e in sorted(new):
        for k, w in enumerate(g.endpoints(e)):
            rows[w][g.incident_darts(w).index((e, k))] = new[e]
        rows.append(list(g.endpoints(e)))
    # on an orientable map a chord keeps the sphere exactly when both its
    # corners lie on one face; slots 1 come first, and slot 0 is the row's end
    slots = trace.chords(e1, e2)
    if slots:
        sa, sb = slots[-1][:2]
        a, b = new[e1], new[e2]
        rows[a].insert(sa or 2, b)
        rows[b].insert(sb or 2, a)
        grown = FaceTrace(graph_from_neighbors(rows))
        if grown.chi == 2:
            return grown
    raise RuntimeError("face join failed to stay planar")


# a side is carved from a cubic plane graph grown by this many face joins,
# drawn afresh up to this many times
SIDE_EXPANSIONS = 5
SIDE_TRIES = 200


def random_planar_side(rng: random.Random, k: int) -> tuple[Graph, tuple[int, ...]]:
    """Random planar side with k stub positions on its boundary face.

    k = 4 removes two adjacent vertices from a random cubic plane graph;
    k = 5 removes one vertex plus an edge of the opened face. Returns
    the side and its degree-2 vertices in boundary face order.
    """
    if k not in (4, 5):
        raise ValueError("cut size must be 4 or 5")
    for _ in range(SIDE_TRIES):
        g = random_planar_cubic(rng, SIDE_EXPANSIONS)
        got = _carve_side(g, k, rng)
        if got is not None:
            return got
    raise RuntimeError("side sampling kept hitting degenerate deletions")


def _carve_side(
    g: Graph, k: int, rng: random.Random
) -> Optional[tuple[Graph, tuple[int, ...]]]:
    if k == 4:
        e = rng.randrange(g.m)
        u, v = g.endpoints(e)
        if set(g.neighbors(u)) & set(g.neighbors(v)):
            return None
        side, _, _ = remove_embedded(g, vertices=(u, v))
    else:
        w = rng.randrange(g.n)
        opened, new_id, _ = remove_embedded(g, vertices=(w,))
        trace = FaceTrace(opened)
        hosting = trace.through(new_id[x] for x in g.neighbors(w))
        if len(hosting) != 1:
            return None
        pool = sorted(
            {
                d[0]
                for d in trace.walks[hosting[0]]
                if all(opened.degree(x) == 3 for x in opened.endpoints(d[0]))
            }
        )
        if not pool:
            return None
        side, _, _ = remove_embedded(opened, edges=(rng.choice(pool),))
    return _read_boundary(side)


def _read_boundary(side: Graph) -> Optional[tuple[Graph, tuple[int, ...]]]:
    two = {v for v in range(side.n) if side.degree(v) == 2}
    orders = []
    trace = FaceTrace(side)
    for i in trace.through(two):
        on = [v for v in map(side.dart_vertex, trace.walks[i]) if v in two]
        if len(on) == len(two):
            orders.append(tuple(on))
    if not orders or len({dihedral_canon(o) for o in orders}) != 1:
        return None
    try:
        validate_island(Island(side, orders[0]))
    except ValueError:
        return None
    return side, orders[0]
