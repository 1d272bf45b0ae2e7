"""Coloring analysis across small cyclic cuts.

A cut of size 4 or 5 splits a cubic graph into two sides. Each side,
together with the cut edges as stubs, induces a set of cut colorings;
their structure (for size 5, a graph on the five cut edges) carries
the obstructions used to rule such cuts out. This module computes
those sets exactly, builds the auxiliary completion graphs behind the
individual arguments, and sweeps the argument conclusions over random
planar sides.

Cut colorings are stored up to global color permutation, as partitions
of the cut positions 0..k-1 in the supplied edge order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .configurations import Island, validate_island
from .graphs import (
    Graph,
    faces_through,
    graph_from_neighbors,
    k4,
    remove_embedded,
    subdivide_embedded,
)
from .families import _dihedral_canon
from .reducibility import ring_extension_oracle

FColoring = frozenset

# every coloring of a size-4 cut: all four edges alike, or two matched
# pairs, one class per way of pairing the positions
FOUR_CUT_CLASSES = frozenset(
    {
        frozenset({frozenset({0, 1, 2, 3})}),
        frozenset({frozenset({0, 1}), frozenset({2, 3})}),
        frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        frozenset({frozenset({0, 3}), frozenset({1, 2})}),
    }
)

# position spans of the added structure in the six 4-cut completions:
# first three join the spans by chords, last three through a bridged pair
# of new vertices
FOUR_CUT_PAIRINGS = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)

GADGETS = ("tripod", "butterfly", "pentagon", "pentagram")


def partition_by_color(colors: Sequence[int]) -> FColoring:
    """Positions grouped by color, quotienting out the color names."""
    classes: dict[int, list[int]] = {}
    for pos, c in enumerate(colors):
        classes.setdefault(c, []).append(pos)
    return frozenset(frozenset(v) for v in classes.values())


def _rows(g: Graph) -> list[list[int]]:
    return [[g.other_end(d[0], v) for d in g.incident_darts(v)] for v in range(g.n)]


def _negatives(g: Graph) -> list[tuple[int, int]]:
    return [g.endpoints(e) for e in range(g.m) if g.sign(e) == -1]


def _check_boundary(side: Graph, boundary: Sequence[int], k: int) -> None:
    if len(boundary) != k:
        raise ValueError(f"expected {k} boundary vertices, got {len(boundary)}")
    two = sorted(v for v in range(side.n) if side.degree(v) == 2)
    if sorted(boundary) != two:
        raise ValueError("boundary must list the degree-2 vertices once each")


def side_coloring_set(side: Graph, boundary: Sequence[int]) -> set[FColoring]:
    """All cut colorings a side realizes, over boundary positions.

    The side carries one stub per degree-2 boundary vertex; a coloring
    of side plus stubs restricts to the stubs and is recorded as a
    partition of the positions.
    """
    _check_boundary(side, boundary, len(boundary))
    if len(boundary) not in (4, 5):
        raise ValueError("cut size must be 4 or 5")
    kappas = ring_extension_oracle(Island(side, tuple(boundary)))
    return {partition_by_color(kappa) for kappa in kappas}


# -- the graph on a 5-cut's edges -------------------------------------------


@dataclass(frozen=True)
class ColoringGraph:
    """Realizable singleton pairs of a size-5 cut.

    Vertices are the five cut positions; positions i and j are joined
    when the partition {{i}, {j}, rest} is realizable on the side.
    """

    edges: frozenset

    def has(self, i: int, j: int) -> bool:
        return (min(i % 5, j % 5), max(i % 5, j % 5)) in self.edges

    def degree(self, i: int) -> int:
        return sum(1 for p in self.edges if i % 5 in p)


def _pairs_of(classes: set[FColoring]) -> ColoringGraph:
    pairs = set()
    for part in classes:
        sizes = sorted(len(c) for c in part)
        if sizes != [1, 1, 3]:
            raise ValueError("size-5 cut coloring must split 1 + 1 + 3")
        i, j = sorted(min(c) for c in part if len(c) == 1)
        pairs.add((i, j))
    return ColoringGraph(frozenset(pairs))


def side_coloring_graph(side: Graph, boundary: Sequence[int]) -> ColoringGraph:
    if len(boundary) != 5:
        raise ValueError("coloring graphs need a cut of size 5")
    return _pairs_of(side_coloring_set(side, boundary))


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


def verify_LX_lemmas(L: ColoringGraph) -> dict[str, bool]:
    """Pass/fail per named check; see ASSERTED_LEMMAS for which of them
    hold unconditionally."""
    deg = [L.degree(i) for i in range(5)]
    triangle = all(
        L.has(i, j) or L.has(j, k) or L.has(k, i)
        for i in range(5)
        for j in range(i + 1, 5)
        for k in range(j + 1, 5)
    )
    butterfly = all(
        L.has(i + 1, i + 3) or L.has(i + 1, i + 4) or L.has(i + 2, i + 3) or L.has(i + 2, i + 4)
        for i in range(5)
    )
    two_step = all(
        L.has(i, i + 2) and not L.has(i, i - 2)
        for i in range(5)
        if L.has(i, i + 1) and not L.has(i, i - 1)
    )
    return {
        "degree_one_free": all(d != 1 for d in deg),
        "triangle": triangle,
        "butterfly": butterfly,
        "pentagon": any(L.has(i, i + 1) for i in range(5)),
        "pentagram": any(L.has(i, i + 2) for i in range(5)),
        "degrees_even": all(d % 2 == 0 for d in deg),
        "isolated_at_most_one": sum(1 for d in deg if d == 0) <= 1,
        "two_step": two_step,
    }


# -- completion graphs behind the 4-cut argument ------------------------------


def build_4cut_variants(side: Graph, boundary: Sequence[int]) -> list[Graph]:
    """The six cubic completions of a 4-cut side.

    The first three close the boundary with two chords, one per way of
    pairing the four positions; the last three route both pairs through
    two new adjacent vertices. Spans per index follow FOUR_CUT_PAIRINGS.
    A chord between boundary vertices that are already adjacent makes a
    parallel edge. Each new end goes last in its vertex's rotation, so
    the rotations are not claimed to be plane or projective.
    """
    _check_boundary(side, boundary, 4)
    base = _rows(side)
    negs = _negatives(side)
    b = list(boundary)
    out = []
    for idx, ((p, q), (r, s)) in enumerate(FOUR_CUT_PAIRINGS):
        rows = [list(row) for row in base]
        if idx < 3:
            for x, y in ((p, q), (r, s)):
                rows[b[x]].append(b[y])
                rows[b[y]].append(b[x])
        else:
            u, v = side.n, side.n + 1
            rows[b[p]].append(u)
            rows[b[q]].append(u)
            rows[b[r]].append(v)
            rows[b[s]].append(v)
            rows.append([b[p], b[q], v])
            rows.append([b[r], b[s], u])
        out.append(graph_from_neighbors(rows, negs))
    return out


# -- completion graphs behind the 5-cut argument ------------------------------


def _attach_leaves(side: Graph, boundary: Sequence[int]) -> Graph:
    """One stub leaf per boundary vertex, all opening into one face that
    holds the rest of the boundary; leaves take ids side.n + position.

    A leaf at slot s of a degree-2 vertex joins the face of corner s - 1
    and splits no face, so one trace of the side picks every slot.
    """
    on_face = [{side.dart_vertex(d) for d in walk} for walk in side.face_walks()]
    corners = side.corner_faces()
    rows = _rows(side)
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
        rows.append([v])
    return graph_from_neighbors(rows, _negatives(side))


def _link_leaves(
    stubbed: Graph, n: int, offset: int, negative: bool, chi: int
) -> Graph:
    leaves = [n + i for i in range(5)]
    base = _rows(stubbed)
    negs = _negatives(stubbed)
    links = [(leaves[i], leaves[(i + offset) % 5]) for i in range(5)]
    for flip in (0, 1):
        rows = [list(r) for r in base]
        for i, leaf in enumerate(leaves):
            a = leaves[(i + offset) % 5]
            b = leaves[(i - offset) % 5]
            rows[leaf] = rows[leaf] + ([a, b] if flip == 0 else [b, a])
        g2 = graph_from_neighbors(rows, negs + (links if negative else []))
        if g2.euler_characteristic() == chi:
            return g2
    raise ValueError("no leaf linking matches the requested surface")


def build_5cut_gadgets(
    side: Graph,
    boundary: Sequence[int],
    gadget: str,
    anchor: int = 0,
    trio: tuple[int, int, int] = (0, 1, 2),
) -> Graph:
    """The named cubic completion of a 5-cut side.

    tripod: one new vertex joined to the trio positions, a chord across
    the remaining two (a parallel edge when those two are already
    adjacent). butterfly: two new vertices over the spans next
    to the anchor, tied back to it through a third. pentagon: five new
    vertices joined consecutively around the boundary face (plane
    embedding). pentagram: the same five joined two apart through a
    crosscap in the boundary face (projective embedding).
    """
    _check_boundary(side, boundary, 5)
    b = list(boundary)
    if gadget == "tripod":
        if len(set(trio)) != 3 or any(not 0 <= t < 5 for t in trio):
            raise ValueError("trio must be three distinct positions")
        l, m = (x for x in range(5) if x not in trio)
        rows = _rows(side)
        u = side.n
        for t in trio:
            rows[b[t]].append(u)
        rows.append([b[t] for t in trio])
        rows[b[l]].append(b[m])
        rows[b[m]].append(b[l])
        return graph_from_neighbors(rows, _negatives(side))
    if gadget == "butterfly":
        i = anchor
        rows = _rows(side)
        u, v, w = side.n, side.n + 1, side.n + 2
        rows[b[(i + 1) % 5]].append(u)
        rows[b[(i + 2) % 5]].append(u)
        rows[b[(i + 3) % 5]].append(v)
        rows[b[(i + 4) % 5]].append(v)
        rows[b[i]].append(w)
        rows.append([b[(i + 1) % 5], b[(i + 2) % 5], w])
        rows.append([b[(i + 3) % 5], b[(i + 4) % 5], w])
        rows.append([b[i], u, v])
        return graph_from_neighbors(rows, _negatives(side))
    if gadget == "pentagon":
        return _link_leaves(_attach_leaves(side, b), side.n, 1, False, 2)
    if gadget == "pentagram":
        return _link_leaves(_attach_leaves(side, b), side.n, 2, True, 1)
    raise ValueError(f"unknown gadget {gadget!r}; pick one of {GADGETS}")


# -- the second-coloring argument on 4-cut sides -------------------------------


@dataclass(frozen=True)
class SingletonCheck:
    """Outcome of the second-coloring argument on one side: ok holds
    unless the side realizes exactly one of the cut classes, and classes
    counts the classes it realizes."""

    ok: bool
    classes: int

    def __bool__(self) -> bool:
        return self.ok


def no_singleton_side(side: Graph, boundary: Sequence[int]) -> SingletonCheck:
    """A colorable 4-cut side never realizes exactly one cut class.

    The classes are the exact set side_coloring_set computes. An
    uncolorable side passes vacuously with zero classes.
    """
    _check_boundary(side, boundary, 4)
    classes = len(side_coloring_set(side, boundary))
    return SingletonCheck(ok=classes != 1, classes=classes)


# -- random planar sides for the argument sweeps -------------------------------


def random_planar_cubic(rng: random.Random, expansions: int) -> Graph:
    """Random simple cubic plane graph grown from K4 by repeatedly
    subdividing two edges of a face and joining the new vertices."""
    g = k4()
    for _ in range(expansions):
        g = _expand(g, rng)
    return g


def _expand(g: Graph, rng: random.Random) -> Graph:
    walks = g.face_walks()
    walk = walks[rng.randrange(len(walks))]
    edges = [d[0] for d in walk]
    e1 = rng.choice(edges)
    e2 = rng.choice([e for e in edges if e != e1])
    sub, chains = subdivide_embedded(g, {e1: 1, e2: 1})
    # each chain's first segment runs from the old end to the new vertex
    a, b = (sub.endpoints(chains[e][0])[1] for e in (e1, e2))
    # on an orientable map a chord keeps the sphere exactly when both its
    # corners lie on one face, which it then splits
    corners = sub.corner_faces()
    slots = [(sa, sb) for sa in (1, 2) for sb in (1, 2) if corners[a][sa - 1] == corners[b][sb - 1]]
    if slots:
        sa, sb = slots[0]
        rows = _rows(sub)
        rows[a].insert(sa, b)
        rows[b].insert(sb, a)
        g2 = graph_from_neighbors(rows)
        if g2.euler_characteristic() == 2:
            return g2
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
        hosting = faces_through(opened, (new_id[x] for x in g.neighbors(w)))
        if len(hosting) != 1:
            return None
        pool = sorted(
            {
                d[0]
                for d in hosting[0]
                if all(opened.degree(x) == 3 for x in opened.endpoints(d[0]))
            }
        )
        if not pool:
            return None
        side, _, _ = remove_embedded(opened, edges=(rng.choice(pool),))
    return _read_boundary(side)


def _read_boundary(side: Graph) -> Optional[tuple[Graph, tuple[int, ...]]]:
    two = {v for v in range(side.n) if side.degree(v) == 2}
    if any(side.degree(v) not in (2, 3) for v in range(side.n)):
        return None
    orders = []
    for walk in faces_through(side, two):
        on = [v for v in (side.dart_vertex(d) for d in walk) if v in two]
        if len(on) == len(two):
            orders.append(tuple(on))
    if not orders or len({_dihedral_canon(o) for o in orders}) != 1:
        return None
    try:
        validate_island(Island(side, orders[0]))
    except ValueError:
        return None
    return side, orders[0]
