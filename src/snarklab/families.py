"""Projective island families from crossed cycles and a Petersen remnant.

The crossed cycle on 2y vertices is an even cycle with all y main
diagonals added. Drawn with the diagonals through the crosscap it is
projective-planar with y quadrilateral faces and one 2y-gon. Planting
subdivision vertices on the cycle edges turns the 2y-gon into the ring
face of an island whose interior keeps the crosscap.

Generators, one member per isomorphism class:

    generate_gamma        every pattern of k subdivision vertices over
                          the 2y cycle edges
    generate_pi           the gamma patterns that cover every opposite
                          edge pair and spread enough vertices over
                          every short arc of the cycle, searched with
                          both bounds checked on each pattern prefix
    generate_pi513_star   the densest ring-13 pi members, filtered
                          further by three-arc and antipodal-window
                          lower bounds
    generate_delta6       the embedded Petersen graph minus one edge,
                          with four subdivision vertices planted on its
                          octagon face
    generate_pi_hat_3_6   ring-6 pi members with two inner-face edges
                          subdivided once each and joined by a new edge

Every generator merges its candidates in one keyed step: each candidate
names its isomorphism class by a key before any graph is embedded, and
only the first candidate of each class is embedded. A cycle pattern's key
is its least image under the crossed cycle's automorphisms; a delta6 or
pi-hat candidate's key is the canonical key of its abstract graph.
family_report runs the reducibility checker over a family and tabulates
the verdicts.
All generators are deterministic and members carry the subdivision
patterns that produced them, so qualifying conditions can be re-checked
downstream without trusting the generator.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .configurations import Island, validate_island
from .graphs import (
    FaceTrace,
    Graph,
    automorphisms,
    edge_list_key,
    graph_from_neighbors,
    petersen,
    remove_embedded,
    subdivide_embedded,
    subdivided_edges,
)
from .reducibility import ReducibilityVerdict, check_reducibility


@dataclass(frozen=True, eq=False)
class ProjectiveIsland:
    """A family member: an embedded island with its generation record.

    graph carries the projective embedding; boundary lists the degree-2
    vertices in ring-face walk order. patterns holds every symmetry-
    reduced generation pattern merged into this member; its meaning is
    family-specific (subdivision counts per cycle or octagon position,
    or a parent pattern extended by the two edge ids that received the
    extra chord).
    """

    graph: Graph
    boundary: tuple[int, ...]
    family: str
    patterns: tuple[tuple[int, ...], ...]

    @property
    def ring_size(self) -> int:
        return len(self.boundary)

    @property
    def is_island(self) -> bool:
        return bool(self.boundary)

    def island(self) -> Island:
        if not self.boundary:
            raise ValueError("member has no ring and is not an island")
        return Island(self.graph, self.boundary)


# -- base graphs ---------------------------------------------------------------


def generate_v2y(y: int) -> Graph:
    """The crossed cycle: C_2y plus all y main diagonals, embedded.

    Vertex i sits between i-1 and i+1 on the cycle and sends a diagonal
    to i+y. Diagonals carry sign -1, so the embedding lives on the
    projective plane (Euler characteristic 1) with y quadrilateral faces
    and one 2y-gon.
    """
    if y < 3:
        raise ValueError("crossed cycle needs y >= 3")
    n = 2 * y
    nbrs = [[(i + 1) % n, (i + y) % n, (i - 1) % n] for i in range(n)]
    return graph_from_neighbors(nbrs, [(i, i + y) for i in range(y)])


def _petersen_remnant() -> tuple[Graph, list[int]]:
    """graphs.petersen() minus edge 0, and the edge ids of its octagon face
    in walk order. The map is edge-transitive, so edge 0 loses nothing."""
    g, _, _ = remove_embedded(petersen(), edges=(0,))
    walk = next(w for w in FaceTrace(g).walks if len(w) == 8)
    return g, [d[0] for d in walk]


def _planted(
    base: Graph,
    counts: dict[int, int],
    ring_edges: Iterable[int],
    chord: Optional[tuple[int, int, int, int, int]] = None,
) -> tuple[Graph, tuple[int, ...]]:
    """base with the subdivisions counts asks for and the optional chord
    (graphs.subdivide_embedded), traced once, and its degree-2 vertices in
    walk order along the one face drawn on the chains of ring_edges.
    Raises unless the member is projective and that face is unique."""
    g, chains = subdivide_embedded(base, counts, chord)
    trace = FaceTrace(g)
    ring = {ne for e in ring_edges for ne in chains[e]}
    hits = [walk for walk in trace.walks if all(d[0] in ring for d in walk)]
    if trace.chi != 1 or len(hits) != 1:
        raise ValueError("expected a projective member with one face on the ring edges")
    return g, tuple(v for v in map(g.dart_vertex, hits[0]) if g.degree(v) == 2)


# -- pattern bookkeeping -------------------------------------------------------


def _patterns(total: int, parts: int, y: int = 0) -> list[tuple[int, ...]]:
    """Every way to spread total new vertices over parts positions, in
    lexicographic order.

    With y > 0 the positions are the 2y cycle edges and only the pi
    patterns come out: every cycle edge or the edge opposite it carries a
    vertex, and every run of s consecutive cycle edges, 2 <= s < y,
    carries at least s - 1. The search checks each bound on the first
    prefix that fixes it and leaves the positions still open at least
    the vertices their own runs need, so it extends no failing prefix.
    """
    x = [0] * parts
    sums = [0] * (parts + 1)  # sums[j] = x[0] + ... + x[j - 1]
    last = parts - 1
    # fewest vertices r open positions in a row can take: each run of
    # y - 1 of them needs y - 2, and a shorter rest of q needs q - 1
    need = [y and r // (y - 1) * (y - 2) + max(0, r % (y - 1) - 1) for r in range(parts)]
    # per position the runs it completes, as (a, b, t) with the run
    # sound when sums[a] - sums[b] >= t; the last position completes the
    # runs over the wrap as well, whose sum is total - sums[b] + sums[a]
    runs = [[(j + 1, j + 1 - s, s - 1) for s in range(2, min(j + 2, y))] for j in range(parts)]
    runs[last] += [
        (i + s - parts, i, s - 1 - total) for s in range(2, y) for i in range(parts - s + 1, parts)
    ]
    out: list[tuple[int, ...]] = []

    def extend(j: int) -> None:
        left = total - sums[j]
        for v in (left,) if j == last else range(left - need[last - j] + 1):
            x[j] = v
            sums[j + 1] = sums[j] + v
            if y and (
                j >= y and v + x[j - y] == 0
                or any(sums[a] - sums[b] < t for a, b, t in runs[j])
            ):
                continue
            if j == last:
                out.append(tuple(x))
            else:
                extend(j + 1)

    extend(0)
    return out


def dihedral_canon(x: Sequence[int]) -> tuple[int, ...]:
    """Least rotation of x or of its reversal."""
    t = tuple(x)
    tr = t[::-1]
    return min(min(t[r:] + t[:r], tr[r:] + tr[:r]) for r in range(len(t)))


def _star_ok(x: Sequence[int]) -> bool:
    """At most one bare position, every three consecutive positions
    carry at least 3 vertices, and every antipodal window of four
    positions (i, i+1, i+5, i+6) carries at least 4."""
    n = len(x)
    if sum(1 for v in x if v == 0) > 1:
        return False
    if any(x[i] + x[(i + 1) % n] + x[(i + 2) % n] < 3 for i in range(n)):
        return False
    return all(
        x[i] + x[(i + 1) % n] + x[(i + 5) % n] + x[(i + 6) % n] >= 4
        for i in range(n)
    )


def _edge_perms(g: Graph) -> list[tuple[int, ...]]:
    """Edge permutations induced by g's automorphisms. Edges are named by
    their ends: raises ValueError if two edges share them."""
    eid: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(g.edge_list):
        if (u, v) in eid:
            raise ValueError(f"edge {e} repeats the ends of edge {eid[(u, v)]}")
        eid[(u, v)] = eid[(v, u)] = e
    return sorted(
        {tuple(eid[(p[u], p[v])] for u, v in g.edge_list) for p in automorphisms(g)}
    )


# -- cycle-subdivision families ---------------------------------------------------


@lru_cache(maxsize=None)
def _crossed_cycle(y: int) -> tuple[Graph, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """generate_v2y(y), the edge ids of its 2y-cycle in position order, and
    its automorphisms as edge permutations, searched once per y."""
    base = generate_v2y(y)
    cyc = tuple(base.edges_between(i, (i + 1) % (2 * y))[0] for i in range(2 * y))
    return base, cyc, tuple(_edge_perms(base))


def _cycle_family(y: int, k: int, family: str) -> list[ProjectiveIsland]:
    base, cyc, eperms = _crossed_cycle(y)
    if k < 0:
        raise ValueError("cannot plant a negative number of vertices")
    dihedral = {dihedral_canon(x) for x in _patterns(k, 2 * y, y if family == "pi" else 0)}

    # Suppressing the degree-2 vertices of a member recovers the crossed
    # cycle, so any isomorphism between two members acts on it as a base
    # automorphism: orbits of the per-edge count vector under the induced
    # edge permutations are exactly the isomorphism classes.
    def found() -> Iterator[tuple]:
        for x in sorted(dihedral):
            counts = {e: x[i] for i, e in enumerate(cyc) if x[i]}
            vec = [counts.get(e, 0) for e in range(base.m)]
            key = min(tuple([vec[e] for e in p]) for p in eperms)
            yield key, x, partial(_planted, base, counts, cyc)

    return _merge_isomorphic(family, found())


def generate_gamma(y: int, k: int) -> list[ProjectiveIsland]:
    """All islands made by planting k subdivision vertices on the cycle
    edges of the crossed cycle, one per isomorphism class.

    Patterns are reduced under the dihedral symmetry of the cycle and
    then merged whenever a base automorphism identifies them; each
    member records all dihedral patterns that map onto it. k = 0 yields
    the bare crossed cycle, which has no ring and is flagged non-island.
    """
    return _cycle_family(y, k, "gamma")


def generate_pi(y: int, k: int) -> list[ProjectiveIsland]:
    """The gamma members whose patterns cover every opposite edge pair
    and carry at least s - 1 new vertices on every run of s consecutive
    cycle edges for each s below y."""
    return _cycle_family(y, k, "pi")


def generate_pi513_star() -> list[ProjectiveIsland]:
    """The ring-13 pi(5, 13) members whose patterns additionally have at
    most one bare position, at least 3 vertices on every three
    consecutive positions, and at least 4 on every antipodal
    four-window."""
    return [m for m in generate_pi(5, 13) if all(_star_ok(x) for x in m.patterns)]


# -- families merged by isomorphism ----------------------------------------------


def _merge_isomorphic(
    family: str,
    found: Iterable[tuple[tuple, tuple[int, ...], Callable[[], tuple[Graph, tuple[int, ...]]]]],
) -> list[ProjectiveIsland]:
    """One validated member per isomorphism class of the found candidates.

    Each candidate comes as a key naming its isomorphism class, its
    pattern and a call that embeds it, returning its graph and boundary.
    Only the first candidate of each class is embedded; the member keeps
    every pattern of the class in the order found, and members come in
    key order. A member with no ring is not an island and is not
    validated.
    """
    merged: dict[tuple, tuple[Callable, list[tuple[int, ...]]]] = {}
    for key, pattern, embed in found:
        merged.setdefault(key, (embed, []))[1].append(pattern)
    members = []
    for key in sorted(merged):
        embed, patterns = merged[key]
        member = ProjectiveIsland(*embed(), family, tuple(patterns))
        if member.is_island:
            validate_island(member.island())
        members.append(member)
    return members


# -- Petersen-remnant family -----------------------------------------------------


def generate_delta6() -> list[ProjectiveIsland]:
    """Islands made by planting four subdivision vertices on the octagon
    face of the projective Petersen map, graphs.petersen(), minus edge 0.

    The removed edge leaves two degree-2 vertices on the octagon, so
    every member has ring size six. Patterns over the eight octagon
    positions are first reduced under the octagon's stabilizer in the
    automorphism group of the remnant, then merged by isomorphism of the
    subdivided graphs, keyed before any of them is embedded.
    """
    base, oct_edges = _petersen_remnant()
    pos = {e: i for i, e in enumerate(oct_edges)}
    # the octagon's stabilizer, read as position maps i -> induced[.][i]
    induced = [
        tuple(pos[p[e]] for e in oct_edges)
        for p in _edge_perms(base)
        if all(p[e] in pos for e in oct_edges)
    ]
    stab_classes = sorted({min(tuple(x[i] for i in pi) for pi in induced) for x in _patterns(4, 8)})

    def found() -> Iterator[tuple]:
        for x in stab_classes:
            counts = {oct_edges[i]: x[i] for i in range(8) if x[i]}
            n, pairs, _ = subdivided_edges(base, counts)
            yield edge_list_key(n, pairs), x, partial(_planted, base, counts, oct_edges)

    return _merge_isomorphic("delta6", found())


# -- chord-extended ring-6 family ---------------------------------------------------


def generate_pi_hat_3_6() -> list[ProjectiveIsland]:
    """Ring-6 pi members with a chord planted across one inner face.

    For every member of generate_pi(3, 6) and every pair of non-adjacent
    edges sharing an inner face, both edges are subdivided once and the
    two new vertices joined. The chord takes the first slot pair, in
    slot order, whose corners lie on one face other than the ring face,
    with the sign that splits that face; graphs.FaceTrace reads both from
    the parent's one face trace, so the embedding stays projective and
    the ring face stays whole. Chords are keyed by isomorphism class from
    their abstract graphs, one key per orbit of edge pairs under the
    parent's automorphisms, and only the first of each class is embedded.
    """
    return _merge_isomorphic("pi-hat-3-6", _pi_hat_chords())


def _pi_hat_chords() -> Iterator[tuple]:
    """generate_pi_hat_3_6's candidates, in the order found, as
    _merge_isomorphic takes them. Each embeds with _planted(h, {e: 1,
    f: 1}, ring_ids, chord); one face trace per parent routes all of its
    chords, and a chord with no route raises."""
    for parent in generate_pi(3, 6):
        h = parent.graph
        eperms = _edge_perms(h)
        # edge pair -> its orbit's key: automorphic pairs give isomorphic chord graphs
        keys: dict[tuple[int, int], tuple] = {}
        trace = FaceTrace(h)
        hits = trace.through(parent.boundary)
        if len(hits) != 1:
            raise ValueError("expected exactly one face holding the whole ring")
        ring_ids = {d[0] for d in trace.walks[hits[0]]}
        for walk in trace.walks:
            face_edges = sorted({d[0] for d in walk})
            if all(e in ring_ids for e in face_edges):
                continue
            for e, f in itertools.combinations(face_edges, 2):
                if set(h.endpoints(e)) & set(h.endpoints(f)):
                    continue
                routes = [r for r in trace.chords(e, f) if r[3] != hits[0]]
                if not routes:
                    raise ValueError("no projective routing for the chord")
                slot_e, slot_f, sign, _ = routes[0]
                counts = {e: 1, f: 1}
                if (e, f) not in keys:
                    n, pairs, _ = subdivided_edges(h, counts)
                    key = edge_list_key(n, pairs + [(h.n, h.n + 1)])
                    keys.update(dict.fromkeys([tuple(sorted((p[e], p[f]))) for p in eperms], key))
                chord = (h.n, slot_e, h.n + 1, slot_f, sign)
                yield (
                    keys[e, f],
                    parent.patterns[0] + (e, f),
                    partial(_planted, h, counts, ring_ids, chord),
                )


# -- batch reducibility ------------------------------------------------------------


@dataclass(frozen=True)
class FamilyReport:
    rows: tuple[ReducibilityVerdict, ...]
    d_count: int
    c_count: int
    unresolved: int
    c_size_counts: tuple[tuple[int, int], ...]


def family_report(
    members: Iterable[ProjectiveIsland],
    kind: str = "planar",
    max_contraction: int = 4,
) -> FamilyReport:
    """Reducibility verdicts for every member, tabulated.

    Members are ordered by a content key before checking, so the report
    does not depend on input order. Row i is the ReducibilityVerdict of
    the i-th member in that order, with its contraction, levels used and
    search stats; the aggregates count D members, C members (split by
    contraction size) and members the search left unresolved.
    """
    ordered = sorted(
        members, key=lambda m: (m.family, m.graph.n, m.graph.m, m.patterns)
    )
    rows = tuple(check_reducibility(m.island(), kind, max_contraction) for m in ordered)
    counts = Counter(row.kind for row in rows)
    sizes = Counter(len(row.contraction) for row in rows if row.kind == "C")
    return FamilyReport(
        rows, counts["D"], counts["C"], counts["none"], tuple(sorted(sizes.items()))
    )
