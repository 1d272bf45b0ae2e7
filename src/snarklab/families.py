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

Patterns are reduced to dihedral and then isomorphism classes before any
graph is built; a cycle member is one subdivision of a shared crossed
cycle. family_report runs the reducibility checker over a family and
tabulates the verdicts. All generators are deterministic and members
carry the subdivision patterns that produced them, so qualifying
conditions can be re-checked downstream without trusting the generator.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .configurations import Island, validate_island
from .graphs import (
    Graph,
    antipodal_quotient,
    canonical_key,
    faces_through,
    graph_from_neighbors,
    icosahedron,
    insert_edge,
    remove_embedded,
    subdivide_embedded,
)
from .reducibility import RING_LIMIT, _lift_table, check_reducibility


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
    """The embedded Petersen graph with one edge removed.

    Returns the remnant and the edge ids of its octagon face in walk
    order. The embedding comes from the icosahedron: its antipodal
    quotient is a projective triangulation whose dual is the Petersen
    map. That map is edge-transitive, so removing edge 0 loses nothing.
    """
    ico, antipode = icosahedron(with_antipode=True)
    host = antipodal_quotient(ico, antipode).dual()
    g, _, _ = remove_embedded(host, edges=(0,))
    walk = next(w for w in g.face_walks() if len(w) == 8)
    return g, [d[0] for d in walk]


def _ring_boundary(
    g: Graph, walks: list[list[tuple[int, int]]], ring_edges: set[int]
) -> tuple[int, ...]:
    """Degree-2 vertices in walk order along the unique face, among g's
    face walks, drawn entirely on the given edges. Raises when no such
    face is unique."""
    hits = [walk for walk in walks if all(d[0] in ring_edges for d in walk)]
    if len(hits) != 1:
        raise ValueError("expected exactly one face on the ring edges")
    return tuple(
        v for v in (g.dart_vertex(d) for d in hits[0]) if g.degree(v) == 2
    )


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


def _dihedral_canon(x: Sequence[int]) -> tuple[int, ...]:
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


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All vertex permutations preserving adjacency (simple graphs of
    the sizes used here; plain backtracking is plenty)."""
    n = g.n
    adj = [set(g.neighbors(v)) for v in range(n)]
    degs = g.degrees()
    out: list[tuple[int, ...]] = []
    perm = [-1] * n
    used = [False] * n

    def rec(v: int) -> None:
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


def _edge_perms(g: Graph, auts: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Edge permutations induced by the given vertex permutations."""
    eid: dict[tuple[int, int], int] = {}
    for e in range(g.m):
        u, v = g.endpoints(e)
        eid[(u, v)] = e
        eid[(v, u)] = e
    return sorted(
        {tuple(eid[(p[u], p[v])] for u, v in g.edge_list) for p in auts}
    )


# -- cycle-subdivision families ---------------------------------------------------


def _cycle_edge_ids(base: Graph, y: int) -> list[int]:
    """Edge ids of the 2y-cycle in position order."""
    eid = {frozenset(base.endpoints(e)): e for e in range(base.m)}
    return [eid[frozenset((i, (i + 1) % (2 * y)))] for i in range(2 * y)]


def _cycle_member(
    base: Graph, cyc: list[int], family: str, patterns: tuple[tuple[int, ...], ...]
) -> ProjectiveIsland:
    x = patterns[0]
    counts = {e: x[i] for i, e in enumerate(cyc) if x[i]}
    g, chains = subdivide_embedded(base, counts)
    ring = {ne for e in cyc for ne in chains[e]}
    boundary = _ring_boundary(g, g.face_walks(), ring)
    member = ProjectiveIsland(g, boundary, family, patterns)
    if member.is_island:
        validate_island(member.island())
    return member


def _cycle_family(y: int, k: int, family: str, bounded: bool) -> list[ProjectiveIsland]:
    if y < 3:
        raise ValueError("crossed cycle needs y >= 3")
    if k < 0:
        raise ValueError("cannot plant a negative number of vertices")
    base = generate_v2y(y)
    cyc = _cycle_edge_ids(base, y)
    eperms = _edge_perms(base, _automorphisms(base))
    dihedral = {_dihedral_canon(x) for x in _patterns(k, 2 * y, y if bounded else 0)}
    # Suppressing the degree-2 vertices of a member recovers the crossed
    # cycle, so any isomorphism between two members acts on it as a base
    # automorphism: orbits of the per-edge count vector under the induced
    # edge permutations are exactly the isomorphism classes.
    classes: dict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
    for x in sorted(dihedral):
        vec = [0] * base.m
        for i, e in enumerate(cyc):
            vec[e] = x[i]
        key = min(tuple([vec[e] for e in p]) for p in eperms)
        classes[key].append(x)
    return [
        _cycle_member(base, cyc, family, tuple(pats))
        for _, pats in sorted(classes.items())
    ]


def generate_gamma(y: int, k: int) -> list[ProjectiveIsland]:
    """All islands made by planting k subdivision vertices on the cycle
    edges of the crossed cycle, one per isomorphism class.

    Patterns are reduced under the dihedral symmetry of the cycle and
    then merged whenever a base automorphism identifies them; each
    member records all dihedral patterns that map onto it. k = 0 yields
    the bare crossed cycle, which has no ring and is flagged non-island.
    """
    return _cycle_family(y, k, "gamma", False)


def generate_pi(y: int, k: int) -> list[ProjectiveIsland]:
    """The gamma members whose patterns cover every opposite edge pair
    and carry at least s - 1 new vertices on every run of s consecutive
    cycle edges for each s below y."""
    return _cycle_family(y, k, "pi", True)


def generate_pi513_star(y: int = 5, k: int = 13) -> list[ProjectiveIsland]:
    """The ring-13 pi members whose patterns additionally have at most
    one bare position, at least 3 vertices on every three consecutive
    positions, and at least 4 on every antipodal four-window."""
    return [
        m
        for m in generate_pi(y, k)
        if all(_star_ok(x) for x in m.patterns)
    ]


# -- families merged by isomorphism ----------------------------------------------


def _merge_isomorphic(
    family: str, found: Iterable[tuple[Graph, tuple[int, ...], tuple[int, ...]]]
) -> list[ProjectiveIsland]:
    """One validated member per isomorphism class of the found graphs.

    Each member keeps the first graph and boundary found in its class and
    every pattern of the class in the order found; members come in
    canonical-key order.
    """
    merged: dict[tuple, tuple[Graph, tuple[int, ...], list[tuple[int, ...]]]] = {}
    for g, boundary, pattern in found:
        merged.setdefault(canonical_key(g), (g, boundary, []))[2].append(pattern)
    members = []
    for key in sorted(merged):
        g, boundary, patterns = merged[key]
        member = ProjectiveIsland(g, boundary, family, tuple(patterns))
        validate_island(member.island())
        members.append(member)
    return members


# -- Petersen-remnant family -----------------------------------------------------


def generate_delta6() -> list[ProjectiveIsland]:
    """Islands made by planting four subdivision vertices on the octagon
    face of the embedded Petersen graph minus one edge.

    The removed edge leaves two degree-2 vertices on the octagon, so
    every member has ring size six. Patterns over the eight octagon
    positions are first reduced under the octagon's stabilizer in the
    automorphism group of the remnant, then merged by isomorphism.
    """
    base, oct_edges = _petersen_remnant()
    auts = _automorphisms(base)
    oct_pairs = [tuple(sorted(base.endpoints(e))) for e in oct_edges]
    pos_of = {p: i for i, p in enumerate(oct_pairs)}
    induced = set()
    for p in auts:
        mapped = [tuple(sorted((p[a], p[b]))) for a, b in oct_pairs]
        if set(mapped) == set(oct_pairs):
            induced.add(tuple(pos_of[q] for q in mapped))
    stab_classes = sorted(
        {
            min(tuple(x[pi[i]] for i in range(8)) for pi in induced)
            for x in _patterns(4, 8)
        }
    )

    def found() -> Iterator[tuple]:
        for x in stab_classes:
            counts = {oct_edges[i]: x[i] for i in range(8) if x[i]}
            g, chains = subdivide_embedded(base, counts)
            ring = {ne for e in oct_edges for ne in chains[e]}
            yield g, _ring_boundary(g, g.face_walks(), ring), x

    return _merge_isomorphic("delta6", found())


# -- chord-extended ring-6 family ---------------------------------------------------


def generate_pi_hat_3_6() -> list[ProjectiveIsland]:
    """Ring-6 pi members with a chord planted across one inner face.

    For every member of generate_pi(3, 6) and every pair of non-adjacent
    edges sharing an inner face, both edges are subdivided once and the
    two new vertices joined. The new edge is routed by the first slot
    and sign choice that keeps the embedding projective and leaves one
    face covering the whole ring; a routing always exists. Members are
    merged by isomorphism.
    """

    def found() -> Iterator[tuple]:
        for parent in generate_pi(3, 6):
            h = parent.graph
            ring_ids = _parent_ring_ids(parent)
            inner = [
                sorted({d[0] for d in walk})
                for walk in h.face_walks()
                if not all(d[0] in ring_ids for d in walk)
            ]
            for face_edges in inner:
                for e, f in itertools.combinations(face_edges, 2):
                    if set(h.endpoints(e)) & set(h.endpoints(f)):
                        continue
                    sub, chains = subdivide_embedded(h, {e: 1, f: 1})
                    ve, vf = sub.n - 2, sub.n - 1
                    new_ring = {ne for r in ring_ids for ne in chains[r]}
                    built = _route_chord(sub, ve, vf, new_ring)
                    if built is None:
                        raise ValueError("no projective routing for the chord")
                    yield built + (parent.patterns[0] + (e, f),)

    return _merge_isomorphic("pi-hat-3-6", found())


def _parent_ring_ids(parent: ProjectiveIsland) -> set[int]:
    """Edge ids of the parent's ring face."""
    hits = faces_through(parent.graph, parent.boundary)
    if len(hits) != 1:
        raise ValueError("expected exactly one face holding the whole ring")
    return {d[0] for d in hits[0]}


def _route_chord(
    sub: Graph, ve: int, vf: int, ring_edges: set[int]
) -> Optional[tuple[Graph, tuple[int, ...]]]:
    """First chord routing that stays projective and keeps a face on the
    ring edges.

    Only slot pairs whose corners share a face are built: a chord across
    two faces merges them and drops chi by two. On a signed map the
    shared face is not enough, so each candidate is still traced.
    """
    corners = sub.corner_faces()
    for slot_e, slot_f, sign in itertools.product((0, 1), (0, 1), (1, -1)):
        if corners[ve][slot_e - 1] != corners[vf][slot_f - 1]:
            continue
        cand = insert_edge(sub, ve, slot_e, vf, slot_f, sign)
        walks = cand.face_walks()
        if cand.n - cand.m + len(walks) != 1:
            continue
        try:
            boundary = _ring_boundary(cand, walks, ring_edges)
        except ValueError:
            continue
        return cand, boundary
    return None


# -- batch reducibility ------------------------------------------------------------


@dataclass(frozen=True)
class FamilyRow:
    member: int
    vertices: int
    ring: int
    verdict: str
    contraction_size: Optional[int]


@dataclass(frozen=True)
class FamilyReport:
    rows: tuple[FamilyRow, ...]
    d_count: int
    c_count: int
    unresolved: int
    c_size_counts: tuple[tuple[int, int], ...]


def _member_verdict(
    args: tuple[ProjectiveIsland, str, int]
) -> tuple[str, Optional[int]]:
    m, kind, max_contraction = args
    verdict = check_reducibility(m.island(), kind, max_contraction)
    size = len(verdict.contraction) if verdict.kind == "C" else None
    return verdict.kind, size


def family_report(
    members: Iterable[ProjectiveIsland],
    kind: str = "planar",
    max_contraction: int = 4,
    jobs: int = 1,
) -> FamilyReport:
    """Reducibility verdicts for every member, tabulated.

    Members are ordered by a content key before checking, so the report
    does not depend on input order. Rows carry member index, vertex
    count, ring size, verdict and contraction size; the aggregates count
    D members, C members (split by contraction size) and members the
    search left unresolved. jobs > 1 checks members in that many worker
    processes, forked once the lift tables for the members' ring sizes
    are built, so that no worker builds its own.
    """
    ordered = sorted(
        members, key=lambda m: (m.family, m.graph.n, m.graph.m, m.patterns)
    )
    tasks = [(m, kind, max_contraction) for m in ordered]
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        for k in {m.ring_size for m in ordered if m.ring_size <= RING_LIMIT}:
            _lift_table(k, kind)
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=fork) as pool:
            verdicts = list(pool.map(_member_verdict, tasks))
    else:
        verdicts = [_member_verdict(t) for t in tasks]
    rows = []
    d_count = c_count = unresolved = 0
    sizes: Counter[int] = Counter()
    for i, (m, (kind_out, size)) in enumerate(zip(ordered, verdicts)):
        if kind_out == "D":
            d_count += 1
        elif kind_out == "C":
            c_count += 1
            sizes[size] += 1
        else:
            unresolved += 1
        rows.append(FamilyRow(i, m.graph.n, m.ring_size, kind_out, size))
    return FamilyReport(
        tuple(rows), d_count, c_count, unresolved, tuple(sorted(sizes.items()))
    )
