"""D- and C-reducibility of islands under ring matching semantics.

An island meets the rest of a cubic host through half-edge stubs at its
degree-2 vertices, one per ring position. Any 3-edge-coloring of a host
restricts to a parity coloring of the stubs, and Kempe chains running
outside the island act on those colorings through signed matchings.

Level 0 of the decomposition holds the stub colorings that extend to a
coloring of the island itself. A coloring joins a later level when, for
some color, every matching of its remaining positions has a fit in an
earlier level, so any host coloring could be Kempe-changed down to one the
island absorbs. Colorings no level ever reaches form the residual: an
empty residual makes the island D-reducible, and deleting a small interior
edge set whose surviving colorings all avoid the residual makes it
C-reducible.

One graphs.color_walk over the colorings of the island with its stubs,
optionally cut down by a deletion, serves both steps. It pins the first
edge to color 0, which loses nothing because every set it feeds is closed
under the six color permutations: level 0 and ring_extension_oracle close
what it collects, and the C test asks whether some surviving coloring
lies in the permutation-closed residual, stopping at the first that does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Union

from .configurations import (
    Configuration,
    FreeCompletion,
    Island,
    island_of,
    validate_island,
)
from .graphs import (
    Graph,
    color_walk,
    delete_and_suppress_traced,
    edge_components,
    loss_counts,
    low_link,
    with_stubs,
)
from .rings import (
    COLORS,
    MEMO_LIMIT,
    Matching,
    RingColoring,
    SignedMatch,
    get_kempe,
    parity_classes,
)

RING_LIMIT = 2 * MEMO_LIMIT

KINDS = ("planar", "projective")


# -- verdict types -------------------------------------------------------------


@dataclass(frozen=True)
class ColorableSet:
    """Level decomposition of the parity colorings of a ring.

    levels[0] holds the colorings that extend into the island; level i+1
    holds those first forced by matching consistency once levels 0..i are
    known; residual is whatever no level reaches. Levels are pairwise
    disjoint and together with the residual partition the parity colorings.
    """

    ring_size: int
    levels: tuple[frozenset[RingColoring], ...]
    residual: frozenset[RingColoring]

    @property
    def colorable(self) -> frozenset[RingColoring]:
        """Union of all levels."""
        out: set[RingColoring] = set()
        for level in self.levels:
            out |= level
        return frozenset(out)

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def level_of(self, kappa: RingColoring) -> Optional[int]:
        for i, level in enumerate(self.levels):
            if kappa in level:
                return i
        return None


@dataclass(frozen=True)
class ReducibilityVerdict:
    """kind is "D", "C", or "none"; contraction is the island edge set
    whose deletion passed the C test, empty otherwise; levels_used is the
    highest level index the decomposition needed."""

    kind: str
    contraction: tuple[int, ...]
    levels_used: int


# -- island plus stubs ---------------------------------------------------------


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")


def _ring_positions(island: Island) -> int:
    g = island.graph
    two = [v for v in range(g.n) if g.degree(v) == 2]
    if sorted(island.boundary) != two:
        raise ValueError("island boundary must list the degree-2 vertices once each")
    if any(g.degree(v) not in (2, 3) for v in range(g.n)):
        raise ValueError("island degrees must be 2 or 3")
    return len(island.boundary)


def _check_deleted(island: Island, deleted: Iterable[int]) -> frozenset[int]:
    xs = frozenset(deleted)
    for e in xs:
        if not (0 <= e < island.graph.m):
            raise ValueError("deleted edge out of range")
    if 2 in loss_counts(island.graph, xs):
        raise ValueError("a vertex may not lose exactly two of its edges")
    return xs


def _bridge_free(g: Graph) -> bool:
    """True iff no edge separates its component once all leaves are fused.

    Leaves are the outer ends of stub chains; in a host they all reach the
    same connected outside, so they count as one shared node and a chain
    returning outside is no bridge.
    """
    node = [g.n if g.degree(v) == 1 else v for v in range(g.n)]
    pairs = [(node[u], node[w]) for u, w in g.edge_list]
    return not low_link(g.n + 1, pairs)[0]


# -- the stub coloring walk ----------------------------------------------------


def _walk_ring_colorings(
    g: Graph, pos_edge: dict[int, int], leaf: Callable[[RingColoring], bool]
) -> bool:
    """Call leaf on the ring colorings of a stubbed island's colorings
    until it returns True; report whether it did.

    g is an island with its stubs, possibly cut down, and pos_edge maps
    each ring position to the edge carrying its stub. Every vertex has
    degree 3, or is the degree-1 outer end of a stub, so the colorings
    color_walk finds are those of the island with its stubs. The first
    edge walked is pinned to color 0, so leaf meets every orbit of
    realizable ring colorings under color permutation at least once but
    not every member: callers close what they collect under the six
    permutations, or test a permutation-closed set. Components without a
    stub only need one coloring each and are checked once, up front. A
    graph with a loop or an uncolorable component never reaches leaf.
    """
    stubs = [pos_edge[j] for j in range(len(pos_edge))]
    stub_set = set(stubs)
    walked: list[int] = []
    for comp in edge_components(g):
        if stub_set.isdisjoint(comp):
            if not color_walk(g, comp, lambda color: True):
                return False
        else:
            walked += comp
    return color_walk(g, walked, lambda color: leaf(tuple(color[e] for e in stubs)))


def _realized(g: Graph, pos_edge: dict[int, int]) -> set[RingColoring]:
    """Every ring coloring a coloring of the stubbed island induces."""
    pinned: set[RingColoring] = set()

    def collect(kappa: RingColoring) -> bool:
        pinned.add(kappa)
        return False

    _walk_ring_colorings(g, pos_edge, collect)
    out: set[RingColoring] = set()
    for kappa in pinned:
        if kappa not in out:
            out |= _orbit(kappa)
    return out


def _cut_down(
    stubbed: Graph, m: int, deleted: frozenset[int]
) -> tuple[Graph, dict[int, int]]:
    """Delete island edges from the island-with-stubs and suppress.

    m is the island's edge count, so stub j is edge m + j of stubbed.
    Returns the suppressed graph and the map from ring position to the
    chain edge now carrying that stub.
    """
    out, provenance, _ = delete_and_suppress_traced(stubbed, deleted)
    pos_edge: dict[int, int] = {}
    for eid, path in provenance.items():
        for orig in path:
            if orig >= m:
                pos_edge[orig - m] = eid
    return out, pos_edge


def ring_extension_oracle(island: Island, deleted: Iterable[int] = ()) -> set[RingColoring]:
    """Every stub coloring some 3-edge-coloring of the island induces.

    The stub at ring position j takes the one color its degree-2 vertex
    does not use. With a deleted edge set the count is taken after
    suppression, so merged chains share a color.
    """
    _ring_positions(island)
    xs = _check_deleted(island, deleted)
    stubbed = with_stubs(island.graph, island.boundary)
    return _realized(*_cut_down(stubbed, island.graph.m, xs))


# -- matchings and fits ---------------------------------------------------------


# Unbounded on purpose: every level re-tests the pending colorings with
# the same signed matchings, and capping the cache at 2**15 or 2**13
# entries slowed the decomposition of generate_pi(5, 12)[371] from 11 s
# to 26-28 s. Bounding its memory belongs with evaluating each signed
# matching once per level rather than once per coloring.
@lru_cache(maxsize=None)
def _fits(k: int, theta: int, signed: tuple[SignedMatch, ...]) -> tuple[RingColoring, ...]:
    """All colorings of k positions that theta-fit the signed matching.

    Unmatched positions take theta; a positive match shares one of the two
    other colors, a negative match splits them. The empty matching fits
    exactly the constant coloring.
    """
    first, second = [c for c in COLORS if c != theta]
    base = [theta] * k
    out: list[RingColoring] = []

    def walk(i: int) -> None:
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


def _signed_lift(
    kappa: RingColoring, positions: tuple[int, ...], struct: Matching
) -> tuple[SignedMatch, ...]:
    """Place an abstract matching on the non-theta positions and read the
    signs off the coloring: equal colors mean +1."""
    out = []
    for a, b in struct:
        p, q = positions[a - 1], positions[b - 1]
        mu = 1 if kappa[p - 1] == kappa[q - 1] else -1
        out.append(((p, q), mu))
    return tuple(out)


def _joins(
    kappa: RingColoring,
    known: set[RingColoring],
    structs_for: dict[int, tuple[Matching, ...]],
    k: int,
) -> bool:
    """True when some color lets every matching reach a known coloring."""
    for theta in COLORS:
        positions = tuple(i + 1 for i, c in enumerate(kappa) if c != theta)
        structs = structs_for[len(positions) // 2]
        good = True
        for struct in structs:
            signed = _signed_lift(kappa, positions, struct)
            if not any(nb in known for nb in _fits(k, theta, signed)):
                good = False
                break
        if good:
            return True
    return False


def _orbit(kappa: RingColoring) -> set[RingColoring]:
    return {
        tuple(perm[c] for c in kappa)
        for perm in itertools.permutations(COLORS)
    }


@lru_cache(maxsize=None)
def _orbit_table(k: int) -> dict[RingColoring, tuple[RingColoring, ...]]:
    """The parity colorings of k positions grouped into color-permutation
    orbits, keyed by least member in increasing order. Built once per
    ring size: at k = 13 it takes about 8 s and holds about 65 MB."""
    return {members[0]: members for members in parity_classes(k)}


def maximal_consistent_residual(
    island: Island, kind: str, cache_dir: Optional[str] = None
) -> ColorableSet:
    """Level decomposition of the ring colorings, largest remainder last.

    Level 0 comes from one walk over the island's colorings. A coloring
    outside the levels built so far joins the next level when for some
    color every matching of its other positions has a fit in an earlier
    level. The loop stops at the first empty level; the residual is the
    maximal set where no such color ever exists. Everything is invariant
    under permuting the three colors, so only orbit representatives are
    tested and whole orbits join together.
    """
    _require_kind(kind)
    k = _ring_positions(island)
    if k > RING_LIMIT:
        raise ValueError(
            f"ring size {k} needs matching tables past {MEMO_LIMIT} pairs"
        )
    orbits = _orbit_table(k)

    structs_for: dict[int, tuple[Matching, ...]] = {0: ((),)}
    for r in range(1, k // 2 + 1):
        structs_for[r] = tuple(sorted(get_kempe(r, kind, cache_dir)))

    stubbed = with_stubs(island.graph, island.boundary)
    level0 = _realized(stubbed, {j: island.graph.m + j for j in range(k)})
    pending = [rep for rep in orbits if rep not in level0]
    levels = [frozenset(level0)]
    known = set(level0)
    while pending:
        added = [rep for rep in pending if _joins(rep, known, structs_for, k)]
        if not added:
            break
        level: set[RingColoring] = set()
        for rep in added:
            level.update(orbits[rep])
        levels.append(frozenset(level))
        known |= level
        taken = set(added)
        pending = [rep for rep in pending if rep not in taken]
    residual = frozenset(kappa for rep in pending for kappa in orbits[rep])
    return ColorableSet(k, tuple(levels), residual)


# -- reducibility ---------------------------------------------------------------


def admissible_contraction(island: Island, deleted: Iterable[int]) -> bool:
    """Whether the edge set qualifies for the C test: no vertex loses
    exactly two edges, and after suppression no chain bridges its piece."""
    xs = frozenset(deleted)
    for e in xs:
        if not (0 <= e < island.graph.m):
            raise ValueError("deleted edge out of range")
    if 2 in loss_counts(island.graph, xs):
        return False
    out, _ = _cut_down(with_stubs(island.graph, island.boundary), island.graph.m, xs)
    return _bridge_free(out)


def check_reducibility(
    source: Union[Configuration, FreeCompletion, Island],
    kind: str,
    max_contraction: int,
    cache_dir: Optional[str] = None,
) -> ReducibilityVerdict:
    """D when the residual is empty; else C with the first admissible edge
    set, by size then position, whose surviving colorings avoid the
    residual; else none.

    The search covers island edge subsets up to max_contraction (at most
    8). Each admissible subset is tested by one walk over the colorings of
    the cut-down island with its first edge pinned to color 0; the walk
    stops at the first ring coloring in the residual, which rejects the
    subset. A cut-down island with no coloring at all passes. The pin is
    sound because the residual is closed under color permutation.
    Deterministic: the same input always returns the same contraction.
    """
    if not 1 <= max_contraction <= 8:
        raise ValueError("max_contraction must be between 1 and 8")
    island = source if isinstance(source, Island) else island_of(source)
    validate_island(island)
    decomposition = maximal_consistent_residual(island, kind, cache_dir)
    used = decomposition.max_level
    if not decomposition.residual:
        return ReducibilityVerdict("D", (), used)
    residual = decomposition.residual
    g = island.graph
    stubbed = with_stubs(g, island.boundary)
    for size in range(1, max_contraction + 1):
        for xs in itertools.combinations(range(g.m), size):
            deleted = frozenset(xs)
            if 2 in loss_counts(g, deleted):
                continue
            out, pos_edge = _cut_down(stubbed, g.m, deleted)
            if not _bridge_free(out):
                continue
            if not _walk_ring_colorings(out, pos_edge, residual.__contains__):
                return ReducibilityVerdict("C", tuple(xs), used)
    return ReducibilityVerdict("none", (), used)


def delete_and_suppress_island(island: Island, deleted: Iterable[int]) -> Island:
    """The island with the edges gone and their endpoints smoothed out.

    Stubs follow their merged chains, so the boundary keeps one attachment
    per ring position in the original order; a suppressed ring vertex
    hands its stub to the far end of its chain. Chains that close on
    themselves vanish. Raises when a vertex would lose exactly two edges
    or when two stubs would fuse into one edge with no island left
    between them. The result carries no embedding or provenance.
    """
    xs = _check_deleted(island, deleted)
    if not xs:
        return island
    out, pos_edge = _cut_down(with_stubs(island.graph, island.boundary), island.graph.m, xs)
    keep = [v for v in range(out.n) if out.degree(v) == 3]
    new_id = {v: i for i, v in enumerate(keep)}
    stub_edges = set(pos_edge.values())
    edges = []
    for e in range(out.m):
        if e in stub_edges:
            continue
        u, w = out.endpoints(e)
        edges.append((new_id[u], new_id[w]))
    boundary = []
    for j in range(len(island.boundary)):
        u, w = out.endpoints(pos_edge[j])
        anchors = [v for v in (u, w) if v in new_id]
        if not anchors:
            raise ValueError("deleting these edges fuses two ring stubs")
        boundary.append(new_id[anchors[0]])
    return Island(
        graph=Graph(len(keep), edges, None, None),
        boundary=tuple(boundary),
    )


def contraction_edges(
    completion: FreeCompletion, island: Island, pairs: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
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
