"""D- and C-reducibility of islands under ring matching semantics.

An island meets the rest of a cubic host through half-edge stubs at its
degree-2 vertices, one per ring position. Any 3-edge-coloring of a host
restricts to a parity coloring of the stubs, and Kempe chains running
outside the island act on those colorings through signed matchings.

Level 0 of the decomposition holds the stub colorings that extend to a
coloring of the island itself. A coloring joins a later level when, for
some color theta, every matching of its non-theta positions, signed by
which pairs share a color, is also the lift of an earlier-level coloring,
so any host coloring could be Kempe-changed down to one the island
absorbs. Colorings no level ever reaches form the residual: an empty
residual makes the island D-reducible, and deleting a small interior edge
set whose surviving colorings all avoid the residual makes it
C-reducible.

The levels run over one table per ring size and matching kind, built
once per process: every signed matching a coloring can lift to has a
number inside the block of its position set, and every orbit
representative holds, under each theta, its non-theta position set and
the bit mask of its lifts' numbers. An island's known colorings are then
one int per position set whose set bits are the lifts hit, so marking
an orbit takes three ORs and testing a row one AND. A pending
representative's three rows are tested in turn, up to the first that
passes. Whole color orbits join together, so a decomposition is kept as
the level of each orbit representative, and coloring sets are built only
when a caller reads the levels or the residual.

One graphs.color_walk over the colorings of the island with its stubs
serves level 0, the C test and ring_extension_oracle. Every vertex has
degree 3 or is the degree-1 outer end of a stub. A stub whose ring
vertex keeps its three edges takes the one color the other two leave, so
the walk colors only the other chains and keeps the ring code
sum(kappa[j] * 3**j), linear in their colors, as it goes; the colorings
it meets, forced stubs filled in, are those of the island with its
stubs. Level 0 and ring_extension_oracle visit every leaf, so they walk
densest-first (_densest_first): coloring next the chain with the fewest
colors left ends dead branches sooner, in half the nodes of slot order.
The C test mostly stops at its first leaf, before a plan per cut-down
would pay, so it keeps slot order. The walk pins its first chain to
color 0 and a second that meets it to color 1, so it meets each color
orbit once but not every member: every caller names each code's orbit or
closes what it collects under the six color permutations, so the pins
lose nothing. An island with a loop or an uncolorable component reaches
no leaf. A template of the stubbed island, its forced stubs and its code
weights are laid out once. Level 0 walks the template itself. The C test
walks the edge subsets of each size depth first, in
itertools.combinations order, and keeps one cut-down per depth of the
current prefix: a push copies its parent's, empties one edge's slot and
suppresses its ends through the same merge step a cut-down from the
template uses. A cut-down holds its chains only; the walk plans its
conflicts over the template's walked slots. The C test walks first,
stopping at the first surviving coloring in the residual, which rejects
the edge set. A walk that finds none is followed by the bridge test,
which the C test needs, as a bridged cut-down island has no coloring
(parity lemma) and the walk misses on it. It reads the stubbed island
less the set, as suppression neither makes nor removes a bridge. Level 0
and the C test name each leaf's orbit by one read of rings.orbit_codes
at its code: level 0 marks an orbit's lifts the first time it meets it,
and the C test reads one residual byte per orbit.

Every planar matching table lies inside the projective one, so the
planar residual lies inside the projective residual. An edge set the
planar C test refuses, the projective test refuses too and counts alike:
a hit stays a hit, and a miss before the answer is a bridged cut-down,
with no coloring. So a planar C or none is kept per live graph, weak-keyed,
and a projective check of the same island resumes at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, compress, dropwhile
from math import comb
from operator import index
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence
from weakref import WeakKeyDictionary

from .configurations import Island, check_ring_boundary, validate_island
from .graphs import Graph, color_walk, low_link
from .rings import COLOR_PERMUTATIONS, COLORS, RingColoring, get_kempe, orbit_codes, orbit_representatives

# the largest ring whose orbit codes and lift table, of either kind, were
# measured to fit in 1 GB of one process (see the refusal test)
RING_LIMIT = 14


# -- verdict types -------------------------------------------------------------


@dataclass(frozen=True)
class ColorableSet:
    """Level decomposition of the parity colorings of a ring.

    levels[0] holds the colorings that extend into the island; level i+1
    holds those first forced by matching consistency once levels 0..i are
    known; residual is whatever no level reaches. Levels are pairwise
    disjoint and together with the residual partition the parity colorings.

    Whole color orbits join together, so the decomposition is kept as
    rep_level: rep_level[i] is the level that the orbit of
    orbit_representatives(ring_size)[i] joins, or -1 when it stays in the
    residual. levels and residual permute the representatives out to
    coloring sets on first read.
    """

    ring_size: int
    rep_level: tuple[int, ...]

    @cached_property
    def max_level(self) -> int:
        return max(0, max(self.rep_level))

    @cached_property
    def levels(self) -> tuple[frozenset[RingColoring], ...]:
        members: list[list[RingColoring]] = [[] for _ in range(self.max_level + 1)]
        for rep, level in zip(orbit_representatives(self.ring_size), self.rep_level):
            if level >= 0:
                members[level].append(rep)
        return tuple(frozenset(_permuted(reps)) for reps in members)

    @cached_property
    def residual(self) -> frozenset[RingColoring]:
        reps = orbit_representatives(self.ring_size)
        return frozenset(_permuted(rep for rep, level in zip(reps, self.rep_level) if level < 0))


class SearchStats(NamedTuple):
    """C-search counts: subsets enumerated, walked, bridge-tested, by the
    search, not by one call (a resumed projective check counts them all)."""

    subsets: int = 0
    walked: int = 0
    bridge_tests: int = 0


@dataclass(frozen=True)
class ReducibilityVerdict:
    """kind is "D", "C", or "none"; contraction is the island edge set
    whose deletion passed the C test, empty otherwise; levels_used is the
    highest level index the decomposition needed; stats takes no part in
    equality or hashing."""

    kind: str
    contraction: tuple[int, ...]
    levels_used: int
    stats: SearchStats = field(default=SearchStats(), compare=False)


# -- island plus stubs ---------------------------------------------------------


def _bridge_free(n: int, pairs: Sequence[tuple[int, int]]) -> bool:
    """True iff no edge of the multigraph on 0..n-1 whose edge e joins
    pairs[e] separates its component once all leaves are fused.

    Leaves are the degree-1 vertices, the outer ends of stub chains; in a
    host they all reach the same connected outside, so they count as one
    shared node and a chain returning outside is no bridge.
    """
    degree = [0] * n
    for u, w in pairs:
        degree[u] += 1
        degree[w] += 1
    node = [n if d == 1 else v for v, d in enumerate(degree)]
    return not low_link(n + 1, [(node[u], node[w]) for u, w in pairs])[0]


# -- the cut-down island -------------------------------------------------------


class _Template(NamedTuple):
    """The island with its stubs, laid out once for cutting down.

    It has n vertices, the stubs' leaves last. Edge e joins pairs[e], the
    stubs last, and dart 2e + i is its end at end[2e + i] = pairs[e][i];
    rank orders the darts by vertex, then by edge id. Edge e sits in slots
    at its lower dart rank, first[e], with that dart's end first. merge[d]
    holds the other two darts at d's vertex when losing d's edge alone
    suppresses the vertex. far[d] = d ^ 1 is the other end of the chain
    that ends at dart d.

    A ring coloring's code is sum(kappa[j] * 3**j), and power[v] is 3**j
    at the ring vertex v of position j, 0 elsewhere. Stub j takes the one
    color 3 - color(a) - color(b) that the other two edges at its ring
    vertex leave, unless they are one loop, so the code of an island
    coloring is base + sum(weight[r] * color[r]) over the slots r in free,
    those of every chain but the forced stubs."""

    n: int
    pairs: list[tuple[int, int]]
    end: list[int]
    rank: list[int]
    slots: list[Optional[tuple[int, int]]]
    first: list[int]
    merge: list[Optional[tuple[int, int]]]
    far: list[int]
    power: list[int]
    free: list[int]
    weight: list[int]
    base: int


def _template(island: Island) -> _Template:
    g = island.graph
    pairs = g.edge_list + [(v, g.n + j) for j, v in enumerate(island.boundary)]
    end = [v for ends in pairs for v in ends]
    darts: list[list[int]] = [[] for _ in range(g.n + len(island.boundary))]
    for d, v in enumerate(end):
        darts[v].append(d)
    rank = [0] * len(end)
    merge: list[Optional[tuple[int, int]]] = [None] * len(end)
    r = 0
    for at_v in darts:
        for d in at_v:
            rank[d] = r
            r += 1
        if len(at_v) == 3:
            a, b, c = at_v
            if b >> 1 != c >> 1:
                merge[a] = (b, c)
            if a >> 1 != c >> 1:
                merge[b] = (a, c)
            if a >> 1 != b >> 1:
                merge[c] = (a, b)
    first = [0] * len(pairs)
    slots: list[Optional[tuple[int, int]]] = [None] * len(end)
    for e, (u, w) in enumerate(pairs):
        r, s = rank[2 * e], rank[2 * e + 1]
        if r < s:
            first[e] = r
            slots[r] = (u, w)
        else:
            first[e] = s
            slots[s] = (w, u)
    power = [0] * len(darts)
    walked = [True] * len(end)
    weight = [0] * len(end)
    base = 0
    p = 1
    for e, v in enumerate(island.boundary, g.m):
        power[v] = p
        rest = merge[2 * e]
        if rest:
            walked[first[e]] = False
            weight[first[rest[0] >> 1]] -= p
            weight[first[rest[1] >> 1]] -= p
            base += 3 * p
        else:
            weight[first[e]] += p
        p *= 3
    far = [0] * len(end)
    far[::2] = range(1, len(end), 2)
    far[1::2] = range(0, len(end), 2)
    free = list(compress(range(len(end)), walked))
    return _Template(len(darts), pairs, end, rank, slots, first, merge, far, power, free, weight, base)


def _lost(n: int, pairs: Sequence[tuple[int, int]], deleted: Iterable[int]) -> Optional[list[int]]:
    """The loss guard: per vertex, its count of deleted edges; None when some
    vertex loses exactly two, a deleted loop counting three."""
    lost = [0] * n
    for e in deleted:
        u, w = pairs[e]
        lost[u] += 1
        lost[w] += 1 if u != w else 2
    return None if 2 in lost else lost


def _suppress(template: _Template, slots: list, weight: list[int], far: list[int], d: int, base: int) -> int:
    """The merge step: suppress the vertex v at dart d, whose edge is gone
    and whose other two darts, merge[d], still end chains. The two chains
    join into one, placed at its lower end-dart rank with the sum of their
    weights plus 2 * power[v], or drop when they are one chain closing
    through v. It edits slots, weight and far in place and returns the base
    less 3 * power[v], since v's stub no longer forces a color."""
    rank, end = template.rank, template.end
    a, b = template.merge[d]
    x, y = far[a], far[b]
    gain = template.power[end[d]]
    # lower ranks by comparison, as min() costs more in this hot step
    ra = rank[a] if rank[a] < rank[x] else rank[x]
    slots[ra] = None
    if x != b:
        rb = rank[b] if rank[b] < rank[y] else rank[y]
        r = rank[x] if rank[x] < rank[y] else rank[y]
        slots[rb] = None
        far[x], far[y] = y, x
        weight[r] = weight[ra] + weight[rb] + 2 * gain
        slots[r] = (end[x], end[y]) if r == rank[x] else (end[y], end[x])
    return base - 3 * gain


def _densest_first(n: int, pairs: Sequence[Optional[tuple[int, int]]], order: Sequence[int]) -> list[int]:
    """The entries of order that pairs names, each next the one with the
    longest graphs.walk_conflicts list over those taken, which counts
    each shared end, ties to the earlier in order."""
    live = [r for r in order if pairs[r]]
    at: list[list[int]] = [[] for _ in range(n)]
    for i, r in enumerate(live):
        for v in pairs[r]:
            at[v].append(i)
    # per score, its positions as set bits, and -1 once taken; a loop's
    # neighbours count twice, so no score passes twice a vertex's entries
    held = [0] * (2 * max(map(len, at), default=0) + 1)
    held[0] = (1 << len(live)) - 1
    score = [0] * len(live)
    out: list[int] = []
    top = 0
    while len(out) < len(live):
        while not held[top]:
            top -= 1
        i = (held[top] & -held[top]).bit_length() - 1
        held[top] ^= 1 << i
        score[i] = -1
        out.append(live[i])
        for v in pairs[live[i]]:
            for j in at[v]:
                if score[j] >= 0:
                    held[score[j]] ^= 1 << j
                    score[j] += 1
                    held[score[j]] |= 1 << j
                    if score[j] > top:
                        top = score[j]
    return out


def _cut_down(template: _Template, deleted: Collection[int]) -> Optional[tuple[list, list[int], int]]:
    """Delete island edges from the stubbed island and suppress, from the
    template, as its slots, weight and base, read at the live slots of its
    free (see _Template); None when the loss guard refuses the edges.

    Every deleted edge's slot empties, then each vertex left with two of
    its three edges is suppressed by _suppress: its two chains join, and
    a chain closing through suppressed vertices only is dropped. Chains
    keep the template's slot order, each at its lower-ranked end dart, so
    only the chains through suppressed vertices are built anew. A vertex
    losing all three edges drops out.

    A ring vertex that keeps its three edges still forces its stub, and a
    new chain's weight is the sum of its edges' weights. A suppressed
    ring vertex of position j no longer does: its stub and its kept edge
    join one new chain, each gaining 3**j, and the base loses 3 * 3**j.
    """
    lost = _lost(template.n, template.pairs, deleted)
    if lost is None:
        return None
    first, merge, end = template.first, template.merge, template.end
    slots = template.slots[:]
    weight = template.weight[:]
    far = template.far[:]
    base = template.base
    for e in deleted:
        slots[first[e]] = None
    for e in deleted:
        for d in (2 * e, 2 * e + 1):
            if lost[end[d]] == 1 and merge[d]:
                base = _suppress(template, slots, weight, far, d, base)
    return slots, weight, base


def _subset_tree(
    template: _Template, m: int, size: int
) -> Iterator[tuple[tuple[int, ...], int, Optional[tuple[list, list[int], int]]]]:
    """The edge sets of size edges out of island edges 0..m-1, depth first
    in itertools.combinations order, as (xs, count, cut): count sets
    starting with xs, cut the cut-down of xs, or None when the loss guard
    refuses all of them.

    Each depth keeps its prefix's cut-down: a push copies the parent's
    slots, weight and far, empties the edge's slot and suppresses each end
    that now loses one edge through _suppress, so every cut owns its lists.
    Once a vertex loses two edges the prefix holds no cut-down, and a push
    counts losses only; such a vertex owes its third edge, which the set
    must take later. A step whose next edge passes the least edge owed, or
    that has fewer edges left to take than edges owed, is refused with
    every later set starting with the prefix, counted with math.comb. A
    last edge that leaves a vertex losing two is refused from the loss
    counts alone; a set whose every vertex loses 0, 1 or 3 edges is cut
    down from the template by _cut_down.
    """
    pairs, first, merge = template.pairs, template.first, template.merge
    # per vertex, its greatest island edge id: the edge a vertex owes once
    # it loses two, unless that is the edge it has just lost
    top = [-1] * template.n
    for e in range(m):
        u, w = pairs[e]
        top[u] = top[w] = e
    lost = [0] * template.n
    xs: list[int] = []
    # per depth, the prefix's cut-down as (slots, weight, far, base), or
    # None, and the edges it owes in increasing order, -1 for an edge passed
    cuts: list[Optional[tuple]] = [(template.slots, template.weight, template.far, template.base)]
    owed: list[tuple[int, ...]] = [()]
    e = 0
    while True:
        depth = len(xs)
        free = size - depth
        need = owed[depth]
        if e > m - free:
            if not xs:
                return
        elif need and (need[0] < e or len(need) > free):
            yield tuple(xs), comb(m - e, free), None
        else:
            u, w = pairs[e]
            state = cuts[depth]
            if state and u != w and not lost[u] and not lost[w]:
                slots, weight, far, base = state
                slots, weight, far = slots[:], weight[:], far[:]
                slots[first[e]] = None
                for d in (2 * e, 2 * e + 1):
                    if merge[d]:
                        base = _suppress(template, slots, weight, far, d, base)
                if free == 1:
                    yield (*xs, e), 1, (slots, weight, base)
                    e += 1
                    continue
                lost[u] = lost[w] = 1
                state = slots, weight, far, base
            elif free == 1:
                # an end that has lost one would lose two, a loop's end three
                refused = need not in ((), (e,)) or u != w and 1 in (lost[u], lost[w])
                yield (*xs, e), 1, None if refused else _cut_down(template, (*xs, e))
                e += 1
                continue
            else:
                # a deleted loop counts three
                lost[u] += 1
                lost[w] += 1 if u != w else 2
                twos = {top[v] if top[v] > e else -1 for v in (u, w) if lost[v] == 2}
                state, need = None, tuple(sorted(twos.union(need).difference((e,))))
            cuts.append(state)
            owed.append(need)
            xs.append(e)
            e += 1
            continue
        e = xs.pop()
        del cuts[-1], owed[-1]
        u, w = pairs[e]
        lost[u] -= 1
        lost[w] -= 1 if u != w else 2
        e += 1


def _edge_set(island: Island, deleted: Iterable[int]) -> frozenset[int]:
    """The deleted island edges as a set, once the ring boundary and ids check out."""
    check_ring_boundary(island.graph, island.boundary)
    xs = frozenset(deleted)
    if not all(0 <= e < island.graph.m for e in xs):
        raise ValueError("deleted edge out of range")
    return xs


def ring_extension_oracle(island: Island, deleted: Iterable[int] = ()) -> set[RingColoring]:
    """Every stub coloring some 3-edge-coloring of the island induces.

    The stub at ring position j takes the one color its degree-2 vertex
    does not use. With a deleted edge set the count is taken after
    suppression, so merged chains share a color. The walk visits every
    leaf, so it goes densest-first as level 0 does, not in the C test's
    slot order.
    """
    template = _template(island)
    cut = _cut_down(template, _edge_set(island, deleted))
    if cut is None:
        raise ValueError("a vertex may not lose exactly two of its edges")
    slots, weight, base = cut
    pinned: set[int] = set()
    # set.add returns None, so the walk goes on to every leaf
    color_walk(template.n, slots, _densest_first(template.n, slots, template.free), pinned.add, weight, base)
    k = len(island.boundary)
    return set(_permuted(tuple(code // 3**j % 3 for j in range(k)) for code in pinned))


# -- the level decomposition -----------------------------------------------------


def _permuted(colorings: Iterable[RingColoring]) -> Iterator[RingColoring]:
    """Every color permutation of every given coloring, repeats included."""
    return (tuple(raw.translate(table)) for raw in map(bytes, colorings) for table in COLOR_PERMUTATIONS)


@lru_cache(maxsize=None)
def _lift_table(k: int, kind: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Signed-matching masks for k ring positions and kind, as (sets,
    masks), built on first use and kept for the process.

    A signed matching is a matching of some ring positions with a sign
    per match. Every one that an orbit representative lifts to, under any
    theta, has a number inside its position set's block. Row 3 * i + theta
    is representative i, in rings.orbit_representatives order, under
    theta: sets[row] is its non-theta positions as a k-bit int, and the
    set bits of masks[row] are the numbers of its lifts through every
    matching of those positions. At k = 13 the table holds 66,430
    representatives, and its 199,290 rows share 1,365 masks in either
    kind."""
    # A signed matching on 2r positions is numbered within its position
    # set's block by its matching's index in the table for r pairs and its
    # signs. The lift of a parity coloring has a number of unequal matches
    # of k's parity, and every such sign vector occurs, so all but the last
    # sign finish the number and the numbers run through the whole block.
    matchings: list[list[tuple[tuple[int, int], ...]]] = [[()]]
    for r in range(1, k // 2 + 1):
        table = sorted(get_kempe(r, kind))
        matchings.append([tuple((a - 1, b - 1) for a, b in match) for match in table])

    @lru_cache(maxsize=None)
    def lifts(spelled: bytes) -> int:
        """The numbers of the lifts through each matching of the non-theta
        positions as set bits, where spelled gives those positions last
        first as binary digits, 1 at the larger non-theta color."""
        r = len(spelled) // 2
        upper = int(b"0" + spelled, 2)
        # matching i's lifts fill bits i << (r - 1) on, one per sign vector
        width = 1 << (r - 1) if r else 1
        field = [f"{1 << signs:0{width}b}" for signs in range(width)]
        fields = []
        for match in reversed(matchings[r]):
            signs = 0
            for j, (a, b) in enumerate(match[:-1]):
                signs |= ((upper >> a ^ upper >> b) & 1) << j
            fields.append(field[signs])
        return int("".join(fields), 2)

    # per theta, its byte and tables spelling colors as binary digits: 1
    # off theta, and 1 at top, the larger non-theta color
    spell = []
    for theta in COLORS:
        top = 1 if theta == 2 else 2
        off = bytes.maketrans(b"\0\1\2", bytes(b"01"[c != theta] for c in COLORS))
        at_top = bytes.maketrans(b"\0\1\2", bytes(b"01"[c == top] for c in COLORS))
        spell.append((bytes([theta]), off, at_top))
    sets: list[int] = []
    masks: list[int] = []
    for kappa in orbit_representatives(k):
        # last position first, so int(..., 2) reads position p as bit p
        raw = bytes(kappa[::-1])
        for theta, off, at_top in spell:
            sets.append(int(raw.translate(off), 2))
            masks.append(lifts(raw.replace(theta, b"").translate(at_top)))
    return tuple(sets), tuple(masks)


def maximal_consistent_residual(island: Island, kind: str) -> ColorableSet:
    """Level decomposition of the ring colorings, largest remainder last.

    Level 0 comes from one walk over the island's colorings,
    densest-first as it visits every leaf (the C test, which mostly
    stops at its first leaf, keeps slot order). A coloring outside the
    levels built so far joins the next level when for some color theta
    every matching of its non-theta positions, signed by whether it
    joins equal colors, is hit: some coloring of an earlier level lifts
    to the same signed matching. The loop stops at the first empty
    level; the residual is the maximal set where no such color ever
    exists.

    Permuting colors leaves lifts unchanged, and every level is closed
    under it, so one hit mask per position set serves all three theta,
    only orbit representatives are tested, and whole orbits join
    together. A representative joins under theta when the lift mask of
    its row lies inside the hit mask of the row's position set. Each
    level tests every pending representative against the levels before
    it, its three rows in turn up to the first that passes, then marks
    the hits of those that joined. Levels are recorded per
    representative and expanded to coloring sets only when read.
    """
    check_ring_boundary(island.graph, island.boundary)
    return _decompose(island, kind)[0]


def _decompose(island: Island, kind: str) -> tuple[ColorableSet, _Template]:
    """maximal_consistent_residual, and the template level 0 walks. A
    pending representative is held by its first row, t = 3 * i."""
    k = len(island.boundary)
    if k > RING_LIMIT:
        raise ValueError(f"ring size {k} is past the ring limit {RING_LIMIT}")
    template = _template(island)
    sets, masks = _lift_table(k, kind)
    codes = orbit_codes(k)
    # per position set, the numbers of the lifts hit so far as set bits
    hit = [0] * (1 << k)
    rep_level = [-1] * (len(sets) // 3)

    def meet(code: int) -> bool:
        i = codes[code]
        if rep_level[i] < 0:
            rep_level[i] = 0
            t = 3 * i
            hit[sets[t]] |= masks[t]
            hit[sets[t + 1]] |= masks[t + 1]
            hit[sets[t + 2]] |= masks[t + 2]
        return False

    order = _densest_first(template.n, template.slots, template.free)
    color_walk(template.n, template.slots, order, meet, template.weight, template.base)
    pending = [3 * i for i, level in enumerate(rep_level) if level < 0]
    level = 0
    while pending:
        added: list[int] = []
        waiting: list[int] = []
        for t in pending:
            if (
                hit[sets[t]] & (m := masks[t]) == m
                or hit[sets[t + 1]] & (m := masks[t + 1]) == m
                or hit[sets[t + 2]] & (m := masks[t + 2]) == m
            ):
                added.append(t)
            else:
                waiting.append(t)
        if not added:
            break
        level += 1
        for t in added:
            rep_level[t // 3] = level
            hit[sets[t]] |= masks[t]
            hit[sets[t + 1]] |= masks[t + 1]
            hit[sets[t + 2]] |= masks[t + 2]
        pending = waiting
    return ColorableSet(k, tuple(rep_level)), template


# -- reducibility ---------------------------------------------------------------


def _residual_test(decomposition: ColorableSet) -> Callable[[int], int]:
    """The C test's leaf: nonzero exactly at the ring codes of the
    residual's colorings, read through rings.orbit_codes and one byte per
    orbit, so no coloring set is built."""
    outside = bytearray(level < 0 for level in decomposition.rep_level)
    codes = orbit_codes(decomposition.ring_size)
    return lambda code: outside[codes[code]]


def admissible_contraction(island: Island, deleted: Iterable[int]) -> bool:
    """Whether the edge set qualifies for the C test: no vertex loses
    exactly two edges, and the stubbed island less the set, whose bridges
    suppression neither makes nor removes, has no bridge."""
    g = island.graph
    xs = _edge_set(island, deleted)
    if _lost(g.n, g.edge_list, xs) is None:
        return False
    pairs = g.edge_list + [(v, g.n + j) for j, v in enumerate(island.boundary)]
    return _bridge_free(g.n + len(island.boundary), [ends for e, ends in enumerate(pairs) if e not in xs])


# per live graph, the boundary, depth and verdict of its last planar C or none
_planar: WeakKeyDictionary[Graph, tuple[tuple[int, ...], int, ReducibilityVerdict]] = WeakKeyDictionary()


def check_reducibility(island: Island, kind: str, max_contraction: int) -> ReducibilityVerdict:
    """D when the island's residual is empty; else C with the first
    admissible edge set, by size then position, whose surviving colorings
    avoid the residual; else none. The island is validated first, its boundary
    only if its graph was (as every generated member's and island_of's is);
    build one from a configuration or completion with island_of.

    The search covers the island edge subsets of up to depth =
    min(max_contraction, island.graph.m) edges, size by size from
    _subset_tree over a template laid out once, which cuts each prefix down
    from its parent's cut-down by one edge and skips, counted, each run of
    sets the loss guard refuses as a whole. Each cut-down is walked first,
    and the walk stops at the first ring code in the residual, read through
    the orbit codes with no coloring set built, rejecting the subset. A
    subset whose walk misses gets the bridge test of admissible_contraction:
    every bridged subset is a miss, since a cut-down island with a bridge
    has no coloring (parity lemma), and it must not pass. Both checks are
    pure, so their order changes no verdict. The verdict's stats count the
    subsets enumerated, walked and bridge-tested.
    Deterministic: the same input always returns the same contraction.

    A projective check resumes at a kept planar C of the same boundary, its
    earlier sets unwalked, or returns a kept planar none of the same depth,
    with the full search's verdict and stats (see the module docstring).
    """
    if index(max_contraction) < 1:
        raise ValueError("max_contraction must be at least 1")
    validate_island(island)
    decomposition, template = _decompose(island, kind)
    used = decomposition.max_level
    if min(decomposition.rep_level) >= 0:
        return ReducibilityVerdict("D", (), used)
    in_residual = _residual_test(decomposition)
    boundary = tuple(island.boundary)
    depth = min(max_contraction, island.graph.m)
    skip, (subsets, walked, bridge_tests) = (), SearchStats()
    record = _planar.get(island.graph) if kind == "projective" else None
    if record and record[0] == boundary:
        _, planar_depth, planar = record
        if planar.kind == "none" and planar_depth == depth:
            return ReducibilityVerdict("none", (), used, planar.stats)
        if planar.kind == "C" and len(planar.contraction) <= depth:
            skip = planar.contraction
            # the answer counts once as a subset, a walk and a bridge test
            subsets, walked, bridge_tests = (count - 1 for count in planar.stats)
    sizes = range(len(skip) or 1, depth + 1)
    items = chain.from_iterable(_subset_tree(template, island.graph.m, size) for size in sizes)
    if skip:
        items = dropwhile(lambda item: item[0] != skip, items)
    for xs, count, cut in items:
        subsets += count
        if cut is None:
            continue
        walked += 1
        slots, weight, base = cut
        if color_walk(template.n, slots, template.free, in_residual, weight, base) is not None:
            continue
        bridge_tests += 1
        if _bridge_free(template.n, [ends for e, ends in enumerate(template.pairs) if e not in xs]):
            verdict = ReducibilityVerdict("C", xs, used, SearchStats(subsets, walked, bridge_tests))
            break
    else:
        verdict = ReducibilityVerdict("none", (), used, SearchStats(subsets, walked, bridge_tests))
    if kind == "planar":
        _planar[island.graph] = (boundary, depth, verdict)
    return verdict
