"""Inputs, calls and output checks for the two benchmark workloads.

rows  planar rows pinned by tests/test_families.py at the test's
      contraction cap, the cheaper of them also under kind="projective",
      and three data/*.conf fixtures under both kinds at cap 3
cuts  100 seed-drawn 12-vertex random_planar_cubic graphs and the two
      Petersen fixtures, through cut enumeration, the coloring pipeline
      and the Petersen-like test

Setup builds every input and the matching tables before the first timed
call. Each setup call into snarklab runs inside a tracer span, so a traced
run can report where set-up time goes.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from snarklab.configurations import Island, island_of, parse_configuration
from snarklab.cutanalysis import random_planar_cubic
from snarklab.cuts import CyclicCut, PipelineResult
from snarklab.families import (
    generate_delta6,
    generate_pi,
    generate_pi_hat_3_6,
)
from snarklab.graphs import Graph, is_proper_coloring, parse_graph
from snarklab.rings import get_kempe, get_kempe_stats

WORKLOADS = ("rows", "cuts")
KINDS = ("planar", "projective")

VERDICTS_PATH = Path(__file__).with_name("verdicts.json")

# (row, generator, generator args, cap, planar profile pinned by
# tests/test_families.py, run under projective tables too)
# A profile is (D count, C count, unresolved, {contraction size: C count}).
# pi(4,8), pi(5,9) and pi(3,8) are left out: with them one pass takes
# 18-40 s on the reference machine instead of about 10 s (see README.md).
ROWS = (
    ("pi(3,6)", generate_pi, (3, 6), 2, (5, 9, 0, {1: 8, 2: 1}), True),
    ("pi(4,6)", generate_pi, (4, 6), 2, (2, 0, 0, {}), True),
    ("pi(4,7)", generate_pi, (4, 7), 2, (8, 0, 0, {}), True),
    ("pi(5,8)", generate_pi, (5, 8), 2, (2, 0, 0, {}), True),
    ("pi(3,7)", generate_pi, (3, 7), 5, (4, 23, 0, {1: 19, 2: 1, 4: 2, 5: 1}), True),
    ("delta6", generate_delta6, (), 4, (10, 28, 0, {1: 26, 2: 1, 4: 1}), False),
    ("pi_hat_3_6", generate_pi_hat_3_6, (), 4, (141, 46, 0, {1: 46}), False),
)

# bowtie is left out: its one verdict takes about 2.6 s under either kind
FIXTURES = ("conf1", "triangle555", "wheel5")
FIXTURE_CAP = 3

# Every graph gets the same size: random_planar_cubic(rng, 4) has 12
# vertices. Cut enumeration is exponential (about 0.12 s at n=16 and 3.3 s
# at n=28 on the reference machine) and the pipeline's cost has a long
# tail from n=28 on, so a mix of sizes puts one or two slow graphs in the
# top items and the run-to-run spread across seeds past the metric bounds.
# At n=12 a graph's cost has a short tail, and 100 graphs let the seed move
# item_p95_ms by about 2% (40 graphs at n=16: 11%).
CUT_GRAPHS = 100
CUT_EXPANSIONS = 4
CUT_K = 5
PETERSEN_FIXTURES = ("petersen", "petersen_triangle")


@dataclass(frozen=True)
class FamilyItem:
    label: str
    row: str
    island: Island
    kind: str
    cap: int
    expected: tuple


@dataclass(frozen=True)
class GraphItem:
    label: str
    graph: Graph
    petersen: bool


@dataclass
class Inputs:
    workload: str
    family: list[FamilyItem]
    graphs: list[GraphItem]
    counters: dict[str, int]


def verdict_tuple(verdict) -> tuple:
    return (verdict.kind, tuple(verdict.contraction), verdict.levels_used)


def load_verdicts() -> dict:
    return json.loads(VERDICTS_PATH.read_text())


def _data(name: str) -> str:
    return (resources.files("snarklab") / "data" / name).read_text()


def _table_entry(entry: list) -> tuple:
    kind, contraction, levels = entry
    return (kind, tuple(contraction), levels)


def _build_tables(kind: str, ring_sizes: set[int], tracer, counters: dict) -> None:
    for r in range(1, max(ring_sizes) // 2 + 1):
        with tracer.span("rings.get_kempe"):
            get_kempe(r, kind)
        counters["rings.matchings"] += get_kempe_stats(r, kind)["unique"]


def _rows_setup(tracer, counters: dict) -> list[FamilyItem]:
    table = load_verdicts()
    items: list[FamilyItem] = []
    for row, generator, args, cap, _, projective in ROWS:
        with tracer.span("families.generate"):
            members = generator(*args)
        counters["families.members"] += len(members)
        islands = [m.island() for m in members]
        for kind in KINDS if projective else ("planar",):
            for i, island in enumerate(islands):
                items.append(
                    FamilyItem(f"{kind}:{row}#{i}", f"{kind}:{row}", island, kind, cap,
                               _table_entry(table[kind][row][i]))
                )
    for name in FIXTURES:
        config = parse_configuration(_data(f"{name}.conf"))
        with tracer.span("configurations.island_of"):
            island = island_of(config)
        for kind in KINDS:
            row = f"{kind}:conf:{name}"
            items.append(
                FamilyItem(row, row, island, kind, FIXTURE_CAP,
                           _table_entry(table[kind][f"conf:{name}"][0]))
            )
    for kind in KINDS:
        sizes = {len(it.island.boundary) for it in items if it.kind == kind}
        _build_tables(kind, sizes, tracer, counters)
    # Interleave the rows in one fixed order. Each row's members then run
    # spread over the whole pass, so that the items near p50 and p95 do not
    # all fall into the same few seconds of machine noise.
    random.Random(0).shuffle(items)
    return items


def _cuts_setup(seed: int, tracer) -> list[GraphItem]:
    rng = random.Random(seed)
    items = []
    for j in range(CUT_GRAPHS):
        with tracer.span("cutanalysis.random_planar_cubic"):
            g = random_planar_cubic(rng, CUT_EXPANSIONS)
        items.append(GraphItem(f"random#{j}", g, False))
    for name in PETERSEN_FIXTURES:
        items.append(GraphItem(name, parse_graph(_data(f"{name}.cub")), True))
    return items


def setup(workload: str, seed: int, tracer) -> Inputs:
    counters = {"families.members": 0, "rings.matchings": 0}
    family: list[FamilyItem] = []
    graphs: list[GraphItem] = []
    if workload == "rows":
        family = _rows_setup(tracer, counters)
    elif workload == "cuts":
        graphs = _cuts_setup(seed, tracer)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return Inputs(workload, family, graphs, counters)


# -- output checks ---------------------------------------------------------------


def profile(verdicts: list[tuple]) -> tuple:
    """The test suite's row profile of a list of verdict tuples."""
    kinds = Counter(v[0] for v in verdicts)
    sizes = Counter(len(v[1]) for v in verdicts if v[0] == "C")
    return (kinds["D"], kinds["C"], kinds["none"], dict(sizes))


def failed_family_items(inputs: Inputs, verdicts: list[Optional[tuple]]) -> set[int]:
    """Indices whose verdict differs from the recorded table, and every
    planar member of a row whose profile is not the pinned one."""
    failed = {i for i, (it, v) in enumerate(zip(inputs.family, verdicts)) if v != it.expected}
    for row, _, _, _, pinned, _ in ROWS:
        idx = [i for i, it in enumerate(inputs.family) if it.row == f"planar:{row}"]
        got = [verdicts[i] for i in idx]
        if None in got or profile(got) != pinned:
            failed.update(idx)
    return failed


def _connected_cyclic(g: Graph, side: set[int]) -> bool:
    inside = [g.endpoints(e) for e in range(g.m) if set(g.endpoints(e)) <= side]
    adj: dict[int, list[int]] = {v: [] for v in side}
    for u, w in inside:
        adj[u].append(w)
        adj[w].append(u)
    start = next(iter(side))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == side and len(inside) >= len(side)


def is_bond(g: Graph, cut: CyclicCut) -> bool:
    """The sides partition the vertices, the cut is exactly the edges
    between them, and both sides are connected and contain a cycle."""
    a, b = set(cut.side_a), set(cut.side_b)
    if not a or not b or a & b or a | b != set(range(g.n)):
        return False
    crossing = sorted(e for e in range(g.m) if (g.endpoints(e)[0] in a) != (g.endpoints(e)[1] in a))
    if crossing != sorted(cut.edges):
        return False
    return _connected_cyclic(g, a) and _connected_cyclic(g, b)


def graph_item_ok(
    item: GraphItem,
    cuts: list[CyclicCut],
    pipeline: PipelineResult,
    petersen_like: bool,
) -> bool:
    """Random planar graphs color and are not Petersen-like; the Petersen
    fixtures are Petersen obstructions. Every enumerated cut is a bond."""
    g = item.graph
    if not all(is_bond(g, c) for c in cuts):
        return False
    if petersen_like != item.petersen:
        return False
    if item.petersen:
        return pipeline.coloring is None and pipeline.obstruction_is_petersen
    return pipeline.coloring is not None and is_proper_coloring(g, pipeline.coloring)
