"""One benchmark phase, run by run.py in a fresh interpreter.

    python3 -B bench/worker.py <phase> <workload> <seed> <trace 0|1> <stamp>

stamp is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, imports and input
construction. Phases:

    measure    build the inputs, make the timed calls, check the outputs
    decompose  build the inputs, time maximal_consistent_residual per
               member in checking order, then (untimed) count admissible
               subsets and re-check every verdict read from stdin

decompose runs in its own process because the level decomposition
memoizes matching fits in a module-level cache: timed after
check_reducibility in one process it would run warm. The C-search never
touches that cache, so this process sees the same cache states as the
measure process did.

Between the items of the measure phase, and eight times right after
set-up, the worker times speed.py's reference task, so that run.py can
give every time at a fixed host speed; that time is in no item.

The phase prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

from snarklab.cuts import color_pipeline, enumerate_cyclic_cuts, is_petersen_like
from snarklab.graphs import three_edge_color
from snarklab.reducibility import (
    admissible_contraction,
    check_reducibility,
    maximal_consistent_residual,
    ring_extension_oracle,
)

import workloads as w
from rank import subsets_in_order, subsets_tried
from speed import Probe
from tracing import NullTracer, Tracer


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _report_error(label: str) -> None:
    print(f"item {label} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def measure_family(inputs: w.Inputs, tracer, probe: Probe) -> dict:
    verdicts: list = []
    times: list[float] = []
    starts: list[float] = []
    start = time.perf_counter()
    for i, item in enumerate(inputs.family):
        probe.sample()
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            with tracer.span("reducibility.check", i):
                verdict = check_reducibility(item.island, item.kind, item.cap)
            verdicts.append(w.verdict_tuple(verdict))
        except Exception:
            verdicts.append(None)
            _report_error(item.label)
        times.append(time.perf_counter() - t0)
    probe.sample(force=True)
    wall = time.perf_counter() - start - probe.spent
    rss = _peak_rss_mb()
    failed = w.failed_family_items(inputs, verdicts)
    return {
        "wall_s": wall,
        "times": times,
        "starts": starts,
        "peak_rss_mb": rss,
        "failed": sorted(failed),
        "verdicts": verdicts,
        "labels": [it.label for it in inputs.family],
    }


def measure_cuts(inputs: w.Inputs, tracer, traced: bool, probe: Probe) -> dict:
    outputs: list = []
    times: list[float] = []
    starts: list[float] = []
    start = time.perf_counter()
    for i, item in enumerate(inputs.graphs):
        probe.sample()
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            with tracer.span("cuts.enumerate", i):
                cuts = enumerate_cyclic_cuts(item.graph, w.CUT_K)
            with tracer.span("cuts.pipeline", i):
                pipeline = color_pipeline(item.graph)
            with tracer.span("cuts.petersen_like", i):
                petersen_like, _ = is_petersen_like(item.graph)
            outputs.append((cuts, pipeline, petersen_like))
        except Exception:
            outputs.append(None)
            _report_error(item.label)
        times.append(time.perf_counter() - t0)
    probe.sample(force=True)
    wall = time.perf_counter() - start - probe.spent
    rss = _peak_rss_mb()
    failed = {
        i
        for i, (item, out) in enumerate(zip(inputs.graphs, outputs))
        if out is None or not w.graph_item_ok(item, *out)
    }
    result = {
        "wall_s": wall,
        "times": times,
        "starts": starts,
        "peak_rss_mb": rss,
        "failed": sorted(failed),
        "labels": [it.label for it in inputs.graphs],
        "cuts_found": sum(len(out[0]) for out in outputs if out is not None),
    }
    if traced:
        # the plain backtracking oracle on the same graphs, outside wall_s;
        # it must agree with the pipeline on which graphs color
        for i, (item, out) in enumerate(zip(inputs.graphs, outputs)):
            with tracer.span("graphs.three_edge_color", i):
                coloring = three_edge_color(item.graph)
            if out is not None and (coloring is None) != (out[1].coloring is None):
                failed.add(i)
        result["failed"] = sorted(failed)
    return result


def decompose(inputs: w.Inputs, tracer, verdicts: list) -> dict:
    residuals = []
    sizes = {"ring_colorings": 0, "level0_colorings": 0, "levels_sum": 0, "residual_colorings": 0}
    levels_used = []
    for i, item in enumerate(inputs.family):
        with tracer.span("reducibility.decompose", i):
            dec = maximal_consistent_residual(item.island, item.kind)
        residuals.append(dec.residual)
        levels_used.append(dec.max_level)
        sizes["ring_colorings"] += sum(len(x) for x in dec.levels) + len(dec.residual)
        sizes["level0_colorings"] += len(dec.levels[0])
        sizes["levels_sum"] += dec.max_level
        sizes["residual_colorings"] += len(dec.residual)
    # untimed: subsets tried and admissible, and the public re-check
    subsets = admissible = 0
    failed = set()
    for i, (item, verdict) in enumerate(zip(inputs.family, verdicts)):
        if verdict is None:
            failed.add(i)
            continue
        kind, contraction, levels = verdict
        contraction = tuple(contraction)
        island = item.island
        m = island.graph.m
        tried = subsets_tried(kind, contraction, m, item.cap)
        subsets += tried
        admissible += sum(admissible_contraction(island, xs) for xs in subsets_in_order(m, tried))
        ok = (kind == "D") == (not residuals[i]) and levels == levels_used[i]
        if kind == "C":
            ok = (
                ok
                and admissible_contraction(island, contraction)
                and not (ring_extension_oracle(island, contraction) & residuals[i])
            )
        if not ok:
            failed.add(i)
    return {
        "sizes": sizes,
        "subsets": subsets,
        "admissible": admissible,
        "failed": sorted(failed),
    }


def main(argv: list[str]) -> None:
    phase, workload, seed, trace, stamp = argv[1:6]
    traced = trace == "1"
    tracer = Tracer() if traced else NullTracer()
    inputs = w.setup(workload, int(seed), tracer)
    setup_s = time.monotonic() - float(stamp)
    result: dict = {"setup_s": setup_s}
    # the host speed right after set-up
    probe = Probe()
    for _ in range(8):
        probe.sample(force=True)
    result["setup_probe"] = probe.samples
    probe = Probe()
    if phase == "measure":
        if inputs.family:
            result.update(measure_family(inputs, tracer, probe))
        else:
            result.update(measure_cuts(inputs, tracer, traced, probe))
    elif phase == "decompose":
        result.update(decompose(inputs, tracer, json.load(sys.stdin)))
    else:
        raise SystemExit(f"unknown phase {phase!r}")
    if traced:
        result["counters"] = inputs.counters
        result["span_totals"] = tracer.totals()
        result["spans"] = tracer.spans
    result["probe"] = probe.samples
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
