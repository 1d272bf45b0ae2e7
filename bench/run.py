"""snarklab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; snarklab is imported from
src/, never from an installed copy. Workloads: rows, cuts (see
README.md for why each exists).

Every phase runs in a fresh interpreter with SNARKLAB_CACHE unset, so
no lru cache, table file or peak RSS carries over between phases or
workloads. An untraced run (--trace 0) repeats a pass -- set up, then
make every call of the workload once -- until --seconds have passed,
at least three times, and prints the end-to-end metrics as medians over
the passes. A traced run (--trace 1) makes one pass with spans around
every call into snarklab, times the level decomposition in a second
process, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 whenever that line
was printed; failed output checks show in correct and failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# like the workers (-B), leave no bytecode in the checkout
sys.dont_write_bytecode = True
from speed import at_reference_speed, scale_times  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# this process imports nothing from snarklab, so it keeps its own list
WORKLOADS = ("rows", "cuts")
MIN_PASSES = 3
MAX_PASSES = 9
# every process this run starts must end within this many seconds
DEADLINE_S = 170.0
OUT_DIR = ".bench_out"
# the spans that make up an item of the measured phase
ITEM_SPANS = ("reducibility.check", "cuts.enumerate", "cuts.pipeline", "cuts.petersen_like")


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        env = dict(os.environ)
        env.pop("SNARKLAB_CACHE", None)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def phase(self, name: str, trace: int, stdin: str | None = None) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        stamp = time.monotonic()
        cmd = [sys.executable, "-B", str(WORKER), name, self.workload, str(self.seed), str(trace), repr(stamp)]
        done = subprocess.run(
            cmd,
            input=stdin,
            stdout=subprocess.PIPE,
            env=self.env,
            text=True,
            timeout=remaining,
            check=True,
        )
        return json.loads(done.stdout.splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe(result: dict, failed: set[int]) -> None:
    times = result["times"]
    n = len(times)
    beyond = sum(1 for t in times if t > percentile(times, 95))
    print(f"items={n} failed={len(failed)} failed_frac={len(failed) / n:.4f} samples_beyond_p95={beyond}")
    slow = sorted(range(n), key=lambda i: -times[i])[:3]
    print("slowest: " + ", ".join(f"{result['labels'][i]} {times[i]:.3f}s" for i in slow))
    rows: dict[str, float] = {}
    for label, t in zip(result["labels"], times):
        row = label.split("#")[0]
        rows[row] = rows.get(row, 0.0) + t
    print("per row: " + ", ".join(f"{row} {t:.2f}s" for row, t in rows.items()))
    for i in sorted(failed):
        print(f"FAILED {result['labels'][i]}", file=sys.stderr)


def untraced(runner: Runner, seconds: float) -> tuple[dict, int, set[int]]:
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or (time.monotonic() - start < seconds and len(passes) < MAX_PASSES):
        passes.append(runner.phase("measure", 0))
    write_json(runner, "passes", passes)
    failed = set().union(*(p["failed"] for p in passes))
    # every time at the reference host speed (speed.py); every pass makes
    # the same calls in the same order, and an item's time is its median
    # over the passes
    scaled = [scale_times(p["starts"], p["times"], p["probe"]) for p in passes]
    times = [statistics.median(ts) for ts in zip(*scaled)]
    walls = [sum(ts) for ts in scaled]
    setups = [at_reference_speed(p["setup_s"], [d for _, d in p["setup_probe"]]) for p in passes]
    raw_walls = ", ".join(f"{p['wall_s']:.2f}" for p in passes)
    print(f"passes={len(passes)} measured wall_s: {raw_walls}; at reference speed: " + ", ".join(f"{t:.2f}" for t in walls))
    describe({"times": times, "labels": passes[0]["labels"]}, failed)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "item_p50_ms": (1000 * statistics.median(times), "ms"),
        "item_p95_ms": (1000 * percentile(times, 95), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, len(times), failed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(runner: Runner) -> tuple[dict, int, set[int]]:
    result = runner.phase("measure", 1)
    failed = set(result["failed"])
    spans = result["span_totals"]
    counters = result["counters"]
    check_s = spans.get("reducibility.check", 0.0)
    decompose_s = 0.0
    sizes = {"ring_colorings": 0, "level0_colorings": 0, "levels_sum": 0, "residual_colorings": 0}
    subsets = admissible = 0
    if "verdicts" in result:
        dec = runner.phase("decompose", 1, json.dumps(result["verdicts"]))
        failed |= set(dec["failed"])
        decompose_s = dec["span_totals"].get("reducibility.decompose", 0.0)
        sizes = dec["sizes"]
        subsets, admissible = dec["subsets"], dec["admissible"]
        write_json(runner, "spans", {"measure": result["spans"], "decompose": dec["spans"]})
    else:
        write_json(runner, "spans", {"measure": result["spans"]})
    describe(result, failed)
    # csearch_s is check_s - decompose_s, per member, summed
    csearch_s = check_s - decompose_s
    kinds = [v[0] for v in result.get("verdicts", []) if v is not None]
    pipeline_s = spans.get("cuts.pipeline", 0.0)
    oracle_s = spans.get("graphs.three_edge_color", 0.0)
    # each item is timed around its spans, as in an untraced run; the rest
    # of the item time is the spans' own bookkeeping
    call_s = sum(spans.get(name, 0.0) for name in ITEM_SPANS)
    metrics = {
        "families.generate_s": (spans.get("families.generate", 0.0), "s"),
        "families.members": (counters["families.members"], "count"),
        "rings.get_kempe_s": (spans.get("rings.get_kempe", 0.0), "s"),
        "rings.matchings": (counters["rings.matchings"], "count"),
        "configurations.island_of_s": (spans.get("configurations.island_of", 0.0), "s"),
        "reducibility.check_s": (check_s, "s"),
        "reducibility.decompose_s": (decompose_s, "s"),
        "reducibility.csearch_s": (csearch_s, "s"),
        "reducibility.csearch_subsets": (subsets, "count"),
        "reducibility.csearch_admissible": (admissible, "count"),
        "reducibility.csearch_admissible_frac": (_ratio(admissible, subsets), "ratio"),
        "reducibility.csearch_ms_per_admissible": (_ratio(1000 * csearch_s, admissible), "ms"),
        "reducibility.ring_colorings": (sizes["ring_colorings"], "count"),
        "reducibility.level0_colorings": (sizes["level0_colorings"], "count"),
        "reducibility.levels_sum": (sizes["levels_sum"], "count"),
        "reducibility.residual_colorings": (sizes["residual_colorings"], "count"),
        "reducibility.verdicts_D": (kinds.count("D"), "count"),
        "reducibility.verdicts_C": (kinds.count("C"), "count"),
        "reducibility.verdicts_none": (kinds.count("none"), "count"),
        "cuts.enumerate_s": (spans.get("cuts.enumerate", 0.0), "s"),
        "cuts.cuts_found": (result.get("cuts_found", 0), "count"),
        "cuts.pipeline_s": (pipeline_s, "s"),
        "cuts.petersen_like_s": (spans.get("cuts.petersen_like", 0.0), "s"),
        "graphs.three_edge_color_s": (oracle_s, "s"),
        "cuts.pipeline_over_oracle": (_ratio(pipeline_s, oracle_s), "ratio"),
        "cutanalysis.random_planar_cubic_s": (spans.get("cutanalysis.random_planar_cubic", 0.0), "s"),
        "trace.overhead_frac": (_ratio(sum(result["times"]) - call_s, call_s), "ratio"),
    }
    return metrics, len(result["times"]), failed


def write_json(runner: Runner, what: str, data) -> None:
    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    path = out / f"{what}-{runner.workload}-{runner.seed}.json"
    path.write_text(json.dumps(data))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "snarklab" / "__init__.py").is_file():
        print("bench/run.py: run it from a snarklab checkout (src/snarklab not found)", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed = traced(runner)
    else:
        metrics, attempted, failed = untraced(runner, args.seconds)
    line = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
