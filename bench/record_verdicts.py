"""Rebuild verdicts.json, the verdict table the benchmark checks against.

The table holds, per kind and row, every member's check_reducibility
verdict as [kind, contraction, levels_used] in generation order, for
every row and data/*.conf fixture the rows workload runs. It was
recorded once and must not change; rerun this only to audit it.

Run from the repository root: PYTHONPATH=src python3 bench/record_verdicts.py
"""

import json
import sys
import time

from snarklab.configurations import island_of, parse_configuration
from snarklab.reducibility import check_reducibility

import workloads as w


def row_verdicts(islands, kind, cap, name):
    out = []
    for i, island in enumerate(islands):
        start = time.perf_counter()
        verdict = check_reducibility(island, kind, cap)
        out.append([verdict.kind, list(verdict.contraction), verdict.levels_used])
        print(f"{kind} {name}#{i} {out[-1]} {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return out


def main():
    table = {kind: {} for kind in w.KINDS}
    for kind in w.KINDS:
        for row, generator, args, cap, _, projective in w.ROWS:
            if kind == "planar" or projective:
                islands = [m.island() for m in generator(*args)]
                table[kind][row] = row_verdicts(islands, kind, cap, row)
        for name in w.FIXTURES:
            island = island_of(parse_configuration(w._data(f"{name}.conf")))
            table[kind][f"conf:{name}"] = row_verdicts([island], kind, w.FIXTURE_CAP, name)
    w.VERDICTS_PATH.write_text(json.dumps(table, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
