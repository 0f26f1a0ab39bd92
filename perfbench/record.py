"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py

Runs every single-peak (hour, beta) combination, one reproduce-coarse
pass and the first equilibrium-queries passes of seed 0, at full and tiny
sizes, checks the invariants, and rewrites perfbench/references.json.
Re-record only for a change that is meant to alter results.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

QUERY_PASSES = {"full": 64, "tiny": 4}


def record(wl) -> object:
    out = workloads.Pass()
    try:
        results = wl.run(out)
        wl.check(results, out)
        if out.errors:
            raise SystemExit(f"{wl.name} {wl.inputs}: {list(out.errors.values())[:3]}")
        return wl.record(results)
    finally:
        wl.close()


def main() -> int:
    refs = {}
    for size in ("tiny", "full"):
        tiny = size == "tiny"
        peak = {}
        for index, (hour, beta) in enumerate(workloads.PEAK_COMBOS):
            seed = (index - workloads.PEAK_DEFAULT) % len(workloads.PEAK_COMBOS)
            wl = workloads.SinglePeak(seed, 0, tiny, {})
            peak[f"{hour} {beta}"] = record(wl)
            print(size, wl.inputs, peak[f"{hour} {beta}"], flush=True)
        coarse = record(workloads.ReproduceCoarse(0, 0, tiny, {}))
        queries = [record(workloads.EquilibriumQueries(0, k, tiny, {}))
                   for k in range(QUERY_PASSES[size])]
        print(size, coarse, queries, flush=True)
        refs[size] = {"single-peak": peak, "reproduce-coarse": coarse,
                      "equilibrium-queries": {"0": queries}}
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
