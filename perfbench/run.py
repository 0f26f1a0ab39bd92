"""idlewage benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload single-peak --seed 0 --seconds 40 --trace 0

Each pass of the workload runs in a fresh interpreter (worker.py), one
after another: a closed loop with one caller.  Passes start while the next
one is expected to end within ``--seconds``; at least one pass runs.

--trace 0 prints the end-to-end metrics, measured with no hooks installed:
  wall_s        time of the fastest pass
  setup_s       median time from interpreter start through importing
                idlewage and building the pass's inputs, over at least
                five interpreters
  peak_rss_mib  median over passes of the pass process's peak resident memory
  query_p50_ms  the lowest over passes of the median latency of one public
                call (optimize_single_period, cli.main or find_equilibria)
  query_p99_ms  99th percentile of the same latencies, over all passes
--trace 1 runs units of passes on the same inputs: one traced pass, one
untraced and, for a multi-thread workload, one untraced on one thread.  It
prints the per-layer metrics of spans.py (lower median over traced
passes), ``tracing_overhead_s`` (traced minus untraced pass time) and
``optimize.parallel_efficiency`` (one-thread pass time divided by threads
times the untraced pass time; 1 for a one-thread workload), both medians
over units.

The last line of standard output is the JSON result; the line before it
holds the run's details: machine facts, thread count, inputs per pass,
sample counts, the error rate and the first failures.  Outputs are checked
against perfbench/references.json and against invariants; ``failed``
counts operations that raised or gave a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

WORKLOADS = ("single-peak", "reproduce-coarse", "equilibrium-queries")


class WorkerError(RuntimeError):
    pass


def spawn(args, index: int, trace: int, started: float, *extra: str) -> dict:
    """Run worker.py for the pass whose inputs are number ``index`` of the seed."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--index", str(index), "--trace", str(trace), "--references", args.references, *extra]
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    report["elapsed_s"] = time.monotonic() - spawned
    return report


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the only value when there is one."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def run(args) -> tuple[dict, dict]:
    started = time.monotonic()
    passes, units = [], []
    while True:
        # A traced run measures units on the same inputs: a traced pass, an
        # untraced one and, for a multi-thread workload, an untraced one on
        # one thread.  Adjacent passes see the same host speed.
        index = len(units)
        unit = [spawn(args, index, args.trace, started)]
        if args.trace:
            unit.append(spawn(args, index, 0, started))
            if unit[0]["threads"] > 1:
                unit.append(spawn(args, index, 0, started, "--threads", "1"))
        units.append(unit)
        passes.extend(unit)
        estimate = statistics.median(sum(p["elapsed_s"] for p in u) for u in units)
        if time.monotonic() - started + estimate > args.seconds:
            break
    threads = passes[0]["threads"]
    plain = [u[1 if args.trace else 0] for u in units]
    traced = [u[0] for u in units] if args.trace else []
    setups = [p["setup_s"] for p in plain]

    if args.trace:
        metrics = {k: {"value": statistics.median_low(p["layers"][k] for p in traced), "unit": unit}
                   for k, unit in traced[0]["layer_units"].items()}
        # Speed-up over one thread, per thread.  Span time cannot show this:
        # a thread waiting for the interpreter lock is inside its span.
        efficiency = 1.0
        if threads > 1:
            efficiency = statistics.median(u[2]["wall_s"] / (threads * u[1]["wall_s"])
                                           for u in units)
        metrics["optimize.parallel_efficiency"] = {"value": efficiency, "unit": "ratio"}
        metrics["tracing_overhead_s"] = {
            "value": statistics.median(u[0]["wall_s"] - u[1]["wall_s"] for u in units),
            "unit": "s",
        }
    else:
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(spawn(args, len(setups), 0, started, "--setup-only")["setup_s"])
        # Other tenants of a shared host only add time, so the fastest pass
        # is the steadiest estimate of each time.  A pass holds too few calls
        # for a 99th percentile, so that one pools the calls of all passes.
        metrics = {
            "wall_s": {"value": min(p["wall_s"] for p in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(p["peak_rss_mib"] for p in plain),
                             "unit": "MiB"},
            "query_p50_ms": {"value": 1e3 * min(quantile(p["latencies"], 50) for p in plain),
                             "unit": "ms"},
            "query_p99_ms": {"value": 1e3 * quantile([t for p in plain for t in p["latencies"]], 99),
                             "unit": "ms"},
        }
    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "machine": dict(machine_facts(), **passes[0]["versions"]),
        "threads": threads,
        "passes": len(plain), "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "inputs": [p["inputs"] for p in passes],
        "latency_samples": [len(p["latencies"]) for p in plain],
        "setup_samples": len(setups),
        "error_rate": len(errors) / attempted,
        "failures": errors[:10],
        "absent": sorted({a for p in traced for a in p["absent"]}),
    }
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="coarse grids and few queries, for the self-test")
    ap.add_argument("--references", default=os.path.join(HERE, "references.json"),
                    help="reference outputs to check against")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "idlewage", "__init__.py")):
        print(f"error: no idlewage sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        detail, result = run(args)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
