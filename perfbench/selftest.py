"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it checks that
  * ``--trace 0`` prints every end-to-end metric and ``--trace 1`` every
    per-layer metric, each with its unit and a finite number, and no failure;
  * a deliberately wrong reference shows up as failed operations and
    ``"correct": false`` instead of passing silently;
and that run.py exits non-zero without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_ROOT = os.path.join(HERE, ".tmp")


def bench(workload: str, trace: int, *extra: str, root: str = ROOT):
    """Exit code and parsed last stdout line (None if it is not a result) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and "metrics" not in result:
        result = None
    return proc.returncode, result


def wrong_references(refs: dict, workload: str) -> dict:
    """A copy of ``refs`` whose tiny references for ``workload`` are all wrong."""
    refs = json.loads(json.dumps(refs))
    tiny = refs["tiny"][workload]
    if workload == "single-peak":
        for optima in tiny.values():
            for optimum in optima.values():
                optimum[3] += 1.0
    elif workload == "reproduce-coarse":
        for name in tiny:
            tiny[name] = "0" * 64
    else:
        tiny["0"] = [count + 1 for count in tiny["0"]]
    return refs


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    os.makedirs(TMP_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        for w in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                rc, res = bench(w, trace)
                want = {m["name"]: m["unit"] for m in spec[kind]}
                got = {} if res is None else {k: v["unit"] for k, v in res["metrics"].items()}
                numbers = res is not None and all(
                    type(v["value"]) in (int, float) and math.isfinite(v["value"])
                    for v in res["metrics"].values())
                expect(rc == 0 and got == want and numbers,
                       f"{w} --trace {trace}: every {kind} metric printed with its unit")
                expect(res is not None and res["correct"] and res["failed"] == 0
                       and res["attempted"] >= 1, f"{w} --trace {trace}: no failed operation")

            path = os.path.join(tmp, f"wrong-{w}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(wrong_references(refs, w), fh)
            rc, res = bench(w, 0, "--references", path)
            expect(rc == 0 and res is not None and not res["correct"] and res["failed"] > 0,
                   f"{w}: a wrong reference counts as failed operations")

        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".tmp", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, res = bench(spec["workloads"][0]["name"], 0, root=bare)
        expect(rc != 0 and res is None, "without the sources: non-zero exit and no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
