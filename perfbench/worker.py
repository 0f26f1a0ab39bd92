"""One pass of one workload in a fresh interpreter; prints one JSON line.

run.py starts this script once per pass, so no state carries from one pass
to the next, and passes ``--spawned``, its ``time.monotonic()`` just before
the start: set-up time is measured from interpreter start.  Only a traced
pass (``--trace 1``) imports ``spans`` and installs hooks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--references", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--threads", type=int, help="override the workload's thread count")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy

    import idlewage
    import workloads

    if not os.path.abspath(idlewage.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise SystemExit(f"idlewage imported from {idlewage.__file__}, not from {ROOT}/src")

    with open(args.references, encoding="utf-8") as fh:
        refs = json.load(fh)["tiny" if args.tiny else "full"].get(args.workload, {})
    wl = workloads.WORKLOADS[args.workload](args.seed, args.index, args.tiny, refs)
    if args.threads:
        wl.threads = args.threads
    try:
        setup_s = time.monotonic() - args.spawned
        report = {
            "setup_s": setup_s,
            "inputs": wl.inputs,
            "threads": wl.threads,
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "idlewage": idlewage.__version__},
        }
        if not args.setup_only:
            recorder = None
            if args.trace:
                import spans

                recorder = spans.install()
            out = workloads.Pass()
            t0 = time.perf_counter()
            results = wl.run(out)
            wall = time.perf_counter() - t0
            if recorder is not None:
                report["layers"] = recorder.summary(wall, wl.threads)
                report["layer_units"] = spans.UNITS
                report["absent"] = recorder.absent
            wl.check(results, out)
            report.update(
                wall_s=wall,
                latencies=out.latencies,
                errors=[out.errors[i] for i in sorted(out.errors)],
                peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                hooked=recorder is not None,
            )
    finally:
        wl.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
