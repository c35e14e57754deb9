"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload corpus --seed 1 [--trace] [--limit N]

Builds the seeded run list (set-up), prints a ``ready`` line with the
monotonic clock just before the first timed run, runs and checks every
instance as many times as it has rounds, and prints one JSON line with each
instance's times and verdict, the failures and the peak RSS.  ``run.py``
starts one worker per pass, so no ``Module``, lattice, colon cache or
``theorems._ANALYSES`` entry survives from one pass to the next.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402
from speed import SpeedGauge  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--limit", type=int)
    args = ap.parse_args()

    spans, failures, checked = defaultdict(list), [], {}
    (HERE / ".work").mkdir(exist_ok=True)
    gauge = SpeedGauge()
    gauge.probe()
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        gauge_start = time.perf_counter()
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        runs = workloads.build_cases(args.workload, args.seed, Path(tmp), args.limit)
        ready = time.perf_counter()
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        gauge.probe()
        for case in runs:
            gauge.maybe_probe()
            start = time.perf_counter()
            try:
                out = case.run()
            except Exception as exc:  # a failed instance is counted, not fatal
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                reason = None
            spans[case.key].append((start, time.perf_counter()))
            if reason is None:
                reason = case.check(out)
            checked[case.key] = checked.get(case.key, True) and reason is None
            if reason is not None:
                failures.append(f"{case.key}: {reason}")
        gauge.probe()

    measured = {k: [gauge.measure(s, e) for s, e in v] for k, v in spans.items()}
    setup_raw, setup_scaled = gauge.measure(gauge_start, ready)
    result = {
        "instance_s": {k: [scaled for _, scaled in v] for k, v in measured.items()},
        "raw_s": {k: [raw for raw, _ in v] for k, v in measured.items()},
        "setup_scale": setup_scaled / setup_raw,
        "attempted": len(runs),
        "failed": len(failures),
        "failures": failures[:20],
        "checked": checked,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
