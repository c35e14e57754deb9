"""The agmod benchmark: one workload, several fresh-interpreter passes, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  Each
pass is a fresh ``worker.py`` process that builds the seeded run list
(set-up), then runs and checks every instance, the light analyze shapes
several times (see workloads.py).  Every pass of a run uses the same seed, so
it runs the same instances.  The number of passes is fixed per
workload (see PASSES_AT_30_S); a run of analyze_noncyclic measures longer
than ``--seconds`` because one pass cannot be shorter than its two anchors.

Times are on the quiet-machine scale of ``speed.py``.  With ``--trace 0`` the
result holds the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: the sum over instances of each instance's time, its median over
  all its runs in all passes;
* ``setup_s``: the median over passes of the time from starting the worker to
  its first timed instance;
* ``instance_p50_ms`` / ``instance_tail_ms``: the median, and the highest
  percentile with at least ten instances beyond it, of the same per-instance
  times (the percentile and the instance count are printed);
* ``peak_rss_mb``: the median over passes of the worker's ``ru_maxrss``.

A failed run of an instance (an exception, a resource cap, a FAIL or skipped
predicate, an output digest that differs) counts in ``failed``; ``failed`` /
``attempted`` (runs) is the failed fraction, printed as ``failed_frac``.

With ``--trace 1`` untraced and traced passes alternate; the result holds the
per-layer metrics, medians over the traced passes, and ``trace.overhead_s``,
the traced minus the untraced ``wall_s``.  Human-readable lines come first;
the last line of stdout is the JSON result.  The exit code is non-zero, with
no result printed, when a pass cannot run at all or the run's passes would not
all end within RUN_LIMIT_S (so every result rests on the same pass count).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Passes per run at --seconds 30, scaled with --seconds.  Fixed counts, not
# "as many as fit", so the tail percentile and the medians see the same
# sample count in every run and a faster program just finishes early.  At the
# defining commit one pass took 7-10 s (corpus, squarefree) and 12-17 s
# (analyze_noncyclic) on a 2-core x86-64 KVM guest with CPython 3.11, slower
# when other tenants were busy.  Squarefree needs four passes to steady its
# tail (three gave twice the spread); corpus, with 319 instances, is steady
# with two, and analyze_noncyclic, whose light shapes run in rounds, with
# three.  So a full set of repeated runs of all three workloads (70 runs)
# stays under an hour even when the machine runs at half speed.
PASSES_AT_30_S = {"corpus": 2, "squarefree": 4, "analyze_noncyclic": 3}
# A run must end within 180 s: no pass starts that would likely end past
# RUN_LIMIT_S, and none may run past it; either ends the run without a result.
RUN_LIMIT_S = 175


class BenchError(Exception):
    pass


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES_AT_30_S[workload] * seconds / 30))


def run_pass(workload: str, seed: int, trace: bool, limit: int | None, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if limit is not None:
        cmd += ["--limit", str(limit)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not end within the run's time limit")
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"{workload} pass failed (exit {proc.returncode}):\n"
                         + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    result["setup_s"] = json.loads(lines[0])["ready"] - spawned
    return result


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def instance_times(passes: list[dict], field: str = "instance_s") -> list[float]:
    """Each instance's time as its median over all its runs in all passes."""
    keys = passes[0][field]
    return [statistics.median(t for p in passes for t in p[field][k]) for k in keys]


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    times = instance_times(passes)
    tail_s, pct = tail(times)
    values = {
        "wall_s": sum(times),
        "setup_s": statistics.median(p["setup_s"] * p["setup_scale"] for p in passes),
        "instance_p50_ms": 1000 * statistics.median(times),
        "instance_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {"instances": len(times), "tail_percentile": round(pct, 2), "passes": len(passes),
             "raw_wall_s": sum(instance_times(passes, "raw_s"))}
    return values, notes


def per_layer(traced: list[dict], untraced: list[dict], names) -> dict:
    missing = [m + "." for p in traced for m in p["missing"]]
    if "theorems.run_predicate." in missing:
        missing.append("theorems.")
    values = {}
    for name in names:
        found = [p["layers"][name] for p in traced if name in p["layers"]]
        if name == "trace.overhead_s":
            values[name] = sum(instance_times(traced)) - sum(instance_times(untraced))
        elif len(found) == len(traced):
            values[name] = statistics.median(found)
        elif not name.startswith(tuple(missing)):
            values[name] = 0  # a layer this workload never calls
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, help="run only the N cheapest instances (smoke runs)")
    args = ap.parse_args()

    if not (ROOT / "src" / "agmod" / "__init__.py").is_file():
        print(f"run.py: no agmod package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    count = passes_for(args.workload, args.seconds)
    plan = [False, True] * max(1, count // 2) if args.trace else [False] * count
    started = time.monotonic()
    passes = []
    try:
        for traced in plan:
            longest = max((sum(map(sum, p["raw_s"].values())) + p["setup_s"] for p in passes),
                          default=0.0)
            if passes and time.monotonic() - started + longest > RUN_LIMIT_S:
                raise BenchError(f"{len(plan)} passes would not end within {RUN_LIMIT_S} s;"
                                 f" stopped after {len(passes)}")
            timeout = RUN_LIMIT_S - (time.monotonic() - started)
            p = run_pass(args.workload, args.seed, traced, args.limit, timeout)
            p["traced"] = traced
            passes.append(p)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for line in p["failures"]:
            print(f"FAILED {line}")

    e2e, notes = end_to_end(untraced)
    print(f"workload {args.workload}  seed {args.seed}  passes {notes['passes']}"
          f"  instances {notes['instances']}  runs/pass {untraced[0]['attempted']}")
    for name, value in e2e.items():
        print(f"  {name:<18} {value:12.4f} {units[name]}")
    print(f"  {'failed_frac':<18} {failed / attempted:12.4f} ratio  ({failed}/{attempted})")
    print(f"  instance_tail_ms is p{notes['tail_percentile']} of {notes['instances']} instances"
          f" (each its median over its runs)")
    print(f"  unscaled wall {notes['raw_wall_s']:.4f} s")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(traced, untraced, names)
        wall = statistics.median(sum(map(sum, p["raw_s"].values())) for p in traced)
        print(f"traced pass {wall:.3f} s; self time by span (share of the traced pass):")
        for name in sorted((n for n in metrics if n.endswith(".self_s")),
                           key=lambda n: -metrics[n]):
            if metrics[name] > 0:
                print(f"  {name:<48} {metrics[name]:9.4f} s  {100 * metrics[name] / wall:5.1f}%")
        for name in traced[0]["missing"]:
            print(f"  (not traced: {name} is missing)", file=sys.stderr)
    else:
        metrics = {k: v for k, v in e2e.items() if k in units}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
