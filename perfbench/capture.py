"""Capture the frozen instance pools and their expected output digests into data/.

    python3 perfbench/capture.py [--only corpus,squarefree,analyze]

Run this once, at the commit whose outputs are the reference; the benchmark
then fails any instance whose output differs.  Re-running it on a later
commit would silently accept whatever that commit prints, so do it only when
a report format changes on purpose, and say so where the change is described.
``cost_s`` is the seed-commit time of the instance on the quiet-machine scale
of ``speed.py``: the median of seven rounds for the squarefree pool members
the draw can reach, since the draw pairs them by it; one run elsewhere, where
only smoke-sized runs use it to keep the cheapest items.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402
from speed import SpeedGauge  # noqa: E402
from workloads import sha256  # noqa: E402

# Non-cyclic anchors of analyze_noncyclic: F_3^4 (212 submodules, dense AG,
# girth/diameter dominate) and Z_4 x Z_6 with four factors (lattice dominates).
ANCHORS = [
    ([3], [(3, 0)] * 4),
    ([4, 6], [(4, 0), (2, 0), (6, 1), (3, 1)]),
]

# Light non-cyclic shapes.  Each group lists presentations of one module that
# differ only in factor or component order; they cost the same, but their
# reports differ byte for byte.  The seed picks one per group.
GROUPS = [
    [([2], [(2, 0)] * 2)],
    [([3], [(3, 0)] * 2)],
    [([6], [(2, 0)] * 2)],
    [([4], [(2, 0), (4, 0)]), ([4], [(4, 0), (2, 0)])],
    [([6], [(2, 0), (6, 0)]), ([6], [(6, 0), (2, 0)])],
    [([2], [(2, 0)] * 3)],
    [([2, 3], [(2, 0), (2, 0), (3, 1)]), ([3, 2], [(3, 0), (2, 1), (2, 1)]),
     ([2, 3], [(3, 1), (2, 0), (2, 0)])],
    [([5], [(5, 0)] * 2)],
    [([4], [(4, 0)] * 2)],
    [([8], [(2, 0), (8, 0)]), ([8], [(8, 0), (2, 0)])],
    [([2, 9], [(2, 0), (2, 0), (3, 1)]), ([9, 2], [(3, 0), (2, 1), (2, 1)])],
    [([4, 2], [(4, 0), (2, 0), (2, 1)]), ([4, 2], [(2, 0), (4, 0), (2, 1)]),
     ([2, 4], [(2, 0), (4, 1), (2, 1)])],
    [([9], [(3, 0), (9, 0)]), ([9], [(9, 0), (3, 0)])],
    [([4, 3], [(4, 0), (2, 0), (3, 1)]), ([3, 4], [(3, 0), (4, 1), (2, 1)])],
    [([4], [(2, 0), (2, 0), (4, 0)]), ([4], [(2, 0), (4, 0), (2, 0)]),
     ([4], [(4, 0), (2, 0), (2, 0)])],
    [([7], [(7, 0)] * 2)],
    [([3], [(3, 0)] * 3)],
    [([10], [(10, 0), (5, 0)]), ([10], [(5, 0), (10, 0)])],
    [([6], [(6, 0)] * 2)],
    [([2, 3], [(2, 0), (2, 0), (3, 1), (3, 1)]), ([3, 2], [(3, 0), (3, 0), (2, 1), (2, 1)])],
    [([2, 3], [(2, 0), (2, 0), (2, 0), (3, 1)]), ([3, 2], [(3, 0), (2, 1), (2, 1), (2, 1)])],
    [([4], [(2, 0), (4, 0), (4, 0)]), ([4], [(4, 0), (2, 0), (4, 0)]),
     ([4], [(4, 0), (4, 0), (2, 0)])],
    [([2], [(2, 0)] * 4)],
    [([9], [(9, 0)] * 2)],
    [([12], [(2, 0), (6, 0), (4, 0)]), ([12], [(4, 0), (2, 0), (6, 0)]),
     ([12], [(6, 0), (4, 0), (2, 0)])],
]


def timed(fn):
    """fn's result and its time on the quiet-machine scale."""
    gauge = SpeedGauge()
    gauge.probe()
    start = time.perf_counter()
    out = fn()
    end = time.perf_counter()
    gauge.probe()
    return out, gauge.measure(start, end)[1]


def capture_corpus() -> dict:
    from agmod import theorems

    items = []
    for module in theorems.generate_corpus(theorems.CorpusSpec()):
        report, cost = timed(lambda: theorems.run_suite([module]))
        items.append({
            "ring": list(module.ring.moduli),
            "factors": [list(f) for f in module.factors],
            "rows": workloads.corpus_digest(report),
            "cost_s": round(cost, 4),
        })
    return {"source": "theorems.generate_corpus(theorems.CorpusSpec())", "instances": items}


def capture_squarefree() -> dict:
    from agmod import aggraph
    from agmod.finmod import Module
    from agmod.finring import Ring, prime_factors, squarefree_kernel

    def run(n):
        return aggraph.invariants(aggraph.build_AG(Module(Ring([n]), [(n, 0)])))

    pool = []
    for n in range(2, 211):
        omega = len(prime_factors(n))
        if squarefree_kernel(n) != n or omega < 2:
            continue
        inv, cost = timed(lambda: run(n))
        pool.append({"n": n, "omega": omega,
                     "invariants": workloads.invariants_digest(inv), "cost_s": cost})
    # The draw pairs neighbours in cost order, so the members it can reach get
    # the median cost of seven rounds over all of them: a noisy stretch of the
    # machine then touches every member alike instead of a few.
    reach = sorted(pool, key=lambda e: e["cost_s"])[: 2 * workloads.SQUAREFREE_PAIRS + 12]
    rounds = [[timed(lambda: run(e["n"]))[1] for e in reach] for _ in range(7)]
    for i, e in enumerate(reach):
        e["cost_s"] = statistics.median(r[i] for r in rounds)
    for e in pool:
        e["cost_s"] = round(e["cost_s"], 4)
    return {"source": "squarefree n <= 210 with omega(n) >= 2", "pool": pool}


def capture_analyze() -> dict:
    from agmod import cli

    def entry(ring, factors, workdir: Path):
        spec, out = workdir / "spec.json", workdir / "report.json"
        item = {"ring": ring, "factors": [list(f) for f in factors]}
        spec.write_text(json.dumps(workloads.analyze_spec(item)), encoding="utf-8")
        rc, cost = timed(lambda: cli.main(["analyze", str(spec), "--out", str(out)]))
        if rc != 0:
            raise SystemExit(f"agmod analyze exited {rc} on {item}")
        return dict(item, report=sha256(out.read_bytes()), cost_s=round(cost, 4))

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        workdir = Path(tmp)
        return {
            "anchors": [entry(r, f, workdir) for r, f in ANCHORS],
            "groups": [[entry(r, f, workdir) for r, f in group] for group in GROUPS],
        }


CAPTURES = {"corpus": capture_corpus, "squarefree": capture_squarefree, "analyze": capture_analyze}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", default=",".join(CAPTURES))
    args = ap.parse_args()
    workloads.DATA.mkdir(exist_ok=True)
    for name in args.only.split(","):
        data = CAPTURES[name]()
        with open(workloads.DATA / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote data/{name}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
