"""Workload definitions: seeded instance lists, how each instance runs, how it is checked.

Every instance is a ``Case``: ``run`` is the only timed call and goes through a
public entry point of the ``agmod`` package; ``check`` runs afterwards, outside
the timing, and returns ``None`` or a one-line failure reason.  The expected
digests live in ``data/`` and were captured once by ``capture.py`` from the
commit the benchmark was defined at, so a change that alters any report,
corpus row or invariant tuple shows up as a failed instance.

Workloads (see BASELINE.md for why each exists):

* ``corpus``: ``theorems.run_suite`` with all predicates, one frozen default-
  corpus instance at a time.  The seed picks the order only.
* ``squarefree``: ``Z_n`` over ``Z_n`` for squarefree ``n`` with at least two
  prime factors; ``build_AG`` + ``invariants``, and chi = clique = omega(n).
  The seed draws one ``n`` from each pair of neighbours in seed-commit cost
  order, so every draw costs about the same.
* ``analyze_noncyclic``: ``agmod analyze --out`` through ``cli.main`` on two
  fixed heavy anchors plus every light shape group; the seed picks one
  presentation (factor or component order) per group, and the order.  The
  light shapes run ANALYZE_LIGHT_ROUNDS times in a pass, the anchors once.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data"

# Number of neighbour pairs (in seed-commit cost order) the squarefree draw
# takes one n from.  The 32 costliest pool members, Z_210 among them, are
# left out: the costliest alone costs as much as the whole draw, and they
# would make the draw's cost depend on the seed.  The count is odd so that the
# median is one instance, not the gap between two, and it puts the median and
# the tail on pairs whose members cost the same within 1%.
SQUAREFREE_PAIRS = 25

# Rounds of the light analyze shapes in one pass; the two anchors run once.
# A light shape takes about 20 ms, so one sample per pass left its time at the
# mercy of the machine's speed swings, while a round of all 25 costs about
# 1 s against 8 s for the anchors.  Every run builds fresh objects from the
# spec file, so no round is served from a cache.
ANALYZE_LIGHT_ROUNDS = 3


@dataclass
class Case:
    key: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    rounds: int = 1  # times the case runs in one pass, each time timed and checked


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False).encode()


def load(name: str) -> dict:
    with open(DATA / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def spec_key(ring, factors) -> str:
    return "Z" + "xZ".join(map(str, ring)) + "|" + ",".join(f"{d}@{c}" for d, c in factors)


# -- instance lists ------------------------------------------------------------


def corpus_instances(seed: int) -> list[dict]:
    items = load("corpus")["instances"]
    random.Random(seed).shuffle(items)
    return items


def squarefree_instances(seed: int) -> list[dict]:
    pool = sorted(load("squarefree")["pool"], key=lambda e: (e["cost_s"], e["n"]))
    rng = random.Random(seed)
    picks = [rng.choice(pool[2 * i : 2 * i + 2]) for i in range(SQUAREFREE_PAIRS)]
    rng.shuffle(picks)
    return picks


def analyze_instances(seed: int) -> list[dict]:
    data = load("analyze")
    rng = random.Random(seed)
    picks = [dict(a, rounds=1) for a in data["anchors"]]
    picks += [dict(rng.choice(group), rounds=ANALYZE_LIGHT_ROUNDS) for group in data["groups"]]
    rng.shuffle(picks)
    return picks


INSTANCES = {
    "corpus": corpus_instances,
    "squarefree": squarefree_instances,
    "analyze_noncyclic": analyze_instances,
}
WORKLOADS = tuple(INSTANCES)


# -- outputs and their digests ------------------------------------------------------


def corpus_digest(report) -> str:
    """The digest of one instance's corpus rows."""
    return sha256(canonical([r.to_dict() for r in report.results]))


def invariants_digest(inv) -> str:
    """The digest of one AG invariant report."""
    return sha256(canonical(inv.to_dict()))


def analyze_spec(item: dict) -> dict:
    return {"ring": item["ring"], "module": [{"d": d, "c": c} for d, c in item["factors"]]}


# -- cases -------------------------------------------------------------------------


def corpus_cases(items, workdir: Path) -> list[Case]:
    from agmod import theorems
    from agmod.finmod import Module
    from agmod.finring import Ring

    bad_status = {theorems.FAIL, theorems.SKIPPED}
    ids = theorems.THEOREM_IDS

    def make(item):
        module = Module(Ring(item["ring"]), [tuple(f) for f in item["factors"]])

        def check(report):
            bad = [f"{r.theorem_id}:{r.status}" for r in report.results if r.status in bad_status]
            if bad:
                return f"statuses {bad}"
            if corpus_digest(report) != item["rows"]:
                return "corpus rows differ from the captured digest"
            return None

        return Case(spec_key(item["ring"], item["factors"]),
                    lambda: theorems.run_suite([module], ids), check)

    return [make(item) for item in items]


def squarefree_cases(items, workdir: Path) -> list[Case]:
    from agmod import aggraph
    from agmod.finmod import Module
    from agmod.finring import Ring

    def make(item):
        n, omega = item["n"], item["omega"]

        def run():
            module = Module(Ring([n]), [(n, 0)])
            return aggraph.invariants(aggraph.build_AG(module))

        def check(inv):
            if not inv.chromatic_number == inv.clique_number == omega:
                return (f"chi={inv.chromatic_number} clique={inv.clique_number} "
                        f"omega={omega}")
            if invariants_digest(inv) != item["invariants"]:
                return "invariant tuple differs from the captured digest"
            return None

        return Case(f"Z{n}", run, check)

    return [make(item) for item in items]


def analyze_cases(items, workdir: Path) -> list[Case]:
    from agmod import cli

    def make(i, item):
        spec = workdir / f"spec{i}.json"
        out = workdir / f"report{i}.json"
        spec.write_text(json.dumps(analyze_spec(item)), encoding="utf-8")
        argv = ["analyze", str(spec), "--out", str(out)]

        def check(rc):
            if rc != 0:
                return f"agmod analyze exited {rc}"
            if sha256(out.read_bytes()) != item["report"]:
                return "report bytes differ from the captured digest"
            return None

        return Case(spec_key(item["ring"], item["factors"]), lambda: cli.main(argv), check,
                    item["rounds"])

    return [make(i, item) for i, item in enumerate(items)]


CASES = {
    "corpus": corpus_cases,
    "squarefree": squarefree_cases,
    "analyze_noncyclic": analyze_cases,
}


def build_cases(workload: str, seed: int, workdir: Path, limit: int | None = None) -> list[Case]:
    """The seeded run list of a workload, ready to run (this is set-up work).

    Round r runs, in the seeded order, every case with more than r rounds.
    """
    items = INSTANCES[workload](seed)
    if limit is not None:
        # A smoke-sized run keeps the cheapest instances of the draw.
        items = sorted(items, key=lambda e: e["cost_s"])[:limit]
    cases = CASES[workload](items, workdir)
    rounds = max(case.rounds for case in cases)
    return [case for r in range(rounds) for case in cases if case.rounds > r]
