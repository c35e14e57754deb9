"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything here is exact (tolerance zero).  The default corpus fixtures are
shared with the rest of the suite, so the analyses and the one full suite
report over the corpus are computed once per session.
"""

import random
from contextlib import contextmanager

from agmod import aggraph, theorems
from agmod.finmod import Module
from agmod.finring import Ring
from agmod.localization import check_product_decomposition, zero_divisor_free
from agmod.theorems import FAIL, PASS, SKIPPED, InstanceAnalysis, instance_id

from helpers import encset, kernel, zmod
from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_ideal_product,
    ideal_elements,
    ideals,
    is_squarefree,
    omega,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


def test_criterion_1_trees_are_stars_or_p4(corpus_analyses):
    with criterion(1, "tree graphs are stars or P4; FxS gives exactly the P4 vertices"):
        trees = 0
        for a in corpus_analyses:
            if "tree" not in a.inv.shape:
                continue
            trees += 1
            result = theorems.run_predicate("thm_2_7", a)
            assert result.status == PASS, (instance_id(a.module), result.witness)
        assert trees > 0

        fxs_instances = [a for a in corpus_analyses if a.fxs is not None]
        assert fxs_instances
        for a in fxs_instances:
            assert "path_4" in a.inv.shape, instance_id(a.module)
            ok, detail = theorems._p4_fxs_structure(a)
            assert ok and a.ag.n == 4, (instance_id(a.module), detail)

        # the two pinned shapes: Z2 x Z4 over Z2 x Z4 and Z12 over Z12
        m24 = Module(Ring([2, 4]), [(2, 0), (4, 1)])
        assert {v.elements for v in aggraph.build_AG(m24).vertices} == {
            frozenset({(0, b) for b in range(4)}),
            frozenset({(0, 0), (1, 0)}),
            frozenset({(0, 0), (0, 2)}),
            frozenset({(a, b) for a in range(2) for b in (0, 2)}),
        }
        m12 = zmod(12)
        assert {v.elements for v in aggraph.build_AG(m12).vertices} == {
            encset(m12, [0, 3, 6, 9]),
            encset(m12, [0, 4, 8]),
            encset(m12, [0, 6]),
            encset(m12, [0, 2, 4, 6, 8, 10]),
        }


def test_criterion_2_clique_bound_and_witnesses(corpus_analyses):
    with criterion(2, "clique >= |Min| for cyclic instances; explicit witnesses verify"):
        applicable = 0
        for a in corpus_analyses:
            if not a.module.is_cyclic():
                continue
            witnesses, _ = a.module.min_prime_clique_witness()  # self-verifying
            mins = a.module.min_primes()
            assert len(witnesses) == len(mins)
            if "simple" in a.module.classify():
                continue  # empty graph: one minimal prime but no vertices
            applicable += 1
            assert a.inv.clique_number >= len(mins), instance_id(a.module)
            if len(mins) >= 3:
                assert a.inv.girth == 3, instance_id(a.module)
        assert applicable > 0

        w30, _ = zmod(30).min_prime_clique_witness()
        assert {w.elements for w in w30} == {
            encset(zmod(30), range(0, 30, 15)),
            encset(zmod(30), range(0, 30, 10)),
            encset(zmod(30), range(0, 30, 6)),
        }
        m60 = zmod(60)
        w60, _ = m60.min_prime_clique_witness()
        assert {w.elements for w in w60} == {
            encset(m60, range(0, 60, 15)),
            encset(m60, range(0, 60, 20)),
            encset(m60, range(0, 60, 12)),
        }
        zero = m60.lattice().all[0]
        for i in range(len(w60)):
            for j in range(i + 1, len(w60)):
                assert m60.product(w60[i], w60[j]) == zero


def test_criterion_3_squarefree_sweep():
    with criterion(3, "squarefree n <= 210: chi = clique = number of prime factors"):
        checked = {}
        for n in range(2, 211):
            if not is_squarefree(n) or omega(n) < 2:
                continue
            inv = InstanceAnalysis(zmod(n)).inv
            assert inv.chromatic_number == inv.clique_number == omega(n), n
            checked[n] = inv.clique_number
        assert checked[6] == 2 and checked[30] == 3
        assert len(checked) > 60
        # prime n: the graph is empty, chi = clique = 0 by convention
        for n in (2, 3, 211 - 12):  # 199 is prime
            inv = InstanceAnalysis(zmod(n)).inv
            assert inv.clique_number == inv.chromatic_number == 0


def test_criterion_4_clique_two_iff_chromatic_two(corpus_analyses, corpus_report):
    with criterion(4, "clique = 2 iff chromatic = 2 over the full default corpus"):
        for a in corpus_analyses:
            cl, ch = a.inv.clique_number, a.inv.chromatic_number
            assert (cl == 2) == (ch == 2), instance_id(a.module)
        assert corpus_report.counts["thm_2_21"][PASS] == len(corpus_analyses)


def test_criterion_5_localization_monotone(corpus_analyses, corpus_report):
    with criterion(5, "localizing at the minimal-prime complement never raises cl/chi"):
        applicable = 0
        for a in corpus_analyses:
            loc = a.loc_min
            if not zero_divisor_free(a.module, loc.mult_set):
                continue
            applicable += 1
            # S avoids Z(M), so it acts bijectively on the finite carrier: the
            # image is M itself and cl/chi cannot move
            assert loc.image is a.module and kernel(a.module, loc).is_zero, instance_id(a.module)
        assert applicable > 0
        for tid in ("thm_2_13", "cor_2_15"):
            assert corpus_report.counts[tid][FAIL] == 0, tid


def test_criterion_6_product_decomposition(corpus_analyses):
    with criterion(6, "cyclic instances split into orthogonal idempotent components"):
        cyclic = 0
        for a in corpus_analyses:
            if not a.module.is_cyclic():
                continue
            cyclic += 1
            check_product_decomposition(a.module, a.loc_min)  # raises on any failed check
        assert cyclic > 0
        z12 = InstanceAnalysis(zmod(12))
        parts = check_product_decomposition(z12.module, z12.loc_min)
        assert {e for _, e, _ in parts} == {(9,), (4,)}
        assert (9 + 4) % 12 == 1
        assert z12.loc_min.idem == (1,)


def test_criterion_7_structural_oracles(corpus_analyses):
    with criterion(7, "exact solvers and divisor arithmetic match brute force"):
        pool = []
        for a in corpus_analyses:
            for g in (a.ag, aggraph.build_AG_star(a.module)):
                if g.n <= 12:
                    pool.append(g)
        assert len(pool) >= 200
        rng = random.Random(20260810)
        for g in rng.sample(pool, 200):
            cl, _ = aggraph.max_clique(g.adj)
            assert cl == brute_clique_number(g.adj, g.n)
            assert aggraph.chromatic_number(g.adj, cl) == brute_chromatic_number(g.adj, g.n)

        rings = [Ring([n]) for n in range(2, 201)]
        rings += [Ring([4, 9]), Ring([2, 3, 5]), Ring([8, 5, 3])]
        rings += sorted(
            {a.module.ring for a in corpus_analyses if len(a.module.ring.moduli) > 1},
            key=lambda r: r.moduli,
        )
        for ring in rings:
            assert ring.cardinality <= 200
            every = ideals(ring)
            for i in every:
                for j in every:
                    assert ideal_elements(i.product(j)) == brute_ideal_product(ring, i, j)


def test_criterion_8_connectivity_and_diameter(corpus_analyses):
    with criterion(8, "every graph with >= 2 vertices is connected with diameter <= 3"):
        checked = 0
        for a in corpus_analyses:
            if a.ag.n < 2:
                continue
            checked += 1
            assert a.inv.connected, instance_id(a.module)
            assert a.inv.diameter is not None and a.inv.diameter <= 3, instance_id(
                a.module
            )
        assert checked > 0


_CRITERION_9_IDS = (
    "lemma_2_4",
    "prop_2_5",
    "thm_2_22",
    "cor_2_23",
    "prop_2_9a",
    "prop_2_9b",
    "thm_2_11",
    "thm_2_12",
)


def test_criterion_9_predicate_battery(corpus_report):
    with criterion(9, "structural predicates: no failures, every hypothesis exercised"):
        counts = corpus_report.counts
        for tid in _CRITERION_9_IDS:
            assert counts[tid][FAIL] == 0, (tid, counts[tid])
            assert counts[tid][PASS] > 0, (tid, counts[tid])
            assert counts[tid][SKIPPED] == 0, (tid, counts[tid])
