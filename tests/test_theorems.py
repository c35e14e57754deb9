import concurrent.futures
import dataclasses
import functools
import gc
import json
import math
import multiprocessing
import os
import weakref

import pytest

from agmod import aggraph, localization, theorems
from agmod.errors import ResourceLimitError
from agmod.finmod import Lattice, Module
from agmod.finring import Ring, divisors, ring_table
from agmod.localization import closure
from agmod.theorems import (
    FAIL,
    NOT_MET,
    PASS,
    POOL_CHUNK,
    SKIPPED,
    THEOREM_IDS,
    CorpusSpec,
    InstanceAnalysis,
    generate_corpus,
    instance_id,
    run_predicate,
    run_suite,
)

from helpers import product_module, zmod
from oracles import (
    brute_lemma_2_4, brute_prop_2_5, brute_saturate, brute_thm_2_10, cyclic_span, smul, span,
)


def run(theorem_id, module):
    """One predicate on a fresh analysis of the module."""
    return run_predicate(theorem_id, InstanceAnalysis(module))


def test_instance_id_format():
    assert instance_id(zmod(12)) == "Z12|Z12.0"
    assert instance_id(product_module([2, 4])) == "Z2xZ4|Z2.0xZ4.1"


# -- predicate soundness on hand-built instances -------------------------------


def test_thm_2_7_requires_a_tree():
    r = run("thm_2_7", zmod(30))  # has a triangle
    assert r.status == NOT_MET
    r = run("thm_2_7", zmod(12))
    assert r.status == PASS
    assert r.witness["shape"] == "path_4"
    assert len(r.witness["path"]) == 4


def test_thm_2_7_star_case():
    r = run("thm_2_7", zmod(8))
    assert r.status == PASS and r.witness["shape"] == "star"


def test_thm_2_8_and_prop_2_9a_scope():
    assert run("thm_2_8", zmod(5)).status == NOT_MET  # empty graph
    assert run("thm_2_8", zmod(30)).status == NOT_MET  # odd cycle
    assert run("thm_2_8", product_module([2, 4])).status == PASS
    assert run("prop_2_9a", zmod(12)).status == PASS


def test_prop_2_9b_regular_graphs():
    vec = Module(Ring([2]), [(2, 0), (2, 0)])
    r = run("prop_2_9b", vec)
    assert r.status == PASS and r.witness["order"] == 4
    assert run("prop_2_9b", zmod(4)).status == PASS  # K_1
    assert run("prop_2_9b", zmod(30)).status == NOT_MET  # not regular


def test_lemma_2_4_branches():
    r = run("lemma_2_4", zmod(12))
    assert r.status == PASS
    branches = {b["submodule"]["label"]: b["branch"] for b in r.witness["minimal_submodules"]}
    assert branches["⟨6⟩"] == "square_zero"
    assert branches["⟨4⟩"] == "idempotent"
    assert run("lemma_2_4", zmod(12, 4)).status == NOT_MET  # Ann not nil


def test_lemma_2_4_matches_the_idempotent_scan(oracle_modules):
    # the part idempotent is the first idempotent e of the residue scan
    # with eM = N, on every module with a nil annihilator
    cut_out = 0
    for m in oracle_modules:
        r = run("lemma_2_4", m)
        assert (r.status, r.witness) == brute_lemma_2_4(m), m
        if r.status == PASS:
            cut_out += sum("e" in b for b in r.witness["minimal_submodules"])
    assert cut_out > 100


def test_prop_2_5_enumerates_no_lattice_on_a_pass(default_corpus, monkeypatch):
    # the rows of the member scan, from the class counts alone
    _, modules = default_corpus
    want = [brute_prop_2_5(Module(m.ring, m.factors)) for m in modules]
    assert {status for status, _ in want} == {PASS}

    def refused(self):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(Module, "lattice", refused)
    rows = [run("prop_2_5", Module(m.ring, m.factors)) for m in modules]
    assert [(r.status, r.witness) for r in rows] == want
    assert len(rows) == 319


def test_thm_2_17_enumerates_no_lattice(default_corpus, monkeypatch):
    # the split's rows hold masks read off the factors: with the lattice
    # refused, every row is the one it was
    _, modules = default_corpus

    def rows():
        return [run("thm_2_17", Module(m.ring, m.factors)) for m in modules]

    want = rows()
    assert {r.status for r in want} == {PASS}

    def refused(self, module, sums):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(Lattice, "__init__", refused)
    assert rows() == want
    assert len(want) == 319


def test_split_predicates_build_no_side(default_corpus, monkeypatch):
    # Lemma 2.6 and Theorems 2.7/2.8 read each split side's labels off M's
    # primary parts: with scaling refused, every row is the one it was
    _, modules = default_corpus
    ids = ("lemma_2_6", "thm_2_7", "thm_2_8")

    def rows():
        out = []
        for m in modules:
            a = InstanceAnalysis(Module(m.ring, m.factors))
            out += [(r.status, r.witness) for r in (run_predicate(t, a) for t in ids)]
        return out

    want = rows()
    assert {status for status, _ in want} >= {PASS, NOT_MET}

    def refused(self, e):
        raise AssertionError("a split side was built")

    monkeypatch.setattr(Module, "scaled", refused)
    assert rows() == want
    assert len(want) == 3 * 319


def _dropping(a, cls):
    """a with AG replaced by the graph that leaves out the vertex class cls."""
    a.__dict__["ag"] = dataclasses.replace(
        a.ag, sizes=tuple(pair for pair in a.ag.sizes if pair[0] != cls)
    )
    return a


@pytest.mark.parametrize("module", [
    zmod(30), zmod(36, 18), Module(Ring([4, 6]), [(4, 0), (2, 0), (6, 1), (3, 1)]),
], ids=["Z30", "Z18_over_Z36", "mixed"])
def test_prop_2_5_lists_the_members_of_a_dropped_class(module):
    # each vertex class left out of AG: its nonzero proper members, and
    # only those, are reported, and leaving out M alone is no FAIL
    fails = 0
    for cls, _ in InstanceAnalysis(module).ag.sizes:
        r = run_predicate("prop_2_5", _dropping(InstanceAnalysis(module), cls))
        members = [
            s.ref() for s in module.lattice().all
            if s.cls == cls and not s.is_zero and not s.is_whole
        ]
        if members:
            fails += 1
            assert (r.status, r.witness) == (FAIL, {"non_vertices": members}), cls
        else:
            assert r.status == PASS, cls
    assert fails > 1


def test_thm_2_18_fails_on_a_witness_outside_the_graph():
    witnesses, _ = zmod(30).min_prime_clique_witness()
    for w in witnesses:
        m = zmod(30)
        r = run_predicate("thm_2_18", _dropping(InstanceAnalysis(m), w.cls))
        assert (r.status, r.witness) == (FAIL, {"witness_not_vertex": w.ref()})


def test_lemma_2_6_decomposable_instances():
    assert run("lemma_2_6", zmod(8)).status == NOT_MET  # local ring
    r = run("lemma_2_6", product_module([2, 3]))
    assert r.status == PASS and r.witness["acyclic"]
    assert run("lemma_2_6", zmod(12)).status == PASS


def test_thm_2_10_saturated_sets():
    r = run("thm_2_10", zmod(4))
    assert r.status == PASS and r.witness["pairs_checked"] >= 1
    # past |M|, |R| = 64 too: U(Z_81) is cyclic, U(Z_72) is not
    assert run("thm_2_10", zmod(81)).status == PASS
    assert run("thm_2_10", zmod(72)).status == NOT_MET


def _tuple_factorizations(m):
    """fact[x]: every pair (r, m') with r*m' = x, by scanning R x M."""
    fact = {x: [] for x in m.elements}
    for r in m.ring.elements():
        for x in m.elements:
            fact[smul(m, r, x)].append((r, x))
    return fact


def test_saturation_fails_for_sets_missing_a_unit():
    # x = u * (u^-1 x) for every unit u, so no orbit of an S that misses a
    # unit saturates, and thm_2_10 may skip such S; checked on the tuple scan
    checked = 0
    for n in (4, 6, 8, 9, 12, 15):
        m = zmod(n)
        ring = m.ring
        units = {r for r in ring.elements() if math.gcd(r[0], n) == 1}
        fact = _tuple_factorizations(m)
        for z in ring.elements():
            s_clo = closure(ring, [z])
            if units <= s_clo:
                continue
            for x in m.elements:
                orbit = {smul(m, s, x) for s in s_clo}
                assert brute_saturate(m, s_clo, orbit, fact) is None, (n, z, x)
                checked += 1
    assert checked > 100


def test_saturated_sets_are_named_by_one_member():
    # thm_2_10's lemma, on every single-generator S and every orbit: a
    # saturated S* is every element outside the members that do not hold N,
    # for N the meet of the cyclic members R*x of its elements
    shapes = [zmod(n) for n in (4, 9, 12, 18)] + [
        zmod(12, 6), product_module([2, 2]), product_module([2, 9]),
        product_module([3, 4], [(3, 0), (2, 1)]),
    ]
    saturated = 0
    for m in shapes:
        ring, lattice = m.ring, m.lattice()
        fact = _tuple_factorizations(m)
        for z in ring.elements():
            s_clo = closure(ring, [z])
            for x in m.elements:
                orbit = {smul(m, s, x) for s in s_clo}
                brute = brute_saturate(m, s_clo, orbit, fact)
                if brute is None:
                    continue
                sat = lattice.radix.mask(brute)
                masks = [
                    lattice.find(cyclic_span(m, y)).mask
                    for i, y in enumerate(m.elements) if sat >> i & 1
                ]
                n = lattice.member(functools.reduce(int.__and__, masks))
                outside = 0
                for k in lattice.all:
                    if n.mask & ~k.mask:
                        outside |= k.mask
                assert sat == lattice.all[-1].mask & ~outside, (m, z, x)
                saturated += 1
    assert saturated == 43


def _cyclic_modules_to_64():
    """Z_d over Z_n for every d | n, n <= 64; over Z_a x Z_b (a <= b, ab <= 64)
    each single factor and the full ring; the full rings Z_2^3 ... Z_2^6 and
    Z_2 x Z_3 x Z_4."""
    out = [Module(Ring([n]), [(d, 0)]) for n in range(2, 65) for d in divisors(n)]
    for a in range(2, 33):
        for b in range(a, 64 // a + 1):
            ring = Ring([a, b])
            out += [Module(ring, [(d, c)]) for c in (0, 1) for d in divisors(ring.moduli[c])]
            out.append(product_module([a, b]))
    out += [product_module([2] * k) for k in range(3, 7)]
    out.append(product_module([2, 3, 4]))
    return out


def test_thm_2_10_matches_scan_oracle(oracle_modules, monkeypatch):
    cyclic = _cyclic_modules_to_64()
    assert len(cyclic) == 836
    statuses = set()
    for m in [*oracle_modules, *cyclic]:
        expected = brute_thm_2_10(m)
        r = run("thm_2_10", m)
        assert (r.status, r.witness) == expected, m
        statuses.add(expected[0])
    assert statuses == {PASS, NOT_MET}
    # the witness of a failure: no member counts as prime, so the first
    # maximal member outside the first saturated set fails
    monkeypatch.setattr(Module, "is_prime_submodule", lambda self, p: False)
    for m in [zmod(4), zmod(18), product_module([2, 2]), product_module([2, 9])]:
        expected = brute_thm_2_10(m)
        r = run("thm_2_10", m)
        assert expected[0] == FAIL and (r.status, r.witness) == expected, m


def _first_unit_covering_units(ring):
    """The first unit, in lexicographic order, whose powers cover U(R), or
    None.  A unit's powers run through a cycle back to 1, so they cover U(R)
    iff the cycle is |U(R)| long; on a tuple it is the lcm of the cycle
    lengths of its residues, each found by walking its powers."""
    units = [
        r for r in ring.elements()
        if all(math.gcd(a, n) == 1 for a, n in zip(r, ring.moduli))
    ]

    def cycle(a, n):
        p, length = a, 1
        while p != 1:
            p, length = p * a % n, length + 1
        return length

    return next(
        (z for z in units
         if math.lcm(*map(cycle, z, ring.moduli)) == len(units)),
        None,
    )


def _moduli_up_to(card):
    """Every tuple of moduli >= 2 with product at most card, () included."""
    yield ()
    for n in range(2, card + 1):
        for rest in _moduli_up_to(card // n):
            yield (n, *rest)


def test_unit_generator_matches_power_scan():
    rings = [Ring(mods) for mods in _moduli_up_to(64) if mods]
    rings += [Ring([n]) for n in range(65, 501)]
    cyclic = 0
    for ring in rings:
        z = theorems._unit_generator(ring)
        assert z == _first_unit_covering_units(ring), ring
        cyclic += z is not None
    assert (len(rings), cyclic) == (876, 274)


def test_thm_2_10_does_no_tuple_arithmetic(monkeypatch):
    # each saturated set is named by one lattice member, so the predicate
    # needs no ring product, no closure walk and no listing of M to act on
    shapes = [
        ([4], [(4, 0)]), ([12], [(12, 0)]), ([60], [(60, 0)]),
        ([2, 2, 2], [(2, 0), (2, 1), (2, 2)]), ([3, 4], [(3, 0), (4, 1)]),
    ]
    before = [run("thm_2_10", Module(Ring(r), f)) for r, f in shapes]

    def refused(*args):
        raise AssertionError("thm_2_10 did tuple arithmetic")

    monkeypatch.setattr(Ring, "mul", refused)
    monkeypatch.setattr(localization, "closure", refused)
    monkeypatch.setattr(Module, "elements", property(refused))
    after = [run("thm_2_10", Module(Ring(r), f)) for r, f in shapes]
    assert after == before
    assert {r.status for r in before} == {PASS, NOT_MET}


def test_thm_2_11_and_2_12():
    assert run("thm_2_11", zmod(30)).status == PASS
    assert run("thm_2_11", zmod(12)).status == NOT_MET  # |Min| = 2
    r = run("thm_2_12", zmod(12))
    assert r.status == PASS  # P4 case
    assert run("thm_2_12", zmod(30)).status == NOT_MET


def test_localization_predicates():
    for tid in ("thm_2_13", "cor_2_15"):
        r = run(tid, zmod(12))
        assert r.status == PASS and not r.witness["semiprime"]
        r = run(tid, zmod(30))
        assert r.status == PASS and r.witness["semiprime"]
    assert run("cor_2_14", zmod(12)).status == NOT_MET
    assert run("cor_2_14", zmod(30)).status == PASS
    assert run("cor_2_16", zmod(30)).status == PASS


def test_localization_predicates_fail_when_the_image_is_not_m(monkeypatch):
    # R minus Z(M) acts bijectively on a finite M, so S^-1 M is M itself; a
    # localization handing back a proper image is an internal failure
    real = theorems.localize

    def proper_image(module, s):
        return dataclasses.replace(real(module, s), image=module.scaled((6,)))

    monkeypatch.setattr(theorems, "localize", proper_image)
    for tid in ("thm_2_13", "cor_2_14", "cor_2_15", "cor_2_16"):
        r = run(tid, zmod(30))  # semiprime, so the corollaries reach the check
        assert r.status == FAIL and "internal_error" in r.witness, tid


def test_thm_2_17_decomposition_predicate():
    r = run("thm_2_17", zmod(12))
    assert r.status == PASS
    assert sorted(r.witness["component_sizes"]) == [3, 4]
    assert run("thm_2_17", Module(Ring([2]), [(2, 0), (2, 0)])).status == NOT_MET


def test_thm_2_17_fails_when_a_check_fails(monkeypatch):
    # a failed check of the split is a FAIL under "check", with its message:
    # at the powers of 3, Z_12's idempotent is 9, but its components sum to 1
    real = theorems.localize
    monkeypatch.setattr(
        theorems, "localize",
        lambda module, s: real(module, localization.mult_closure(module.ring, [(3,)])),
    )
    r = run("thm_2_17", zmod(12))
    assert r.status == FAIL
    assert r.witness == {
        "check": "component idempotents do not sum to the localization idempotent"
    }
    monkeypatch.undo()
    parts = Module.min_prime_parts
    monkeypatch.setattr(
        Module, "min_prime_parts", lambda m: [(p, m.ring.one, c) for p, _, c in parts(m)]
    )
    r = run("thm_2_17", zmod(12))
    assert r.status == FAIL
    assert r.witness == {"check": "component idempotents 0 and 1 are not orthogonal"}


def test_thm_2_18_witness_is_a_real_clique():
    r = run("thm_2_18", zmod(30))
    assert r.status == PASS
    assert len(r.witness["witness"]) == 3
    assert run("thm_2_18", zmod(4)).status == NOT_MET  # |Min| = 1


def test_thm_2_18_fails_when_the_construction_fails(monkeypatch):
    # the construction raises unless every pair of witnesses annihilates,
    # and the predicate reports that as a FAIL under "construction"
    a = InstanceAnalysis(zmod(30))
    assert a.ag.n  # built before the lookup is patched
    annihilates = Module.annihilates

    def refusing(self, n, k):
        return {n.label, k.label} != {"⟨15⟩", "⟨10⟩"} and annihilates(self, n, k)

    monkeypatch.setattr(Module, "annihilates", refusing)
    r = run_predicate("thm_2_18", a)
    assert r.status == FAIL
    assert list(r.witness) == ["construction"]
    assert r.witness["construction"].endswith("is nonzero")


def test_simple_module_degenerate_scope():
    # a simple module has an empty graph yet one minimal prime submodule, so
    # the clique-versus-minimal-prime statements are scoped off it
    m = zmod(5)
    a = InstanceAnalysis(m)
    assert a.ag.n == 0
    assert a.inv.clique_number == 0
    assert len(m.min_primes()) == 1
    assert run("cor_2_19", m).status == NOT_MET
    assert run("thm_2_20", m).status == NOT_MET
    assert run("thm_2_18", m).status == NOT_MET
    # the witness construction itself still returns a nonzero submodule
    witnesses, report = m.min_prime_clique_witness()
    assert len(witnesses) == 1 and report["size"] == 1


def test_cor_2_19_and_thm_2_20():
    r = run("cor_2_19", zmod(30))
    assert r.status == PASS and r.witness == {
        "clique_number": 3, "min_primes": 3, "girth": 3
    }
    assert run("cor_2_19", zmod(4)).status == PASS  # cl 1 >= 1
    r = run("thm_2_20", zmod(6))
    assert r.status == PASS and r.witness["value"] == 2
    assert run("thm_2_20", zmod(12)).status == NOT_MET  # rad(0) != 0


def test_min_prime_predicates_need_no_lattice(default_corpus, monkeypatch):
    # |Min(M)| and rad(0) = 0 are read off the primary parts: with the
    # lattice refused, these predicates give the rows they give with it
    _, modules = default_corpus
    ids = ("thm_2_11", "thm_2_12", "cor_2_19", "thm_2_20", "thm_2_22", "cor_2_23")

    def rows():
        analyses = [InstanceAnalysis(Module(m.ring, m.factors)) for m in modules]
        return [run_predicate(tid, a) for a in analyses for tid in ids]

    want = rows()

    def refused(*args):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(Module, "lattice", refused)
    assert rows() == want
    assert len(want) == 6 * 319


def test_only_the_member_predicates_enumerate_the_lattice(default_corpus, monkeypatch):
    # the suite fires the caps from the class table, so over the default
    # corpus a predicate builds a lattice only when it reads members
    _, modules = default_corpus
    built = []
    init = Lattice.__init__
    monkeypatch.setattr(
        Lattice, "__init__",
        lambda self, module, sums: built.append(module) or init(self, module, sums),
    )
    lattice_free = set()
    for tid in THEOREM_IDS:
        built.clear()
        assert not run_suite(modules, theorem_ids=[tid]).violations
        if not built:
            lattice_free.add(tid)
    assert lattice_free == {
        "prop_2_5", "lemma_2_6", "prop_2_9a", "prop_2_9b", "thm_2_11", "thm_2_12", "thm_2_13",
        "cor_2_14", "cor_2_15", "cor_2_16", "thm_2_17", "cor_2_19", "thm_2_20", "thm_2_21",
        "thm_2_22", "cor_2_23",
    }


def test_thm_2_21_everywhere():
    for m in [zmod(5), zmod(12), zmod(30), product_module([2, 4])]:
        assert run("thm_2_21", m).status == PASS


def test_thm_2_22_and_cor_2_23():
    assert run("thm_2_22", zmod(8)).status == PASS
    assert run("thm_2_22", zmod(5)).status == NOT_MET  # empty graph
    assert run("thm_2_22", zmod(12)).status == NOT_MET  # |Min| = 2
    assert run("cor_2_23", zmod(9)).status == PASS


def test_run_suite_names_each_instance_once(monkeypatch):
    calls = []

    def counted(module):
        calls.append(module)
        return instance_id(module)

    monkeypatch.setattr(theorems, "instance_id", counted)
    report = run_suite([zmod(12)])
    assert len(calls) == 1
    assert len(report.results) == 21
    assert {r.instance_id for r in report.results} == {"Z12|Z12.0"}


def test_unknown_theorem_id():
    with pytest.raises(KeyError):
        run_predicate("thm_9_9", InstanceAnalysis(zmod(6)))
    with pytest.raises(KeyError):
        run_suite([zmod(6)], theorem_ids=["nope"])


# -- corpus generation -----------------------------------------------------------


def test_generate_corpus_contents(default_corpus):
    spec, modules = default_corpus
    ids = [instance_id(m) for m in modules]
    assert len(ids) == len(set(ids))
    assert "Z12|Z12.0" in ids
    assert "Z12|Z6.0" in ids
    assert "Z12|Z4.0" in ids
    assert "Z2xZ4|Z2.0xZ4.1" in ids  # an FxS shape
    assert "Z2xZ3|Z2.0xZ3.1" in ids  # an FxD shape
    assert "Z5xZ4|Z5.0xZ4.1" in ids  # FxS shapes with p > q^2: no other
    assert "Z7xZ4|Z7.0xZ4.1" in ids  # family yields them
    for m in modules:
        assert m.ring.cardinality <= spec.max_ring_card
        assert 2 <= m.size <= spec.max_module_card
    towers = {instance_id(m) for m in generate_corpus(CorpusSpec(max_ring_card=16))}
    assert towers >= {"Z16|Z2.0", "Z16|Z16.0", "Z9|Z3.0"}


def test_generate_corpus_holds_the_towers_and_fxd_shapes():
    # the cyclic and products families hold every prime-power tower and
    # FxD shape that passes the caps, so neither needs a loop of its own
    for ring_cap in (4, 9, 16, 27, 36, 64, 125):
        for module_cap in (2, 8, 128):
            modules = generate_corpus(
                CorpusSpec(max_ring_card=ring_cap, max_module_card=module_cap)
            )
            ids = [instance_id(m) for m in modules]
            assert len(ids) == len(set(ids))
            expected = [
                Module(Ring([p**h]), [(p**a, 0)])
                for p in (2, 3, 5)
                for h in range(1, 8)
                if p**h <= ring_cap
                for a in range(1, h + 1)
            ] + [
                Module(Ring([p, q]), [(p, 0), (q, 1)])
                for p in (2, 3, 5, 7)
                for q in (2, 3, 5, 7)
                if p < q <= ring_cap // p
            ]
            for m in expected:
                if 2 <= m.size <= module_cap:
                    assert instance_id(m) in ids, (ring_cap, module_cap)


def test_corpus_generation_lists_no_element(monkeypatch, default_corpus):
    # sizes, primary parts and idempotent images come from the factors, so
    # picking a corpus and splitting its modules lists no module's elements
    def listed(self):
        raise AssertionError("a module listed its elements")

    monkeypatch.setattr(Module, "elements", property(listed))
    wide = generate_corpus(CorpusSpec(max_ring_card=2000, max_module_card=4))
    assert len(wide) > 2000 and all(m.size <= 4 for m in wide)
    _, modules = default_corpus
    for m in [*modules, *wide[:200]]:
        for _, left, right in m.nontrivial_decompositions():
            assert left and right


def test_corpus_is_deterministic():
    a = [instance_id(m) for m in generate_corpus(CorpusSpec(max_ring_card=20))]
    b = [instance_id(m) for m in generate_corpus(CorpusSpec(max_ring_card=20))]
    assert a == b


# -- suite runner -----------------------------------------------------------------


def test_run_suite_empty_corpus():
    report = run_suite([], theorem_ids=["thm_2_21"])
    assert report.counts["thm_2_21"] == {
        PASS: 0, FAIL: 0, NOT_MET: 0, SKIPPED: 0
    }
    assert not report.violations and not report.skips


def test_run_suite_single_instance():
    report = run_suite([zmod(30)], theorem_ids=["cor_2_19"])
    assert report.counts["cor_2_19"][PASS] == 1
    assert not report.violations


def test_run_suite_byte_identical_reports():
    # freshly generated module objects on the second run: nothing may depend
    # on cached analyses or object identity
    spec = CorpusSpec(max_ring_card=10)
    first = json.dumps(
        run_suite(generate_corpus(spec), corpus_spec=spec).to_dict(), sort_keys=True
    )
    second = json.dumps(
        run_suite(generate_corpus(spec), corpus_spec=spec).to_dict(), sort_keys=True
    )
    assert first == second


def test_run_suite_records_lattice_cap_skips():
    big = zmod(1024)  # 1024 elements exceeds the element cap
    report = run_suite([big], theorem_ids=["thm_2_21", "prop_2_5"])
    assert len(report.skips) == 2
    assert all(r.status == SKIPPED and r.witness["cap"] == 512 for r in report.results)


def test_a_module_is_freed_with_its_last_reference():
    # members hold the module's radix, not the module, so nothing the module
    # memoizes refers back to it: with the collector off, dropping the last
    # reference frees it and all that was read off it
    m = product_module([2, 4])  # Z_2 x Z_4, an F x S instance
    refs = [weakref.ref(m)]
    gc.disable()
    try:
        a = InstanceAnalysis(m)
        lattice = m.lattice()
        assert a.fxs is not None and all(s.label for s in lattice.all)
        assert m.primes() and m.min_primes() and m.prime_radical()
        assert aggraph.build_AG(m).vertices and aggraph.build_AG_star(m).vertices
        assert m.min_prime_clique_witness()[0]
        loc = localization.localize(m, localization.mult_closure(m.ring, [(1, 0)]))
        assert loc.image is not m
        refs.append(weakref.ref(loc.image))
        assert localization.image_submodule(loc, lattice.all[-1]).is_whole
        assert run_predicate("thm_2_7", a).status == PASS
        del m, a, lattice, loc
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_p4_fourth_vertex_is_the_span_of_f_and_n(corpus_analyses):
    # the join F + N of the four-vertex path check, on each F x S instance,
    # is the span of the elements of F and of N
    checked = 0
    for a in corpus_analyses:
        if a.fxs is None:
            continue
        m = a.module
        lattice = m.lattice()
        f = m.times(a.fxs)
        s = m.times(m.ring.sub(m.ring.one, a.fxs))
        (n,) = [k for k in lattice.all if 1 < k.size < s.size and k.elements <= s.elements]
        ok, detail = theorems._p4_fxs_structure(a)
        assert ok, (a.iid, detail)
        assert detail["path"][3] == lattice.find(span(m, f.elements | n.elements)).label, a.iid
        checked += 1
    assert checked


def test_run_suite_keeps_no_analysis_alive(monkeypatch):
    # one analysis per instance, dropped when the instance is done: nothing
    # computed for an instance (graphs, invariants, localizations) outlives
    # the run, and no reference cycle defers that to the garbage collector
    refs = {}

    def spy(theorem_id, analysis):
        ref = refs.setdefault(
            instance_id(analysis.module),
            (weakref.ref(analysis), weakref.ref(analysis.module)),
        )
        assert ref[0]() is analysis  # every predicate of an instance shares one
        return run_predicate(theorem_id, analysis)

    monkeypatch.setattr(theorems, "run_predicate", spy)
    modules = [zmod(12), zmod(30), product_module([2, 4]),
               Module(Ring([2]), [(2, 0), (2, 0)])]
    gc.disable()
    try:
        report = run_suite(modules)
        assert not report.violations
        assert len(refs) == len(modules)
        assert all(a() is None and m() is None for a, m in refs.values())
    finally:
        gc.enable()


def test_run_suite_leaves_the_callers_modules_unenumerated(monkeypatch):
    # the suite builds its own module per instance: the one passed in is only
    # read, so its first lattice() call after the run still enumerates
    enumerated = []
    init = Lattice.__init__
    monkeypatch.setattr(
        Lattice, "__init__",
        lambda self, module, sums: enumerated.append(module) or init(self, module, sums),
    )
    module = zmod(12)
    assert not run_suite([module], theorem_ids=["thm_2_18"]).violations
    assert enumerated and all(m is not module for m in enumerated)
    enumerated.clear()
    assert len(module.lattice()) == 6
    assert enumerated == [module]


def test_serial_run_suite_asks_for_no_cpu_count(monkeypatch):
    # one job, or one instance, runs in this process whatever the CPU count
    def unasked():
        raise AssertionError("run_suite asked for the CPU count")

    monkeypatch.setattr(os, "cpu_count", unasked)
    ids = ["thm_2_21", "cor_2_19"]
    assert run_suite([zmod(6), zmod(12)], theorem_ids=ids).results
    assert run_suite([zmod(6)], theorem_ids=ids, jobs=4).results


def test_run_suite_parallel_matches_sequential(default_corpus):
    # every predicate on the default corpus: first with no ring table or graph
    # type solved in this process, then in a pool, then again here with both
    # caches warm
    spec, corpus = default_corpus
    seq = run_suite(corpus, corpus_spec=spec).to_dict()
    par = run_suite(corpus, corpus_spec=spec, jobs=2).to_dict()
    assert seq == par
    assert ring_table.cache_info().hits > 0
    assert run_suite(corpus, corpus_spec=spec).to_dict() == seq


def test_lattice_cap_reaches_spawned_workers():
    # a spawned worker starts from a fresh import of agmod, so it sees the
    # cap only if run_suite hands it over
    saved = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        spec = CorpusSpec(max_ring_card=12)
        corpus = generate_corpus(spec)
        seq = run_suite(corpus, corpus_spec=spec, cap=4)
        par = run_suite(corpus, corpus_spec=spec, jobs=2, cap=4)
    finally:
        multiprocessing.set_start_method(saved, force=True)
    assert len(seq.skips) == 84
    assert json.dumps(par.to_dict(), sort_keys=True) == json.dumps(
        seq.to_dict(), sort_keys=True
    )


def test_cap_after_the_lattice_is_cached_is_honoured():
    # the suite builds each instance's module afresh, with the suite's cap,
    # whether it runs in this process or in the pool: a module whose lattice
    # is already built skips what a fresh one skips
    cached = zmod(12)
    assert len(cached.lattice()) == 6
    with pytest.raises(ResourceLimitError) as fresh:
        Module(Ring([12]), [(12, 0)], cap=2).lattice()
    assert fresh.value.limit == 2
    reports = [
        run_suite([cached], cap=2),
        run_suite([zmod(12)], cap=2),
    ]
    assert len(reports[0].skips) == len(THEOREM_IDS) == 21
    first = json.dumps(reports[0].to_dict(), sort_keys=True)
    assert all(json.dumps(r.to_dict(), sort_keys=True) == first for r in reports)
    # two instances, so that jobs=2 does start a pool of two workers
    pooled = run_suite([cached, cached], cap=2, jobs=2)
    assert pooled.results == reports[0].results * 2


class _InlinePool:
    """A stand-in ProcessPoolExecutor that records its size and maps in this
    process, so no worker is ever started."""

    sizes = []
    chunks = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunks.append(chunksize)
        return map(fn, items)


@pytest.mark.parametrize("cpus, modules, pool", [
    (4, 3, 3),  # no more workers than instances
    (2, 3, 2),  # no more workers than CPUs
    (None, 3, None),  # an unknown CPU count counts as one: no pool
    (4, 1, None),  # a single instance runs in this process
])
def test_pool_size_is_bounded(monkeypatch, cpus, modules, pool):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "chunks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    corpus = [zmod(n) for n in (6, 12, 30)[:modules]]
    ids = ["thm_2_21", "cor_2_19"]
    report = run_suite(corpus, theorem_ids=ids, jobs=100000)
    assert _InlinePool.sizes == ([] if pool is None else [pool])
    assert _InlinePool.chunks == ([] if pool is None else [POOL_CHUNK])
    assert report.to_dict() == run_suite(corpus, theorem_ids=ids).to_dict()
