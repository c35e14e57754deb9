import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from agmod import finmod
from agmod.aggraph import build_AG, build_AG_star, invariants
from agmod.errors import DomainError, InternalCheckError, ResourceLimitError, StructuralError
from agmod.finmod import LATTICE_CAP, Lattice, Module, subgroup_count
from agmod.finring import Ideal, Ring, divisors
from agmod.localization import (
    check_product_decomposition,
    image_submodule,
    localize,
    min_prime_complement,
    mult_closure,
)
from agmod.theorems import InstanceAnalysis, run_predicate

import oracles
from helpers import NON_CYCLIC, encset, key, product_module, sub_by_label, zmod
from oracles import (
    add,
    brute_classify,
    brute_clique_multipliers,
    brute_colon,
    brute_cyclic_generator,
    brute_decompositions,
    brute_idempotents,
    brute_is_prime_submodule,
    brute_is_semiprime,
    brute_min_primes,
    brute_minimal_gens,
    brute_minimal_submodules,
    brute_radical,
    brute_subgroup_closure,
    brute_submodule_product,
    brute_times,
    brute_zero_divisors,
    cyclic_span,
    ideal_act,
    ideal_elements,
    ideal_radical,
    ideals,
    is_prime_ideal,
    join_greedy_gens,
    omega,
    smul,
    span,
    submodule_closure,
    verify_action,
)


def test_module_validation_lists_every_offender():
    with pytest.raises(StructuralError) as err:
        Module(Ring([12]), [(5, 0), (12, 2)])
    assert len(err.value.details) == 2


def test_submodule_generate_examples():
    m = zmod(12)
    assert span(m, [(4,)]) == encset(m, [0, 4, 8])
    assert span(m, []) == encset(m, [0])
    # over the product ring the idempotent (1,0) scales (1,2) down to (1,0),
    # so the closure is the full product {0,1} x {0,2}; frozen from the
    # exhaustive closure oracle
    p = product_module([2, 4])
    assert span(p, [(1, 2)]) == {(0, 0), (0, 2), (1, 0), (1, 2)}
    assert span(p, [(1, 2)]) == brute_subgroup_closure(p, [(1, 2)])


def test_lattice_counts():
    assert len(zmod(12).lattice()) == 6
    assert len(product_module([2, 4]).lattice()) == 6
    assert len(zmod(7).lattice()) == 2
    sizes = sorted(s.size for s in zmod(12).lattice().all)
    assert sizes == [1, 2, 3, 4, 6, 12]


def test_lattice_caps():
    with pytest.raises(ResourceLimitError) as err:
        zmod(1024).lattice()
    assert err.value.limit == 512
    with pytest.raises(ResourceLimitError) as err:
        Module(Ring([12]), [(12, 0)], cap=3).lattice()
    assert err.value.limit == 3
    # Z_30 has three primary parts of two subgroups each: 8 submodules
    assert len(Module(Ring([30]), [(30, 0)], cap=8).lattice()) == 8
    with pytest.raises(ResourceLimitError) as err:
        Module(Ring([30]), [(30, 0)], cap=7).lattice()
    assert str(err.value) == "more than 7 submodules (lattice cap)"
    assert err.value.limit == 7


def test_memoized_facts_take_no_argument():
    # a fact is memoized by its name alone, so an argument could only be
    # dropped on every later call: each memoized method refuses one, before
    # and after its fact is cached
    m = zmod(12)
    for _ in range(2):
        with pytest.raises(TypeError):
            m.lattice(5)
        with pytest.raises(TypeError):
            m.class_table(cap=3)
        assert len(m.lattice()) == 6 and len(m.class_table()) == 6


def test_lattice_cap_fires_during_enumeration():
    # F_2^8 has far more than 4096 subspaces; the cap must stop the closure
    # long before it would finish
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        Module(Ring([2]), [(2, 0)] * 8).lattice()
    assert time.perf_counter() - start < 2
    assert str(err.value) == "more than 4096 submodules (lattice cap)"
    assert err.value.limit == 4096


def _assert_lattice_matches_closure(m):
    assert {s.elements for s in m.lattice().all} == submodule_closure(m), m


def test_lattice_matches_closure_oracle_on_corpus(default_corpus):
    _, modules = default_corpus
    for m in modules:
        _assert_lattice_matches_closure(m)
        for _, left, right in brute_decompositions(m):
            _assert_lattice_matches_closure(left)
            _assert_lattice_matches_closure(right)


@pytest.mark.parametrize("moduli, factors", NON_CYCLIC)
def test_lattice_matches_closure_oracle_non_cyclic(moduli, factors):
    _assert_lattice_matches_closure(Module(Ring(moduli), factors))


# Parts with several coordinates and mixed exponents: Z_8+Z_4+Z_2 over Z_8,
# Z_4^3 over Z_4, Z_9+Z_3 over Z_9, F_2^4, F_3^3, Z_25+Z_5 over Z_25, F_5^2
# and F_7^2; then Z_4+Z_3+Z_2 over Z_12 (a 2-part on factors 0 and 2 with a
# 3-part factor between them) and Z_10+Z_5+Z_2 over Z_10 (two two-coordinate
# parts sharing the Z_10 digit, at steps 5 and 2).
MIXED_EXPONENT_PARTS = [
    ([8], [(8, 0), (4, 0), (2, 0)]),
    ([4], [(4, 0)] * 3),
    ([9], [(9, 0), (3, 0)]),
    ([2], [(2, 0)] * 4),
    ([3], [(3, 0)] * 3),
    ([25], [(25, 0), (5, 0)]),
    ([5], [(5, 0)] * 2),
    ([7], [(7, 0)] * 2),
    ([12], [(4, 0), (3, 0), (2, 0)]),
    ([10], [(10, 0), (5, 0), (2, 0)]),
]


@pytest.mark.parametrize("moduli, factors", MIXED_EXPONENT_PARTS)
def test_lattice_matches_closure_oracle_mixed_exponents(moduli, factors):
    _assert_lattice_matches_closure(Module(Ring(moduli), factors))


# Cyclic shapes with several factors: Z_2+Z_3 over Z_6, Z_3+Z_4 and Z_4+Z_3
# over Z_12, a Z_1 factor, the zero module (no factors, and one Z_1), and
# Z_a+Z_b over Z_a x Z_b, with equal orders on two components among them.
CYCLIC_SHAPES = [
    ([6], [(2, 0), (3, 0)]),
    ([12], [(3, 0), (4, 0)]),
    ([12], [(4, 0), (3, 0)]),
    ([12], [(1, 0), (4, 0)]),
    ([6], []),
    ([6], [(1, 0)]),
    ([4, 6], [(4, 0), (6, 1)]),
    ([2, 2], [(2, 0), (2, 1)]),
    ([6, 10], [(2, 0), (5, 1), (3, 0), (2, 1)]),
]


def _lattice_rows(lattice):
    return [(s.id, s.mask, s.cls, s.colon.divisors) for s in lattice.all]


def test_cyclic_lattice_matches_hermite_sums(oracle_modules):
    # oracle_modules holds every default-corpus module and both parts of
    # each of its nontrivial decompositions
    shapes = [Module(Ring(r), f) for r, f in CYCLIC_SHAPES]
    cyclic = [m for m in oracle_modules + shapes if m.is_cyclic()]
    assert len(cyclic) > len(shapes)
    for m in cyclic:
        hermite = Lattice(m, m._hermite_sums())
        assert _lattice_rows(m.lattice()) == _lattice_rows(hermite), m


def test_each_cyclic_submodule_is_its_colon_times_the_module(oracle_modules):
    # a cyclic lattice is read off its class table because every submodule
    # N of a cyclic M is (N:M)M: each colon class has one member, and the
    # image of the class's divisor tuple is that member.  The members here
    # come from the Hermite forms, not from the table
    shapes = [Module(Ring(r), f) for r, f in CYCLIC_SHAPES]
    cyclic = [m for m in oracle_modules + shapes if m.is_cyclic()]
    for m in cyclic:
        assert all(count == 1 for _, count in m.class_table()), m
        for s in Lattice(m, m._hermite_sums()).all:
            assert m._image(s.colon.divisors) == s.mask, (m, s)


def test_cyclic_lattice_skips_hermite_forms(monkeypatch):
    def refuse(*args):
        raise AssertionError("Hermite forms")

    monkeypatch.setattr(Module, "_subgroups", refuse)
    for r, f in CYCLIC_SHAPES + [([30], [(30, 0)]), ([2, 4], [(2, 0), (4, 1)])]:
        m = Module(Ring(r), f)
        assert len(m.lattice()) == math.prod(len(divisors(d)) for d, _ in f)
    for r, f in NON_CYCLIC:
        with pytest.raises(AssertionError, match="Hermite forms"):
            Module(Ring(r), f).lattice()


def test_cyclic_lattice_cap_builds_no_mask(monkeypatch):
    calls = []
    multiples = finmod._multiples
    monkeypatch.setattr(
        finmod, "_multiples", lambda *args: calls.append(args) or multiples(*args)
    )
    # Z_30 has tau(30) = 8 submodules, Z_2+Z_3 over Z_6 has 2 * 2
    for ring, factors, cap in [([30], [(30, 0)], 7), ([6], [(2, 0), (3, 0)], 3)]:
        with pytest.raises(ResourceLimitError) as err:
            Module(Ring(ring), factors, cap=cap).lattice()
        assert str(err.value) == f"more than {cap} submodules (lattice cap)"
        assert err.value.limit == cap
    assert calls == []
    assert len(Module(Ring([30]), [(30, 0)], cap=8).lattice()) == 8
    assert len(calls) == 8


def _p_group(p, lam, cap=None):
    """The abelian p-group of type lam, as a module over Z_{p^max(lam)}."""
    return Module(Ring([p ** max(lam)]), [(p**a, 0) for a in lam], cap)


@pytest.mark.parametrize(
    "p, lam, count",
    [
        (2, (1,) * 6, 2825),
        (3, (1,) * 4, 212),
        (3, (1,) * 5, 2664),
        (2, (2, 2, 2), 129),
        (2, (2,) * 4, 1983),
        (2, (3, 2, 1), 81),
        (2, (3, 3, 3), 802),
        (3, (2, 1), 10),
        (5, (1, 1, 1), 64),
    ],
)
def test_lattice_size_matches_subgroup_count(p, lam, count):
    assert subgroup_count(p, lam) == count
    assert sum(n for _, n in _p_group(p, lam).class_table()) == count
    assert len(_p_group(p, lam).lattice()) == count


def test_lattice_size_is_product_of_part_counts():
    m = Module(Ring([4, 6]), [(4, 0), (2, 0), (6, 1), (3, 1)])
    # primary parts: Z_4+Z_2 on Z_4, then Z_2 and Z_3+Z_3 on Z_6
    parts = [(2, (2, 1)), (2, (1,)), (3, (1, 1))]
    counts = [subgroup_count(p, lam) for p, lam in parts]
    assert counts == [8, 2, 6]
    assert len(m.lattice()) == math.prod(counts)


def test_lattice_cap_on_one_part_module():
    # F_2^4 has 67 subspaces
    assert len(_p_group(2, (1,) * 4, cap=67).lattice()) == 67
    with pytest.raises(ResourceLimitError) as err:
        _p_group(2, (1,) * 4, cap=66).lattice()
    assert str(err.value) == "more than 66 submodules (lattice cap)"
    assert err.value.limit == 66


def test_lattice_of_a_large_part_is_fast():
    start = time.perf_counter()
    assert len(_p_group(2, (1,) * 6).lattice()) == 2825
    assert time.perf_counter() - start < 3


def test_lattice_closed_under_meet_and_join():
    for m in [zmod(12), zmod(30), product_module([2, 4]), product_module([4, 9])]:
        lat = m.lattice()
        for a, b in itertools.combinations(lat.all, 2):
            assert lat.find(a.elements & b.elements) in lat.all
            assert lat.find(span(m, a.gens + b.gens)) in lat.all


def test_lattice_matches_brute_closure():
    for m in [zmod(12), product_module([2, 4]), Module(Ring([2]), [(2, 0), (2, 0)])]:
        lat = {s.elements for s in m.lattice().all}
        brute = set()
        for gens_size in range(3):
            for gens in itertools.combinations(m.elements, gens_size):
                brute.add(brute_subgroup_closure(m, gens))
        assert brute <= lat


def test_generators_regenerate_and_are_minimal():
    for m in [zmod(12), zmod(30), product_module([2, 4]), product_module([4, 9])]:
        for s in m.lattice().all:
            assert span(m, s.gens) == s.elements
            for g in s.gens:
                rest = [h for h in s.gens if h != g]
                assert span(m, rest) != s.elements


def test_labels_match_set_oracle(oracle_modules):
    shapes = {key(Module(Ring(r), f)) for r, f in NON_CYCLIC}
    assert shapes <= {key(m) for m in oracle_modules}
    for m in oracle_modules:
        for s in m.lattice().all:
            assert s.gens == brute_minimal_gens(m, s.elements), (key(m), s.id)


# past the oracle modules: dense 2-groups, mixed exponents at 2 and at 3,
# two primes on one component, and two components interleaved
_LABEL_SHAPES = [
    ([8], [(8, 0)] * 3),
    ([2], [(2, 0)] * 5),
    ([4], [(4, 0), (4, 0), (2, 0), (2, 0)]),
    ([9], [(9, 0), (3, 0), (9, 0)]),
    ([6], [(6, 0), (6, 0), (2, 0)]),
    ([4, 6], [(2, 1), (4, 0), (3, 1), (2, 0)]),
]


def test_labels_match_the_join_greedy(oracle_modules):
    # the prefix spans give the generators that growing each span by joins does
    for m in [*oracle_modules, *(Module(Ring(r), f) for r, f in _LABEL_SHAPES)]:
        lattice = m.lattice()
        for s in lattice.all:
            assert s.gens == join_greedy_gens(m, s), (key(m), s.id)


def test_independent_rows_make_no_span(default_corpus, monkeypatch):
    def refuse(*args):
        raise AssertionError("a label built a span")

    _, corpus = default_corpus
    modules = [Module(m.ring, m.factors) for m in corpus]  # no label built yet
    modules += [_p_group(3, (1,) * 4), _p_group(2, (1,) * 4)]
    with monkeypatch.context() as patch:
        patch.setattr(finmod._Radix, "join", refuse)
        patch.setattr(finmod._Radix, "cyclic", refuse)
        for m in modules:
            for s in m.lattice().all:
                assert s.label
    # R(1,1) in Z_2 + Z_4 has the rows (0,2) = 2(1,1) and (1,1): the join
    # check drops the first
    joins = []
    join = finmod._Radix.join
    monkeypatch.setattr(
        finmod._Radix, "join", lambda radix, a, b: joins.append(1) or join(radix, a, b)
    )
    m = Module(Ring([4]), [(2, 0), (4, 0)])
    s = m.lattice().find(cyclic_span(m, (1, 1)))
    assert s.label == "⟨(1,1)⟩"
    assert joins


def test_labels_are_built_once():
    for m in (zmod(12), product_module([4, 6])):
        for s in m.lattice().all:
            assert s.label is s.label, s


def _scalars(ring, rng):
    """Every scalar of a small ring, else the idempotents and some seeded ones."""
    if ring.cardinality <= 64:
        return list(ring.elements())
    return brute_idempotents(ring) + [
        tuple(rng.randrange(n) for n in ring.moduli) for _ in range(16)
    ]


def test_times_matches_scan_oracle(oracle_modules):
    # r*M read off the factors against r applied to every element
    rng = random.Random(20)
    for m in oracle_modules:
        for r in _scalars(m.ring, rng):
            assert m.times(r).elements == brute_times(m, r), (m, r)


def _index(m, x) -> int:
    """The mixed-radix index of x, its first coordinate most significant."""
    i = 0
    for a, (d, _) in zip(x, m.factors):
        i = i * d + a
    return i


def test_mask_layer_matches_set_oracles(oracle_modules):
    # members are masks over element indices; decoded, they must be the
    # element sets the set oracles build, in (size, sorted elements) order
    found = {}
    for m in oracle_modules:
        found.setdefault(key(m), m)
        for _, left, right in brute_decompositions(m):
            found.setdefault(key(left), left)
            found.setdefault(key(right), right)
    z1 = Module(Ring([6, 4]), [(2, 0), (1, 1), (4, 1), (3, 0)])  # a Z_1 factor
    zero = Module(Ring([6]), [(1, 0)])
    z8_cubed = _p_group(2, (3, 3, 3))  # |M| = 512, the element cap
    rng = random.Random(21)
    for m in [*found.values(), z1, zero, z8_cubed]:
        lat = m.lattice()
        if m is z8_cubed:
            # the closure scan is too slow at 802 members: each decoded set
            # is the span of its generators, and the closed form counts them
            assert len(lat) == subgroup_count(2, (3, 3, 3))
            assert all(span(m, s.gens) == s.elements for s in lat.all)
        else:
            assert {s.elements for s in lat.all} == submodule_closure(m), m
        assert [_index(m, x) for x in m.elements] == list(range(m.size)), m
        for s in lat.all:
            assert s.encoding == tuple(sorted(_index(m, x) for x in s.elements)), (m, s.id)
        keys = [(s.size, sorted(s.elements)) for s in lat.all]
        assert keys == sorted(keys), m
        radix = lat.radix
        for i, x in enumerate(m.elements):
            multiples, y = {m.zero}, x
            while y != m.zero:
                multiples.add(y)
                y = add(m, y, x)
            assert radix.cyclic(i) == sum(1 << _index(m, y) for y in multiples), (m, x)
        pairs = list(itertools.combinations_with_replacement(lat.all, 2))
        for a, b in rng.sample(pairs, min(len(pairs), 300)):
            joined = lat.member(radix.join(a.mask, b.mask))
            assert joined.elements == span(m, a.elements | b.elements), (m, a.id, b.id)
        for r in _scalars(m.ring, rng):
            assert m.times(r).elements == brute_times(m, r), (m, r)


def test_cyclic_members_are_the_spans(oracle_modules):
    # Z*x is R*x when x lies on one ring component, as every label's
    # generator does (the _minimal_gens proof)
    pure = 0
    for m in oracle_modules:
        lat = m.lattice()
        components = [c for _, c in m.factors]
        for s in lat.all:
            for g in s.gens:
                assert len({c for a, c in zip(g, components) if a}) <= 1, (m, s.id, g)
        # the index of an element is its place in the listing of M
        for i, x in enumerate(m.elements):
            if len({c for a, c in zip(x, components) if a}) <= 1:
                pure += 1
                assert lat.member(lat.radix.cyclic(i)) is lat.find(cyclic_span(m, x)), (m, x)
    assert pure


def test_colon_examples():
    m = zmod(12)
    assert m.colon(sub_by_label(m, "⟨6⟩")).divisors == (6,)
    assert m.colon(m.lattice().all[-1]).divisors == (1,)
    p = product_module([2, 4])
    z2x0 = p.lattice().find({(0, 0), (1, 0)})
    assert p.colon(z2x0).divisors == (1, 4)


def test_colon_matches_brute_force(oracle_modules):
    # the mixed-exponent parts have several coordinates, where the colon
    # exponent can exceed every Hermite head: rows (2), (1, 2) in Z_4^2
    # leave the quotient Z_4
    extra = [zmod(12), zmod(18), product_module([2, 4]), zmod(12, 4)] + [
        Module(Ring(moduli), factors) for moduli, factors in MIXED_EXPONENT_PARTS
    ]
    for m in list(oracle_modules) + extra:
        for s in m.lattice().all:
            assert ideal_elements(m.colon(s)) == brute_colon(m, s), (m, s)


def test_lattice_facts_need_no_element_scan(monkeypatch):
    # once the lattice is built, the graphs and module facts read colon
    # ideals, factor orders and primary parts, and never act on an element
    anchors = [
        Module(Ring([3]), [(3, 0)] * 4),
        Module(Ring([4, 6]), [(4, 0), (2, 0), (6, 1), (3, 1)]),
    ]
    graphs = []
    for m in anchors:
        m.lattice()
        twin = Module(m.ring, m.factors)
        graphs.append((build_AG(twin).adj, build_AG_star(twin).adj))

    def listing_forbidden(self):
        raise AssertionError("element scan after the lattice was built")

    monkeypatch.setattr(Module, "elements", property(listing_forbidden))
    for m, (ag, ag_star), ann in zip(anchors, graphs, [(3,), (4, 6)]):
        assert build_AG(m).adj == ag and build_AG_star(m).adj == ag_star
        for s in m.lattice().all:
            m.colon(s)
        assert m.primes() and m.min_primes()
        assert not m.is_cyclic()
        assert m.annihilator().divisors == ann


def test_min_prime_facts_need_no_prime_scan(monkeypatch):
    # the minimal primes, the clique witness and the Theorem 2.17 split are
    # read off the table of associated primes, never off a primality test
    def facts(m):
        witnesses, report = m.min_prime_clique_witness()
        loc = localize(m, min_prime_complement(m))
        parts = check_product_decomposition(m, loc)
        return (
            [p.id for p in m.min_primes()],
            [w.id for w in witnesses],
            report,
            (loc.idem, [e for _, e, _ in parts], [c for _, _, c in parts]),
        )

    expected = [facts(zmod(n)) for n in (60, 210, 12)]

    def refused(*args):
        raise AssertionError("primality scan")

    monkeypatch.setattr(Module, "primes", refused)
    monkeypatch.setattr(Module, "is_prime_submodule", refused)
    assert [facts(zmod(n)) for n in (60, 210, 12)] == expected


def test_colon_monotone_and_contains_annihilator():
    for m in [zmod(12), product_module([2, 8]), zmod(24, 12)]:
        lat = m.lattice()
        ann = m.annihilator()
        for a in lat.all:
            assert ideal_elements(ann) <= ideal_elements(m.colon(a))
            for b in lat.all:
                if a.elements <= b.elements:
                    assert ideal_elements(m.colon(a)) <= ideal_elements(m.colon(b))


def test_annihilator_examples():
    assert zmod(12).annihilator().divisors == (12,)
    assert zmod(12, 4).annihilator() == Ideal(Ring([12]), (4,))
    zero_module = Module(Ring([5]), [(1, 0)])
    assert zero_module.annihilator().divisors == (1,)


def test_product_examples():
    m = zmod(12)
    two, three, six = (sub_by_label(m, f"⟨{k}⟩") for k in (2, 3, 6))
    assert m.product(two, six).is_zero
    assert m.product(two, three) == six
    for n in m.lattice().all:
        prod = m.product(n, m.lattice().all[-1])
        assert prod.elements == ideal_act(m, m.colon(n))
        assert prod.elements <= n.elements


def test_product_commutative_and_inside_intersection():
    for m in [zmod(12), zmod(30), product_module([2, 4]), product_module([4, 9])]:
        lat = m.lattice()
        for a, b in itertools.combinations_with_replacement(lat.all, 2):
            ab = m.product(a, b)
            assert ab == m.product(b, a)
            assert ab.elements <= (a.elements & b.elements)


def test_product_matches_brute_force():
    for m in [zmod(12), zmod(16), product_module([2, 4]), zmod(20, 10)]:
        lat = m.lattice()
        for a, b in itertools.combinations_with_replacement(lat.all, 2):
            assert m.product(a, b).elements == brute_submodule_product(m, a, b)


def test_prime_submodule_examples():
    m = zmod(12)
    assert m.is_prime_submodule(sub_by_label(m, "⟨2⟩"))
    assert not m.is_prime_submodule(sub_by_label(m, "⟨4⟩"))
    m5 = zmod(5)
    assert m5.is_prime_submodule(m5.lattice().all[0])
    assert not m.is_prime_submodule(m.lattice().all[-1])


def test_min_primes():
    m12 = zmod(12)
    assert {p.label for p in m12.min_primes()} == {"⟨2⟩", "⟨3⟩"}
    m30 = zmod(30)
    assert {p.label for p in m30.min_primes()} == {
        "⟨2⟩", "⟨3⟩", "⟨5⟩"
    }
    simple = zmod(7)
    assert [p.size for p in simple.min_primes()] == [1]


def test_primes_test_maximality_once_per_class(oracle_modules, monkeypatch):
    # primes() asks each colon class, not each member, whether it is maximal,
    # and lists the members is_prime_submodule accepts, in lattice order
    calls = []
    is_maximal = Ideal.is_maximal
    monkeypatch.setattr(Ideal, "is_maximal", lambda self: calls.append(self) or is_maximal(self))
    for m in oracle_modules:
        m = Module(m.ring, m.factors)
        lattice = m.lattice()
        calls.clear()
        primes = m.primes()
        assert len(calls) <= len(lattice.colons), m
        assert primes == [s for s in lattice.all if m.is_prime_submodule(s)], m


def test_prime_colon_is_prime_ideal():
    for m in [zmod(12), zmod(30), product_module([2, 4]), zmod(18, 6)]:
        for p in m.primes():
            assert is_prime_ideal(m.ring, m.colon(p))


def test_radical_examples():
    m12 = zmod(12)
    assert brute_radical(m12, m12.lattice().all[0]) == encset(m12, [0, 6])
    assert m12.prime_radical().elements == encset(m12, [0, 6])
    m30 = zmod(30)
    assert brute_radical(m30, m30.lattice().all[0]) == encset(m30, [0])
    assert m30.prime_radical().is_zero
    assert brute_radical(m12, m12.lattice().all[-1]) == frozenset(m12.elements)


def test_radical_idempotent_and_inflationary():
    for m in [zmod(12), zmod(16), product_module([2, 4])]:
        lat = m.lattice()
        for s in lat.all:
            r = lat.find(brute_radical(m, s))
            assert s.elements <= r.elements
            assert brute_radical(m, r) == r.elements


def test_radical_colon_identity():
    # sqrt((Q:M)) = (rad(Q):M) for every proper Q
    for m in [zmod(12), zmod(18), product_module([2, 4]), product_module([4, 9])]:
        for q in m.lattice().all:
            if q.is_whole:
                continue
            rad = m.lattice().find(brute_radical(m, q))
            assert ideal_radical(m.colon(q)) == m.colon(rad)


def _is_semiprime_submodule(m, sub):
    for ideal in ideals(m.ring):
        sq = ideal.product(ideal)
        for k in m.lattice().all:
            if ideal_act(m, sq, k.elements) <= sub.elements:
                if not ideal_act(m, ideal, k.elements) <= sub.elements:
                    return False
    return True


def test_intersections_of_primes_are_semiprime():
    for m in [zmod(12), zmod(30), product_module([2, 4])]:
        primes = m.primes()
        for size in range(1, len(primes) + 1):
            for subset in itertools.combinations(primes, size):
                inter = frozenset.intersection(*(p.elements for p in subset))
                assert _is_semiprime_submodule(m, m.lattice().find(inter))


def test_semiprime_module_examples():
    assert zmod(30).is_semiprime()
    assert not zmod(12).is_semiprime()
    assert zmod(3).is_semiprime()


def test_zero_divisors_examples():
    assert zmod(12).zero_divisors() == encset(zmod(12), [0, 2, 3, 4, 6, 8, 9, 10])
    assert zmod(5).zero_divisors() == encset(zmod(5), [0])
    assert zmod(12, 4).zero_divisors() == encset(zmod(12), [0, 2, 4, 6, 8, 10])


def test_closed_forms_match_scan_oracles(oracle_modules):
    for m in oracle_modules:
        assert m.cyclic_generator() == brute_cyclic_generator(m), m
        assert ideal_elements(m.annihilator()) == brute_colon(m, m.lattice().all[0]), m
        zdiv = brute_zero_divisors(m)
        assert m.zero_divisors() == zdiv, m
        assert min_prime_complement(m).size == m.ring.cardinality - len(zdiv), m
        assert m.is_semiprime() == brute_is_semiprime(m), m
        subs = m.lattice().all
        for s in subs:
            assert m.is_prime_submodule(s) == brute_is_prime_submodule(m, s), (m, s)
        acted = {}
        for a, b in itertools.combinations_with_replacement(subs, 2):
            ideal = m.colon(a).product(m.colon(b))
            if ideal not in acted:
                acted[ideal] = ideal_act(m, ideal)
            assert m.product(a, b).elements == acted[ideal], (m, a, b)
            assert m.annihilates(a, b) == m.product(a, b).is_zero, (m, a, b)


def test_colon_classes_are_numbered_once(oracle_modules):
    # two members share a class iff their colon divisors are equal, each
    # member's colon is its class's one Ideal, and (0) is class 0
    for m in oracle_modules:
        lattice = m.lattice()
        classes = {}
        for s in lattice.all:
            assert lattice.colons[s.cls] is s.colon, (m, s)
            assert classes.setdefault(s.colon.divisors, s.cls) == s.cls, (m, s)
        assert sorted(classes.values()) == list(range(len(lattice.colons))), m
        assert lattice.all[0].cls == 0 and lattice.colons[0] == m.annihilator(), m


def test_class_table_counts_the_lattice_classes(oracle_modules):
    # the table is counted off the primary parts of a module with no
    # lattice; its rows are the colon divisor tuples that the Hermite
    # listing pairs with its members, each once and with as many members;
    # (0) is in the first class and M alone in the last.  The listing's
    # tuples come from the Hermite forms' exponents, not from the table
    for m in oracle_modules:
        table = Module(m.ring, m.factors).class_table()
        sums = m._hermite_sums()
        rows = dict(table)
        assert len(rows) == len(table), m
        assert rows == Counter(divs for _, divs in sums), m
        colon = dict(sums)
        assert colon[1] == table[0][0] and colon[(1 << m.size) - 1] == table[-1][0], m
        assert table[-1][1] == 1, m
        for part in m._primary_parts():
            _, p, coords = part
            lam = [len(divisors(q)) - 1 for _, q, _, _ in coords]
            assert [a for *_, a in coords] == lam, m  # the exponent of each order p^a
            if len(coords) > 1:
                forms = m._subgroups(part)
                assert len(forms) == subgroup_count(p, lam), (m, part)


def test_class_table_runs_no_hermite_search(monkeypatch):
    # the parts are counted in closed form, so the table, both graphs and
    # their invariants, and the cap refusals list no Hermite form; the
    # tables are the lattices' class counts
    def refuse(*args):
        raise AssertionError("Hermite forms")

    shapes = NON_CYCLIC + MIXED_EXPONENT_PARTS
    with monkeypatch.context() as patch:
        patch.setattr(Module, "_subgroups", refuse)
        tables = []
        for moduli, factors in shapes:
            m = Module(Ring(moduli), factors)
            tables.append(m.class_table())
            for g in (build_AG(m), build_AG_star(m)):
                invariants(g)
        # F_2^8 has 417199 subspaces and F_2^4 has 67
        for m, cap in [(_p_group(2, (1,) * 8), LATTICE_CAP), (_p_group(2, (1,) * 4, 66), 66)]:
            with pytest.raises(ResourceLimitError) as err:
                m.class_table()
            assert str(err.value) == f"more than {cap} submodules (lattice cap)"
            assert err.value.limit == cap
    for (moduli, factors), table in zip(shapes, tables):
        sizes = Counter(s.cls for s in Module(Ring(moduli), factors).lattice().all)
        assert [count for _, count in table] == [sizes[a] for a in range(len(table))], factors


def _capped_types():
    """Every type (p, lam) of order at most 256 over p = 2, 3, 5, 7 whose
    subgroup count the lattice cap admits: of the 66 + 18 + 6 + 3 types, six
    of order 2^6 to 2^8 have more than 4096 subgroups."""
    for p, most in [(2, 8), (3, 5), (5, 3), (7, 2)]:  # p^most <= 256
        for r in range(1, most + 1):
            for lam in itertools.combinations_with_replacement(range(most, 0, -1), r):
                if sum(lam) <= most and subgroup_count(p, lam) <= LATTICE_CAP:
                    yield p, lam


def test_subgroup_count_matches_the_hermite_forms():
    # the closed form counts the forms the search lists, on every capped
    # type.  The sweep takes about 0.5 s.
    checked = 0
    for p, lam in _capped_types():
        m = _p_group(p, lam)
        forms = m._subgroups(m._primary_parts()[0])
        assert len(forms) == subgroup_count(p, lam), (p, lam)
        checked += 1
    assert checked == 66 + 18 + 6 + 3 - 6


def test_subgroups_match_the_unpruned_search(oracle_modules):
    # the row of head p^{a_i} is kept at x = 0 alone, untested: the same
    # (mask, generators, exponent) triples, in the same order, as testing it
    # at every x, on the 87 capped types and every primary part of the
    # oracle modules
    modules = list(oracle_modules) + [_p_group(p, lam) for p, lam in _capped_types()]
    assert len(modules) == len(oracle_modules) + 87
    for m in modules:
        for part in m._primary_parts():
            assert m._subgroups(part) == oracles.unpruned_subgroups(m, part), (key(m), part)


def test_module_facts_match_scan_oracles(oracle_modules):
    # rad(0) and the labels of M and of both sides of each split, built by
    # scaling (the split rows' labels are checked with the decompositions)
    for m in oracle_modules:
        rad = m.prime_radical()
        assert rad is m.lattice().find(brute_radical(m, m.lattice().all[0])), m
        assert rad.is_zero == m.is_semiprime(), m
        parts = [m] + [side for _, left, right in brute_decompositions(m)
                       for side in (left, right)]
        for part in parts:
            assert part.classify() == brute_classify(part), part


def test_decompositions_match_the_oracle(oracle_modules, default_corpus):
    # the same splits as scaling by every idempotent, in the same order, with
    # the labels read off M's parts equal to those the lattice scan gives the
    # scaled sides, which keep M's cap; the oracle modules include every
    # default-corpus module
    for m in oracle_modules:
        rows = m.nontrivial_decompositions()
        expected = brute_decompositions(m)
        assert [e for e, _, _ in rows] == [e for e, _, _ in expected], m
        for (_, left, right), (_, l, r) in zip(rows, expected):
            assert (left, right) == (brute_classify(l), brute_classify(r)), m
            assert l.cap == r.cap == m.cap
    _, modules = default_corpus
    assert {key(m) for m in modules} <= {key(m) for m in oracle_modules}
    assert sum(len(m.nontrivial_decompositions()) for m in modules) == 250


def test_handed_out_submodules_are_lattice_members(oracle_modules):
    # every submodule a module hands out is its lattice's own member, with
    # the colon ideal the scan finds; each member's colon is scanned once
    scanned = set()

    def check(m, s):
        assert s is m.lattice().all[s.id], (m, s)
        if (key(m), s.id) not in scanned:
            scanned.add((key(m), s.id))
            assert ideal_elements(s.colon) == brute_colon(m, s), (m, s)

    for m in oracle_modules:
        for e in brute_idempotents(m.ring):
            check(m, m.times(e))
            loc = localize(m, mult_closure(m.ring, [e]))
            for n in m.lattice().all:
                check(loc.image, image_submodule(loc, n))
        check(m, m.prime_radical())
        if m.is_cyclic():
            for w in m.min_prime_clique_witness()[0]:
                check(m, w)
            for p in m.min_primes():
                check(m, p)
            loc = localize(m, min_prime_complement(m))
            for _, _, c in check_product_decomposition(m, loc):
                check(m, m.lattice().member(c))


def test_min_primes_are_maximal_ideals_times_module(oracle_modules):
    # Min(M) = {pM : p maximal, p contains ann(M)}, |Min(M)| = sum_c omega(a_c)
    maximal = {}
    for m in oracle_modules:
        if m.ring not in maximal:
            maximal[m.ring] = [p for p in ideals(m.ring) if is_prime_ideal(m.ring, p)]
        ann = brute_colon(m, m.lattice().all[0])
        expected = {ideal_act(m, p) for p in maximal[m.ring] if ann <= ideal_elements(p)}
        assert {p.elements for p in m.min_primes()} == expected, m
        assert len(expected) == sum(omega(d) for d in m.annihilator().divisors), m


def test_min_primes_and_atoms_match_inclusion_scans(oracle_modules):
    for m in oracle_modules:
        assert m.min_primes() == brute_min_primes(m), m
        assert m.minimal_submodules() == brute_minimal_submodules(m), m


def test_min_prime_parts_match_scans(oracle_modules):
    # one row (mask of P, e, mask of eM) per associated prime: the P are the
    # minimal primes in lattice order, e is idempotent with e*M = eM, and M
    # is the direct sum of the eM
    for m in oracle_modules:
        table = m.min_prime_parts()
        member = m.lattice().member
        assert [member(p) for p, _, _ in table] == brute_min_primes(m), m
        parts = [member(part).elements for _, _, part in table]
        size = 1
        for (_, e, _), part in zip(table, parts):
            assert m.ring.mul(e, e) == e, m
            assert brute_times(m, e) == part, m
            size *= len(part)
        assert size == m.size, m
        for a, b in itertools.combinations(parts, 2):
            assert a & b == {m.zero}, m


def _old_order(module):
    """The member order key the lattice once sorted by: the size, then the
    mask read with its bits reversed, descending."""
    width = f"0{module.size}b"
    return lambda mask: (mask.bit_count(), -int(format(mask, width)[::-1], 2))


def test_one_member_order(oracle_modules):
    # the lattice and the minimal-prime table share one order: the lattice
    # keeps the order of the old reversed-int key, and the table's rows, read
    # off the factors as masks, come in the order of their P members' ids,
    # each mask that of the image times(r) or times(e)
    shapes = [Module(Ring(moduli), factors)
              for moduli, factors in NON_CYCLIC + MIXED_EXPONENT_PARTS]
    for m in [*oracle_modules, *shapes]:
        lat = m.lattice()
        masks = [s.mask for s in lat.all]
        assert masks == sorted(masks, key=_old_order(m)), m
        rows = []
        for c, q in m.associated_primes():
            e = m.ring.part_idempotent({(c, q)})
            r = tuple(q if k == c else 1 for k in range(len(e)))
            rows.append((m.times(r).mask, e, m.times(e).mask))
        rows.sort(key=lambda row: lat.member(row[0]).id)
        assert m.min_prime_parts() == rows, m


def test_scaled_is_isomorphic_to_the_image(oracle_modules):
    # x -> x mod d' maps {e*x} bijectively onto scaled(e) and commutes with
    # the module operations
    pairs = 0
    for m in oracle_modules:
        for e in brute_idempotents(m.ring):
            img = m.scaled(e)

            def reduce(x):
                return tuple(a % d for a, (d, _) in zip(x, img.factors))

            carrier = {smul(m, e, x) for x in m.elements}
            assert {reduce(x) for x in carrier} == frozenset(img.elements), (m, e)
            assert len(carrier) == img.size, (m, e)
            for x in carrier:
                assert smul(m, e, x) == x, (m, e)
                for y in carrier:
                    assert reduce(add(m, x, y)) == add(img, reduce(x), reduce(y))
                for r in m.ring.elements():
                    assert reduce(smul(m, r, x)) == smul(img, r, reduce(x))
            pairs += 1
    assert pairs == 2164


def test_action_laws_hold(structured_modules):
    for m in structured_modules:
        verify_action(m)


def test_action_check_catches_unreduced_scalars(monkeypatch):
    def smul_without_reduction(module, r, x):
        return tuple(r[c] * a for a, (_, c) in zip(x, module.factors))

    monkeypatch.setattr(oracles, "smul", smul_without_reduction)
    for m in [zmod(12), Module(Ring([4, 6]), [(4, 0), (2, 0), (6, 1), (3, 1)])]:
        with pytest.raises(InternalCheckError):
            verify_action(m)


def test_minimal_submodules():
    assert {s.label for s in zmod(12).minimal_submodules()} == {
        "⟨4⟩", "⟨6⟩"
    }
    assert [s.label for s in zmod(9).minimal_submodules()] == ["⟨3⟩"]
    p = product_module([2, 4])
    assert {s.elements for s in p.minimal_submodules()} == {
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 0), (0, 2)}),
    }


def test_minimal_squares_zero_or_idempotent_image():
    # with a nil annihilator, each atom squares to zero or is an idempotent image
    for m in [zmod(12), zmod(16), zmod(30), product_module([2, 4])]:
        if not m.annihilator().is_nil():
            continue
        for n in m.minimal_submodules():
            squares_zero = m.product(n, n).is_zero
            image = any(
                {smul(m, e, x) for x in m.elements} == n.elements
                for e in brute_idempotents(m.ring)
            )
            assert squares_zero or image


def test_cyclic_detection():
    assert zmod(12).cyclic_generator() == (1,)
    assert product_module([2, 4]).cyclic_generator() == (1, 1)
    two_dim = Module(Ring([2]), [(2, 0), (2, 0)])
    assert two_dim.cyclic_generator() is None


def test_classify(monkeypatch):
    def no_lattice(self, cap=None):
        raise AssertionError("classify built a lattice")

    monkeypatch.setattr(Module, "lattice", no_lattice)
    assert zmod(4).classify() == ("unique_nontrivial_submodule",)
    assert zmod(5).classify() == ("simple", "prime_module")
    assert zmod(12).classify() == ("other",)
    vec = Module(Ring([2]), [(2, 0), (2, 0)])
    assert vec.classify() == ("prime_module",)


def test_decomposition_submodules_split_componentwise():
    # every submodule is the sum of its two idempotent slices
    for m in [zmod(12), product_module([2, 4]), zmod(36)]:
        k = len(m.factors)
        gens = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        for e, _, _ in m.nontrivial_decompositions():
            comp = m.ring.sub(m.ring.one, e)
            for s in m.lattice().all:
                part1 = {smul(m, e, x) for x in s.elements}
                part2 = {smul(m, comp, x) for x in s.elements}
                recombined = {add(m, a, b) for a in part1 for b in part2}
                assert recombined == s.elements
                colon = ideal_elements(m.colon(s))
                assert colon == {
                    r
                    for r in m.ring.elements()
                    if all(smul(m, m.ring.mul(r, e), g) in part1 for g in gens)
                    and all(smul(m, m.ring.mul(r, comp), g) in part2 for g in gens)
                }


def test_product_ring_primes_split_componentwise():
    # primes of M1 x M2 are P x M2 and M1 x Q
    p = product_module([2, 4])
    prime_sets = {q.elements for q in p.primes()}
    expected = {
        frozenset({(0, b) for b in range(4)}),
        frozenset({(a, b) for a in range(2) for b in (0, 2)}),
    }
    assert prime_sets == expected


def test_product_ring_lattice_is_componentwise():
    # over a two-component ring every submodule is a product of one
    # submodule per slice, and products multiply slice by slice
    for m in [product_module([2, 4]), product_module([4, 9]),
              product_module([2, 8], [(2, 0), (4, 1)])]:
        e = (1, 0)
        comp = m.ring.sub(m.ring.one, e)
        lat = m.lattice()
        slices = {}
        for s in lat.all:
            part1 = frozenset(smul(m, e, x) for x in s.elements)
            part2 = frozenset(smul(m, comp, x) for x in s.elements)
            assert {add(m, a, b) for a in part1 for b in part2} == s.elements
            slices[s] = (part1, part2)
        firsts = {p1 for p1, _ in slices.values()}
        seconds = {p2 for _, p2 in slices.values()}
        assert len(lat) == len(firsts) * len(seconds)
        for a in lat.all:
            for b in lat.all:
                prod = m.product(a, b)
                pa, pb = slices[a], slices[b]
                left = {smul(m, e, x) for x in prod.elements}
                right = {smul(m, comp, x) for x in prod.elements}
                sliced_left = {
                    smul(m, e, x)
                    for x in m.product(lat.find(pa[0]), lat.find(pb[0])).elements
                }
                sliced_right = {
                    smul(m, comp, x)
                    for x in m.product(lat.find(pa[1]), lat.find(pb[1])).elements
                }
                assert left == sliced_left and right == sliced_right


def test_detect_fxs():
    # Z_12 = Z_3 + Z_4 is found on the split's e; Z_2 x Z_4 on its 1 - e,
    # since e = (0, 1) < 1 - e keeps the Z_4 side
    for m, fxs, f_factors, s_factors in [
        (zmod(12), (4,), ((3, 0),), ((4, 0),)),
        (product_module([2, 4]), (1, 0), ((2, 0), (1, 1)), ((1, 0), (4, 1))),
    ]:
        a = InstanceAnalysis(m)
        assert a.fxs == fxs, m
        f_part, s_part = m.scaled(fxs), m.scaled(m.ring.sub(m.ring.one, fxs))
        assert (f_part.factors, s_part.factors) == (f_factors, s_factors), m
        assert brute_classify(f_part) == ("simple", "prime_module"), m
        assert brute_classify(s_part) == ("unique_nontrivial_submodule",), m
        assert f_part.size * s_part.size == m.size
        r = run_predicate("thm_2_7", a)
        assert r.witness["fxs_idempotent"] == list(fxs), m
    assert InstanceAnalysis(zmod(30)).fxs is None
    assert InstanceAnalysis(zmod(7)).fxs is None


def test_clique_witness_examples():
    w60, rep60 = zmod(60).min_prime_clique_witness()
    assert {s.elements for s in w60} == {
        encset(zmod(60), range(0, 60, 15)),
        encset(zmod(60), range(0, 60, 20)),
        encset(zmod(60), range(0, 60, 12)),
    }
    assert rep60["size"] == 3
    w30, _ = zmod(30).min_prime_clique_witness()
    assert {s.label for s in w30} == {"⟨15⟩", "⟨10⟩", "⟨6⟩"}
    w6, _ = zmod(6).min_prime_clique_witness()
    assert {s.label for s in w6} == {"⟨2⟩", "⟨3⟩"}


def test_clique_witness_products_vanish():
    for n in [6, 12, 30, 36, 60, 210]:
        m = zmod(n)
        witnesses, _ = m.min_prime_clique_witness()
        zero = m.lattice().all[0]
        for a, b in itertools.combinations(witnesses, 2):
            assert m.product(a, b) == zero


def test_clique_witness_multipliers_match_search(oracle_modules):
    checked = 0
    for m in oracle_modules:
        if not m.is_cyclic():
            continue
        _, report = m.min_prime_clique_witness()
        if not report["size"]:
            continue
        e_parts = [tuple(e) for e in report["component_idempotents"]]
        t, pair_multipliers = brute_clique_multipliers(m, e_parts)
        assert report["multiplier"] == t, m
        assert report["pair_multipliers"] == pair_multipliers, m
        checked += 1
    assert checked > 200


def test_clique_witness_needs_cyclic():
    with pytest.raises(DomainError):
        Module(Ring([2]), [(2, 0), (2, 0)]).min_prime_clique_witness()


@st.composite
def _random_small_module(draw):
    k = draw(st.integers(1, 2))
    moduli = [draw(st.sampled_from([2, 3, 4, 8, 9, 12])) for _ in range(k)]
    factors = []
    for c, n in enumerate(moduli):
        d = draw(st.sampled_from([x for x in divisors(n) if x > 1]))
        factors.append((d, c))
    return Module(Ring(moduli), factors)


@given(_random_small_module())
def test_random_instances_generate_consistent_lattices(m):
    lat = m.lattice()
    assert lat.all[0].is_zero and lat.all[-1].is_whole
    for s in lat.all:
        assert span(m, s.gens) == s.elements
    for x in m.elements:
        assert cyclic_span(m, x) in {s.elements for s in lat.all}


@st.composite
def _composite_module(draw):
    """At most 64 elements on one or two components, a composite order on
    component 0, one order on any other and up to two more, in any order."""
    moduli = [draw(st.sampled_from([4, 6, 8, 9, 12])) for _ in range(draw(st.integers(1, 2)))]
    composite = [d for d in divisors(moduli[0]) if len(divisors(d)) > 2]
    factors = [(draw(st.sampled_from(composite)), 0)]
    if len(moduli) == 2:
        room = 64 // factors[0][0]
        factors.append((draw(st.sampled_from([d for d in divisors(moduli[1]) if 1 < d <= room])), 1))
    for _ in range(draw(st.integers(0, 2))):
        room = 64 // math.prod(d for d, _ in factors)
        fits = [(d, c) for c, n in enumerate(moduli) for d in divisors(n) if 1 < d <= room]
        if not fits:
            break
        factors.append(draw(st.sampled_from(fits)))
    return Module(Ring(moduli), draw(st.permutations(factors)))


@given(_composite_module())
def test_random_composite_modules_label_like_the_set_oracle(m):
    for s in m.lattice().all:
        assert s.gens == brute_minimal_gens(m, s.elements), (key(m), s.id)


@given(_random_small_module())
def test_random_instances_colon_matches_brute(m):
    for s in m.lattice().all:
        assert ideal_elements(m.colon(s)) == brute_colon(m, s)
