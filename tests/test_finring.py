import itertools
import math

import pytest
from hypothesis import given, strategies as st

from agmod.errors import ResourceLimitError, StructuralError
from agmod.finring import (
    Ideal,
    Ring,
    RingTable,
    divisors,
    prime_factors,
    ring_table,
    squarefree_kernel,
)

from oracles import (
    brute_idempotents,
    brute_ideal_product,
    idempotent_power,
    ideal_contains,
    ideal_elements,
    ideal_radical,
    ideals,
    is_nilpotent,
    is_prime_ideal,
)


def test_ring_validation():
    with pytest.raises(StructuralError):
        Ring([])
    with pytest.raises(StructuralError):
        Ring([12, 1])
    r = Ring([4, 3])
    assert r.cardinality == 12
    assert r.one == (1, 1) and r.zero == (0, 0)


def test_arithmetic_examples():
    z12 = Ring([12])
    assert z12.add((7,), (8,)) == (3,)
    assert z12.mul((6,), (6,)) == (0,)
    r = Ring([4, 3])
    assert r.mul((3, 2), (2, 2)) == (2, 1)
    assert r.sub((0, 0), (1, 1)) == (3, 2)


def test_arithmetic_component_mismatch():
    with pytest.raises(StructuralError):
        Ring([12]).add((1,), (1, 2))


def test_nilpotents():
    z12 = Ring([12])
    assert is_nilpotent(z12, (6,))
    assert not is_nilpotent(z12, (3,))
    assert is_nilpotent(z12, (0,))
    assert not is_nilpotent(z12, (1,))


def test_nilpotent_agrees_with_power_iteration():
    # naive oracle: multiply up to |R| times
    moduli_under_test = [(n,) for n in range(2, 101)]
    moduli_under_test += [(16,), (8, 9), (30,), (4, 4), (12, 12), (2, 3, 5)]
    for moduli in moduli_under_test:
        ring = Ring(moduli)
        for r in ring.elements():
            x, naive = r, False
            for _ in range(ring.cardinality):
                if x == ring.zero:
                    naive = True
                    break
                x = ring.mul(x, r)
            assert is_nilpotent(ring, r) == (naive or r == ring.zero)


def split_idempotents(ring):
    """0, 1 and both sides of every split, sorted: each idempotent once."""
    return sorted({ring.zero, ring.one}.union(*ring.splits()))


def test_idempotent_examples():
    assert brute_idempotents(Ring([12])) == [(0,), (1,), (4,), (9,)]
    assert Ring([12]).splits() == (((4,), (9,)),)
    assert Ring([7]).splits() == ()
    assert Ring([2, 3]).splits() == (((0, 1), (1, 0)),)
    assert split_idempotents(Ring([2, 3])) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_idempotents_match_residue_scan(default_corpus):
    _, modules = default_corpus
    rings = {m.ring for m in modules} | {Ring([n]) for n in range(2, 400)}
    rings |= {Ring([a, b]) for a in range(2, 40) for b in range(2, 40)}
    for ring in rings | {Ring([4, 9, 5])}:
        scanned = brute_idempotents(ring)
        assert split_idempotents(ring) == scanned, ring
        # an idempotent is 1 on the (c, q)-parts where q does not divide
        # its residue and 0 on the others, so the scan names each part set
        pairs = [(c, q) for c, n in enumerate(ring.moduli) for q in prime_factors(n)]
        by_parts = {frozenset((c, q) for c, q in pairs if e[c] % q): e for e in scanned}
        assert len(by_parts) == 2 ** len(pairs), ring
        for k in range(len(pairs) + 1):
            for kept in itertools.combinations(pairs, k):
                assert ring.part_idempotent(kept) == by_parts[frozenset(kept)], (ring, kept)
    # eight primary parts, no residue scan
    assert len(Ring([9699690]).splits()) == 2**7 - 1


def test_rings_of_one_modulus_tuple_share_one_table():
    Ring([12]).part_idempotent([(0, 3)])
    Ring([12]).part_idempotent([(0, 2)])
    Ring([12]).splits()
    info = ring_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    ring = Ring([12])
    assert ring_table(ring.moduli, ring.primes) is ring_table((12,), ((2, 3),))


def test_part_idempotent_builds_no_idempotent_list(monkeypatch):
    # the product of the 24 primes below 90: 2^24 idempotents, none listed;
    # listing the splits fails at once instead of building them
    def unlisted(table):
        raise AssertionError("the idempotents were listed")

    monkeypatch.setattr(RingTable, "splits", unlisted)
    primes = [q for q in range(2, 90) if prime_factors(q) == [q]]
    assert len(primes) == 24
    ring = Ring([math.prod(primes)])
    for k in range(len(primes) + 1):
        kept = [(0, q) for q in primes[:k]]
        e = ring.part_idempotent(kept)
        assert ring.mul(e, e) == e
        assert [e[0] % q for q in primes] == [1] * k + [0] * (len(primes) - k)
    assert ring.part_idempotent([]) == ring.zero
    assert ring.part_idempotent([(0, q) for q in primes]) == ring.one
    assert ring.part_idempotent([(0, 97), (0, 2)]) == ring.part_idempotent([(0, 2)])
    assert len(ring_table(ring.moduli, ring.primes).parts) == 24


def test_splits_pair_each_idempotent_with_its_complement():
    for moduli in [(12,), (30,), (4, 9), (8, 3), (2, 2, 2), (7,)]:
        ring = Ring(moduli)
        idems = brute_idempotents(ring)
        splits = ring.splits()
        assert [e for e, _ in splits] == [
            e for e in idems if ring.zero != e < ring.sub(ring.one, e)
        ]
        assert [comp for _, comp in splits] == [ring.sub(ring.one, e) for e, _ in splits]
        assert len(splits) == len(idems) // 2 - 1


def test_idempotents_closed_under_complement_and_product():
    for moduli in [(12,), (30,), (4, 9), (8, 3)]:
        ring = Ring(moduli)
        idems = set(split_idempotents(ring))
        for e in idems:
            assert ring.sub(ring.one, e) in idems
            for f in idems:
                assert ring.mul(e, f) in idems


def test_idempotent_power(default_corpus):
    z12 = Ring([12])
    assert idempotent_power(z12, (3,)) == (9,)
    assert idempotent_power(z12, (2,)) == (4,)
    assert idempotent_power(z12, (5,)) == (1,)
    assert idempotent_power(z12, (0,)) == (0,)
    # the idempotent power of r projects onto the parts where r is a unit
    _, modules = default_corpus
    rings = {m.ring for m in modules}
    assert len(rings) == 72
    for ring in rings:
        pairs = [
            (c, q) for c, n in enumerate(ring.moduli) for q in prime_factors(n)
        ]
        for r in ring.elements():
            kept = [(c, q) for c, q in pairs if r[c] % q]
            assert ring.part_idempotent(kept) == idempotent_power(ring, r), (ring, r)


def test_ideal_enumeration_counts():
    assert len(ideals(Ring([12]))) == 6
    assert sorted(i.divisors[0] for i in ideals(Ring([12]))) == [1, 2, 3, 4, 6, 12]
    assert len(ideals(Ring([7]))) == 2
    assert len(ideals(Ring([2, 3]))) == 4


def test_ideal_membership_and_products():
    z12 = Ring([12])
    two, three, six = Ideal(z12, (2,)), Ideal(z12, (3,)), Ideal(z12, (6,))
    assert two.product(six).divisors == (12,)
    assert two.product(three) == six
    z30 = Ring([30])
    assert Ideal(z30, (6,)).product(Ideal(z30, (10,))).divisors == (30,)
    assert ideal_contains(six, (6,)) and not ideal_contains(six, (3,))


def test_ideal_validation():
    with pytest.raises(StructuralError):
        Ideal(Ring([12]), (5,))


def test_ideal_radical():
    z12 = Ring([12])
    assert ideal_radical(Ideal(z12, (4,))) == Ideal(z12, (2,))
    assert ideal_radical(Ideal(z12, (12,))) == Ideal(z12, (6,))
    assert ideal_radical(Ideal(z12, (1,))) == Ideal(z12, (1,))


def test_nil_ideals():
    z12 = Ring([12])
    assert Ideal(z12, (6,)).is_nil()
    assert not Ideal(z12, (2,)).is_nil()
    assert Ideal(z12, (12,)).is_nil()
    # nil means contained in the nilradical and every element nilpotent
    for ideal in ideals(z12):
        assert ideal.is_nil() == all(is_nilpotent(z12, r) for r in ideal_elements(ideal))


def test_prime_ideal_detection():
    z12 = Ring([12])
    assert is_prime_ideal(z12, Ideal(z12, (2,)))
    assert is_prime_ideal(z12, Ideal(z12, (3,)))
    assert not is_prime_ideal(z12, Ideal(z12, (4,)))
    assert not is_prime_ideal(z12, Ideal(z12, (1,)))


def test_divisor_helpers():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert squarefree_kernel(12) == 6
    assert squarefree_kernel(8) == 2
    assert squarefree_kernel(1) == 1


def test_factoring_is_exact_or_refused():
    # both primes lie near the trial-division bound, so this factors exactly;
    # the Mersenne prime 2^61 - 1 has no factor below it and is refused
    assert prime_factors(999983 * 1000003) == [999983, 1000003]
    assert prime_factors(999983**2 * 1000003) == [999983, 1000003]
    assert squarefree_kernel(999983**2 * 1000003) == 999983 * 1000003
    with pytest.raises(ResourceLimitError, match="2305843009213693951"):
        prime_factors(2**61 - 1)


_ring_strategy = st.builds(
    Ring,
    st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]), min_size=1, max_size=2),
)


@st.composite
def _ring_and_two_ideals(draw):
    ring = draw(_ring_strategy)
    divs1 = tuple(draw(st.sampled_from(divisors(n))) for n in ring.moduli)
    divs2 = tuple(draw(st.sampled_from(divisors(n))) for n in ring.moduli)
    return ring, Ideal(ring, divs1), Ideal(ring, divs2)


@given(_ring_and_two_ideals())
def test_ideal_product_commutative_and_matches_brute_force(data):
    ring, i, j = data
    assert i.product(j) == j.product(i)
    assert ideal_elements(i.product(j)) == brute_ideal_product(ring, i, j)


@given(_ring_and_two_ideals())
def test_radical_idempotent_and_inflationary(data):
    _, i, _ = data
    assert ideal_radical(ideal_radical(i)) == ideal_radical(i)
    assert ideal_elements(i) <= ideal_elements(ideal_radical(i))
