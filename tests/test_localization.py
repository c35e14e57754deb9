import itertools
import json
import random

import pytest

from agmod import aggraph, theorems
from agmod.cli import main
from agmod.errors import DomainError, InternalCheckError
from agmod.finmod import Module
from agmod.finring import Ring
from agmod.finring import prime_factors
from agmod.localization import (
    check_product_decomposition,
    closure,
    image_submodule,
    localize,
    min_prime_complement,
    mult_closure,
    zero_divisor_free,
)

from helpers import NON_CYCLIC, kernel, product_module, zmod
from oracles import (
    brute_decompositions,
    brute_zero_divisors,
    idempotent_power,
    smul,
    verify_localization,
)


def test_mult_closure_examples():
    z12 = Ring([12])
    assert closure(z12, [(3,)]) == {(1,), (3,), (9,)}
    assert closure(z12, []) == {(1,)}
    # powers of a single element stay inside their own orbit plus 1
    assert closure(z12, [(2,)]) == {(1,), (2,), (4,), (8,)}
    assert closure(z12, [(5,), (7,)]) == {(1,), (5,), (7,), (11,)}
    assert closure(z12, [(2,), (3,)]) == {
        (1,), (2,), (3,), (4,), (6,), (8,), (9,), (0,)
    }
    s = mult_closure(z12, [(2,), (5,)])
    assert (s.avoided, s.generator_count, s.size) == ({(0, 3)}, 2, 6)
    assert mult_closure(z12, [(0,)]).contains_zero


def test_localization_idempotent_examples():
    m = zmod(12)
    assert localize(m, mult_closure(m.ring, [(3,)])).idem == (9,)
    assert localize(m, mult_closure(m.ring, [(5,), (7,), (11,)])).idem == (1,)
    assert localize(m, mult_closure(m.ring, [(0,)])).idem == (0,)


def test_localize_z12_at_powers_of_three():
    m = zmod(12)
    loc = localize(m, mult_closure(m.ring, [(3,)]))
    assert loc.idem == (9,)
    assert loc.image.size == 4
    assert loc.image.factors == ((4, 0),)
    assert kernel(m, loc).elements == frozenset({(0,), (4,), (8,)})
    assert loc.image.size * kernel(m, loc).size == m.size


def test_localize_at_units_is_identity():
    m = zmod(12)
    loc = localize(m, mult_closure(m.ring, [(5,), (7,), (11,)]))
    assert loc.image.size == m.size and kernel(m, loc).is_zero
    # an idempotent acting as the identity reuses the module and its facts
    assert loc.image is m
    assert localize(m, min_prime_complement(m)).image is m


def test_localize_trivial_set():
    m = product_module([2, 4])
    loc = localize(m, mult_closure(m.ring, []))
    assert loc.image.size == m.size and kernel(m, loc).is_zero


def test_localize_with_zero_gives_zero_module():
    m = zmod(12)
    loc = localize(m, mult_closure(m.ring, [(0,)]))
    assert loc.image.size == 1
    assert aggraph.build_AG(loc.image).n == 0


def test_min_prime_complement_examples():
    s = min_prime_complement(zmod(12))
    assert (s.avoided, s.generator_count, s.size) == ({(0, 2), (0, 3)}, 4, 4)
    assert min_prime_complement(zmod(30)).size == 8
    assert min_prime_complement(zmod(5)).size == 4
    # Z_2 over Z_9699690 avoids m_2 only: half the ring, counted, not listed
    s = min_prime_complement(zmod(9699690, 2))
    assert (s.avoided, s.size) == ({(0, 2)}, 9699690 // 2)
    zero = Module(Ring([12]), [(1, 0)])
    assert min_prime_complement(zero).contains_zero
    assert min_prime_complement(zero).size == 12


def _expected(module, members, generator_count):
    """The MultSet fields and zero-divisor freedom read off a member scan."""
    ring = module.ring
    avoided = {
        (c, q)
        for c, n in enumerate(ring.moduli)
        for q in prime_factors(n)
        if all(x[c] % q for x in members)
    }
    free = not (members & brute_zero_divisors(module))
    return avoided, generator_count, len(members), ring.zero in members, free


def test_mult_set_fields_match_member_scan(oracle_modules):
    rng = random.Random(17)
    checked = 0
    for m in oracle_modules:
        ring = m.ring
        members = frozenset(ring.elements()) - brute_zero_divisors(m)
        sets = [(min_prime_complement(m), members, len(members))]
        for _ in range(3):
            gens = [
                tuple(rng.randrange(n) for n in ring.moduli)
                for _ in range(rng.randrange(4))
            ]
            sets.append((mult_closure(ring, gens), closure(ring, gens), len(gens)))
        for s, members, count in sets:
            got = (s.avoided, s.generator_count, s.size, s.contains_zero,
                   zero_divisor_free(m, s))
            assert got == _expected(m, members, count), (m, s)
            checked += 1
    assert checked == 4 * len(oracle_modules)


def test_localization_matches_scan_oracles(default_corpus):
    # at the minimal-prime complement and at every distinct one-generator
    # set: the scans accept the image, and its idempotent is the product of
    # the generators' idempotent powers
    _, modules = default_corpus
    count = 0
    for m in list(modules) + [Module(Ring(r), f) for r, f in NON_CYCLIC]:
        one_gen = {}
        for g in m.ring.elements():
            one_gen.setdefault(closure(m.ring, [g]), mult_closure(m.ring, [g]))
        complement = frozenset(m.ring.elements()) - brute_zero_divisors(m)
        for members, s in [(complement, min_prime_complement(m)), *one_gen.items()]:
            loc = localize(m, s)
            verify_localization(m, members, loc)
            expected = m.ring.one
            for g in members:
                expected = m.ring.mul(expected, idempotent_power(m.ring, g))
            assert loc.idem == expected, (m, s)
            count += 1
    assert count == 6596


def test_each_member_acts_invertibly_on_image():
    for m in [zmod(12), zmod(36), product_module([2, 4])]:
        loc = localize(m, min_prime_complement(m))
        for x in frozenset(m.ring.elements()) - brute_zero_divisors(m):
            mapped = {smul(loc.image, x, v) for v in loc.image.elements}
            assert mapped == frozenset(loc.image.elements)


def test_image_submodule_map_is_surjective():
    for m in [zmod(12), zmod(24, 12), product_module([2, 8])]:
        s = mult_closure(m.ring, [(3,)] if len(m.ring.moduli) == 1 else [(1, 3)])
        loc = localize(m, s)
        images = {image_submodule(loc, n).encoding for n in m.lattice().all}
        assert images == {v.encoding for v in loc.image.lattice().all}


def test_adjacency_preserved_under_localization():
    # NK = 0 iff the scaled pair multiplies to zero in the image, when S
    # avoids the zero divisors
    for m in [zmod(12), zmod(30), product_module([2, 4])]:
        s = min_prime_complement(m)
        assert zero_divisor_free(m, s)
        loc = localize(m, s)
        zero, img_zero = m.lattice().all[0], loc.image.lattice().all[0]
        nonzero = [x for x in m.lattice().all if not x.is_zero]
        for n, k in itertools.combinations_with_replacement(nonzero, 2):
            before = m.product(n, k) == zero
            after = (
                loc.image.product(image_submodule(loc, n), image_submodule(loc, k))
                == img_zero
            )
            assert before == after


def test_clique_and_chromatic_never_increase_under_safe_localization():
    for m in [zmod(12), zmod(30), zmod(36), product_module([2, 8])]:
        base = aggraph.invariants(aggraph.build_AG(m))
        zdiv = brute_zero_divisors(m)
        seen = set()
        for z in m.ring.elements():
            members = closure(m.ring, [z])
            if members in seen or members & zdiv:
                continue
            seen.add(members)
            img = localize(m, mult_closure(m.ring, [z])).image
            inv = aggraph.invariants(aggraph.build_AG(img))
            assert inv.clique_number <= base.clique_number
            assert inv.chromatic_number <= base.chromatic_number
            if m.is_semiprime():
                assert inv.clique_number == base.clique_number
                assert inv.chromatic_number == base.chromatic_number


def test_zero_divisor_complement_preserves_invariants_when_semiprime():
    for m in [zmod(30), zmod(6), product_module([2, 3])]:
        assert m.is_semiprime()
        base = aggraph.invariants(aggraph.build_AG(m))
        img = localize(m, min_prime_complement(m)).image
        inv = aggraph.invariants(aggraph.build_AG(img))
        assert inv.clique_number == base.clique_number
        assert inv.chromatic_number == base.chromatic_number


def _decompose(m):
    """The localization idempotent of m at its minimal-prime complement, and
    the component idempotents and sizes of its verified split."""
    loc = localize(m, min_prime_complement(m))
    parts = check_product_decomposition(m, loc)
    return loc.idem, [e for _, e, _ in parts], [c.bit_count() for _, _, c in parts]


def test_product_decomposition_z12():
    idem, idems, sizes = _decompose(zmod(12))
    assert set(idems) == {(4,), (9,)}
    assert idem == (1,)
    assert sorted(sizes) == [3, 4]
    total = (4 + 9) % 12
    assert total == 1


def test_product_decomposition_z30_and_single_prime():
    assert sorted(_decompose(zmod(30))[2]) == [2, 3, 5]
    idem, idems, _ = _decompose(zmod(8))
    assert idems == [idem]


def test_product_decomposition_every_small_cyclic():
    for n in range(2, 40):
        m = zmod(n)
        loc = localize(m, min_prime_complement(m))
        parts = check_product_decomposition(m, loc)
        assert parts is m.min_prime_parts()  # the module's own verified table
        prod = 1
        for _, _, c in parts:
            prod *= c.bit_count()
        assert prod == loc.image.size


def test_product_decomposition_needs_cyclic():
    with pytest.raises(DomainError):
        _decompose(Module(Ring([2]), [(2, 0), (2, 0)]))


def test_product_decomposition_refuses_a_wrong_localization():
    # Z_12 localized at the powers of 3 keeps only its 2-part, e = 9, while
    # the components of both minimal primes sum to 1
    m = zmod(12)
    loc = localize(m, mult_closure(m.ring, [(3,)]))
    assert loc.idem == (9,)
    with pytest.raises(InternalCheckError) as exc:
        check_product_decomposition(m, loc)
    assert str(exc.value) == "component idempotents do not sum to the localization idempotent"


WRONG_TABLES = [
    # the first idempotent made 1, which 9 and 4 do not annihilate
    (12, lambda m, rows: [(rows[0][0], m.ring.one, rows[0][2])] + rows[1:],
     "component idempotents 0 and 1 are not orthogonal"),
    # the second component made (0), so the sizes multiply to 3 or 4, not 12
    (12, lambda m, rows: [rows[0], (rows[1][0], rows[1][1], 1)],
     "component sizes do not multiply to the image size"),
    # a third component (0) under e = 0: orthogonal, summing to 1, and the
    # sizes still multiply to 12
    (12, lambda m, rows: rows + [(rows[0][0], m.ring.zero, 1)],
     "component 2 is the zero submodule"),
    # Z_4's 2M given twice, under e = 1 and e = 0: orthogonal, summing to 1,
    # and 2 * 2 = |Z_4|, but 2M meets itself beyond zero
    (4, lambda m, rows: [(rows[0][0], m.ring.one, m.times((2,)).mask),
                         (rows[0][0], m.ring.zero, m.times((2,)).mask)],
     "components 0 and 1 overlap beyond zero"),
]
WRONG_TABLE_IDS = ["not_orthogonal", "wrong_sizes", "zero_part", "repeated_part"]


@pytest.mark.parametrize("n, edit, message", WRONG_TABLES, ids=WRONG_TABLE_IDS)
def test_product_decomposition_refuses_a_wrong_table(monkeypatch, n, edit, message):
    m = zmod(n)
    loc = localize(m, min_prime_complement(m))
    real = Module.min_prime_parts
    monkeypatch.setattr(Module, "min_prime_parts", lambda mod: edit(mod, list(real(mod))))
    with pytest.raises(InternalCheckError) as exc:
        check_product_decomposition(m, loc)
    assert str(exc.value) == message


@pytest.mark.parametrize("n, edit, message", WRONG_TABLES[1:], ids=WRONG_TABLE_IDS[1:])
def test_clique_witness_refuses_a_wrong_split(monkeypatch, n, edit, message):
    # the witness goes through the same check of the split as Theorem 2.17;
    # it checks no idempotent, so the first table passes it
    m = zmod(n)
    real = Module.min_prime_parts
    monkeypatch.setattr(Module, "min_prime_parts", lambda mod: edit(mod, list(real(mod))))
    with pytest.raises(InternalCheckError) as exc:
        m.min_prime_clique_witness()
    assert str(exc.value) == message


def test_localized_image_is_first_class():
    # the image participates in every module operation
    m = zmod(12)
    loc = localize(m, mult_closure(m.ring, [(3,)]))
    img = loc.image
    assert img.factors == ((4, 0),)
    assert len(img.lattice()) == 3
    assert img.cyclic_generator() is not None
    assert img.annihilator().divisors == (4,)
    inner = localize(img, mult_closure(m.ring, [(3,)]))
    assert inner.image.size == img.size


def test_images_and_parts_keep_the_lattice_cap():
    # Z_2^5 + Z_4 + Z_3 over Z_12 has 10552 submodules; e = 9 keeps its
    # 2-part, whose 5276 are more than the default cap
    m = Module(Ring([12]), [(2, 0)] * 5 + [(4, 0), (3, 0)], cap=11000)
    image = m.scaled((9,))
    assert (image.cap, image.size) == (11000, 128)
    assert aggraph.build_AG(image).n > 0
    assert sum(count for _, count in image.class_table()) == 5276
    parts = [side for _, left, right in brute_decompositions(m) for side in (left, right)]
    assert parts and all(part.cap == 11000 for part in parts)


def test_localization_never_lists_the_ring(tmp_path, monkeypatch):
    # the CLI localizations and every corpus predicate work from the primes
    # S avoids
    specs = [([9699690], [(2, 0)])] + NON_CYCLIC
    paths = []
    for k, (moduli, factors) in enumerate(specs):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(
            {"ring": moduli, "module": [{"d": d, "c": c} for d, c in factors]}
        ))
        paths.append((str(path), ":".join("3" for _ in moduli)))
    corpus = theorems.generate_corpus(theorems.CorpusSpec())

    def forbidden(*args):
        raise AssertionError("a localization path listed the ring")

    monkeypatch.setattr(Ring, "elements", forbidden)
    monkeypatch.setattr(Module, "zero_divisors", forbidden)
    out = str(tmp_path / "out.json")
    for path, three in paths:
        assert main(["analyze", path, "--localize-at-min-primes", "--out", out]) == 0
        assert main(["localize", path, "--at-min-primes", "--out", out]) == 0
        assert main(["localize", path, "--gens", three, "--out", out]) == 0
    report = theorems.run_suite(corpus)
    assert not report.violations
