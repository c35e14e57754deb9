"""Finite commutative rings Z_n1 x ... x Z_nk and their ideals.

Elements are residue tuples with componentwise arithmetic.  Ideals are stored
as divisor tuples, one divisor d_i | n_i per component, where d_i = n_i
encodes the zero component and d_i = 1 the full component; membership is a
componentwise divisibility test.  In this shape ideal products reduce to
gcd(d*d', n) and nilpotence to squarefree kernels, so everything stays exact
integer arithmetic.  Every idempotent is the projection onto a set of
(c, q)-primary parts, one per component c and prime q | n_c: the sum of
those parts' own idempotents, which are pairwise orthogonal.  Each part's
idempotent is solved by CRT once per ring modulus tuple and process, in
that ring's ``RingTable`` (``ring_table``), which also lists every split of
1 into two, only when first asked for;
localizing at S is the projection onto the parts whose maximal ideal S
avoids (``Ring.part_idempotent``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import ResourceLimitError, StructuralError


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


TRIAL_BOUND = 10**6


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending, by trial division up to
    ``TRIAL_BOUND``.  A cofactor left above the bound squared could be a
    product of two large primes, so it raises instead of guessing: every
    factorization returned is exact."""
    out, m, p = [], n, 2
    while p * p <= m:
        if p > TRIAL_BOUND:
            raise ResourceLimitError(
                f"cannot factor the modulus {n} by trial division to {TRIAL_BOUND}", TRIAL_BOUND
            )
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def squarefree_kernel(n: int) -> int:
    """Product of the distinct primes dividing n (1 for n = 1)."""
    return math.prod(prime_factors(n))


class Ring:
    """The ring Z_n1 x ... x Z_nk with componentwise arithmetic."""

    def __init__(self, moduli):
        moduli = tuple(int(n) for n in moduli)
        if not moduli:
            raise StructuralError("a ring needs at least one component")
        bad = [n for n in moduli if n < 2]
        if bad:
            raise StructuralError(f"component moduli must be >= 2, got {bad}", bad)
        self.moduli = moduli
        self.cardinality = math.prod(moduli)
        self.zero = (0,) * len(moduli)
        self.one = (1,) * len(moduli)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return "Z" + "xZ".join(str(n) for n in self.moduli)

    @functools.cached_property
    def primes(self) -> tuple[tuple[int, ...], ...]:
        """The distinct primes of each modulus, ascending: each modulus is
        factored once per ring, and the ring's table (``ring_table``) is
        keyed by these and the moduli."""
        return tuple(tuple(prime_factors(n)) for n in self.moduli)

    @functools.cached_property
    def nil_divisors(self) -> tuple[int, ...]:
        """The nilradical in divisor form: the squarefree kernel of each modulus."""
        return tuple(math.prod(ps) for ps in self.primes)

    # -- element arithmetic -------------------------------------------------

    def _check(self, r):
        if len(r) != len(self.moduli):
            raise StructuralError(
                f"element {r} has {len(r)} components, ring {self!r} has {len(self.moduli)}"
            )

    def element(self, residues) -> tuple[int, ...]:
        """Canonicalise an iterable of residues into a ring element."""
        r = tuple(int(x) for x in residues)
        self._check(r)
        return tuple(x % n for x, n in zip(r, self.moduli))

    def elements(self):
        """All ring elements in lexicographic order."""
        return itertools.product(*(range(n) for n in self.moduli))

    def add(self, a, b):
        self._check(a), self._check(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.moduli))

    def sub(self, a, b):
        self._check(a), self._check(b)
        return tuple((x - y) % n for x, y, n in zip(a, b, self.moduli))

    def mul(self, a, b):
        self._check(a), self._check(b)
        return tuple((x * y) % n for x, y, n in zip(a, b, self.moduli))

    # -- idempotents ----------------------------------------------------------

    def part_idempotent(self, pairs):
        """The idempotent that is 1 on the (c, q)-primary parts in pairs, 0
        elsewhere: the sum of those parts' idempotents from the ring's table.
        Pairs that name no part are ignored; no list of idempotents is built."""
        pairs = set(pairs)
        out = list(self.zero)
        for (c, q), x in ring_table(self.moduli, self.primes).parts.items():
            if (c, q) in pairs:
                out[c] = (out[c] + x) % self.moduli[c]
        return tuple(out)

    def splits(self) -> tuple[tuple, ...]:
        """Every split 1 = e + (1-e) into nonzero idempotents, as the pair
        (e, 1-e) with e < 1-e, in the order of e, from the ring's table."""
        return ring_table(self.moduli, self.primes).splits()


# Modulus tuples whose tables ``ring_table`` keeps.  The default corpus has
# 72 rings; the --max-ring 400 --max-module 512 corpus has 529, each asked
# for by consecutive instances, so each is still solved once.
RING_TABLES = 512


class RingTable:
    """The idempotents of the ring Z_n1 x ... x Z_nk with these moduli and
    primes, for ``ring_table``.

    ``parts`` maps each (c, q)-primary part, one per component c and prime
    q | n_c, in component then prime order, to the residue on c of the
    idempotent that is 1 on that part and 0 elsewhere: x = 1 mod the q-power
    part of n_c and 0 mod the rest, one CRT solve each.  These k idempotents
    are pairwise orthogonal and sum to 1, so every idempotent is the sum of
    those of one set of parts.  ``splits`` (2^(k-1) - 1 pairs) are built
    from them on the first call and kept.
    """

    def __init__(self, moduli: tuple[int, ...], primes: tuple[tuple[int, ...], ...]):
        self.moduli = moduli
        self.parts = {}
        for c, (n, ps) in enumerate(zip(moduli, primes)):
            for q in ps:
                kept = q
                while n % (kept * q) == 0:
                    kept *= q
                dropped = n // kept
                self.parts[c, q] = dropped * pow(dropped, -1, kept) % n
        self._splits = None

    def splits(self) -> tuple[tuple, ...]:
        """(e, 1-e) for each nonzero idempotent e with e < 1-e, in sorted
        order; the idempotents are the subset sums of the parts' ones."""
        if self._splits is None:
            idems = [(0,) * len(self.moduli)]
            for (c, _), x in self.parts.items():
                n = self.moduli[c]
                for e in idems[:]:
                    idems.append(e[:c] + ((e[c] + x) % n,) + e[c + 1:])
            rows = []
            for e in sorted(idems)[1:]:
                comp = tuple((1 - x) % n for x, n in zip(e, self.moduli))
                if e < comp:
                    rows.append((e, comp))
            self._splits = tuple(rows)
        return self._splits


@functools.lru_cache(maxsize=RING_TABLES)
def ring_table(moduli: tuple[int, ...], primes: tuple[tuple[int, ...], ...]) -> RingTable:
    """The ``RingTable`` of the ring with these moduli and their primes
    (``Ring.primes``), built once per process and kept for the last
    ``RING_TABLES`` rings asked for; ``ring_table.cache_info()`` gives its
    hits and misses.

    The key is two tuples of integers, so an entry keeps no object of a
    caller alive.  An entry holds the ring's k part idempotents, and its
    2^(k-1) - 1 splits only once they have been asked for.  One pass of the default corpus (319 instances, every predicate)
    makes 72 entries, 1.1 kB each with the splits built (a deep
    ``sys.getsizeof``), and 1183 hits; eight parts (Z_9699690) take 29 kB.
    """
    return RingTable(moduli, primes)


@dataclass(frozen=True)
class Ideal:
    """An ideal d_1 Z_n1 x ... x d_k Z_nk in divisor form."""

    ring: Ring
    divisors: tuple[int, ...]

    def __post_init__(self):
        if len(self.divisors) != len(self.ring.moduli):
            raise StructuralError(
                f"ideal {self.divisors} does not match ring {self.ring!r}"
            )
        bad = [
            (i, d)
            for i, (d, n) in enumerate(zip(self.divisors, self.ring.moduli))
            if d < 1 or n % d != 0
        ]
        if bad:
            raise StructuralError(f"divisors must divide the moduli: {bad}", bad)

    def __repr__(self):
        return "(" + ",".join(str(d) for d in self.divisors) + ")"

    def is_maximal(self) -> bool:
        """One component divisor is a prime and every other divisor is 1."""
        proper = [d for d in self.divisors if d != 1]
        return len(proper) == 1 and prime_factors(proper[0]) == proper

    def product(self, other: "Ideal") -> "Ideal":
        """Componentwise d*d' reduced by gcd with n; equals the set product."""
        if self.ring != other.ring:
            raise StructuralError("ideal product across different rings")
        return Ideal(
            self.ring,
            tuple(
                math.gcd(d * e, n)
                for d, e, n in zip(self.divisors, other.divisors, self.ring.moduli)
            ),
        )

    def is_nil(self) -> bool:
        """True iff every element is nilpotent, i.e. I lies in the nilradical."""
        return all(d % k == 0 for d, k in zip(self.divisors, self.ring.nil_divisors))
