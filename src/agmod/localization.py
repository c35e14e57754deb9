"""Localization of finite modules, realized by idempotents.

Over R = Z_n1 x ... x Z_nk, M is the direct sum of its (c, q)-primary parts,
one per component c and prime q | n_c.  An element s acts invertibly on a
part iff q does not divide s_c, and nilpotently otherwise, so S^-1 M is the
sum of the parts whose maximal ideal m_{c,q} = {r : q | r_c} S avoids.  That
sum is e*M for the idempotent e projecting onto those parts
(``Ring.part_idempotent``), so a ``MultSet`` is known by the pairs (c, q) it
avoids, and no path lists the elements of R.  That image is again a sum of
cyclic factors, one Z_d' per factor Z_d of M (``Module.scaled``), so the
localized module is an ordinary finite module instead of a quotient of formal
fractions.
The defining properties of the fraction module (every s acts invertibly on
e*M, and the kernel (1-e)*M of m -> e*m is the S-torsion) are checked by
exhaustive scans in tests/oracles.py.  M = e*M (+) (1-e)*M, so the kernel's
size is |M| / |e*M| and no command builds the kernel itself.

A multiplicative set containing 0 localizes to the zero module; that case is
a value, not an error, because several structural statements pivot on it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import DomainError, InternalCheckError, ResourceLimitError
from .finmod import Module, Submodule, _check_split
from .finring import Ring


@dataclass(frozen=True)
class MultSet:
    """A multiplicatively closed subset S of a ring, known by the pairs (c, q)
    whose maximal ideal m_{c,q} it avoids, with its generator and element
    counts."""

    ring: Ring
    avoided: frozenset
    generator_count: int
    size: int

    @property
    def contains_zero(self) -> bool:
        """S holds 0 iff it meets every m_{c,q}: 0 lies in each of them, and
        a product of one member from each is nilpotent, so a power of it is 0."""
        return not self.avoided

    def __repr__(self):
        return f"MultSet({self.size} elements of {self.ring!r})"


MULT_SET_CAP = 1 << 17


def closure(ring: Ring, gens) -> frozenset:
    """Least multiplicatively closed superset of the ring elements gens plus
    1: every product of generators, found by multiplying each new member by
    each generator.  The walk stops with ``ResourceLimitError`` once it holds
    more than ``MULT_SET_CAP`` members."""
    members = {ring.one}
    frontier = [ring.one]
    while frontier:
        x = frontier.pop()
        for g in gens:
            p = ring.mul(x, g)
            if p not in members:
                members.add(p)
                frontier.append(p)
        if len(members) > MULT_SET_CAP:
            raise ResourceLimitError(
                f"multiplicative set has more than {MULT_SET_CAP} elements", MULT_SET_CAP
            )
    return frozenset(members)


def mult_closure(ring: Ring, gens) -> MultSet:
    """The closure of gens.  S avoids m_{c,q} iff every generator does, since
    a product lies in a prime ideal iff one of its factors does.  Only its
    size walks S, under the ``closure`` cap."""
    gens = [ring.element(g) for g in gens]
    avoided = frozenset(
        (c, q)
        for c, primes in enumerate(ring.primes)
        for q in primes
        if all(g[c] % q for g in gens)
    )
    return MultSet(ring, avoided, len(gens), len(closure(ring, gens)))


def zero_divisor_free(module: Module, s: MultSet) -> bool:
    """S misses Z(M), the union of the associated primes, iff it avoids each."""
    return s.avoided.issuperset(module.associated_primes())


@dataclass(frozen=True)
class LocalizedModule:
    """The image e*M of a module under the localization idempotent e of S."""

    mult_set: MultSet
    idem: tuple
    image: Module


def localize(module: Module, s: MultSet) -> LocalizedModule:
    """e*M for the localization idempotent e of S."""
    e = s.ring.part_idempotent(s.avoided)
    return LocalizedModule(s, e, module.scaled(e))


def min_prime_complement(module: Module) -> MultSet:
    """R minus Z(M), the union of the minimal-prime colons.

    The minimal-prime colons are the maximal ideals m_{c,q} containing
    ann(M), so S avoids exactly those.  On component c, the residues outside
    them number n_c times the product of their (1 - 1/q), and |S| is the
    product of those counts.  Every member counts as a generator.
    """
    avoided = frozenset(module.associated_primes())
    size = module.ring.cardinality
    for c, q in avoided:
        size = size // q * (q - 1)
    return MultSet(module.ring, avoided, size, size)


def check_product_decomposition(module: Module, loc: LocalizedModule) -> list[tuple]:
    """Verify the split of M_S into components cut out by per-minimal-prime
    idempotents, and return its rows.

    loc is M localized at S, the minimal-prime complement.  The rows are
    those of ``Module.min_prime_parts``, (mask of P, e_i, mask of e_i*M) per
    minimal prime, so no lattice is enumerated.  Verifies that the e_i are
    pairwise orthogonal and sum to the localization idempotent, and that
    the components split M (``_check_split``, as for the clique witnesses).
    A failed check raises: the split is a proven fact, so it means a bug.
    """
    if module.cyclic_generator() is None:
        raise DomainError("product decomposition check needs a cyclic module")
    ring = module.ring
    table = module.min_prime_parts()
    parts = [e_i for _, e_i, _ in table]
    for (i, a), (j, b) in itertools.combinations(enumerate(parts), 2):
        if ring.mul(a, b) != ring.zero:
            raise InternalCheckError(f"component idempotents {i} and {j} are not orthogonal")
    if functools.reduce(ring.add, parts, ring.zero) != loc.idem:
        raise InternalCheckError("component idempotents do not sum to the localization idempotent")
    _check_split(module, table)
    return table


def image_submodule(loc: LocalizedModule, sub: Submodule) -> Submodule:
    """The image N_S = e*N of a submodule of the original module, as a member
    of the image's lattice, with e*x read as x reduced modulo each factor of
    the image (``Module.scaled``).  The pipeline never maps a submodule into
    a localization; this stays for the tests and the per-layer trace."""
    image = loc.image
    return image.lattice().find(
        {tuple(a % d for a, (d, _) in zip(x, image.factors)) for x in sub.elements}
    )
