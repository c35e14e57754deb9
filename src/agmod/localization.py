"""Localization of finite modules, realized by idempotents.

Inverting a multiplicative set S in a finite ring is multiplication by an
idempotent: each s has a unique idempotent power, and the product e of these
over S satisfies exactly the two defining properties of the fraction module,
verified on every call: every s acts invertibly on e*M, and the kernel of
m -> e*m is precisely the elements killed by some member of S.  This keeps
the localized module a first-class finite module (an embedded image) instead
of a quotient of formal fractions.

A multiplicative set containing 0 localizes to the zero module; that case is
a value, not an error, because several structural statements pivot on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InternalCheckError
from .finmod import Module, Submodule
from .finring import Ring


@dataclass(frozen=True)
class MultSet:
    """A multiplicatively closed subset of a ring, with its generator list."""

    ring: Ring
    gens: tuple
    closure: frozenset

    @property
    def contains_zero(self) -> bool:
        return self.ring.zero in self.closure

    def __repr__(self):
        return f"MultSet({len(self.closure)} elements of {self.ring!r})"


def mult_closure(ring: Ring, gens) -> MultSet:
    """Least multiplicatively closed superset of gens plus 1, by fixpoint."""
    gens = tuple(ring.element(g) for g in gens)
    closure = {ring.one}
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        if x in closure:
            continue
        closure.add(x)
        for y in list(closure):
            for p in (ring.mul(x, y),):
                if p not in closure:
                    frontier.append(p)
    return MultSet(ring, gens, frozenset(closure))


def localization_idempotent(s: MultSet):
    """The product of the idempotent powers of the generators of S."""
    ring = s.ring
    e = ring.idempotent_product(s.gens)
    if ring.mul(e, e) != e:
        raise InternalCheckError("localization idempotent is not idempotent")
    return e


@dataclass(frozen=True)
class LocalizedModule:
    """The image e*M together with the data that produced it."""

    mult_set: MultSet
    idem: tuple
    image: Module
    kernel: Submodule


def localize(module: Module, s: MultSet) -> LocalizedModule:
    """e*M for the localization idempotent of S, with postconditions verified."""
    e = localization_idempotent(s)
    image = module.scaled(e)
    eff = image.unit
    kernel_set = {
        m for m in module.elements if module.smul(eff, m) == module.zero
    }
    kernel = module.submodule_from_set(kernel_set)
    if image.size * kernel.size != module.size:
        raise InternalCheckError("localization image and kernel sizes do not multiply out")

    expected_kernel = set()
    for m in module.elements:
        if any(module.smul(x, m) == module.zero for x in s.closure):
            expected_kernel.add(m)
    if expected_kernel != kernel_set:
        raise InternalCheckError(
            "kernel of the idempotent differs from the S-torsion elements"
        )
    for x in s.closure:
        if {image.smul(x, m) for m in image.elements} != image.element_set:
            raise InternalCheckError(f"{x} does not act invertibly on the image")
    return LocalizedModule(s, e, image, kernel)


def _complement(ring: Ring, excluded, name: str) -> MultSet:
    """R minus the excluded elements, verified to contain 1 and be closed."""
    elems = [r for r in ring.elements() if r not in excluded]
    s = MultSet(ring, tuple(elems), frozenset(elems))
    if ring.one not in s.closure:
        raise InternalCheckError(f"{name} does not contain 1")
    for a in s.closure:
        for b in s.closure:
            if ring.mul(a, b) not in s.closure:
                raise InternalCheckError(f"{name} is not multiplicatively closed")
    return s


def min_prime_complement(module: Module) -> MultSet:
    """R minus the union of the minimal-prime colons, closure verified."""
    union = set()
    for p in module.min_primes():
        union |= module.colon(p).element_set
    return _complement(module.ring, union, "minimal-prime complement")


def zero_divisor_complement(module: Module) -> MultSet:
    """R minus Z(M); closed because Z(M) is a union of primes here."""
    return _complement(module.ring, module.zero_divisors(), "R minus Z(M)")


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the internal direct-sum split of a localized cyclic module."""

    idem: tuple
    component_idempotents: tuple
    components: tuple
    localized: LocalizedModule

    def sizes(self) -> list[int]:
        return [c.size for c in self.components]


def check_product_decomposition(module: Module) -> DecompositionReport:
    """Split M_S into components cut out by per-minimal-prime idempotents.

    Verifies, for S the minimal-prime complement: the component idempotents
    are pairwise orthogonal, they sum to the localization idempotent, and the
    image is their internal direct sum (pairwise trivial intersections, sizes
    multiplying up).  Any failed check raises, because this split is a proven
    fact about these modules: a failure means a bug.
    """
    if module.cyclic_generator() is None:
        raise DomainError("product decomposition check needs a cyclic module")
    ring = module.ring
    loc = localize(module, min_prime_complement(module))
    e = loc.idem
    parts = module.component_idempotents(e)

    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if ring.mul(parts[i], parts[j]) != ring.zero:
                raise InternalCheckError(
                    f"component idempotents {i} and {j} are not orthogonal"
                )
    total = ring.zero
    for e_i in parts:
        total = ring.add(total, e_i)
    if total != e:
        raise InternalCheckError("component idempotents do not sum to the localization idempotent")

    components = tuple(module.scaled(e_i) for e_i in parts)
    size_prod = 1
    for c in components:
        size_prod *= c.size
    if size_prod != loc.image.size:
        raise InternalCheckError("component sizes do not multiply to the image size")
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            if components[i].element_set & components[j].element_set != {module.zero}:
                raise InternalCheckError(
                    f"components {i} and {j} overlap beyond zero"
                )
    return DecompositionReport(
        idem=e,
        component_idempotents=tuple(parts),
        components=components,
        localized=loc,
    )


def image_submodule(loc: LocalizedModule, sub: Submodule) -> Submodule:
    """The image N_S = e*N of a submodule of the original module."""
    module = sub.module
    image = loc.image
    scaled = {module.smul(image.unit, x) for x in sub.elements}
    return image.submodule_from_set(scaled)
