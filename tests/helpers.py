"""Small constructors shared across the test modules."""

from agmod.finmod import Module
from agmod.finring import Ring

# Non-cyclic shapes (ring moduli, factors): F_2^3, F_3^2, Z_2+Z_4 over Z_4,
# Z_2+Z_6+Z_4 over Z_12, and Z_4+Z_2+Z_6+Z_3 over Z_4 x Z_6.
NON_CYCLIC = [
    ([2], [(2, 0)] * 3),
    ([3], [(3, 0)] * 2),
    ([4], [(2, 0), (4, 0)]),
    ([12], [(2, 0), (6, 0), (4, 0)]),
    ([4, 6], [(4, 0), (2, 0), (6, 1), (3, 1)]),
]


def key(m):
    """Value identity of a module: the ring and the factors pin it."""
    return (m.ring.moduli, m.factors)


def kernel(module, loc):
    """The kernel (1-e)M of m -> e*m for the idempotent e of a localization
    of module, as a member of its lattice."""
    ring = module.ring
    return module.times(ring.sub(ring.one, loc.idem))


def zmod(n, m=None):
    """Z_m as a module over Z_n (defaults to the full ring)."""
    return Module(Ring([n]), [(m if m is not None else n, 0)])


def product_module(moduli, factors=None):
    """A product module over a product ring; defaults to the full module."""
    ring = Ring(moduli)
    if factors is None:
        factors = [(n, c) for c, n in enumerate(moduli)]
    return Module(ring, factors)


def edges(g):
    """The pairs (i, j), i < j, of adjacent vertex indices of a graph, sorted."""
    return [(i, j) for i, a in enumerate(g.adj) for j in range(i + 1, g.n) if a >> j & 1]


def sub_by_label(module, label):
    """Look up a lattice submodule by its generator label."""
    for s in module.lattice().all:
        if s.label == label:
            return s
    raise AssertionError(f"no submodule labelled {label!r}")


def encset(module, ints):
    """The submodule of a single-factor module holding exactly these values."""
    return frozenset((i,) for i in ints)
