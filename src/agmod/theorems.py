"""Executable structural predicates over a generated corpus of instances.

Every predicate evaluates its hypotheses exactly as stated and then checks
the claimed conclusion; a hypothesis-satisfying instance that fails its
conclusion is reported as a violation, which in this code base always means
an implementation bug (the statements themselves are proven facts about
these graphs).  Instances whose hypotheses do not hold report
``hypotheses_not_met``; an instance past a resource cap is ``skipped`` by
every predicate with the cap, never silently, in ``run_predicate`` alone.

Hypotheses that are automatic for finite instances (finitely generated
module, Artinian quotient ring) are recorded as satisfied by construction
rather than re-checked.

Degenerate scope notes (see each predicate): statements that compare graph
invariants against the minimal-prime count are restricted to non-simple
modules, because a simple module has an empty graph (clique and chromatic
number 0) while still owning one minimal prime submodule; the clique-witness
construction likewise only produces an actual graph clique when there are at
least two minimal primes.  The predicates count the minimal primes as the
associated primes, one per nonzero primary part (``Module.min_prime_parts``),
and test rad(0) = 0 as ``Module.is_semiprime``, so neither needs a lattice.
Whether a member is a vertex is its class's bit in AG (``AnnGraph``'s ``in``),
and Lemma 2.4 reads its idempotents off the same parts; the member scans
these replace are oracles in tests/oracles.py.  Those parts are masks, so
Theorem 2.17 builds no lattice; Theorem 2.18 makes their members.

Theorem 2.13 and Corollaries 2.14-2.16 localize at an S that misses Z(M).
On a finite module such an S acts bijectively, so S^-1 M is M itself and
the invariants compare with themselves; these four predicates check their
hypotheses and then exactly that identity (``_localization_keeps``).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

from . import aggraph
from .errors import InternalCheckError, ResourceLimitError
from .finmod import Module
from .finring import Ring, divisors, prime_factors
from .localization import (
    check_product_decomposition,
    localize,
    min_prime_complement,
    zero_divisor_free,
)

PASS = "applicable_pass"
FAIL = "applicable_FAIL"
NOT_MET = "hypotheses_not_met"
SKIPPED = "skipped"


def instance_id(module: Module) -> str:
    ring = "x".join(f"Z{n}" for n in module.ring.moduli)
    mod = "x".join(f"Z{d}.{c}" for d, c in module.factors)
    return f"{ring}|{mod}"


# -- per-instance analysis -------------------------------------------------------


class InstanceAnalysis:
    """Lazily computed views of one module instance, for the predicates.

    It caches only what the module does not and some predicate reads (its
    id, AG and its invariants, the idempotent of an FxS split and the
    minimal-prime localization) and lives as long as its caller keeps it:
    the suite builds each instance's module and analysis, here or in a
    worker, and drops both with the instance.  No predicate reads AG* or
    builds a split side: a split row holds its two sides' labels.
    """

    def __init__(self, module: Module):
        self.module = module

    @cached_property
    def iid(self) -> str:
        """The instance id, built once for every predicate run on it."""
        return instance_id(self.module)

    @cached_property
    def ag(self) -> aggraph.AnnGraph:
        return aggraph.build_AG(self.module)

    @cached_property
    def inv(self) -> aggraph.InvariantReport:
        return aggraph.invariants(self.ag)

    @cached_property
    def fxs(self):
        """The idempotent e with M = eM (+) (1-e)M, eM simple and (1-e)M
        having a unique nontrivial submodule, or None; read off the labels
        of the split rows, which build no module."""
        for e, left, right in self.module.nontrivial_decompositions():
            if "simple" in left and "unique_nontrivial_submodule" in right:
                return e
            if "simple" in right and "unique_nontrivial_submodule" in left:
                return self.module.ring.sub(self.module.ring.one, e)
        return None

    @cached_property
    def loc_min(self):
        """M localized at the minimal-prime complement."""
        return localize(self.module, min_prime_complement(self.module))


# -- predicates -------------------------------------------------------------------


def _prop_2_5(a: InstanceAnalysis):
    """Every nonzero proper submodule is a graph vertex (finite instances
    always satisfy the finiteness/Artinian hypotheses by construction).

    A colon class is all vertices or none, and M is alone in the last
    class, so this holds iff the other vertex classes of AG hold all |L| - 2
    nonzero proper members, counted in the class table; the lattice is
    enumerated only on a FAIL, to list the members that are not vertices."""
    table = a.module.class_table()
    proper = max(sum(count for _, count in table) - 2, 0)
    if sum(size for cls, size in a.ag.sizes if cls != len(table) - 1) == proper:
        return PASS, {"proper_nonzero": proper}
    return FAIL, {"non_vertices": [
        s.ref() for s in a.module.lattice().all
        if not s.is_zero and not s.is_whole and s not in a.ag
    ]}


def _lemma_2_4(a: InstanceAnalysis):
    """With a nil annihilator, each minimal submodule squares to zero or is
    cut out by an idempotent.

    A nil annihilator puts every (c, q)-part of R into M, so an idempotent
    e, the projection onto a set of parts, is fixed by eM.  An N cut out by
    some e is then a primary part, and e is that part's idempotent, read off
    the row of ``Module.min_prime_parts`` whose part mask is N's."""
    m = a.module
    if not m.annihilator().is_nil():
        return NOT_MET, {"reason": "annihilator is not nil"}
    branches = []
    for n in m.minimal_submodules():
        if m.annihilates(n, n):
            branches.append({"submodule": n.ref(), "branch": "square_zero"})
            continue
        e = next((e for _, e, part in m.min_prime_parts() if part == n.mask), None)
        if e is None:
            return FAIL, {"submodule": n.ref()}
        branches.append(
            {"submodule": n.ref(), "branch": "idempotent", "e": list(e)}
        )
    return PASS, {"minimal_submodules": branches}


def _part_labels(labels: tuple[str, ...]):
    return {
        "prime": "prime_module" in labels,
        "simple": "simple" in labels,
        "unique_nontrivial": "unique_nontrivial_submodule" in labels,
    }


def _lemma_2_6(a: InstanceAnalysis):
    """For decomposable M: triangle-free forces each split into two prime
    parts or a prime part plus a unique-nontrivial part; and the graph is
    acyclic iff some split pairs a simple part with a prime or
    unique-nontrivial part.

    The converse direction is only asserted for splits into (simple, simple)
    or (simple, unique-nontrivial): a simple part next to a prime part with
    several independent minimal submodules does admit triangles.
    """
    if not a.module.nontrivial_decompositions():
        return NOT_MET, {"reason": "no nontrivial idempotent decomposition"}
    details = []
    for e, left, right in a.module.nontrivial_decompositions():
        lhs, rhs = _part_labels(left), _part_labels(right)
        details.append({"e": list(e), "left": lhs, "right": rhs})
        if a.inv.triangle_free:
            ok = (lhs["prime"] and rhs["prime"]) or (
                (lhs["prime"] and rhs["unique_nontrivial"])
                or (rhs["prime"] and lhs["unique_nontrivial"])
            )
            if not ok:
                return FAIL, {"violating_split": details[-1], "part": "triangle_free"}
    acyclic = a.inv.girth is None
    fd_like = any(
        (d["left"]["simple"] and (d["right"]["prime"] or d["right"]["unique_nontrivial"]))
        or (d["right"]["simple"] and (d["left"]["prime"] or d["left"]["unique_nontrivial"]))
        for d in details
    )
    strong_fd = any(
        (d["left"]["simple"] and (d["right"]["simple"] or d["right"]["unique_nontrivial"]))
        or (d["right"]["simple"] and (d["left"]["simple"] or d["left"]["unique_nontrivial"]))
        for d in details
    )
    if acyclic and not fd_like:
        return FAIL, {"part": "acyclic_forward", "splits": details}
    if strong_fd and not acyclic:
        return FAIL, {"part": "acyclic_converse", "girth": a.inv.girth}
    return PASS, {"splits": details, "acyclic": acyclic}


def _p4_fxs_structure(a: InstanceAnalysis):
    """Check AG is the four-vertex path (0)xS - Fx(0) - (0)xN - FxN, with
    F = eM, S = (1-e)M and N the one nonzero submodule of M strictly in S."""
    m = a.module
    e = a.fxs
    f = m.times(e)
    s = m.times(m.ring.sub(m.ring.one, e))
    lattice = m.lattice()
    inside = [
        k for k in lattice.all
        if not k.is_zero and k is not s and k.mask | s.mask == s.mask
    ]
    if len(inside) != 1:
        return False, {"reason": "second part lacks a unique nontrivial submodule"}
    n = inside[0]
    fn = lattice.member(lattice.radix.join(f.mask, n.mask))
    expected = [s, f, n, fn]
    if len(set(expected)) != 4:
        return False, {"reason": "expected vertices are not distinct"}
    if a.ag.n != 4 or not all(x in a.ag for x in expected):
        return False, {"reason": "vertex sets differ"}
    for i, j in itertools.combinations(range(4), 2):
        if m.annihilates(expected[i], expected[j]) != (j == i + 1):
            return False, {"reason": "edges do not trace the expected path"}
    return True, {"path": [x.label for x in expected]}


def _tree_shape_conclusion(a: InstanceAnalysis):
    """Shared conclusion: star or P4, with both directions of the P4 <-> FxS
    correspondence (including the exact four-vertex structure)."""
    star = "star" in a.inv.shape
    p4 = "path_4" in a.inv.shape
    if not (star or p4):
        return FAIL, {"shape": sorted(a.inv.shape)}
    if p4 and a.fxs is None:
        return FAIL, {"reason": "P4 graph without an FxS decomposition"}
    if a.fxs is not None:
        if not p4:
            return FAIL, {"reason": "FxS decomposition without a P4 graph",
                          "shape": sorted(a.inv.shape)}
        ok, detail = _p4_fxs_structure(a)
        if not ok:
            return FAIL, detail
        return PASS, {"shape": "path_4", "fxs_idempotent": list(a.fxs), **detail}
    return PASS, {"shape": "star"}


def _thm_2_7(a: InstanceAnalysis):
    """A tree graph is a star or the four-vertex path; the path case happens
    exactly for modules splitting as simple x unique-nontrivial."""
    if "tree" not in a.inv.shape:
        return NOT_MET, {"reason": "graph is not a tree"}
    return _tree_shape_conclusion(a)


def _thm_2_8(a: InstanceAnalysis):
    """Bipartite graphs (Artinian scalars are automatic here) are stars or
    the four-vertex path.  Empty graphs are out of scope: they are vacuously
    bipartite yet have no star centre."""
    if a.ag.n == 0:
        return NOT_MET, {"reason": "empty graph"}
    if not a.inv.bipartite:
        return NOT_MET, {"reason": "graph is not bipartite"}
    return _tree_shape_conclusion(a)


def _prop_2_9a(a: InstanceAnalysis):
    """Nil annihilator + finite bipartite graph: star or four-vertex path."""
    if not a.module.annihilator().is_nil():
        return NOT_MET, {"reason": "annihilator is not nil"}
    if a.ag.n == 0:
        return NOT_MET, {"reason": "empty graph"}
    if not a.inv.bipartite:
        return NOT_MET, {"reason": "graph is not bipartite"}
    star = "star" in a.inv.shape
    p4 = "path_4" in a.inv.shape
    if star or p4:
        return PASS, {"shape": "star" if star else "path_4"}
    return FAIL, {"shape": sorted(a.inv.shape)}


def _prop_2_9b(a: InstanceAnalysis):
    """Nil annihilator + regular graph of finite degree: complete graph."""
    if not a.module.annihilator().is_nil():
        return NOT_MET, {"reason": "annihilator is not nil"}
    if a.ag.n == 0:
        return NOT_MET, {"reason": "empty graph"}
    if "regular" not in a.inv.shape:
        return NOT_MET, {"reason": "graph is not regular"}
    if "complete" in a.inv.shape:
        return PASS, {"order": a.ag.n}
    return FAIL, {"degree_sequence": list(a.inv.degree_sequence)}


def _unit_generator(ring: Ring):
    """The first unit in lexicographic order whose powers cover U(R), or None
    when U(R) is not cyclic.

    U(R) is the product of the U(Z_{n_c}), cyclic iff each is and their
    orders phi(n_c) are pairwise coprime.  phi(n) is even for n > 2, so at
    most one n_c may be above 2; every other component has 1 as its only
    unit.  U(Z_n) is cyclic iff n is 4, p^k or 2p^k for an odd prime p, and
    then the generator is the least residue g of order phi(n): no g^(phi / q)
    is 1 for a prime q dividing phi.
    """
    big = [c for c, n in enumerate(ring.moduli) if n > 2]
    if not big:
        return ring.one
    if len(big) > 1:
        return None
    c = big[0]
    n, primes = ring.moduli[c], ring.primes[c]
    odd = [p for p in primes if p != 2]
    if n != 4 and (len(odd) != 1 or n % 4 == 0):
        return None
    phi = n // math.prod(primes) * math.prod(p - 1 for p in primes)
    qs = prime_factors(phi)
    g = next(
        g for g in range(2, n)
        if math.gcd(g, n) == 1 and all(pow(g, phi // q, n) != 1 for q in qs)
    )
    return ring.one[:c] + (g,) + ring.one[c + 1:]


def _thm_2_10(a: InstanceAnalysis):
    """For cyclic M and saturated S-closed S*, submodules maximal in the
    complement of S* are prime.  Run over single-generator multiplicative
    sets S = {1, z, z^2, ...}, with S* the least saturated S-closed superset
    of an orbit S*x.

    Lemma: such an S* is U = {y : N <= Ry}, N the least of the members
    R z^j x.  The orbit ends in a cycle, w = z^p w for w = z^e x and some
    p >= 1, so N = Rw = z^p N.  Saturation puts y in S* whenever some
    element of S* lies in Ry, so S* holds U.  U holds the orbit, is closed
    under that step, and is S-closed, as N <= Ry gives N = z^p N <= R(zy);
    so S* lies in U.  Every member K is cyclic, so K misses S* iff N is not
    in K: the members maximal outside S* are those maximal among the
    members not holding N, and |S*| is |M| minus the size of their union.
    U saturates iff every r with N <= rM lies in S, N is least on an orbit
    iff zN = N, and N = (0) puts 0 in S*, leaving no member outside.

    Every x = u * (u^-1 x) for a unit u, so a saturated S* needs every unit
    in S.  The powers of a non-unit hold no unit but 1, and those of a unit
    z hold every unit iff z generates U(R).  So when some n_c > 2 the one S
    tried is U(R), generated by the first such z, and there is none when
    U(R) is not cyclic.  Nor is there one when ann(M) is not nil: then some
    maximal ideal m_{c,p} misses ann(M), so p divides the order of no factor
    on c, and the non-unit that is p on c and 1 elsewhere acts bijectively
    on M, reaches every x and leaves no orbit saturated.  With ann(M) nil,
    every non-unit lies in some m_{c,p}, and the m_{c,p}M are the coatoms,
    so only N = M saturates; units lift from R/ann(M) to R, so the
    generators of M are one orbit and one pair is checked, on the coatoms.

    Over R = Z_2^k, S = {1, z} and each member is e_T M for T within the
    components J that carry a factor Z_2.  The r with e_T M <= rM are the
    2^(k - |T|) that are 1 on T, so |T| >= k - 1.  With J every component,
    z = 1 gives N = M on the orbit {1_M}, and z = 1 - e_i gives N = zM on
    the orbits {1_M, z 1_M} and {z 1_M}; with J missing only i, z = e_J
    gives N = M on {1_M}; otherwise no set saturates.  In each case N = zM.
    """
    m = a.module
    if not m.is_cyclic():
        return NOT_MET, {"reason": "not cyclic"}
    ring = m.ring
    if max(ring.moduli) > 2:
        z = _unit_generator(ring) if m.annihilator().is_nil() else None
        if z is None:
            return NOT_MET, {"reason": "no saturated S-closed subsets arise"}
        seeds = [(z, 1)]  # (z, the orbits whose S* is named by N = zM)
    else:
        e_j = tuple(int((2, c) in m.factors) for c in range(len(ring.moduli)))
        if all(e_j):
            # each z with one zero residue, then z = 1: lexicographic order
            seeds = [(e_j[:c] + (0,) + e_j[c + 1:], 2) for c in range(len(e_j))]
            seeds.append((e_j, 1))
        else:
            seeds = [(e_j, 1)] if e_j.count(0) == 1 else []
    pairs = 0
    for z, orbits in seeds:
        n = m.times(z)
        if n.is_zero:
            continue
        outside = [s for s in m.lattice().all if n.mask & ~s.mask]
        # members come in ascending size, so only later ones can hold s
        maximal = [
            s
            for i, s in enumerate(outside)
            if not any(s.mask & ~t.mask == 0 for t in outside[i + 1:])
        ]
        pairs += orbits
        for p in maximal:
            if not m.is_prime_submodule(p):
                union = functools.reduce(int.__or__, [s.mask for s in maximal])
                return FAIL, {
                    "z": list(z),
                    "saturated_size": m.size - union.bit_count(),
                    "non_prime_maximal": p.ref(),
                }
    if pairs == 0:
        return NOT_MET, {"reason": "no saturated S-closed subsets arise"}
    return PASS, {"pairs_checked": pairs}


def _thm_2_11(a: InstanceAnalysis):
    """Cyclic, nil annihilator, at least three minimal primes: the graph has
    a cycle."""
    m = a.module
    if not m.is_cyclic() or not m.annihilator().is_nil() or len(m.associated_primes()) < 3:
        return NOT_MET, {"reason": "needs cyclic, nil annihilator, |Min| >= 3"}
    if a.inv.girth is not None:
        return PASS, {"girth": a.inv.girth}
    return FAIL, {"shape": sorted(a.inv.shape)}


def _thm_2_12(a: InstanceAnalysis):
    """Cyclic, nonzero prime radical of 0, nil annihilator, exactly two
    minimal primes: a cycle or the four-vertex path."""
    m = a.module
    if (
        not m.is_cyclic()
        or m.is_semiprime()
        or not m.annihilator().is_nil()
        or len(m.associated_primes()) != 2
    ):
        return NOT_MET, {
            "reason": "needs cyclic, rad(0) != 0, nil annihilator, |Min| = 2"
        }
    if a.inv.girth is not None or "path_4" in a.inv.shape:
        return PASS, {"girth": a.inv.girth, "shape": sorted(a.inv.shape)}
    return FAIL, {"shape": sorted(a.inv.shape)}


def _localization_keeps(a: InstanceAnalysis, invariant: str, semiprime_only: bool):
    """Localizing at the minimal-prime complement S does not raise the clique
    or chromatic number, and keeps it when M is semiprime.

    S avoids Z(M), so every s in S acts bijectively on the finite carrier:
    the localization idempotent is the identity on M and S^-1 M is M itself,
    with the same graph.  Checking the statement is checking that identity.
    """
    semiprime = a.module.is_semiprime()
    if semiprime_only and not semiprime:
        return NOT_MET, {"reason": "module is not semiprime"}
    loc = a.loc_min
    if not zero_divisor_free(a.module, loc.mult_set):
        return NOT_MET, {"reason": "S meets the zero divisors on M"}
    if loc.image is not a.module:
        raise InternalCheckError("S avoids Z(M) but the localized image is not M")
    value = getattr(a.inv, f"{invariant}_number")
    if semiprime_only:
        return PASS, {f"{invariant}_number": value}
    return PASS, {
        f"{invariant}_before": value,
        f"{invariant}_after": value,
        "semiprime": semiprime,
    }


def _thm_2_13(a: InstanceAnalysis):
    """S avoiding Z(M): cl(AG(S^-1 M)) <= cl(AG(M)), equal for semiprime M."""
    return _localization_keeps(a, "clique", semiprime_only=False)


def _cor_2_14(a: InstanceAnalysis):
    """Semiprime M: localizing at R minus Z(M) keeps the clique number."""
    return _localization_keeps(a, "clique", semiprime_only=True)


def _cor_2_15(a: InstanceAnalysis):
    """S avoiding Z(M): chi(AG(S^-1 M)) <= chi(AG(M)), equal for semiprime M."""
    return _localization_keeps(a, "chromatic", semiprime_only=False)


def _cor_2_16(a: InstanceAnalysis):
    """Semiprime M: localizing at R minus Z(M) keeps the chromatic number."""
    return _localization_keeps(a, "chromatic", semiprime_only=True)


def _thm_2_17(a: InstanceAnalysis):
    """Cyclic modules split under localization at the minimal-prime
    complement into one component per minimal prime, cut out by orthogonal
    idempotents summing to the localization idempotent."""
    if not a.module.is_cyclic():
        return NOT_MET, {"reason": "not cyclic"}
    try:
        parts = check_product_decomposition(a.module, a.loc_min)
    except InternalCheckError as exc:
        return FAIL, {"check": str(exc)}
    return PASS, {
        "idempotent": list(a.loc_min.idem),
        "component_idempotents": [list(e) for _, e, _ in parts],
        "component_sizes": [part.bit_count() for _, _, part in parts],
    }


def _thm_2_18(a: InstanceAnalysis):
    """The constructed witnesses form a clique of size |Min| in the graph.
    The construction raises unless every pair of witnesses annihilates, so
    a pair that does not is a FAIL under ``construction``.

    Scoped to |Min| >= 2: with a single minimal prime the construction
    degenerates to the improper submodule, which is not a vertex."""
    if not a.module.is_cyclic():
        return NOT_MET, {"reason": "not cyclic"}
    if len(a.module.associated_primes()) < 2:
        return NOT_MET, {"reason": "needs |Min| >= 2"}
    try:
        witnesses, report = a.module.min_prime_clique_witness()
    except InternalCheckError as exc:
        return FAIL, {"construction": str(exc)}
    for w in witnesses:
        if w not in a.ag:
            return FAIL, {"witness_not_vertex": w.ref()}
    return PASS, {
        "witness": [{"label": w.label, "size": w.size} for w in witnesses],
        **report,
    }


def _cor_2_19(a: InstanceAnalysis):
    """Cyclic modules: the clique number is at least the number of minimal
    primes, and three or more minimal primes force girth 3.

    Scoped to non-simple modules: a simple module has an empty graph but one
    minimal prime, so the inequality has no graph to live in."""
    if not a.module.is_cyclic():
        return NOT_MET, {"reason": "not cyclic"}
    if "simple" in a.module.classify():
        return NOT_MET, {"reason": "simple module (empty graph)"}
    n = len(a.module.associated_primes())
    if a.inv.clique_number < n:
        return FAIL, {"clique_number": a.inv.clique_number, "min_primes": n}
    if n >= 3 and a.inv.girth != 3:
        return FAIL, {"girth": a.inv.girth, "min_primes": n}
    return PASS, {
        "clique_number": a.inv.clique_number,
        "min_primes": n,
        "girth": a.inv.girth,
    }


def _thm_2_20(a: InstanceAnalysis):
    """Cyclic with zero prime radical: chromatic = clique = |Min|.

    Scoped to non-simple modules, as for the clique bound."""
    if not a.module.is_cyclic() or not a.module.is_semiprime():
        return NOT_MET, {"reason": "needs cyclic with rad(0) = 0"}
    if "simple" in a.module.classify():
        return NOT_MET, {"reason": "simple module (empty graph)"}
    n = len(a.module.associated_primes())
    if a.inv.chromatic_number == a.inv.clique_number == n:
        return PASS, {"value": n}
    return FAIL, {
        "chromatic_number": a.inv.chromatic_number,
        "clique_number": a.inv.clique_number,
        "min_primes": n,
    }


def _thm_2_21(a: InstanceAnalysis):
    """Clique number 2 exactly when chromatic number 2, on every instance."""
    cl, ch = a.inv.clique_number, a.inv.chromatic_number
    if (cl == 2) == (ch == 2):
        return PASS, {"clique_number": cl, "chromatic_number": ch}
    return FAIL, {"clique_number": cl, "chromatic_number": ch}


def _one_min_prime_star(a: InstanceAnalysis, flag: str, reason: str):
    """Nil annihilator, one minimal prime and the graph flag ``flag``: a star.
    Empty graphs are out of scope (a star needs a centre)."""
    if not a.module.annihilator().is_nil() or len(a.module.associated_primes()) != 1:
        return NOT_MET, {"reason": "needs nil annihilator and |Min| = 1"}
    if a.ag.n == 0:
        return NOT_MET, {"reason": "empty graph"}
    if not getattr(a.inv, flag):
        return NOT_MET, {"reason": reason}
    if "star" in a.inv.shape:
        return PASS, {"order": a.ag.n}
    return FAIL, {"shape": sorted(a.inv.shape)}


def _thm_2_22(a: InstanceAnalysis):
    """Nil annihilator, one minimal prime, triangle-free graph: a star."""
    return _one_min_prime_star(a, "triangle_free", "graph has a triangle")


def _cor_2_23(a: InstanceAnalysis):
    """Nil annihilator, one minimal prime, bipartite graph: a star."""
    return _one_min_prime_star(a, "bipartite", "graph is not bipartite")


PREDICATES = {
    "prop_2_5": _prop_2_5,
    "lemma_2_4": _lemma_2_4,
    "lemma_2_6": _lemma_2_6,
    "thm_2_7": _thm_2_7,
    "thm_2_8": _thm_2_8,
    "prop_2_9a": _prop_2_9a,
    "prop_2_9b": _prop_2_9b,
    "thm_2_10": _thm_2_10,
    "thm_2_11": _thm_2_11,
    "thm_2_12": _thm_2_12,
    "thm_2_13": _thm_2_13,
    "cor_2_14": _cor_2_14,
    "cor_2_15": _cor_2_15,
    "cor_2_16": _cor_2_16,
    "thm_2_17": _thm_2_17,
    "thm_2_18": _thm_2_18,
    "cor_2_19": _cor_2_19,
    "thm_2_20": _thm_2_20,
    "thm_2_21": _thm_2_21,
    "thm_2_22": _thm_2_22,
    "cor_2_23": _cor_2_23,
}

THEOREM_IDS = tuple(PREDICATES)


@dataclass(frozen=True)
class PredicateResult:
    theorem_id: str
    instance_id: str
    status: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "instance": self.instance_id,
            "status": self.status,
            "witness": self.witness,
        }


def run_predicate(theorem_id: str, a: InstanceAnalysis) -> PredicateResult:
    """One predicate on one instance; caps and failed internal checks become results.

    The ``class_table()`` line is the skip policy and the only code that
    makes a ``skipped`` row: it raises the caps the lattice would, so past a
    cap every predicate is ``skipped`` with that cap, through either entry."""
    if theorem_id not in PREDICATES:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    iid = a.iid
    try:
        a.module.class_table()
        status, witness = PREDICATES[theorem_id](a)
    except ResourceLimitError as exc:
        return PredicateResult(theorem_id, iid, SKIPPED,
                               {"reason": str(exc), "cap": exc.limit})
    except InternalCheckError as exc:
        return PredicateResult(theorem_id, iid, FAIL, {"internal_error": str(exc)})
    return PredicateResult(theorem_id, iid, status, witness)


# -- corpus generation ----------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    """Size caps for the generated corpus. The families are fixed (see
    `generate_corpus`), and the report's `families` echo names all four as on."""

    max_ring_card: int = 36
    max_module_card: int = 128

    def to_dict(self) -> dict:
        return {
            "max_ring_card": self.max_ring_card,
            "max_module_card": self.max_module_card,
            "families": {
                "cyclic": True,
                "products": True,
                "fxs_fxd": True,
                "prime_power_towers": True,
            },
        }


_SMALL_PRIMES = (2, 3, 5, 7)


def generate_corpus(spec: CorpusSpec) -> list[Module]:
    """Deterministic instance enumeration: cyclic Z_m over Z_n, product rings
    Z_a x Z_b (a <= b <= 16) with product modules, then the FxS shapes
    Z_p x Z_{q^2}. Duplicates across families keep their first position.

    The FxD shapes Z_p x Z_q (p < q <= 7) and the prime-power towers Z_{p^a}
    over Z_{p^h} need no loop of their own: the products family holds every
    Z_p x Z_q as a = p <= b = q, and the cyclic family every Z_{p^a} over
    Z_{p^h} with p^h <= max_ring_card, each under the same caps."""
    out: dict[str, Module] = {}

    def add(moduli, factors):
        ring = Ring(moduli)
        if ring.cardinality > spec.max_ring_card:
            return
        module = Module(ring, factors)
        if not 2 <= module.size <= spec.max_module_card:
            return
        out.setdefault(instance_id(module), module)

    for n in range(2, spec.max_ring_card + 1):
        for m in divisors(n):
            if m > 1:
                add([n], [(m, 0)])
    for a in range(2, 17):
        for b in range(a, 17):
            if a * b > spec.max_ring_card:
                continue
            for d1 in divisors(a):
                for d2 in divisors(b):
                    if (d1, d2) != (1, 1):
                        add([a, b], [(d1, 0), (d2, 1)])
    for p in _SMALL_PRIMES:
        for q in _SMALL_PRIMES:
            add([p, q * q], [(p, 0), (q * q, 1)])
    return list(out.values())


# -- suite runner ------------------------------------------------------------------


@dataclass
class SuiteReport:
    corpus_spec: CorpusSpec | None
    theorem_ids: tuple[str, ...]
    results: list[PredicateResult] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, dict[str, int]]:
        table = {
            tid: {PASS: 0, FAIL: 0, NOT_MET: 0, SKIPPED: 0}
            for tid in self.theorem_ids
        }
        for r in self.results:
            table[r.theorem_id][r.status] += 1
        return table

    @property
    def violations(self) -> list[PredicateResult]:
        return [r for r in self.results if r.status == FAIL]

    @property
    def skips(self) -> list[PredicateResult]:
        return [r for r in self.results if r.status == SKIPPED]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "corpus": None if self.corpus_spec is None else self.corpus_spec.to_dict(),
            "theorems": self.counts,
            "results": [r.to_dict() for r in self.results],
            "violations": bool(self.violations),
            "skips": bool(self.skips),
        }


# instances per pool task: with one a task, passing the work and the rows
# between processes costs more than a second worker saves
POOL_CHUNK = 16


def _evaluate_instance(args) -> list[PredicateResult]:
    """One instance's rows, on a module built and freed here: past a cap,
    ``run_predicate`` skips every predicate, as a direct call would."""
    ring, factors, theorem_ids, cap = args
    analysis = InstanceAnalysis(Module(ring, factors, cap))
    return [run_predicate(tid, analysis) for tid in theorem_ids]


def run_suite(
    modules,
    theorem_ids=None,
    corpus_spec: CorpusSpec | None = None,
    jobs: int = 1,
    cap: int | None = None,
) -> SuiteReport:
    """Evaluate the predicates over the corpus, in deterministic corpus order.

    Only the ring and factors of the modules passed in are read: each
    instance's module is built afresh and freed with its analysis, in a pool
    of min(jobs, instances, CPUs) workers, ``POOL_CHUNK`` instances a task,
    or, when that is one, in this process.  Each instance's module is built
    with ``cap`` as its lattice cap (``finmod.LATTICE_CAP`` when None), which
    travels with the instance.  Rows are ``run_predicate``'s: past a cap,
    every predicate is ``skipped``, as a direct call answers.
    """
    if theorem_ids is None:
        ids = THEOREM_IDS
    else:
        ids = tuple(dict.fromkeys(theorem_ids))  # each id once, at its first place
        unknown = [t for t in ids if t not in PREDICATES]
        if unknown:
            raise KeyError(f"unknown theorem ids: {unknown}")
    report = SuiteReport(corpus_spec, ids)
    workers = 1
    if jobs > 1 and len(modules) > 1:
        workers = min(jobs, len(modules), os.cpu_count() or 1)
    payload = [(m.ring, m.factors, ids, cap) for m in modules]
    if workers == 1:
        for results in map(_evaluate_instance, payload):
            report.results.extend(results)
        return report
    import concurrent.futures  # only a pool needs it; importing agmod stays lean

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for results in pool.map(_evaluate_instance, payload, chunksize=POOL_CHUNK):
            report.results.extend(results)
    return report
