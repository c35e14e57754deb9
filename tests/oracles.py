"""Independent brute-force oracles.

Everything here recomputes results from first principles (full enumeration,
no divisor arithmetic, no solver shortcuts) so the exact implementations can
be checked against an unrelated code path.
"""

from __future__ import annotations

import itertools
import math
import operator

from agmod import aggraph
from agmod.errors import InternalCheckError
from agmod.finmod import _multiples
from agmod.finring import Ideal, divisors
from agmod.localization import closure
from agmod.theorems import FAIL, NOT_MET, PASS

from helpers import kernel

# brute_thm_2_10 scans |R| x |M|; it refuses modules or rings past this size
BRUTE_THM_2_10_CAP = 64


def ideals(ring):
    """Every ideal of the ring, one per tuple of component divisors."""
    return [
        Ideal(ring, divs)
        for divs in itertools.product(*(divisors(n) for n in ring.moduli))
    ]


def ideal_contains(ideal, r):
    """r lies in the ideal iff each residue is a multiple of its divisor."""
    return all(x % d == 0 for x, d in zip(r, ideal.divisors))


def ideal_elements(ideal):
    """The ideal's element set (a divisor d = n contributes only 0)."""
    return frozenset(
        itertools.product(
            *(range(0, n, d) for d, n in zip(ideal.divisors, ideal.ring.moduli))
        )
    )


def brute_idempotents(ring):
    """All e with e*e = e, sorted, by squaring every residue of every component."""
    per_comp = [[x for x in range(n) if x * x % n == x] for n in ring.moduli]
    return sorted(itertools.product(*per_comp))


def brute_decompositions(module):
    """(e, eM, (1-e)M) with both parts nonzero, one per unordered pair
    {e, 1-e}: every idempotent of the residue scan with e < 1-e, both sides
    by ``Module.scaled``, then the size filter."""
    ring = module.ring
    out = []
    for e in brute_idempotents(ring):
        comp = ring.sub(ring.one, e)
        if e in (ring.zero, ring.one) or e > comp:
            continue
        left, right = module.scaled(e), module.scaled(comp)
        if left.size > 1 and right.size > 1:
            out.append((e, left, right))
    return out


def add(module, x, y):
    """x + y in M, coordinate by coordinate."""
    return tuple((a + b) % d for a, b, (d, _) in zip(x, y, module.factors))


def smul(module, r, x):
    """r*x in M: r acts on a factor Z_d on ring component c as r_c."""
    return tuple((r[c] * a) % d for a, (d, c) in zip(x, module.factors))


def additive_closure(add, zero, seed):
    """Subgroup closure of a finite seed set under a binary addition."""
    closure = set(seed) | {zero}
    frontier = list(closure)
    while frontier:
        a = frontier.pop()
        for b in list(closure):
            c = add(a, b)
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    return frozenset(closure)


def ideal_radical(ideal):
    """{r : r^k in I for some k}, found by powering every ring element.

    As in ``is_nilpotent``, bit_length(|R|) squarings reach a power in I
    whenever any power is.  The radical of a product ideal is the product of
    the component radicals, so each component divisor is the gcd of the
    residues found there.
    """
    ring = ideal.ring
    divs = list(ring.moduli)
    for r in ring.elements():
        x = r
        for _ in range(ring.cardinality.bit_length() + 1):
            x = ring.mul(x, x)
        if ideal_contains(ideal, x):
            divs = [math.gcd(d, a) for d, a in zip(divs, r)]
    return Ideal(ring, tuple(divs))


def brute_ideal_product(ring, i, j):
    """Set generated by pairwise element products of two ideals.

    Products are taken residue by residue.  They are closed under addition
    one cyclic subgroup at a time: the closure H so far plus the subgroup of
    a product p is the union of the cosets H + k*p, for k from 0 up to the
    first multiple of p inside H.
    """
    moduli = ring.moduli
    ys = ideal_elements(j)
    prods = {
        tuple(a * b % n for a, b, n in zip(x, y, moduli))
        for x in ideal_elements(i)
        for y in ys
    }
    closure = {ring.zero}
    for p in prods:
        shift, cosets = p, [closure]
        while shift not in closure:
            cosets.append(
                {tuple((a + b) % n for a, b, n in zip(x, shift, moduli)) for x in closure}
            )
            shift = tuple((a + b) % n for a, b, n in zip(shift, p, moduli))
        closure = set().union(*cosets)
    return frozenset(closure)


def is_nilpotent(ring, r):
    """True iff some power of r is zero.

    Repeated squaring: if r^m = 0 for any m <= |R| then r^(2^t) = 0 once
    2^t >= m, and bit_length(|R|) squarings reach that.
    """
    x = r
    for _ in range(ring.cardinality.bit_length() + 1):
        if x == ring.zero:
            return True
        x = ring.mul(x, x)
    return x == ring.zero


def is_prime_ideal(ring, ideal):
    """Exhaustive primality test: I proper and rs in I => r in I or s in I."""
    if all(d == 1 for d in ideal.divisors):
        return False
    for r in ring.elements():
        if ideal_contains(ideal, r):
            continue
        for s in ring.elements():
            if ideal_contains(ideal, s):
                continue
            if ideal_contains(ideal, ring.mul(r, s)):
                return False
    return True


def brute_colon(module, sub):
    """{r : r*M <= N} by scanning every scalar against every element."""
    out = set()
    for r in module.ring.elements():
        if all(smul(module, r, m) in sub.elements for m in module.elements):
            out.add(r)
    return frozenset(out)


def cyclic_span(module, x):
    """The orbit R*x: the additive span of the projections of x onto the ring
    components, each keeping the coordinates of x on its component."""
    zero = module.zero
    out = {zero}
    for comp in range(len(module.ring.moduli)):
        p = tuple(a if c == comp else 0 for a, (_, c) in zip(x, module.factors))
        mults, q = [zero], p
        while q != zero:
            mults.append(q)
            q = add(module, q, p)
        out = {add(module, s, m) for s in out for m in mults}
    return frozenset(out)


def element_index(module, x) -> int:
    """The mixed-radix index of x, its first coordinate most significant."""
    i = 0
    for a, (d, _) in zip(x, module.factors):
        i = i * d + a
    return i


def member_of(module, elems):
    """The lattice member with exactly these element tuples, looked up by the
    mask with a bit at each one's ``element_index``."""
    mask = 0
    for x in elems:
        mask |= 1 << element_index(module, x)
    return module.lattice().member(mask)


def brute_cyclic_generator(module):
    """The first element in element order whose orbit R*m is all of M, or None."""
    return next(
        (m for m in module.elements if len(cyclic_span(module, m)) == module.size), None
    )


def brute_clique_multipliers(module, e_parts):
    """The clique-witness multipliers by search, for a cyclic module.

    For each pair i < j of minimal primes, the first ring element in
    lexicographic order that lies outside every minimal-prime colon and
    kills the cross product e_i e_j * gen; the multiplier t is their product
    (1 when there is no pair).  Returns (t, pair_multipliers) as lists, in the
    shape of the witness report.
    """
    ring = module.ring
    gen = module.cyclic_generator()
    colons = [p.colon for p in module.min_primes()]
    t = ring.one
    pair_multipliers = []
    for i, j in itertools.combinations(range(len(e_parts)), 2):
        target = smul(module, ring.mul(e_parts[i], e_parts[j]), gen)
        t_ij = next(
            s
            for s in ring.elements()
            if not any(ideal_contains(colon, s) for colon in colons)
            and smul(module, s, target) == module.zero
        )
        pair_multipliers.append([i, j, list(t_ij)])
        t = ring.mul(t, t_ij)
    return list(t), pair_multipliers


def brute_times(module, r):
    """r*M = {r*m}, by applying r to every element."""
    return frozenset(smul(module, r, m) for m in module.elements)


def brute_submodule_product(module, n, k):
    """(N:M)(K:M)M with every stage recomputed by enumeration."""
    ring = module.ring
    cn, ck = brute_colon(module, n), brute_colon(module, k)
    ideal_set = additive_closure(
        ring.add, ring.zero, {ring.mul(x, y) for x in cn for y in ck}
    )
    acted = {smul(module, x, m) for x in ideal_set for m in module.elements}
    return additive_closure(lambda x, y: add(module, x, y), module.zero, acted)


def ideal_act(module, ideal, elems=None):
    """I*N (N = M by default): the span of every product r*n, r in I, n in N.

    The span is ``span``, which tests check against ``brute_subgroup_closure``.
    """
    elems = module.elements if elems is None else elems
    return span(module, {smul(module, r, n) for r in ideal_elements(ideal) for n in elems})


def brute_is_prime_submodule(module, p):
    """P proper and r*m in P implies r*M <= P or m in P, over every (r, m)."""
    if p.is_whole:
        return False
    colon = brute_colon(module, p)
    return not any(
        r not in colon and m not in p.elements and smul(module, r, m) in p.elements
        for r in module.ring.elements()
        for m in module.elements
    )


def brute_radical(module, sub):
    """The element set of the intersection of the prime submodules containing
    N, primality tested over every (r, m) by ``brute_is_prime_submodule``; M if
    there are none."""
    inter = frozenset(module.elements)
    for p in module.lattice().all:
        if sub.elements <= p.elements and brute_is_prime_submodule(module, p):
            inter &= p.elements
    return inter


def brute_classify(module):
    """The module labels by counting the lattice: two submodules make M
    simple, three give it a unique nontrivial submodule, and M is a prime
    module when (0) is a prime submodule, tested over every (r, m)."""
    subs = module.lattice().all
    labels = []
    if len(subs) == 2:
        labels.append("simple")
    if len(subs) == 3:
        labels.append("unique_nontrivial_submodule")
    if module.size > 1 and brute_is_prime_submodule(module, subs[0]):
        labels.append("prime_module")
    return tuple(labels) if labels else ("other",)


def brute_min_primes(module):
    """Inclusion-minimal primes, by comparing every pair of primes."""
    ps = module.primes()
    return [
        p for p in ps if not any(q is not p and q.elements < p.elements for q in ps)
    ]


def brute_minimal_submodules(module):
    """Atoms of the lattice, by comparing every pair of nonzero submodules."""
    nz = [s for s in module.lattice().all if not s.is_zero]
    return [
        s for s in nz if not any(t is not s and t.elements < s.elements for t in nz)
    ]


def brute_zero_divisors(module):
    """Z(M): the scalars killing some nonzero element, over every (r, m)."""
    return frozenset(
        r
        for r in module.ring.elements()
        if any(
            m != module.zero and smul(module, r, m) == module.zero
            for m in module.elements
        )
    )


def brute_is_semiprime(module):
    """I^2 K = 0 implies I K = 0, over every ideal I and submodule K.

    I^2 is ``Ideal.product``, which tests check against ``brute_ideal_product``.
    """
    zero = frozenset({module.zero})
    for ideal in ideals(module.ring):
        sq = ideal.product(ideal)
        for k in module.lattice().all:
            if (
                ideal_act(module, sq, k.elements) == zero
                and ideal_act(module, ideal, k.elements) != zero
            ):
                return False
    return True


def verify_action(module):
    """Spot-check the scalar action laws over all (r, m) pairs.

    Raises InternalCheckError on the first law that fails: 1*m = m, and for
    each r, r*(m + p) = r*m + r*p and (r*r)*m = r*(r*m) against a probe p.
    """
    elems = module.elements
    ring = module.ring
    probe_m = elems[-1]
    for m in elems:
        if smul(module, ring.one, m) != m:
            raise InternalCheckError(f"1*{m} != {m}")
    for r in ring.elements():
        s = ring.mul(r, r)
        for m in elems:
            if smul(module, r, add(module, m, probe_m)) != add(
                module, smul(module, r, m), smul(module, r, probe_m)
            ):
                raise InternalCheckError("scalar action is not distributive")
            if smul(module, s, m) != smul(module, r, smul(module, r, m)):
                raise InternalCheckError("scalar action is not associative")
        probe_m = elems[hash(r) % len(elems)]


def submodule_closure(module):
    """Every submodule of the whole module, by breadth-first closure from (0).

    Each known submodule is extended by one cyclic submodule R*x not inside
    it and deduplicated until fixpoint.  Cyclic submodules are taken by
    scanning every scalar, each once with its first generator x.
    """
    orbits = {}
    for x in module.elements:
        orbit = frozenset(smul(module, r, x) for r in module.ring.elements())
        orbits.setdefault(orbit, x)
    zero = frozenset({module.zero})
    seen, order = {zero}, [zero]
    for current in order:
        for orbit, x in orbits.items():
            if x in current:
                continue
            bigger = frozenset(add(module, s, m) for s in current for m in orbit)
            if bigger not in seen:
                seen.add(bigger)
                order.append(bigger)
    return seen


def span(module, gens):
    """The least submodule containing gens, as an element set: each generator
    outside the span so far adds every element of its orbit R*g."""
    out = {module.zero}
    for g in gens:
        if g not in out:
            orbit = cyclic_span(module, g)
            out = {add(module, s, m) for s in out for m in orbit}
    return frozenset(out)


def brute_minimal_gens(module, elems):
    """Greedy lexicographically-least generators of an element set, then one
    forward pass dropping redundant ones, every span built as a set."""
    if len(elems) == 1:
        return ()
    gens = []
    spanned = {module.zero}
    for x in sorted(elems):
        if x in spanned:
            continue
        gens.append(x)
        orbit = cyclic_span(module, x)
        spanned = {add(module, s, m) for s in spanned for m in orbit}
        if len(spanned) == len(elems):
            break
    for g in list(gens):
        if span(module, [h for h in gens if h != g]) == elems:
            gens.remove(g)
    return tuple(gens)


def join_greedy_gens(module, sub):
    """The greedy generators of a member, each the lowest bit of its mask
    outside the span so far, then one forward pass dropping redundant ones;
    every span is an element set built by ``span``."""
    bits = {x: 1 << i for i, x in enumerate(module.elements)}
    gens = []
    spanned = {module.zero}
    while len(spanned) < sub.size:
        rest = sub.mask & ~sum(map(bits.__getitem__, spanned))
        gens.append(module.elements[(rest & -rest).bit_length() - 1])
        spanned = span(module, gens)
    for g in list(gens):
        if span(module, [h for h in gens if h != g]) == sub.elements:
            gens.remove(g)
    return tuple(gens)


def unpruned_subgroups(module, part):
    """``Module._subgroups`` without its pruning: every row of a Hermite form
    is tested against the mask of the rows before it, the row of head
    p^{a_i} too, at every x of its box (the search before the box argument
    of the ``_subgroups`` docstring was used).  Same triples, same order."""
    _, p, coords = part
    orders = [q for _, q, _, _ in coords]
    radix = module._radix()
    scales = [step * radix.weights[i] for i, _, step, _ in coords]
    forms = [((), (), 1)]
    for order, scale in zip(orders, scales):
        grown = []
        for heads, gens, mask in forms:
            for x in itertools.product(*map(range, heads)):
                base = sum(map(operator.mul, x, scales))
                h = 1
                while order % h == 0:
                    m = order // h
                    if mask >> sum(m * v % q * s for v, q, s in zip(x, orders, scales)) & 1:
                        if h < order:
                            gen = (base + h * scale, m)
                            grown.append((heads + (h,), gens + (gen,), radix.span(mask, [gen])))
                        else:
                            grown.append((heads + (h,), gens, mask))
                    h *= p
        forms = grown
    images = [
        (e, math.prod(
            _multiples(radix.orders[i], step * min(e, q), radix.weights[i])
            for i, q, step, _ in coords
        ))
        for e in [p**j for j in range(max(a for _, _, _, a in coords) + 1)]
    ]
    return [
        (mask, gens, next(e for e, image in images if image & ~mask == 0))
        for _, gens, mask in forms
    ]


def brute_subgroup_closure(module, gens):
    """Closure under addition and the full scalar action, by alternation."""
    closure = set(gens) | {module.zero}
    changed = True
    scalars = list(module.ring.elements())
    while changed:
        changed = False
        for a, b in itertools.product(list(closure), repeat=2):
            c = add(module, a, b)
            if c not in closure:
                closure.add(c)
                changed = True
        for r in scalars:
            for a in list(closure):
                c = smul(module, r, a)
                if c not in closure:
                    closure.add(c)
                    changed = True
    return frozenset(closure)


def idempotent_power(ring, r):
    """The unique idempotent in {r, r^2, r^3, ...}, by walking the powers.

    Powers of r in a finite commutative ring eventually cycle, and the cycle
    contains exactly one idempotent.
    """
    seen = []
    x = r
    while x not in seen:
        seen.append(x)
        x = ring.mul(x, r)
    for y in seen:
        if ring.mul(y, y) == y:
            return y
    raise InternalCheckError(f"no idempotent power found for {r} in {ring!r}")


def verify_localization(module, members, loc):
    """Check that loc is the localization of module at the multiplicative
    set with these members, by full scans.

    S contains 1 and is closed under products; the kernel (1-e)M of
    m -> e*m is the S-torsion {m : s*m = 0 for some s in S}, and its size
    times the image's is |M|; and every s in S acts invertibly on the image.
    Raises InternalCheckError on the first failure.
    """
    ring = module.ring
    if ring.one not in members:
        raise InternalCheckError("multiplicative set does not contain 1")
    for a in members:
        for b in members:
            if ring.mul(a, b) not in members:
                raise InternalCheckError("multiplicative set is not closed")
    torsion = {
        m
        for m in module.elements
        if any(smul(module, x, m) == module.zero for x in members)
    }
    ker = kernel(module, loc)
    if torsion != ker.elements:
        raise InternalCheckError(
            "kernel of the idempotent differs from the S-torsion elements"
        )
    image = loc.image
    if image.size * ker.size != module.size:
        raise InternalCheckError("localization image and kernel sizes do not multiply out")
    for x in members:
        if {smul(image, x, m) for m in image.elements} != frozenset(image.elements):
            raise InternalCheckError(f"{x} does not act invertibly on the image")


def brute_AG(module, star=False):
    """AG(M), or AG(M)* when star, built pair by pair: the vertex list and the
    adjacency bitmasks, every zero test a full ``Module.product`` compared
    with (0)."""
    zero = module.lattice().all[0]
    subs = module.lattice().all
    if star:
        ann = module.annihilator()
        cands = [s for s in subs if not s.is_whole and s.colon != ann]
        partners = cands
    else:
        cands = [s for s in subs if not s.is_zero]
        partners = [s for s in cands if not s.is_whole]
    verts = [n for n in cands if any(module.product(n, k) == zero for k in partners)]
    adj = [0] * len(verts)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if module.product(verts[i], verts[j]) == zero:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return verts, adj


def brute_prop_2_5(module):
    """Proposition 2.5's (status, witness) by the member scan: every nonzero
    proper lattice member against the vertices of ``brute_AG``."""
    vertices = brute_AG(module)[0]
    lattice = module.lattice()
    missing = [s.ref() for s in lattice.all if not s.is_zero and not s.is_whole and s not in vertices]
    if missing:
        return FAIL, {"non_vertices": missing}
    return PASS, {"proper_nonzero": max(len(lattice) - 2, 0)}


def brute_lemma_2_4(module):
    """Lemma 2.4's (status, witness) by scanning: the atoms of
    ``brute_minimal_submodules``, each squaring to zero or cut out by the
    first idempotent of the residue scan whose image it is."""
    if not module.annihilator().is_nil():
        return NOT_MET, {"reason": "annihilator is not nil"}
    branches = []
    for n in brute_minimal_submodules(module):
        if module.annihilates(n, n):
            branches.append({"submodule": n.ref(), "branch": "square_zero"})
            continue
        e = next((e for e in brute_idempotents(module.ring) if module.times(e) is n), None)
        if e is None:
            return FAIL, {"submodule": n.ref()}
        branches.append({"submodule": n.ref(), "branch": "idempotent", "e": list(e)})
    return PASS, {"minimal_submodules": branches}


def report_submodules(members):
    """The ``submodules`` entries of an ``analyze`` report, one dict per
    lattice member, built field by field."""
    return [
        {"id": s.id, "size": s.size, "gens": [list(g) for g in s.gens], "label": s.label}
        for s in members
    ]


def brute_dot(g, write):
    """DOT text of a graph, each vertex's row read off its own adjacency mask
    and sorted by the positions of the vertices in encoding order."""
    order = sorted(range(g.n), key=lambda i: g.vertices[i].encoding)
    pos = {v: k for k, v in enumerate(order)}
    write(f"graph {g.kind} {{\n")
    for k, v in enumerate(order):
        write(f'  v{k} [label="{g.vertices[v].label}"];\n')
    for k, v in enumerate(order):
        later = sorted(pos[j] for j in range(g.n) if g.adj[v] >> j & 1 and pos[j] > k)
        write("".join(f"  v{k} -- v{b};\n" for b in later))
    write("}\n")


def brute_invariants(g):
    """The invariant report of a graph from its full per-vertex adjacency
    ``g.adj``: degrees counted per vertex, one ``_search`` from every
    vertex, and the exact solvers on the whole graph.  The shape flags are
    read off the definitions: a tree is connected with n - 1 edges, a star a
    tree with a vertex next to all others, a path a tree of degree at most 2.
    """
    n, adj = g.n, list(g.adj)
    degrees = sorted(a.bit_count() for a in adj)
    searches = [aggraph._search(adj, v) for v in range(n)]
    cycles = [cycle for _, cycle in searches if cycle is not None]
    eccs = [ecc for ecc, _ in searches]
    diameter = None if n < 2 or None in eccs else max(eccs)
    connected = n <= 1 or diameter is not None
    clique = aggraph.max_clique(adj)[0]
    chromatic = aggraph.chromatic_number(adj, clique)
    edges = sum(degrees) // 2
    shape = set()
    if n == 0:
        shape.add("empty")
    else:
        if connected and edges == n - 1:
            shape.add("tree")
            if any(a | 1 << v == (1 << n) - 1 for v, a in enumerate(adj)):
                shape.add("star")
            if degrees[-1] <= 2:
                shape.add(f"path_{n}")
        if edges == n * (n - 1) // 2:
            shape.add("complete")
        if len(set(degrees)) == 1:
            shape.add("regular")
        if cycles:
            shape.add("cycle_present")
    return aggraph.InvariantReport(
        girth=min(cycles, default=None),
        diameter=diameter,
        connected=connected,
        bipartite=chromatic <= 2,
        clique_number=clique,
        chromatic_number=chromatic,
        degree_sequence=tuple(degrees),
        shape=frozenset(shape),
    )


def brute_clique_number(adj, n):
    """Largest pairwise-adjacent subset, over all 2^n vertex subsets."""
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        ok = True
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if (mask ^ low) & ~adj[v]:
                ok = False
                break
        if ok:
            best = size
    return best


def blow_up_clique_number(k, linked, sizes):
    """The clique number of a twin blow-up of a graph on k classes, from the
    quotient: the largest sum, over the quotient cliques (sets of classes
    pairwise linked), of sizes[a] for a clique class ((a, a) linked) and 1
    for a stable one.  linked holds the linked pairs (a, b), a <= b."""
    best = 0
    for mask in range(1 << k):
        members = [a for a in range(k) if mask >> a & 1]
        if all(pair in linked for pair in itertools.combinations(members, 2)):
            weight = sum(sizes[a] if (a, a) in linked else 1 for a in members)
            best = max(best, weight)
    return best


def brute_chromatic_number(adj, n):
    """Smallest k admitting a proper colouring, enumerating assignments.

    The first vertex is pinned to colour 0 (renaming colours is free)."""
    if n == 0:
        return 0
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1
    ]
    for k in range(1, n + 1):
        for rest in itertools.product(range(k), repeat=n - 1):
            coloring = (0,) + rest
            if all(coloring[i] != coloring[j] for i, j in edges):
                return k
    return n


def brute_girth(adj, n):
    """Shortest cycle: for each edge, the shortest path around it plus one."""
    best = None
    for u in range(n):
        for v in range(u + 1, n):
            if not adj[u] >> v & 1:
                continue
            dist = {u: 0}
            frontier = [u]
            while frontier and v not in dist:
                nxt = []
                for x in frontier:
                    mask = adj[x]
                    while mask:
                        low = mask & -mask
                        y = low.bit_length() - 1
                        mask ^= low
                        if (x, y) in ((u, v), (v, u)):
                            continue
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            if v in dist:
                cycle = dist[v] + 1
                if best is None or cycle < best:
                    best = cycle
    return best


def brute_diameter(adj, n):
    """Largest distance over all pairs, from one breadth-first search per
    vertex; None when some pair is not connected."""
    best = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(n):
                    if adj[u] >> v & 1 and dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if min(dist) < 0:
            return None
        best = max(best, max(dist))
    return best


def omega(n):
    """Number of distinct prime factors."""
    count, m, p = 0, n, 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return count + (1 if m > 1 else 0)


def is_squarefree(n):
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def brute_saturate(module, s_set, seed, fact):
    """Least saturated S-closed superset of the seed, or None, on element
    tuples: every factorization r*m = x of a member (``fact[x]`` lists them)
    needs r in S and pulls m in, and every s*x of a member joins."""
    members = set(seed)
    queue = list(seed)
    while queue:
        x = queue.pop()
        for r, m in fact[x]:
            if r not in s_set:
                return None
            if m not in members:
                members.add(m)
                queue.append(m)
        for s in s_set:
            y = smul(module, s, x)
            if y not in members:
                members.add(y)
                queue.append(y)
    return frozenset(members)


def brute_thm_2_10(module):
    """Theorem 2.10's (status, witness) by scanning: every single-generator
    multiplicative set S = closure(z) that holds every unit, the least
    saturated S-closed superset of each distinct orbit S*m over the full
    |R| x |M| factorization table, and the members maximal outside it, each
    of which must be prime."""
    m = module
    if not m.is_cyclic():
        return NOT_MET, {"reason": "not cyclic"}
    ring = m.ring
    if m.size > BRUTE_THM_2_10_CAP or ring.cardinality > BRUTE_THM_2_10_CAP:
        raise ValueError(f"the scan needs |M|, |R| <= {BRUTE_THM_2_10_CAP}: {m}")
    lattice = m.lattice()
    units = {
        r for r in ring.elements()
        if all(math.gcd(a, n) == 1 for a, n in zip(r, ring.moduli))
    }
    fact = None
    pairs = 0
    seen_s = set()
    for z in ring.elements():
        if len(units) > 1 and z not in units:
            continue
        s_clo = closure(ring, [z])
        if s_clo in seen_s:
            continue
        seen_s.add(s_clo)
        if not units <= s_clo:
            continue
        if fact is None:
            fact = {x: [] for x in m.elements}
            for r in ring.elements():
                for x in m.elements:
                    fact[smul(m, r, x)].append((r, x))
        seen_orbits = set()
        for seed_elem in m.elements:
            orbit = frozenset(smul(m, s, seed_elem) for s in s_clo)
            if orbit in seen_orbits:
                continue
            seen_orbits.add(orbit)
            sat = brute_saturate(m, s_clo, orbit, fact)
            if sat is None or m.zero in sat:
                continue
            cands = [s for s in lattice.all if not s.elements & sat]
            maximal = [
                s
                for s in cands
                if not any(t is not s and s.elements < t.elements for t in cands)
            ]
            if not maximal:
                continue
            pairs += 1
            for n in maximal:
                if not m.is_prime_submodule(n):
                    return FAIL, {
                        "z": list(z),
                        "saturated_size": len(sat),
                        "non_prime_maximal": n.ref(),
                    }
    if pairs == 0:
        return NOT_MET, {"reason": "no saturated S-closed subsets arise"}
    return PASS, {"pairs_checked": pairs}
