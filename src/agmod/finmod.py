"""Finite modules over product-of-Z_n rings: lattices, colons, products, primes.

A module is an ordered list of cyclic factors Z_d, each tagged with a ring
component; scalars act componentwise through their tags.  An idempotent image
e*M is again such a module: e keeps a part k_c of each n_c, a factor Z_d on
component c becomes Z_gcd(d, k_c), and e*x -> x mod gcd(d, k_c) is the
isomorphism (``Module.scaled``).  A localized module is therefore an ordinary
module over the same ring, and it keeps M's lattice cap, the most submodules
a lattice may have, which a module is given once, when it is made.  A split
M = eM (+) (1-e)M builds no module: each side is the sum of the primary parts
of M that it keeps, so a split row holds the labels of its two sides.

The submodule lattice comes from structure.  Every ideal of the ring is
principal, so every submodule N of a cyclic M is (N:M)M, an image r*M, and
the only member of its colon class: the lattice of a cyclic M is read off
its class table (below), one image r*M per class with r the class's colon
divisor tuple.  Any other M is the direct sum of its primary parts, one per
ring component c and prime p dividing n_c, so Sub(M) is the product of the
parts' subgroup lattices (Birkhoff 1935).  A part is a finite abelian p-group
Z_{p^a_1} + ... + Z_{p^a_r}, whose subgroups are counted in closed form
(``subgroup_count``), and each of them has one lower-triangular Hermite
normal form (reduced row echelon form when every a_i = 1), so each is listed
exactly once; a form is grown row by row, each row tested against the mask
of the subgroup the rows before it span, and the parts' subgroups are then
added up.

Sets of elements are masks (``_Radix``).  The element x of
Z_{d_0} + ... + Z_{d_{k-1}} has the mixed-radix index sum x_i * w_i, with
w_i the product of the orders after d_i, so index order is tuple order, and
a set is the int with a bit at each of its indices.  Adding an element to
every member of a set rotates each aligned block of d_i * w_i bits of the
mask by y_i * w_i, one rotation per nonzero coordinate y_i, so a subgroup
plus a cyclic group is an OR of rotated masks and no element tuple is added
while the lattice or its labels are built.  A submodule's ``elements`` are
decoded from its mask only when read, for the tests and oracles.

The lattice makes every ``Submodule``, each once, and gives it its colon
ideal (N : M), read off the class table or the Hermite forms: the divisor
on component c is the product over p of the exponents of the (c, p)-part
modulo N's subgroup of it.  That exponent is the least p^j whose image p^j
times the part has its mask inside the subgroup's.
Members with one colon form a colon class.  A class is one exponent choice
per primary part, so the classes and their member counts come from the
parts alone (``class_table``), and that one numbering serves the lattice,
the zero-product table and both graphs, which need no lattice to be built.
Every submodule the module hands out (an image r*M, a product, rad(0), a
witness) is that lattice member, so submodules of one module compare with
``is`` or ``==``; across modules, compare their ``elements``.  A member's
generators, its label, are read off its mask: they are its Hermite rows in
digit order, each the least element outside the rows before it, and the
span of the rows found so far is a prefix of the mask (``_minimal_gens``).
They are irredundant, not always fewest: Z_2 + Z_3 over Z_6 is labelled
⟨(0,1), (1,0)⟩, though (1,1) generates it.  Only when a row is dependent on
the others are spans built, as masks: the cyclic group Z*x of each other row
and their join, which the radix memoizes, Z*x by the index of x and a join
by the pair of masks.  A member holds its module's radix, not the module,
and the radix holds no object of its own, so nothing the module memoizes
refers back to it: reference counting frees a module, its lattice and its
members as soon as the module's last reference goes.

Facts about M itself come from the table of primary parts and need no
lattice: ann(M) is the lcm of the factor orders per component, the
associated primes are the maximal ideals m_{c,p} = {r : p | r_c} of the
nonzero parts, M is cyclic iff every part has one coordinate, simple iff M
has one coordinate in all and its exponent is 1 (M = Z_p), and has exactly
one nontrivial submodule iff that exponent is 2.  Every prime
ideal of a finite ring is maximal, so a proper N is prime iff (N : M) is
maximal, and Z(M) is the union of the associated primes.  One table
(``min_prime_parts``) holds, per associated prime (c, p), the masks of the
minimal prime m_{c,p}M and of the (c, p)-primary part e*M, with its
idempotent e, in member order (``_order_key``): it makes no member, and
``_check_split`` verifies that its parts split M.  Since every ideal of the
ring is principal, each submodule made from a scalar is one image r*M
(``times``): a product (N:M)(K:M)M, an idempotent part e*M, and rad(0).  A
scalar acts on a factor Z_d on component c as r_c, so r*M is the direct sum
of the gcd(r_c, d)*Z_d, read off the factors without listing M.  The primes
with colon m_{c,p} are the proper submodules containing m_{c,p}M, so rad(0)
is the sum of the p*M_{c,p}, the image of the element whose residue on c is
the product of the primes of the parts on c; M is semiprime iff it is 0, iff
every part coordinate has exponent 1, so no modulus is factored again.
A product vanishes iff (N:M)(K:M) lies in ann(M), a divisibility test on the
divisor tuples of the two colon classes that holds iff it holds on every
primary part; the module builds it for all pairs of classes at once, part by
part, into one zero-product table (``kills``), which ``annihilates`` and
both graphs AG(M) and AG(M)* read.  The exhaustive scans for these facts
live in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import DomainError, InternalCheckError, ResourceLimitError, StructuralError
from .finring import Ideal, Ring

ELEMENT_CAP = 512
LATTICE_CAP = 4096


def _once(method):
    """Compute a module fact on the first call and return it on every later
    one.  Facts are memoized by name alone, so a fact takes no argument.  A
    module's cap is fixed when it is made, so a cap that a fact hits is kept
    as its message and limit and raised afresh on every later call; the error
    itself would hold the module in a cycle, through its traceback's frames."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(self):
        try:
            return self._facts[name]
        except KeyError:
            capped = self._facts.get(method)  # the cap it hit, keyed apart from values
        if capped:
            raise ResourceLimitError(*capped)
        try:
            value = self._facts[name] = method(self)
        except ResourceLimitError as exc:
            self._facts[method] = str(exc), exc.limit
            raise
        return value

    return memoized


class Module:
    """A finite module over a Ring: a direct sum of cyclic factors Z_d."""

    def __init__(self, ring: Ring, factors, cap: int | None = None):
        self.ring = ring
        # the most submodules its lattice may have, for M and every module
        # made from it (``scaled``)
        self.cap = LATTICE_CAP if cap is None else cap
        self.factors = tuple((int(d), int(c)) for d, c in factors)
        bad = []
        for i, (d, c) in enumerate(self.factors):
            if not 0 <= c < len(ring.moduli):
                bad.append((i, d, c, "no such ring component"))
            elif d < 1 or ring.moduli[c] % d != 0:
                bad.append((i, d, c, f"d must divide {ring.moduli[c]}"))
        if bad:
            raise StructuralError(f"invalid module factors: {bad}", bad)

        self.zero = (0,) * len(self.factors)
        self._orders = tuple(d for d, _ in self.factors)
        self.size = math.prod(self._orders)

        self._facts: dict = {}

    @functools.cached_property
    def elements(self) -> tuple:
        """Every element in index order (see ``_Radix``), listed on first use;
        nothing that only needs the structure of M (its size, parts, colons,
        images or lattice) lists them."""
        return tuple(itertools.product(*(range(d) for d, _ in self.factors)))

    def __repr__(self):
        shape = "x".join(f"Z{d}@{c}" for d, c in self.factors)
        return f"[{shape} over {self.ring!r}]"

    # -- images r*M -------------------------------------------------------------

    def times(self, r) -> "Submodule":
        """The lattice member r*M, with the mask of ``_image``.  The first call
        enumerates the lattice, under its caps, if nothing has yet."""
        return self.lattice().member(self._image(r))

    def _image(self, r) -> int:
        """The mask of r*M, read off the factors: r acts on a factor Z_d on
        component c as r_c, whose image is gcd(r_c, d)*Z_d.  At weight w its
        mask is the progression (2^(d w) - 1) / (2^(g w) - 1), and a sum of
        sets on disjoint digits is the carry-free product of their masks."""
        mask = 1
        for (d, c), w in zip(self.factors, self._radix().weights):
            mask *= _multiples(d, math.gcd(r[c], d), w)
        return mask

    @_once
    def lattice(self) -> "Lattice":
        """Every submodule, each once, with its colon divisor tuple,
        enumerated on the first call.

        The caps are checked first, by ``class_table``, before any mask is
        made.  A cyclic M is read off that table.  Every ideal of the ring
        is principal, so every submodule N of a cyclic M is (N:M)M: N is the
        one member of its colon class, and the class whose colon has the
        divisor tuple divs holds exactly divs*M (``_image``).  Any other M is
        summed from the Hermite forms of its primary parts
        (``_hermite_sums``).
        """
        table = self.class_table()
        if self.is_cyclic():
            return Lattice(self, [(self._image(divs), divs) for divs, _ in table])
        return Lattice(self, self._hermite_sums())

    @_once
    def class_table(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The colon classes as (colon divisor tuple, member count) pairs,
        counted from the primary parts alone.

        A submodule is a sum of one subgroup per (c, p)-part, and its colon
        divisor on c is the product over p of the part quotients' exponents
        (``_hermite_sums``).  So a class is one exponent choice per part, and
        its count is the product of the parts' counts of subgroups with those
        exponents.  Z_{p^a} has one subgroup p^j Z_{p^a} per exponent p^j; in
        a part P of type lam, those of exponent at most p^j contain p^j P, so
        ``subgroup_count`` of min(lam, j) less that of min(lam, j - 1) have
        exponent p^j.  Each part's exponents run from its largest order down
        to 1, so class 0 is that of (0), with colon ann(M), and the last is
        that of M, alone in it.

        The caps, those of the lattice, are checked before any mask is made:
        more than ``ELEMENT_CAP`` elements, then more than ``cap`` submodules,
        the exact sum of the counts.  ``_once`` keeps the cap that fires.
        """
        if self.size > ELEMENT_CAP:
            raise ResourceLimitError(
                f"module has {self.size} elements, above the cap of {ELEMENT_CAP}",
                ELEMENT_CAP,
            )
        table = [((1,) * len(self.ring.moduli), 1)]
        for c, p, coords in self._primary_parts():
            if len(coords) == 1:
                # subgroup_count here too: 50 squarefree Z_n in 6.5-7.8 ms, not 4.6-5.3 (2-core x86)
                choices = [(p**j, 1) for j in range(coords[0][3], -1, -1)]
            else:
                lam = [a for _, _, _, a in coords]
                top = max(lam)
                at_most = [0] + [subgroup_count(p, [min(a, j) for a in lam])
                                 for j in range(top + 1)]
                choices = [(p**j, at_most[j + 1] - at_most[j]) for j in range(top, -1, -1)]
            table = [
                (divs[:c] + (divs[c] * e,) + divs[c + 1:], count * k)
                for divs, count in table
                for e, k in choices
            ]
        if sum(count for _, count in table) > self.cap:
            raise ResourceLimitError(f"more than {self.cap} submodules (lattice cap)", self.cap)
        return tuple(table)

    def _hermite_sums(self) -> list[tuple]:
        """The (mask, colon divisors) pair of every submodule, summed over
        the primary parts.

        M is the direct sum of its primary parts (see ``_primary_parts``), so
        every submodule is the sum of one subgroup of each part, and each such
        sum is a different submodule.  Each part's subgroups are listed once
        each by Hermite normal form (``_subgroups``); the sums are then built
        one part at a time, as masks: adding a subgroup ORs the translates of
        the sum so far along each of its Hermite rows (``_Radix.span``).
        Next to each sum goes its colon divisor tuple: r*M <= N iff r carries
        every part into N's subgroup of it, so on component c the divisor is
        the product of the exponents of the (c, p)-part quotients, 1 where n_c
        has no part at p.  ``lattice`` runs this once ``class_table`` has
        held the count to the cap, and on non-cyclic modules only; on cyclic
        ones it is the tests' reference for the lattice read off the table.
        """
        span = self._radix().span
        sums = [(1, (1,) * len(self.ring.moduli))]
        for part in self._primary_parts():
            c = part[0]
            subgroups = self._subgroups(part)
            sums = [
                # 0 + T is T, made by _subgroups already
                (part if mask == 1 else span(mask, gens), divs[:c] + (divs[c] * e,) + divs[c + 1:])
                for mask, divs in sums
                for part, gens, e in subgroups
            ]
        return sums

    @_once
    def _radix(self) -> "_Radix":
        """The index arithmetic of this module's element masks."""
        return _Radix(self._orders)

    @_once
    def _primary_parts(self) -> list[tuple]:
        """The nonzero primary parts, one per ring component c and prime p | n_c.

        The (c, p)-part is the sum of the p-parts of the factors Z_d on
        component c with p | d.  Each such factor gives one part coordinate
        (i, p^a, d / p^a, a): its index, the order p^a of its p-part, the
        step that carries Z_{p^a} onto that p-part of Z_d, and the exponent
        a >= 1.  A part, Z_{p^a_1} + ... + Z_{p^a_r}, is the triple (c, p,
        coordinates), and every fact about M's exponents is read off it.
        """
        parts = []
        for c, primes in enumerate(self.ring.primes):
            for p in primes:
                coords = []
                for i, (d, dc) in enumerate(self.factors):
                    if dc == c and d % p == 0:
                        q, a = p, 1
                        while d % (q * p) == 0:
                            q *= p
                            a += 1
                        coords.append((i, q, d // q, a))
                if coords:
                    parts.append((c, p, coords))
        return parts

    def _subgroups(self, part) -> list[tuple]:
        """Every subgroup of the primary part (c, p, coordinates), each once,
        by Hermite normal form, as (mask, generators, exponent) triples: the
        generators are the (index in M, order) pairs of its rows that add to
        the rows before them, and the exponent is that of the part over the
        subgroup.

        In part coordinates the part is Z^r / K with K the sum of the
        p^{a_i} Z, so its subgroups are the lattices L with K <= L <= Z^r.
        Each such L has one lower-triangular Hermite basis: row i is
        (x_1..x_{i-1}, h_i, 0..0) with h_i = p^{b_i}, b_i <= a_i and
        0 <= x_j < h_j.  The rows span a lattice containing K iff, for every
        i, p^{a_i} / h_i * (x_1..x_{i-1}) lies in the span of the rows before
        row i.  Those rows span exactly the subgroup in the form's mask, so
        this is a test of one bit.  At h_i = p^{a_i} it asks whether x itself
        lies in that span, which holds only at x = 0: the box of a reduced
        form meets its lattice only in 0.  For if x = sum c_j row_j with some
        c_j != 0, take the last such j: the rows are lower triangular, so
        x_j = c_j h_j, outside 0 <= x_j < h_j.  So that row is kept at x = 0
        alone, untested.  The forms are grown one row at a time, each as its
        heads, generators and mask.

        The exponent of Z^r / L is the least p^j with p^j times the part in
        L: the least j whose image mask lies in the form's mask.
        """
        _, p, coords = part
        orders = [q for _, q, _, _ in coords]
        radix = self._radix()
        span = radix.span
        # the index in M of a part vector: entry v on part coordinate
        # (i, q, step, a) is the digit v mod q * step of factor i
        scales = [step * radix.weights[i] for i, _, step, _ in coords]
        forms = [((), (), 1)]
        for order, scale in zip(orders, scales):
            grown = []
            for heads, gens, mask in forms:
                for x in itertools.product(*map(range, heads)):
                    base = sum(map(operator.mul, x, scales))
                    h = 1
                    while h < order:
                        m = order // h
                        if mask >> sum(m * v % q * s for v, q, s in zip(x, orders, scales)) & 1:
                            # the row has order m over the rows before it
                            gen = (base + h * scale, m)
                            grown.append((heads + (h,), gens + (gen,), span(mask, [gen])))
                        h *= p
                    if not base:  # h = order: the row is in the span before it iff x = 0
                        grown.append((heads + (order,), gens, mask))
            forms = grown  # each with its mask, grown along its rows one at a time
        # (p^j, the mask of p^j times the part), from (1, the part) up to (p^a, (0))
        images = [
            (e, math.prod(
                _multiples(radix.orders[i], step * min(e, q), radix.weights[i])
                for i, q, step, _ in coords
            ))
            for e in [p**j for j in range(max([a for _, _, _, a in coords]) + 1)]
        ]
        return [
            (mask, gens, next(e for e, image in images if image & ~mask == 0))
            for _, gens, mask in forms
        ]

    # -- colon ideals and products ----------------------------------------------

    def colon(self, sub: "Submodule") -> Ideal:
        """``sub.colon``, kept only because perfbench/tracer.py traces it by name."""
        return sub.colon

    @_once
    def annihilator(self) -> Ideal:
        """ann(M): on component c, the lcm of the orders of its factors."""
        divs = [1] * len(self.ring.moduli)
        for d, c in self.factors:
            divs[c] = math.lcm(divs[c], d)
        return Ideal(self.ring, tuple(divs))

    @_once
    def kills(self) -> tuple[int, ...]:
        """The zero-product table over the colon classes of ``class_table``:
        bit b of entry a is set iff NK = (0) for N of class a and K of
        class b.

        IM = 0 iff I lies in ann(M), whose divisors are a, and (N:M)(K:M)
        has divisors gcd(d_c * e_c, n_c) with a_c | n_c, so NK = (0) iff
        a_c | d_c * e_c on every component c: iff on every (c, p)-part, of
        largest coordinate exponent k, the exponents p^i and p^j that N's
        and K's classes choose there have i + j >= k.  The table is the tensor
        product of the parts' own tables, built one part at a time in the
        numbering of ``class_table``: the part's choices go p^k, ..., p, 1,
        so choices t and u kill iff t + u <= k.  Row a of the classes so far
        becomes the rows a*(k+1) + t, with bit b*(k+1) + u set iff bit b of
        row a is and u <= k - t: row a with its bits spread k + 1 apart,
        times the mask of those u.  The spread bits lie further apart than
        the mask is long, so the product carries nowhere.
        """
        rows = [1]
        for _, _, coords in self._primary_parts():
            choices = max([a for _, _, _, a in coords]) + 1
            gap = "0" * (choices - 1)
            spread = [int(gap.join(format(row, "b")), 2) for row in rows]
            rows = [r * ((1 << choices - t) - 1) for r in spread for t in range(choices)]
        return tuple(rows)

    def annihilates(self, n: "Submodule", k: "Submodule") -> bool:
        """NK = (0), looked up in the zero-product table (``kills``)."""
        return bool(self.kills()[n.cls] >> k.cls & 1)

    def product(self, n: "Submodule", k: "Submodule") -> "Submodule":
        """The submodule product (N:M)(K:M)M.

        The ideal (N:M)(K:M) is generated by the element g whose residues are
        its divisors, so the product is g*M.  The pipeline decides NK = (0)
        with ``annihilates`` and never builds a product; this stays for the
        tests and the per-layer trace.
        """
        return self.times(n.colon.product(k.colon).divisors)

    # -- prime submodules ---------------------------------------------------------

    def is_prime_submodule(self, p: "Submodule") -> bool:
        """r*m in P implies r in (P:M) or m in P: P proper, (P:M) maximal.

        A prime P has a prime, hence maximal, colon; if (P:M) is maximal then
        M/P is a vector space over the field R/(P:M), where every r outside
        (P:M) acts injectively.
        """
        return not p.is_whole and p.colon.is_maximal()

    @_once
    def primes(self) -> list["Submodule"]:
        """The prime submodules in lattice order: the proper members with a
        maximal colon (``is_prime_submodule``), tested once per colon class."""
        lattice = self.lattice()
        maximal = [colon.is_maximal() for colon in lattice.colons]
        return [s for s in lattice.all if maximal[s.cls] and not s.is_whole]

    def min_primes(self) -> list["Submodule"]:
        """Inclusion-minimal primes in lattice order, at ``min_prime_parts``' P masks."""
        member = self.lattice().member
        return [member(p) for p, _, _ in self.min_prime_parts()]

    @_once
    def min_prime_parts(self) -> list[tuple]:
        """One row (mask of P, e, mask of eM) per associated prime (c, q), in
        the member order of P (``_order_key``): P is m_{c,q}M = r*M for r = q
        on component c and 1 elsewhere, e projects onto the (c, q)-primary
        part, and eM is that part.  The masks come from ``_image``, under the
        lattice's caps, so no member is made and no lattice enumerated.

        The P are the minimal primes.  A prime has a maximal colon m and
        contains mM.  For m = m_{c,q}, mM is M with its (c, q)-part times q,
        proper iff that part is nonzero, that is iff (c, q) is associated;
        then (mM : M) = m and mM is prime.  A prime inside mM has a colon m'
        with m'M <= mM, so m' <= (mM : M) = m, m' = m, and it contains mM.
        The eM are the primary parts, so they split M (``_check_split``).
        """
        self.class_table()
        rows = []
        for c, q in self.associated_primes():
            e = self.ring.part_idempotent({(c, q)})
            r = self.ring.one[:c] + (q,) + self.ring.one[c + 1:]
            rows.append((self._image(r), e, self._image(e)))
        return sorted(rows, key=lambda row: _order_key(row[0]))

    def prime_radical(self) -> "Submodule":
        """rad(0), the intersection of all prime submodules, as r*M.

        The primes with colon m_{c,q} are the proper submodules containing
        m_{c,q}M, so they meet in m_{c,q}M, and over the associated (c, q)
        these meet in the sum of the q*M_{c,q}.  That is r*M for r_c the
        product of the primes of the parts on component c.
        """
        r = [1] * len(self.ring.moduli)
        for c, q, _ in self._primary_parts():
            r[c] *= q
        return self.times(tuple(r))

    @_once
    def is_semiprime(self) -> bool:
        """I^2 K = 0 implies I K = 0 for all ideals I, submodules K.

        This holds iff every annihilator divisor is squarefree, that is iff M
        is a module over the product of fields R/ann(M) (semisimple), and iff
        every part coordinate has exponent 1.
        """
        return all(a == 1 for _, _, coords in self._primary_parts() for _, _, _, a in coords)

    def associated_primes(self) -> list:
        """Ass(M) as pairs (c, q): the maximal ideals m_{c,q} = {r : q | r_c}
        containing ann(M), one per nonzero (c, q) primary part."""
        return [(c, q) for c, q, _ in self._primary_parts()]

    @_once
    def zero_divisors(self) -> frozenset:
        """Z(M): scalars killing some nonzero element.

        Z(M) is the union of the associated primes, which for a finite ring
        are the maximal ideals containing ann(M).  It lists R, so only the
        tests and the perfbench tracer call it; the pipeline asks whether a
        multiplicative set avoids each associated prime instead
        (``localization.zero_divisor_free``).
        """
        pairs = self.associated_primes()
        return frozenset(
            r for r in self.ring.elements() if any(r[c] % q == 0 for c, q in pairs)
        )

    # -- structure ------------------------------------------------------------------

    def minimal_submodules(self) -> list["Submodule"]:
        """Atoms of the lattice: the submodules of prime order.

        A simple module here is R/m for a maximal ideal m, a field of prime
        order, and a group of prime order has no other nonzero subgroup.  A
        member's order divides |M|, so a prime order is a prime of some part.
        """
        primes = {p for _, p, _ in self._primary_parts()}
        return [s for s in self.lattice().all if s.size in primes]

    @_once
    def cyclic_generator(self):
        """A generator m with R*m = M, or None; first in element order.

        R*m is the additive span of m's component projections, so M is cyclic
        iff no primary part has two coordinates, and then m generates iff each
        coordinate is a unit mod its order d: least 1, or 0 when d = 1.
        """
        if any(len(coords) > 1 for _, _, coords in self._primary_parts()):
            return None
        return tuple(int(d > 1) for d, _ in self.factors)

    def is_cyclic(self) -> bool:
        return self.cyclic_generator() is not None

    @_once
    def classify(self) -> tuple[str, ...]:
        """Overlapping labels in fixed order; ('other',) when none apply,
        read off the primary parts (``_labels``)."""
        return _labels(self._primary_parts())

    # -- idempotent decompositions ------------------------------------------------

    def scaled(self, e) -> "Module":
        """The image e*M of an idempotent e, as the module on the parts e keeps.

        On component c, e_c is 1 modulo the part k_c = n_c / gcd(e_c, n_c)
        of n_c and 0 modulo the rest, so a factor Z_d becomes Z_d' with
        d' = gcd(d, k_c), and e*x -> x mod d' is an isomorphism onto it.
        When no factor changes, e acts as the identity and M itself is
        returned, so its lattice and every other computed fact carry over.
        The image keeps M's lattice cap.  Localization builds the image;
        a split of M reads its sides' labels off M's parts instead
        (``nontrivial_decompositions``).
        """
        moduli = self.ring.moduli
        factors = tuple(
            (math.gcd(d, moduli[c] // math.gcd(e[c], moduli[c])), c)
            for d, c in self.factors
        )
        if factors == self.factors:
            return self
        return Module(self.ring, factors, self.cap)

    @_once
    def nontrivial_decompositions(self) -> list[tuple]:
        """(e, labels of eM, labels of (1-e)M) with both sides nonzero, one
        per unordered pair {e, 1-e}, in the order of e < 1-e.

        The pairs are the ring's splits, listed once per ring
        (``Ring.splits``).  e keeps the (c, q)-part of M iff q does not
        divide e_c, and 1-e keeps the others, so both sides are nonzero iff
        each keeps a part of M.  A side is the sum of the parts it keeps,
        with their orders, so its labels are read off them (``_labels``) and
        no module is built for it.
        """
        parts = self._primary_parts()
        out = []
        for e, _ in self.ring.splits():
            kept, dropped = [], []
            for part in parts:
                (kept if e[part[0]] % part[1] else dropped).append(part)
            if kept and dropped:
                out.append((e, _labels(kept), _labels(dropped)))
        return out

    # -- minimal-prime components ----------------------------------------------

    def min_prime_clique_witness(self):
        """One nonzero submodule per minimal prime, pairwise products zero.

        Construction: localize away from the minimal-prime colons, the
        associated primes, and take the component idempotents e_i and parts
        e_i*M from ``min_prime_parts``.  Distinct parts are orthogonal, so
        every cross product e_i e_j * gen is already zero.  Each pair
        multiplier is the first ring element, in lexicographic order, outside
        every minimal-prime colon: 1 on each component carrying a minimal
        prime, 0 elsewhere.  The multiplier t is that element when there is a
        pair and 1 otherwise, so it is 1 on the component of each e_i and
        t e_i = e_i: witness i, R*(t e_i gen) = (t e_i)*M as M = R*gen, is
        the member at the mask of e_i*M.  The parts are checked to split M
        (``_check_split``) and the witnesses to annihilate pairwise.
        Returns (witnesses, report).
        """
        if not self.is_cyclic():
            raise DomainError("clique witness construction needs a cyclic module")
        parts = self.min_prime_parts()
        _check_split(self, parts)
        if not parts:
            return [], {"size": 0}
        ring = self.ring
        associated = self.associated_primes()
        carried = {c for c, _ in associated}
        s = tuple(int(c in carried) for c in range(len(ring.moduli)))
        pairs_of_parts = list(itertools.combinations(range(len(parts)), 2))
        t = s if pairs_of_parts else ring.one
        member = self.lattice().member
        witnesses = [member(part) for _, _, part in parts]
        for i, j in pairs_of_parts:
            if not self.annihilates(witnesses[i], witnesses[j]):
                raise InternalCheckError(f"witness product {i},{j} is nonzero")
        report = {
            "size": len(witnesses),
            "localization_idempotent": list(ring.part_idempotent(associated)),
            "component_idempotents": [list(e) for _, e, _ in parts],
            "multiplier": list(t),
            "pair_multipliers": [[i, j, list(s)] for i, j in pairs_of_parts],
        }
        return witnesses, report


def _check_split(module: Module, rows) -> None:
    """Raise unless the parts eM of ``min_prime_parts`` rows split M: sizes
    multiplying to |M|, each nonzero, meeting pairwise in (0)."""
    parts = list(map(operator.itemgetter(2), rows))
    if math.prod(map(int.bit_count, parts)) != module.size:
        raise InternalCheckError("component sizes do not multiply to the image size")
    if 1 in parts:
        raise InternalCheckError(f"component {parts.index(1)} is the zero submodule")
    for (i, a), (j, b) in itertools.combinations(enumerate(parts), 2):
        if a & b != 1:
            raise InternalCheckError(f"components {i} and {j} overlap beyond zero")


def _order_key(mask: int) -> tuple[int, str]:
    """The lattice order: a member's size, then its encoding part, the mask's
    bits from bit 0 up with 0 written as 2, which orders masks as ascending
    index tuples, as a string and a tuple both end at the highest set bit."""
    return mask.bit_count(), format(mask, "b")[::-1].replace("0", "2")


def _labels(parts) -> tuple[str, ...]:
    """The labels of a module with these primary parts, in fixed order.

    M has exactly two submodules (simple) iff it is Z_p, and exactly three
    iff it is Z_{p^2}: one part coordinate, of exponent 1 or 2.  It is a
    prime module iff (0) is prime, that is iff ann(M) is maximal: iff M has
    one primary part, (c, p), and p kills it, every coordinate of exponent 1.
    """
    labels = []
    if len(parts) == 1:
        exponents = [a for _, _, _, a in parts[0][2]]
        if exponents == [1]:
            labels.append("simple")
        if exponents == [2]:
            labels.append("unique_nontrivial_submodule")
        if exponents == [1] * len(exponents):
            labels.append("prime_module")
    return tuple(labels) if labels else ("other",)


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    """The number of k-dimensional subspaces of F_q^n, for 0 <= k <= n."""
    top = math.prod(q ** (n - i) - 1 for i in range(k))
    return top // math.prod(q ** (i + 1) - 1 for i in range(k))


def subgroup_count(p: int, lam) -> int:
    """The number of subgroups of the abelian p-group of type lam, the sum
    of the Z_{p^a} over the exponents a in lam, in closed form.

    It is the Birkhoff-Delsarte sum over the types mu within lam of the
    product over i >= 1 of p^(mu'_{i+1} (lam'_i - mu'_i)) times
    [lam'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p, with lam', mu' the conjugate
    partitions (Butler, Subgroup Lattices and Symmetric Functions, 1994,
    ch. 1).  Factor i reads only mu'_i and mu'_{i+1}, so the conjugates
    lam'_i >= mu'_i >= mu'_{i+1} are chosen from i = a down, keeping per
    value of the last one the sum of the products so far.
    """
    sums = {0: 1}  # mu'_{a+1} = 0
    for i in range(max(lam, default=0), 0, -1):
        top = sum(a >= i for a in lam)  # lam'_i
        grown = dict.fromkeys(range(top + 1), 0)
        for u, total in sums.items():
            for v in range(u, top + 1):
                grown[v] += total * p ** (u * (top - v)) * _gaussian_binomial(top - u, v - u, p)
        sums = grown
    return sum(sums.values())


def _multiples(d: int, g: int, w: int) -> int:
    """The mask of the multiples of g in Z_d, for g | d, at weight w: the
    progression (2^(d w) - 1) / (2^(g w) - 1)."""
    return ((1 << d * w) - 1) // ((1 << g * w) - 1)


class _Radix:
    """The mixed-radix indices of a module's elements, and sets of them as masks.

    Over Z_{d_0} + ... + Z_{d_{k-1}} the element x has index sum x_i * w_i
    with w_i = d_{i+1} * ... * d_{k-1}, so the first coordinate is the most
    significant digit and index order is the lexicographic order of tuples.
    A set of elements is the int with a bit at each member's index; zero is
    bit 0.  Adding t to coordinate i of every member rotates each aligned
    block of d_i * w_i bits by s = t * w_i:
    ((m & lo) << s) | ((m & hi) >> (block - s)), where lo holds the indices
    whose digit i is below d_i - t and hi the rest.  These masks are made
    once per (i, t), on first use, and |M| <= ELEMENT_CAP keeps every mask
    that short.  ``prefixes[i]`` holds the indices whose digits before i are
    0.  Each element's tuple is decoded once per module, on first use, and
    with it its text in a label (``texts``): a digit alone, or the digits in
    parentheses.  The radix is the one owner of the spans that labels build
    (``cyclic`` and ``join``), memoized by index and by mask pair.  It keeps
    only ints, tuples of them and element texts, so it keeps no module alive.
    """

    __slots__ = (
        "weights", "orders", "prefixes", "texts", "full",
        "_rotations", "_decoded", "_cyclics", "_joins",
    )

    def __init__(self, orders):
        self.orders = tuple(orders)
        size = math.prod(self.orders)
        self.full = (1 << size) - 1  # the mask of M
        weights = []
        for d in self.orders:
            size //= d
            weights.append(size)
        self.weights = tuple(weights)
        self.prefixes = tuple((1 << d * w) - 1 for d, w in zip(self.orders, self.weights))
        self._rotations: dict = {}
        self._decoded: dict = {}
        self._cyclics: dict = {}
        self._joins: dict = {}
        self.texts: dict = {}  # index -> text of each element decoded so far

    def element(self, i: int) -> tuple:
        """The element tuple at index i, decoded once, with its text."""
        x = self._decoded.get(i)
        if x is None:
            digits, y = [], i
            for w in self.weights:
                t, y = divmod(y, w)
                digits.append(t)
            x = self._decoded[i] = tuple(digits)
            self.texts[i] = str(x[0]) if len(x) == 1 else "(" + ",".join(map(str, x)) + ")"
        return x

    def multiple(self, y: int, k: int) -> int:
        """The index of k times the element at index y."""
        if k == 1:
            return y
        out = 0
        for w, d in zip(self.weights, self.orders):
            t, y = divmod(y, w)
            out += t * k % d * w
        return out

    def translate(self, mask: int, y: int) -> int:
        """Every member plus the element at index y, one rotation per digit."""
        for i, w in enumerate(self.weights):
            t, y = divmod(y, w)
            if t:
                s, back, lo, hi = self._rotations.get((i, t)) or self._rotation(i, t)
                mask = (mask & lo) << s | (mask & hi) >> back
        return mask

    def _rotation(self, i: int, t: int) -> tuple:
        w = self.weights[i]
        block, s = self.orders[i] * w, t * w
        starts = self.full // ((1 << block) - 1)  # the first bit of each block
        lo = ((1 << block - s) - 1) * starts
        rotation = self._rotations[i, t] = (s, block - s, lo, self.full ^ lo)
        return rotation

    def span(self, mask: int, gens) -> int:
        """S + <y> for a subgroup mask S and each (y, n) in turn, n the order
        of the element at index y modulo S.  While the mask holds the
        translates of S by 0, y, ..., (c - 1)y, translating it by
        min(c, n - c)y adds the next ones, so about log2(n) translations
        build all n."""
        for y, n in gens:
            c = 1
            while c < n:
                step = min(c, n - c)
                mask |= self.translate(mask, self.multiple(y, step))
                c += step
        return mask

    def cyclic(self, y: int) -> int:
        """The mask of Z*y for the element at index y, memoized by y; y's order
        is the lcm of its digits' orders.  For a component-pure y, such as a
        Hermite row of ``_minimal_gens``, Z*y is R*y."""
        mask = self._cyclics.get(y)
        if mask is None:
            n, i = 1, y
            for w, d in zip(self.weights, self.orders):
                t, i = divmod(i, w)
                n = math.lcm(n, d // math.gcd(t, d))
            mask = self._cyclics[y] = self.span(1, [(y, n)])
        return mask

    def join(self, a: int, b: int) -> int:
        """The mask of A + B for subgroup masks a and b, memoized by the pair.
        Starting from the larger of the two, the union so far is translated by
        the least element of the other one that it does not cover, until it
        covers B.  Each translate is by an element of A + B, and the union is
        a union of cosets of A, so once it covers B it is A + B."""
        if a.bit_count() < b.bit_count():
            a, b = b, a
        joined = self._joins.get((a, b))
        if joined is None:
            joined, rest = a, b & ~a
            while rest:
                joined |= self.translate(joined, (rest & -rest).bit_length() - 1)
                rest &= ~joined
            self._joins[a, b] = joined
        return joined


class Submodule:
    """A member of its module's lattice: a closed set of elements, held as a
    mask over their indices, with its id, its colon class, its colon ideal
    (N : M) = {r : r*M <= N} in divisor form, and an irredundant generator
    list.  It holds its module's ``_Radix``, which decodes its elements and
    builds its label, and not the module.  The lattice makes each submodule
    once, so two members of one module are equal iff they are the same
    object.
    """

    __slots__ = (
        "radix", "mask", "size", "id", "cls", "colon",
        "_encoding", "_elements", "_gens", "_label",
    )

    def __init__(self, radix: "_Radix", mask: int, id: int, cls: int, colon: Ideal):
        self.radix = radix
        self.mask = mask
        self.size = mask.bit_count()
        self.id = id
        self.cls = cls
        self.colon = colon
        self._encoding = None
        self._elements = None
        self._gens = None
        self._label = None

    @property
    def encoding(self) -> tuple:
        """The indices of the elements, ascending, listed on first use.  Index
        order is tuple order, so this orders members as their sorted
        elements would."""
        if self._encoding is None:
            bits = format(self.mask, "b")[::-1]
            self._encoding = tuple(i for i, b in enumerate(bits) if b == "1")
        return self._encoding

    @property
    def elements(self) -> frozenset:
        """The elements as tuples, decoded on first use and kept.  This is a
        view for the tests and oracles; the lattice works on ``mask``."""
        if self._elements is None:
            self._elements = frozenset(map(self.radix.element, self.encoding))
        return self._elements

    @property
    def gens(self) -> tuple:
        """Irredundant generators, none in the span of the others, though
        not always the fewest; found with the label (``_minimal_gens``)."""
        if self._gens is None:
            self._gens, self._label = _minimal_gens(self.radix, self.mask)
        return self._gens

    def __repr__(self):
        return f"<{self.label} #{self.size}>"

    @property
    def is_zero(self) -> bool:
        return self.size == 1

    @property
    def is_whole(self) -> bool:
        return self.mask == self.radix.full

    @property
    def label(self) -> str:
        """The generators as text, found with them (``_minimal_gens``)."""
        if self._label is None:
            self._gens, self._label = _minimal_gens(self.radix, self.mask)
        return self._label

    def ref(self) -> dict:
        """How a report names this member: its id, label and size."""
        return {"id": self.id, "label": self.label, "size": self.size}


def _minimal_gens(radix: _Radix, mask: int) -> tuple[tuple, str]:
    """Greedy lexicographically-least generators, then drop redundant ones:
    an irredundant list, no generator in the span of the others, though not
    always one of least size.

    S is the member at ``mask``, and its next generator is its least element
    outside the span so far.  Write S_j for the members of S whose digits
    before j are 0: the bits below d_j * w_j of S's mask.  The span starts
    as S_k = (0), k the number of digits, and stays some S_{j+1}.  An
    element of S outside it has a nonzero digit before j + 1, and the later
    its first nonzero digit, the lower its index, so the next generator x
    leads at the last digit j at which S_j outgrows S_{j+1}.  S_j / S_{j+1} is the cyclic
    group of the digits j of S_j, so x's leading digit h is the least of
    them and S_j = S_{j+1} + Z*x.  And x is component-pure: for c the
    component of digit j, e_c x lies in S and outside S_{j+1}, and keeps
    x's digits up to j and zeroes some later ones, so e_c x <= x and e_c x
    is x.  So R*x = Z*x and the next span is S_j, a prefix of S's mask: no
    join is made.  These are S's Hermite rows in digit order (H. Cohen, A
    Course in Computational Algebraic Number Theory, 1993, sec. 2.4).

    Row x has order o = d_j / h over the rows before it; when every row has
    o*x = 0, S is the direct sum of the Z*x and no row is redundant.
    Otherwise one forward pass drops the redundant rows: row g is redundant
    iff the join of the Z*h of the other rows h is S (``_Radix.cyclic``,
    ``_Radix.join``), as each row is component-pure and Z*h is R*h.  A
    generator not redundant in a set is not redundant in any subset of it,
    so one pass leaves none.  The last row is never redundant: no other row
    has a nonzero digit where it leads.  Generators are found as indices,
    and the radix decodes each and writes it as text once.  Returns the
    generators and the label.
    """
    orders = radix.orders
    gens = []
    independent = True
    span = 1
    for j in range(len(orders) - 1, -1, -1):
        if span == mask:
            break
        prefix = mask & radix.prefixes[j]
        if prefix != span:
            rest = prefix & ~span
            x = (rest & -rest).bit_length() - 1
            gens.append(x)
            if independent:
                digits = radix.element(x)
                o = orders[j] // digits[j]
                independent = not any(map(operator.mod, map(o.__mul__, digits), orders))
            span = prefix
    if not independent:
        for g in gens[:-1]:
            rest = [radix.cyclic(h) for h in gens if h != g]
            if functools.reduce(radix.join, rest, 1) == mask:
                gens.remove(g)
    elems = tuple(map(radix.element, gens))  # fills radix.texts at gens
    return elems, "⟨" + (", ".join(map(radix.texts.__getitem__, gens)) or "0") + "⟩"


class Lattice:
    """All submodules, sorted by ``_order_key`` (size, then encoding), each
    made here once, and found by mask alone (``member``).  Members with one
    colon ideal form a colon class, numbered as in ``Module.class_table``, so
    class 0 is that of (0), whose colon is ann(M), and ``colons`` holds one
    Ideal per class.  The lattice keeps neither its module nor any memo: the
    spans built from members are masks, memoized by the module's radix
    (``_Radix.cyclic`` and ``_Radix.join``)."""

    def __init__(self, module: Module, sums):
        self.radix = radix = module._radix()
        sums = sorted(sums, key=lambda t: _order_key(t[0]))
        table = module.class_table()
        classes = {divs: a for a, (divs, _) in enumerate(table)}
        self.colons = colons = tuple(Ideal(module.ring, divs) for divs, _ in table)
        subs = []
        for i, (mask, divs) in enumerate(sums):
            cls = classes[divs]
            subs.append(Submodule(radix, mask, i, cls, colons[cls]))
        self.all = tuple(subs)
        self._by_mask = {s.mask: s for s in subs}

    def __len__(self):
        return len(self.all)

    def member(self, mask: int) -> Submodule:
        """The member with exactly this mask."""
        sub = self._by_mask.get(mask)
        if sub is None:
            raise DomainError("element set is not a submodule of this lattice")
        return sub
