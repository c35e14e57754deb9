"""The annihilating-submodule graph and its exact invariants.

AG(M) has a vertex for every nonzero submodule N admitting a nonzero proper
partner K with NK = (0) (K = N is allowed, so N with N^2 = 0 is a vertex even
when otherwise isolated; M itself is a vertex exactly when some nonzero
proper N has (N:M) equal to the annihilator).  Distinct vertices are adjacent
iff their product vanishes.  AG(M)* keeps only proper submodules whose colon
differs from the annihilator, with both ends of the defining partner
condition filtered the same way.

NK = (N:M)(K:M)M depends only on the colon classes of N and K
(``Submodule.cls``), so a graph keeps the number of its vertices in each
class and the module's zero-product table over the classes
(``Module.kills``), which AG and AG* share, and no per-vertex adjacency.
Both come from the module's class table (``Module.class_table``), so a graph
and its invariants are built without the submodule lattice.  A member is a
vertex iff its class is a vertex class (``AnnGraph.__contains__``); the
vertices themselves, and each one's class, are read from the lattice only
when asked for.  A class that kills itself is a clique of true twins, any
other a stable set of false twins.  The degrees come from the class sizes,
and the other invariants from one quotient graph that keeps
min(s, 3) of the s members of each stable class and min(s, max(3, h)) of
each self-killing one, h the number of stable classes.  This is exact:

- A shortest path holds at most one vertex of a class (it could be
  shortcut), and a shortest cycle at most 3, all 3 only in a triangle (three
  twins on a cycle are pairwise adjacent; two false twins and two common
  neighbours make a 4-cycle).  So the quotient keeps every distance, the
  girth and connectivity, and as twins share an eccentricity, one
  breadth-first search over bitmasks from the first kept vertex of each
  class serves all three.
- Dropping a false twin changes neither ω nor χ: a clique holds at most one
  vertex of a stable class, and the dropped twin can take a kept twin's
  colour.
- Self-killing classes kill each other: with a, d and e the annihilator and
  colon divisors on a component, a | d^2 and a | e^2 give
  v_p(d) + v_p(e) >= v_p(a) for every prime p, so a | de.  So the
  self-killing vertices form a clique, and a self-killing class of more than
  h members lies in every maximum clique.  Give each stable class one colour
  of its members; then some member of the class has a colour that no other
  vertex has.  So each member dropped lowers ω and χ by exactly 1, and both
  are the quotient's plus the self-killing vertices left out.  (A twin
  blow-up of an arbitrary graph need not have this property.)

So a graph is fixed up to isomorphism by its type, the pair of its class
sizes and the zero-product table, and ``invariants`` computes each type's
report once per process: ``type_invariants`` is an LRU cache of the last 512
types, keyed by the pair alone, so it keeps no module alive.  Types repeat a
lot (a default-corpus pass builds only AG: 319 graphs of 17 types, 302 cache
hits), and ``type_invariants.cache_info()`` gives the hits and misses.

The clique solver is a pivoting maximal-clique search
whose pivot scan stops at the first vertex that leaves at most one branch.
The chromatic solver is one backtracking colouring search over vertices in
descending-degree order, each vertex taking the least colour class it has no
neighbour in; it is run for k colours from the clique lower bound up until
it succeeds, which it does by k = the greedy count, since its first descent
is the greedy colouring.  Both searches keep explicit stacks, so their depth
is not bounded by the recursion limit.  The report and DOT writers take each
vertex's edge row from one neighbour list per class (``later_neighbors``).

Degenerate conventions, pinned once here: the empty graph has clique and
chromatic number 0, no girth, no diameter, shape flag {"empty"} only; girth
is None for acyclic graphs; diameter is None below two vertices or when
disconnected; a star is K_{1,m} with m >= 0, so one- and two-vertex graphs
count.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

from .finmod import Module, Submodule, _order_key


@dataclass(frozen=True)
class AnnGraph:
    """A graph on submodule vertices: the (class, vertex count) pairs of its
    colon classes, ascending, and the zero-product table over the classes.
    Distinct vertices are adjacent iff their classes kill each other."""

    module: Module
    kind: str  # "AG" or "AG_star"
    sizes: tuple[tuple[int, int], ...]
    kills: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(size for _, size in self.sizes)

    def __contains__(self, sub: Submodule) -> bool:
        """Whether sub is a vertex: a nonzero member of this graph's module
        whose colon class is a vertex class.  No lattice is enumerated."""
        return sub.module is self.module and not sub.is_zero and self._classes >> sub.cls & 1 == 1

    @cached_property
    def _classes(self) -> int:
        """The vertex classes, as a bitmask."""
        return sum(1 << a for a, _ in self.sizes)

    @cached_property
    def vertices(self) -> tuple[Submodule, ...]:
        """The members that are vertices, in lattice order; the first read
        enumerates the lattice if nothing has yet."""
        return tuple(filter(self.__contains__, self.module.lattice().all))

    @cached_property
    def cls(self) -> tuple[int, ...]:
        """The colon class of each vertex."""
        return tuple(s.cls for s in self.vertices)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Adjacency bitmasks by vertex index, built on first read; nothing
        in the package reads them."""
        members = {}
        for v, a in enumerate(self.cls):
            members[a] = members.get(a, 0) | 1 << v
        nbrs = {a: sum(m for b, m in members.items() if self.kills[a] >> b & 1) for a in members}
        return tuple(nbrs[a] & ~(1 << v) for v, a in enumerate(self.cls))


def build_AG(module: Module) -> AnnGraph:
    """AG(M) on the nonzero submodules, with the proper ones as partners,
    counted per colon class (``Module.class_table``): class 0, that of (0),
    loses (0), and M is alone in the last class."""
    cands = [count for _, count in module.class_table()]
    cands[0] -= 1
    partners = cands.copy()
    partners[-1] -= 1  # M; when M = (0) that leaves its one class below 0
    return _annihilating_graph(module, "AG", cands, partners)


def build_AG_star(module: Module) -> AnnGraph:
    """AG(M)*: proper submodules with colon different from the annihilator,
    that is outside the colon class of (0) and the class of M."""
    cands = [count for _, count in module.class_table()]
    cands[0] = cands[-1] = 0
    return _annihilating_graph(module, "AG_star", cands, cands)


def _annihilating_graph(module: Module, kind: str, cands, partners) -> AnnGraph:
    """The graph on the candidates whose class kills the class of some
    partner, from the candidate and partner counts per class (partners no
    more than cands); a colon class is all vertices or none."""
    kills = module.kills()
    partner_classes = sum(1 << a for a, count in enumerate(partners) if count > 0)
    sizes = tuple(
        (a, count) for a, count in enumerate(cands) if count > 0 and kills[a] & partner_classes
    )
    return AnnGraph(module, kind, sizes, kills)


# -- invariants ----------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    girth: int | None
    diameter: int | None
    connected: bool
    bipartite: bool
    clique_number: int
    chromatic_number: int
    degree_sequence: tuple[int, ...]
    shape: frozenset[str]

    @property
    def triangle_free(self) -> bool:
        return self.clique_number <= 2

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "degree_sequence": list(self.degree_sequence),
            "shape": sorted(self.shape),
        }


def invariants(g: AnnGraph) -> InvariantReport:
    """The invariant report of g, looked up by g's type in
    ``type_invariants``: the type fixes g up to isomorphism, so graphs of
    one type share one report.  The cache keeps the last 512 types (its
    docstring bounds their bytes), and ``type_invariants.cache_info()``
    gives its hits and misses."""
    return type_invariants(tuple(g.sizes), tuple(g.kills))


@lru_cache(maxsize=512)
def type_invariants(sizes: tuple, kills: tuple) -> InvariantReport:
    """The invariant report of the graph of type (sizes, kills), as
    ``AnnGraph`` holds them, memoized by that pair.

    The key is exact: the body reads nothing but the pair.  It holds no
    module, lattice or graph, so the cache keeps none alive.  The cache
    keeps the last 512 types, more than twice the most distinct types
    measured in one batch (247, over the graphs of 2213 non-cyclic
    modules).  An entry is its key and its report, which is immutable, so
    its callers share it.  Under ``ELEMENT_CAP`` a module has at most 512
    colon classes, so the key holds at most 512 pairs and 512 masks of 512
    bits; under the default lattice cap the degree sequence holds at most
    4096 entries.  So an entry takes under 0.2 MB and a full cache under
    100 MB.  AG of Z_2^9 over itself (nine components, 512 classes) takes
    87 kB, AG(F_2^6) (2824 vertices) 24 kB.
    """
    n = sum(size for _, size in sizes)
    if n == 0:
        return InvariantReport(None, None, True, True, 0, 0, (), frozenset({"empty"}))
    q, first, dropped, degrees = _quotient(sizes, kills)
    full = (1 << len(q)) - 1
    searches = [_search(q, v, full) for v in first]
    girth = _girth(searches)
    diameter = _diameter(searches) if n >= 2 else None
    connected = n == 1 or diameter is not None
    clique, _ = max_clique(q, len(q))
    chromatic = chromatic_number(q, len(q), lower=clique) + dropped

    edge_count = sum(degrees) // 2
    shape = set()
    if connected and edge_count == n - 1:
        shape.add("tree")
        if n <= 2 or max(degrees) == n - 1:
            shape.add("star")
        if n == 1 or (degrees.count(1) == 2 and degrees.count(2) == n - 2):
            shape.add(f"path_{n}")
    if edge_count == n * (n - 1) // 2:
        shape.add("complete")
    if degrees[0] == degrees[-1]:
        shape.add("regular")
    if girth is not None:
        shape.add("cycle_present")
    return InvariantReport(
        girth, diameter, connected, chromatic <= 2, clique + dropped, chromatic,
        tuple(degrees), frozenset(shape),
    )


def _quotient(sizes, kills) -> tuple[list[int], list[int], int, list[int]]:
    """The quotient graph of the module docstring, for the graph of type
    (sizes, kills): (its adjacency masks, its first vertex in each class,
    the self-killing vertices it leaves out, the degree sequence of the
    graph, ascending).  A class's kept members are consecutive."""
    sizes = dict(sizes)
    loops = {a for a in sizes if kills[a] >> a & 1}
    cap = max(3, len(sizes) - len(loops))
    block, first, top, present = {}, [], 0, 0
    for a, s in sizes.items():
        k = min(s, cap if a in loops else 3)
        block[a] = ((1 << k) - 1) << top
        first.append(top)
        top += k
        present |= 1 << a
    q, degrees = [], []
    for (a, s), start in zip(sizes.items(), first):
        nbrs = degree = 0
        rest = kills[a] & present
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            nbrs |= block[b]
            degree += sizes[b]
        degrees += [degree - (a in loops)] * s
        for v in range(start, block[a].bit_length()):
            q.append(nbrs & ~(1 << v))
    degrees.sort()
    return q, first, sum(sizes[a] - block[a].bit_count() for a in loops), degrees


def _search(adj, src: int, full: int) -> tuple[int | None, int | None]:
    """Breadth-first search from src, one level at a time on bitmasks.

    Returns the eccentricity of src (the depth of the last level, or None if
    some vertex of full is unreached) and the first cycle the search closes:
    an edge inside level d closes one of length at most 2d + 1, and a vertex
    at level d + 1 with two neighbours at level d one of length at most
    2d + 2.  From a vertex on a shortest cycle the first cycle is its length.
    """
    seen = frontier = 1 << src
    depth = 0
    cycle = None
    while True:
        reach = twice = 0
        level = frontier
        while level:
            low = level & -level
            nbrs = adj[low.bit_length() - 1]
            level ^= low
            if cycle is None and nbrs & frontier:
                cycle = 2 * depth + 1
            fresh = nbrs & ~seen
            twice |= reach & fresh
            reach |= fresh
        if cycle is None and twice:
            cycle = 2 * depth + 2
        if not reach:
            return (depth if seen == full else None), cycle
        seen |= reach
        frontier = reach
        depth += 1


def _diameter(searches) -> int | None:
    """Largest eccentricity over the (eccentricity, first cycle) searches;
    None if disconnected, 0 on the empty graph."""
    eccs = [ecc for ecc, _ in searches]
    return None if None in eccs else max(eccs, default=0)


def _girth(searches) -> int | None:
    """Shortest cycle: the least first cycle over the searches, or None."""
    return min((cycle for _, cycle in searches if cycle is not None), default=None)


# -- exact solvers ----------------------------------------------------------------


def max_clique(adj, n: int) -> tuple[int, int]:
    """Maximum clique size and one witness bitmask, by pivoted expansion.

    A node branches on the candidates that are not neighbours of its pivot,
    a vertex of cand | excl with the most neighbours in cand; any pivot
    leads to a maximum clique, and fewer branches to a smaller search.  The
    scan stops at the first vertex that leaves at most one branch, so on a
    complete graph it ends at each node's first vertex.

    The search keeps an explicit stack of [size, mask, cand, excl, branch]
    frames, branch being None until the frame's node has been expanded, so
    its depth is not bounded by the interpreter's recursion limit.
    """
    if n == 0:
        return 0, 0
    best = 0
    best_mask = 0
    stack = [[0, 0, (1 << n) - 1, 0, None]]
    while stack:
        frame = stack[-1]
        size, mask, cand, excl, branch = frame
        if branch is None:
            if not cand and not excl:
                if size > best:
                    best, best_mask = size, mask
                stack.pop()
                continue
            count = cand.bit_count()
            if size + count <= best:
                stack.pop()
                continue
            pivot, pivot_deg = -1, -1
            m = cand | excl
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                deg = (cand & adj[v]).bit_count()
                if deg > pivot_deg:
                    pivot, pivot_deg = v, deg
                    if deg >= count - 1:
                        break
            branch = cand & ~adj[pivot]
        if not branch:
            stack.pop()
            continue
        low = branch & -branch
        v = low.bit_length() - 1
        frame[2], frame[3], frame[4] = cand & ~low, excl | low, branch ^ low
        stack.append([size + 1, mask | low, cand & adj[v], excl & adj[v], None])
    return best, best_mask


def _colorable(adj, order, k: int) -> bool:
    """Backtracking k-colouring in the given vertex order, with an explicit
    stack.  members[c] is the bitmask of the vertices coloured c so far, and
    color[i] the colour of order[i] (-1 before its first try).  Each vertex
    takes the least colour class holding none of its neighbours; on backtrack
    it leaves its class and tries the next one.  The first descent is the
    greedy colouring in this order."""
    n = len(order)
    members = [0] * k
    color = [-1] * n
    used = [0] * (n + 1)  # colours in use among order[:i]
    i = 0
    while i < n:
        v = order[i]
        nbrs = adj[v]
        c = color[i]
        if c >= 0:
            members[c] ^= 1 << v
        c += 1
        limit = min(used[i] + 1, k)  # at most one brand-new colour, breaks symmetry
        while c < limit and members[c] & nbrs:
            c += 1
        if c < limit:
            members[c] |= 1 << v
            color[i] = c
            used[i + 1] = max(used[i], c + 1)
            i += 1
        else:
            color[i] = -1
            if i == 0:
                return False
            i -= 1
    return True


def chromatic_number(adj, n: int, lower: int | None = None) -> int:
    """Exact chromatic number: deepen k from the clique bound until a
    k-colouring exists, branching over vertices in descending-degree order."""
    if n == 0:
        return 0
    k = max(1, lower if lower is not None else max_clique(adj, n)[0])
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    while not _colorable(adj, order, k):
        k += 1
    return k


# -- edge rows and DOT export ------------------------------------------------------


def later_neighbors(g: AnnGraph, order: Sequence[int]) -> Iterator[list[int]]:
    """Each vertex's row, for the vertices of ``order`` in turn: the
    ascending positions in ``order`` of its neighbours placed after it.

    A vertex's neighbours are the vertices of the classes its class kills
    (``Module.kills``), itself excepted, so the members of a colon class are
    twins.  Each class's neighbour positions are sorted once, and a vertex's
    row is the part of its class's list past its own position.
    """
    kills = g.kills
    at: dict[int, list[int]] = {}  # class -> its members' positions, ascending
    for k, v in enumerate(order):
        at.setdefault(g.cls[v], []).append(k)
    rows = {a: sorted(chain.from_iterable(at[b] for b in at if kills[a] >> b & 1)) for a in at}
    for k, v in enumerate(order):
        row = rows[g.cls[v]]
        yield row[bisect_right(row, k):]


def to_dot(g: AnnGraph, write) -> None:
    """Write deterministic DOT text: the vertices in the order of the
    encoding part of ``finmod._order_key``, then each vertex's edges to
    later vertices, one ascending row per vertex."""
    verts = g.vertices
    order = sorted(range(g.n), key=lambda i: _order_key(verts[i].mask)[1])
    write(f"graph {g.kind} {{\n")
    for k, v in enumerate(order):
        write(f'  v{k} [label="{verts[v].label}"];\n')
    tails = [f"v{b};\n" for b in range(g.n)]
    for k, row in enumerate(later_neighbors(g, order)):
        if row:
            head = f"  v{k} -- "
            write(head + head.join(map(tails.__getitem__, row)))
    write("}\n")
