import io
import operator
import random
import time
from collections import Counter

import pytest

from agmod import aggraph
from agmod.aggraph import build_AG, build_AG_star, invariants, to_dot
from agmod.errors import ResourceLimitError
from agmod.finmod import Lattice, Module
from agmod.finring import Ring

from helpers import NON_CYCLIC, edges, product_module, zmod
from oracles import (
    blow_up_clique_number,
    brute_AG,
    brute_chromatic_number,
    brute_clique_number,
    brute_diameter,
    brute_dot,
    brute_girth,
    brute_invariants,
)


def _labels(graph):
    return [v.label for v in graph.vertices]


def _edge_labels(graph):
    return {
        frozenset((graph.vertices[i].label, graph.vertices[j].label))
        for i, j in edges(graph)
    }


def _dot(graph):
    buf = io.StringIO()
    to_dot(graph, buf.write)
    return buf.getvalue()


def test_ag_z12_is_the_four_vertex_path():
    g = build_AG(zmod(12))
    assert sorted(_labels(g)) == ["⟨2⟩", "⟨3⟩", "⟨4⟩", "⟨6⟩"]
    assert _edge_labels(g) == {
        frozenset({"⟨2⟩", "⟨6⟩"}),
        frozenset({"⟨6⟩", "⟨4⟩"}),
        frozenset({"⟨4⟩", "⟨3⟩"}),
    }
    inv = invariants(g)
    assert inv.girth is None
    assert inv.diameter == 3
    assert inv.bipartite and inv.connected
    assert {"tree", "path_4"} <= inv.shape and "star" not in inv.shape
    assert inv.clique_number == 2 and inv.chromatic_number == 2


def test_ag_z2xz4_has_the_expected_four_vertices():
    m = product_module([2, 4])
    g = build_AG(m)
    expected = {
        frozenset({(0, b) for b in range(4)}),        # (0) x S
        frozenset({(0, 0), (1, 0)}),                  # F x (0)
        frozenset({(0, 0), (0, 2)}),                  # (0) x N
        frozenset({(a, b) for a in range(2) for b in (0, 2)}),  # F x N
    }
    assert {v.elements for v in g.vertices} == expected
    assert "path_4" in invariants(g).shape


def test_ag_simple_module_is_empty():
    g = build_AG(zmod(5))
    assert g.n == 0
    inv = invariants(g)
    assert inv.shape == frozenset({"empty"})
    assert inv.clique_number == 0 and inv.chromatic_number == 0
    assert inv.girth is None and inv.diameter is None
    assert inv.connected and inv.bipartite


def test_ag_z30_invariants():
    g = build_AG(zmod(30))
    inv = invariants(g)
    assert g.n == 6 and len(edges(g)) == 6
    assert inv.girth == 3
    assert inv.clique_number == 3 and inv.chromatic_number == 3
    assert list(inv.degree_sequence) == [1, 1, 1, 3, 3, 3]
    triangle = {"⟨6⟩", "⟨10⟩", "⟨15⟩"}
    idx = {v.label: i for i, v in enumerate(g.vertices)}
    for a in triangle:
        for b in triangle:
            if a != b:
                assert g.adj[idx[a]] >> idx[b] & 1


def test_module_itself_can_be_a_vertex():
    # every nonzero submodule of (Z_2)^2 over Z_2 annihilates a line, so the
    # graph is complete on the three lines plus the whole module
    vec = Module(Ring([2]), [(2, 0), (2, 0)])
    g = build_AG(vec)
    assert g.n == 4
    assert any(v.is_whole for v in g.vertices)
    inv = invariants(g)
    assert "complete" in inv.shape and "regular" in inv.shape
    assert inv.clique_number == 4 and inv.chromatic_number == 4


def test_ag_star_equals_ag_on_faithful_z12():
    m = zmod(12)
    ag, star = build_AG(m), build_AG_star(m)
    assert _labels(ag) == _labels(star)
    assert _edge_labels(ag) == _edge_labels(star)


def test_ag_star_filters_colons_equal_to_annihilator():
    vec = Module(Ring([2]), [(2, 0), (2, 0)])
    assert build_AG_star(vec).n == 0
    m30 = zmod(30)
    assert _edge_labels(build_AG_star(m30)) == _edge_labels(build_AG(m30))


def test_ag_star_is_subgraph_of_ag():
    for m in [zmod(12), zmod(16), zmod(24, 12), product_module([2, 4]),
              Module(Ring([2, 4]), [(1, 0), (4, 1)])]:
        ag, star = build_AG(m), build_AG_star(m)
        ag_verts = {v.encoding for v in ag.vertices}
        assert {v.encoding for v in star.vertices} <= ag_verts
        assert all(not v.is_whole for v in star.vertices)
        assert _edge_labels(star) <= _edge_labels(ag)


def test_shape_conventions_small_graphs():
    one = invariants(build_AG(zmod(4)))  # single vertex
    assert {"star", "path_1", "tree"} <= one.shape
    assert one.diameter is None and one.connected
    two = invariants(build_AG(zmod(8)))  # one edge
    assert {"star", "path_2", "tree"} <= two.shape
    assert two.diameter == 1
    assert invariants(build_AG(zmod(6))).clique_number == 2


def test_isolated_self_annihilating_vertex():
    # in Z_4 over Z_4 the unique proper submodule squares to zero: a vertex
    # with no partner but itself
    g = build_AG(zmod(4))
    assert _labels(g) == ["⟨2⟩"]
    assert edges(g) == []


def _random_graph(rng, n, p):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def test_solvers_match_brute_force_on_random_graphs():
    rng = random.Random(1202)
    for _ in range(120):
        n = rng.randint(0, 9)
        adj = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        cl = brute_clique_number(adj, n)
        _assert_clique(adj, n, cl)
        ch = aggraph.chromatic_number(adj, cl)
        assert ch == brute_chromatic_number(adj, n)
        assert ch >= cl
        # any valid lower bound gives the same number
        assert aggraph.chromatic_number(adj, 1) == ch


def test_girth_matches_edge_removal_oracle():
    rng = random.Random(77)
    for _ in range(80):
        n = rng.randint(0, 8)
        adj = _random_graph(rng, n, 0.45)
        assert _traversals(_graph(adj))[0] == brute_girth(adj, n)


def test_graphs_match_pairwise_oracle(oracle_modules):
    # every corpus module, non-cyclic shape, decomposition part and
    # localization image: same vertices in the same order, same adjacency
    for m in oracle_modules:
        for star, build in ((False, build_AG), (True, build_AG_star)):
            verts, adj = brute_AG(m, star)
            g = build(m)
            assert [v.encoding for v in g.vertices] == [v.encoding for v in verts], (m, star)
            assert list(g.adj) == adj, (m, star)
            # each vertex keeps its colon class, and a class is a set of twins
            assert g.cls == tuple(v.cls for v in g.vertices), (m, star)
            first = {}
            for v, a in enumerate(g.cls):
                u = first.setdefault(a, v)
                assert adj[u] | 1 << u == adj[v] | 1 << v or adj[u] == adj[v], (m, star)


def test_membership_is_the_vertex_list(oracle_modules):
    # x in g agrees with the vertex list and with the pairwise oracle on
    # every member, and a member of another module, even an equal one, is
    # never a vertex
    vertices = 0
    for m in oracle_modules:
        twin = Module(m.ring, m.factors)
        for star, build in ((False, build_AG), (True, build_AG_star)):
            g = build(m)
            listed, scanned = set(g.vertices), set(brute_AG(m, star)[0])
            for s, t in zip(m.lattice().all, twin.lattice().all):
                assert (s in g) == (s in listed) == (s in scanned), (m, star, s)
                assert t not in g, (m, star, t)
            vertices += len(listed)
    assert vertices > 1000


def test_ag_star_shares_the_zero_product_table_of_ag(monkeypatch):
    # once AG is built, AG* reads the module's classes and zero-product
    # table and asks the module for nothing else, not even its annihilator
    shapes = NON_CYCLIC + [([12], [(12, 0)]), ([2, 4], [(2, 0), (4, 1)])]
    expected = [build_AG_star(Module(Ring(r), f)) for r, f in shapes]
    modules = [Module(Ring(r), f) for r, f in shapes]
    for m in modules:
        build_AG(m)

    def unread(self):
        raise AssertionError("AG* read the annihilator")

    monkeypatch.setattr(Module, "annihilator", unread)
    for m, want in zip(modules, expected):
        g = build_AG_star(m)
        assert [v.id for v in g.vertices] == [v.id for v in want.vertices], m
        assert g.adj == want.adj and g.cls == want.cls, m


def test_vertex_ids_increase_in_index_order(oracle_modules):
    # vertices come in lattice order, so the report's edge pairs, listed in
    # index order, are already sorted by id
    for m in oracle_modules:
        for g in (build_AG(m), build_AG_star(m)):
            ids = [v.id for v in g.vertices]
            assert all(a < b for a, b in zip(ids, ids[1:])), (m, g.kind)


def _graph(kills, cls=None):
    """A graph on the classes ``cls`` of its vertices with the class table
    ``kills``; without ``cls`` each vertex is its own class, so ``kills``
    is the adjacency.  It has no module to read its vertices from, so the
    vertex classes are set in place of the ones a lattice would give."""
    cls = tuple(range(len(kills)) if cls is None else cls)
    g = aggraph.AnnGraph(None, "AG", tuple(sorted(Counter(cls).items())), tuple(kills))
    g.__dict__["cls"] = cls
    return g


def _traversals(g):
    """(girth, diameter) as ``invariants`` reads them off the searches of
    the quotient graph, without running the solvers."""
    q, first, _, _ = aggraph._quotient(g.sizes, g.kills)
    searches = [aggraph._search(q, v) for v in first]
    return aggraph._girth(searches), aggraph._diameter(searches)


def _assert_traversals_match(adj, g=None):
    """The traversals of g, by default the graph of singleton classes on
    ``adj``, against the oracles on its full adjacency ``adj``."""
    g = _graph(adj) if g is None else g
    assert g.adj == tuple(adj), adj
    n = len(adj)
    assert _traversals(g) == (brute_girth(adj, n), brute_diameter(adj, n)), adj


def test_traversals_match_oracles_on_random_graphs():
    rng = random.Random(4040)
    for _ in range(150):
        n = rng.randint(0, 40)
        _assert_traversals_match(_random_graph(rng, n, rng.choice([0.04, 0.08, 0.15, 0.4])))


def _blow_up(rng, k, most=5, linked=None):
    """A random graph on k classes, each class blown up to 1-most twins of
    one another and the vertices shuffled.  Class a is a clique of true
    twins when (a, a) is linked, else a stable set of false twins.  Returns
    the adjacency, the class of each vertex and the linked pairs a <= b,
    drawn at random unless given."""
    if linked is None:
        linked = {(a, b) for a in range(k) for b in range(a, k) if rng.random() < 0.4}
    cls = [a for a in range(k) for _ in range(rng.randint(1, most))]
    rng.shuffle(cls)
    adj = [0] * len(cls)
    for u, a in enumerate(cls):
        for v, b in enumerate(cls):
            if u != v and (min(a, b), max(a, b)) in linked:
                adj[u] |= 1 << v
    return adj, cls, linked


def _kills(k, linked):
    """The class table of a blow-up: bit b of entry a is set iff the pair
    of a and b is linked."""
    kills = [0] * k
    for a, b in linked:
        kills[a] |= 1 << b
        kills[b] |= 1 << a
    return kills


def test_traversals_match_oracles_on_twin_blow_ups():
    rng = random.Random(515)
    for _ in range(150):
        # the quotient keeps up to 3 twins of a class and searches once per class
        k = rng.randint(1, 6)
        adj, cls, linked = _blow_up(rng, k)
        _assert_traversals_match(adj, _graph(_kills(k, linked), cls))


def test_invariants_match_full_graph_oracle(oracle_modules):
    # the quotient engine against the solvers and a search from every vertex
    # on the whole graph, for AG and AG* of every oracle module
    for m in oracle_modules:
        for g in (build_AG(m), build_AG_star(m)):
            assert invariants(g) == brute_invariants(g), (m, g.kind)


def test_graphs_of_one_type_share_one_report():
    # Z_pq over itself has one type for all primes p < q, so AG of Z_119
    # and Z_6 reads the report of Z_77; Z_70, with three primes, does not
    info = aggraph.type_invariants.cache_info
    first = invariants(build_AG(zmod(77)))
    hits, misses = info().hits, info().misses
    for n in (119, 6):
        assert invariants(build_AG(zmod(n))) is first, n
    assert (info().hits, info().misses) == (hits + 2, misses)
    assert invariants(build_AG(zmod(70))).clique_number == 3
    assert (info().hits, info().misses) == (hits + 2, misses + 1)


def test_graphs_built_with_lists_have_the_report_of_tuples():
    # the type is keyed by tuples of the graph's fields, so a graph built
    # with lists reads the same report instead of raising on the key
    for r, f in NON_CYCLIC:
        m = Module(Ring(r), f)
        for g in (build_AG(m), build_AG_star(m)):
            listed = aggraph.AnnGraph(m, g.kind, list(g.sizes), list(g.kills))
            assert invariants(listed) is invariants(g), (m, g.kind)
            assert invariants(listed) == brute_invariants(g), (m, g.kind)


def test_graphs_of_one_type_have_one_oracle_report(oracle_modules):
    # the fact the type cache rests on, checked with the full-graph oracle
    # and not with the cache: graphs of equal (sizes, kills) have equal
    # invariants, whatever their modules
    reports, repeats = {}, 0
    for m in oracle_modules:
        for g in (build_AG(m), build_AG_star(m)):
            want = brute_invariants(g)
            seen = reports.setdefault((g.sizes, g.kills), want)
            repeats += seen is not want
            assert seen == want, (m, g.kind)
    assert repeats > len(reports)


def test_graphs_and_invariants_need_no_lattice(oracle_modules, monkeypatch):
    # AG, AG* and their invariants come from the class table and the
    # zero-product table: with the lattice and the Hermite listing of its
    # members refused, they count the classes of the graphs read off the
    # lattice, and their invariants are those of the full graphs
    modules = oracle_modules + [zmod(n) for n in range(2, 513)]
    fresh = [Module(m.ring, m.factors) for m in modules]

    def refused(*args):
        raise AssertionError("the lattice was enumerated")

    with monkeypatch.context() as patch:
        patch.setattr(Module, "_hermite_sums", refused)
        patch.setattr(Lattice, "__init__", refused)
        graphs = [(build_AG(m), build_AG_star(m)) for m in fresh]
        reports = [(invariants(ag), invariants(star)) for ag, star in graphs]
    for m, pair, report in zip(modules, graphs, reports):
        for g, inv, want in zip(pair, report, (build_AG(m), build_AG_star(m))):
            assert g.sizes == tuple(sorted(Counter(want.cls).items())), (m, g.kind)
            assert g.n == len(g.vertices) and g.cls == want.cls, (m, g.kind)
            assert inv == brute_invariants(want), (m, g.kind)


def test_graphs_past_the_caps_raise_as_the_lattice_would(monkeypatch):
    # with no lattice built, both builders refuse what enumerating refuses,
    # with its message and limit, and fast; F_2^8 has far more than 4096
    # subspaces
    shapes = [([1024], [(1024, 0)]), ([2], [(2, 0)] * 8)]
    expected = []
    for ring, factors in shapes:
        with pytest.raises(ResourceLimitError) as err:
            Module(Ring(ring), factors).lattice()
        expected.append((str(err.value), err.value.limit))
    assert expected == [
        ("module has 1024 elements, above the cap of 512", 512),
        ("more than 4096 submodules (lattice cap)", 4096),
    ]

    def refused(*args):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(Lattice, "__init__", refused)
    for build in (build_AG, build_AG_star):
        for (ring, factors), want in zip(shapes, expected):
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError) as err:
                build(Module(Ring(ring), factors))
            assert time.perf_counter() - start < 2
            assert (str(err.value), err.value.limit) == want
    assert build_AG(zmod(12)).n == 4
    # a module's own cap holds for its graphs as for its lattice
    for build in (build_AG, build_AG_star):
        with pytest.raises(ResourceLimitError) as err:
            build(Module(Ring([12]), [(12, 0)], cap=3))
        assert (str(err.value), err.value.limit) == ("more than 3 submodules (lattice cap)", 3)


def test_self_killing_classes_kill_each_other(oracle_modules):
    # the precondition of the quotient's clique and chromatic numbers, on
    # every zero-product table
    for m in oracle_modules:
        kills = m.kills()
        loops = [a for a, row in enumerate(kills) if row >> a & 1]
        assert all(kills[a] >> b & 1 for a in loops for b in loops), m


def test_invariants_match_full_graph_oracle_on_twin_blow_ups():
    # blow-ups whose self-linked classes are pairwise linked, as in a
    # zero-product table; the quotient cuts self-linked classes of more than
    # max(3, h) members and stable classes of more than 3
    rng = random.Random(2727)
    cut_loops = cut_stable = 0
    for _ in range(200):
        k = rng.randint(1, 6)
        loops = {a for a in range(k) if rng.random() < 0.5}
        linked = {
            (a, b) for a in range(k) for b in range(a, k)
            if a in loops and b in loops or a != b and rng.random() < 0.4
        }
        adj, cls, linked = _blow_up(rng, k, most=9, linked=linked)
        g = _graph(_kills(k, linked), cls)
        assert g.adj == tuple(adj)
        assert invariants(g) == brute_invariants(g), (cls, sorted(linked))
        h = k - len(loops)
        cut_loops += any(cls.count(a) > max(3, h) for a in loops)
        cut_stable += any(cls.count(a) > 3 for a in range(k) if a not in loops)
    assert cut_loops >= 50 and cut_stable >= 50, (cut_loops, cut_stable)


def test_quotient_keeps_self_killing_classes_up_to_h():
    # h pairwise linked stable singletons and a self-killing class of s
    # members, linked to none or one of them: ω = χ = max(h, s) or
    # max(h, s + 1), and cutting the class below h would count its dropped
    # members on top of the stable clique
    for h in range(4, 7):
        for s in range(1, h + 3):
            for extra in (set(), {(0, h)}):
                linked = {(a, b) for a in range(h) for b in range(a + 1, h)} | {(h, h)} | extra
                g = _graph(_kills(h + 1, linked), list(range(h)) + [h] * s)
                inv = invariants(g)
                assert inv == brute_invariants(g), (h, s, extra)
                assert inv.clique_number == inv.chromatic_number == max(h, s + len(extra))


def test_dense_module_in_closed_form(monkeypatch):
    # AG(F_2^6) is K_2824: the 2823 proper nonzero subspaces have colon (0)
    # and kill every subspace, and F_2^6 kills the proper ones.  AG* is
    # empty, since every proper subspace has the annihilator as its colon.
    m = Module(Ring([2]), [(2, 0)] * 6)
    g = build_AG(m)
    sizes = []
    solver = aggraph.chromatic_number

    def chromatic_number(adj, lower):
        sizes.append(len(adj))
        return solver(adj, lower)

    monkeypatch.setattr(aggraph, "chromatic_number", chromatic_number)
    inv = invariants(g)
    assert g.n == 2824 and sizes == [4]  # three proper subspaces and F_2^6
    assert inv.clique_number == inv.chromatic_number == 2824
    assert inv.girth == 3 and inv.diameter == 1 and inv.connected
    assert inv.shape == frozenset({"complete", "regular", "cycle_present"})
    assert inv.degree_sequence == (2823,) * 2824
    star = build_AG_star(m)
    assert star.n == 0 and invariants(star).shape == frozenset({"empty"})


def _excl_pivot_nodes(adj, n):
    """The nodes of ``max_clique``'s search whose pivot lies in excl, by a
    recursive replay of its bound, pivot rule and branching order."""
    best = hits = 0

    def expand(size, cand, excl):
        nonlocal best, hits
        if not cand and not excl:
            best = max(best, size)
            return
        count = cand.bit_count()
        if size + count <= best:
            return
        pool = [v for v in range(n) if (cand | excl) >> v & 1]
        degs = [(cand & adj[v]).bit_count() for v in pool]
        enough = [v for v, d in zip(pool, degs) if d >= count - 1]
        pivot = enough[0] if enough else pool[degs.index(max(degs))]
        hits += excl >> pivot & 1
        for v in range(n):
            if (cand & ~adj[pivot]) >> v & 1:
                expand(size + 1, cand & adj[v], excl & adj[v])
                cand &= ~(1 << v)
                excl |= 1 << v

    expand(0, (1 << n) - 1, 0)
    return hits


def _assert_clique(adj, n, expected):
    size, witness = aggraph.max_clique(adj)
    assert size == expected, adj
    assert witness.bit_count() == size
    members = [v for v in range(n) if witness >> v & 1]
    assert all(adj[a] >> b & 1 for a in members for b in members if a != b), adj


def test_clique_matches_weighted_quotient_on_twin_blow_ups():
    # up to 8 classes of up to 12 twins: up to 96 vertices, past the reach of
    # the subset oracle; a clique takes all of a true-twin class and at most
    # one vertex of a false-twin class
    rng = random.Random(1919)
    excl_pivots = 0
    for _ in range(200):
        k = rng.randint(1, 8)
        adj, cls, linked = _blow_up(rng, k, most=12)
        sizes = [cls.count(a) for a in range(k)]
        _assert_clique(adj, len(adj), blow_up_clique_number(k, linked, sizes))
        excl_pivots += _excl_pivot_nodes(adj, len(adj)) > 0
    # the search takes a pivot from excl on a fifth of these graphs
    assert excl_pivots >= 20
    for n in range(1, 41):
        full = (1 << n) - 1
        complete = [full & ~(1 << v) for v in range(n)]
        assert aggraph.max_clique(complete) == (n, full)


def test_traversals_on_degenerate_graphs():
    # empty, one vertex, two isolated vertices, one edge, three isolated
    for adj in ([], [0], [0, 0], [2, 1], [0, 0, 0]):
        _assert_traversals_match(adj)


def test_traversals_on_cycles():
    for n in range(3, 31):
        adj = [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)]
        _assert_traversals_match(adj)
        assert _traversals(_graph(adj)) == (n, n // 2)


def test_solvers_have_no_recursion_limit():
    n = 1200
    full = (1 << n) - 1
    complete = [full & ~(1 << v) for v in range(n)]
    assert aggraph.max_clique(complete) == (n, full)
    # crown graph listed a1, b1, a2, b2, ...: a_i ~ b_j iff i != j; greedy
    # needs n/2 colours, the search finds 2 at depth n
    evens = sum(1 << v for v in range(0, n, 2))
    crown = [
        (full ^ evens if v % 2 == 0 else evens) & ~(1 << (v ^ 1)) for v in range(n)
    ]
    assert aggraph.chromatic_number(crown, 2) == 2


def test_chromatic_at_least_clique_on_corpus(corpus_analyses):
    for a in corpus_analyses[:80]:
        inv = a.inv
        assert inv.chromatic_number >= inv.clique_number
        if inv.bipartite:
            assert inv.girth is None or inv.girth % 2 == 0


def test_bipartite_matches_bipartition_enumeration():
    # bipartite iff some 2-part split has no internal edges
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(0, 9)
        adj = _random_graph(rng, n, 0.4)
        g = _graph(adj)
        brute = any(
            all(
                (split >> i & 1) != (split >> j & 1)
                for i in range(n)
                for j in range(i + 1, n)
                if adj[i] >> j & 1
            )
            for split in range(1 << n)
        ) or n == 0
        assert aggraph.invariants(g).bipartite == brute


def test_to_dot_z6():
    assert _dot(build_AG(zmod(6))) == (
        "graph AG {\n"
        '  v0 [label="⟨2⟩"];\n'
        '  v1 [label="⟨3⟩"];\n'
        "  v0 -- v1;\n"
        "}\n"
    )


def test_dot_matches_the_per_vertex_writer(oracle_modules):
    # to_dot reads each row off its colon class's neighbour list, the oracle
    # off the vertex's own adjacency mask
    for m in oracle_modules:
        for g in (build_AG(m), build_AG_star(m)):
            buf = io.StringIO()
            brute_dot(g, buf.write)
            assert _dot(g) == buf.getvalue(), (m, g.kind)


def test_edge_rows_reference_one_list_of_tails_per_class(oracle_modules):
    # a row given the positions as tails lists its neighbours' positions;
    # given other tails, it holds the very objects at those positions: the
    # per-class lists reference the tails and copy none.  Z_4^2+Z_2^2 has
    # three AG classes
    modules = list(oracle_modules) + [Module(Ring([4]), [(4, 0), (4, 0), (2, 0), (2, 0)])]
    for m in modules:
        for g in (build_AG(m), build_AG_star(m)):
            order = range(g.n)[::-1]
            tails = [object() for _ in order]
            rows = zip(aggraph.later_neighbors(g, order, tails),
                       aggraph.later_neighbors(g, order, range(g.n)))
            for row, positions in rows:
                assert len(row) == len(positions), (m, g.kind)
                assert all(map(operator.is_, row, map(tails.__getitem__, positions))), (m, g.kind)


def test_to_dot_empty_and_deterministic():
    assert _dot(build_AG(zmod(5))) == "graph AG {\n}\n"
    m = zmod(12)
    text = _dot(build_AG(m))
    assert text == _dot(build_AG(zmod(12)))
    assert text.count("--") == 3 and text.count("label=") == 4
