import random
from itertools import product as iproduct

import pytest

from sierpack import product
from sierpack.coloring import chi_rho_exact
from sierpack.errors import (EnumerationBudgetExceeded, FactorMismatchError,
                             InputFormatError, SearchBudgetExceeded)
from sierpack.graphs import (DEFAULT_EXACT_SEARCH_BOUND, Graph, complete,
                             diameter, path, random_tree, star,
                             tree_isomorphic)
from sierpack.product import (EdgeKind, VertexMap, automorphisms,
                              enumerate_maps, sierpinski_chi,
                              sierpinski_product)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis comes with the test extra
    given = None

FIG1_MAP = VertexMap.parse("5 4: 1 3 3 0 2")


def test_vertex_map_text_roundtrip():
    assert FIG1_MAP.image == (1, 3, 3, 0, 2)
    assert VertexMap.parse(FIG1_MAP.to_text()) == FIG1_MAP
    with pytest.raises(InputFormatError):
        VertexMap.parse("2 2: 0")
    with pytest.raises(InputFormatError):
        VertexMap.parse("junk")
    with pytest.raises(InputFormatError):
        VertexMap.parse("2 2: 0 5")


def test_figure_instance_counts():
    prod = sierpinski_product(complete(5), complete(4), FIG1_MAP)
    assert prod.graph.order == 20
    assert prod.graph.size == 40
    assert len(prod.connecting) == 10
    assert diameter(prod.graph) == 3


def test_dimension_mismatch():
    with pytest.raises(FactorMismatchError):
        sierpinski_product(complete(3), complete(4), VertexMap(2, 4, (0, 1)))


def test_k2_by_k2_is_p4():
    for img in iproduct(range(2), repeat=2):
        prod = sierpinski_product(complete(2), complete(2),
                                  VertexMap(2, 2, img))
        assert tree_isomorphic(prod.graph, path(4))


def test_direct_rule_construction_agrees():
    # rebuild P3 (x) P3 under the constant map straight from the two edge
    # rules and compare adjacency
    f = VertexMap.constant(3, 3, 0)
    prod = sierpinski_product(path(3), path(3), f)
    n = 3
    edges = set()
    for g in range(3):
        for (a, b) in path(3).edges():
            edges.add((g * n + a, g * n + b))
    for (g1, g2) in path(3).edges():
        u, v = g1 * n + f(g2), g2 * n + f(g1)
        edges.add((min(u, v), max(u, v)))
    assert set(prod.graph.edges()) == edges
    assert prod.graph.size == 8 and prod.graph.order == 9


def _stored_connecting(g, h, f):
    # oracle: each base edge's connecting edge built straight from the
    # edge rule, independent of ProductGraph.connecting
    nh = h.order
    connecting = []
    for (g1, g2) in g.edges():
        u = g1 * nh + f(g2)
        v = g2 * nh + f(g1)
        e = (u, v) if u < v else (v, u)
        connecting.append((e, (g1, g2)))
    return tuple(connecting)


def _random_connected(n, rng):
    # a random tree plus each other pair with probability 1/3
    edges = set(random_tree(n, rng).edges())
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in edges and rng.random() < 1 / 3}
    return Graph.from_edges(n, edges)


def test_connecting_edge_counts():
    for n in (2, 3, 5):
        prod = sierpinski_product(complete(2), complete(n),
                                  VertexMap.constant(2, n, 0))
        assert len(prod.connecting) == 1
    prod = sierpinski_product(path(4), path(3), VertexMap.constant(4, 3, 1))
    assert len(prod.connecting) == 3
    for edge, base_edge in prod.connecting:
        assert prod.edge_kind(*edge) is EdgeKind.TYPE2
        assert base_edge in set(path(4).edges())
    rng = random.Random(73)
    for _ in range(100):
        g, h = (rng.choice((random_tree, _random_connected))(
            rng.randint(1, 6), rng) for _ in range(2))
        f = VertexMap(g.order, h.order,
                      tuple(rng.randrange(h.order) for _ in range(g.order)))
        prod = sierpinski_product(g, h, f)
        oracle = _stored_connecting(g, h, f)
        assert prod.connecting == oracle
        type2 = {e for e, _ in oracle}
        kinds = [prod.edge_kind(u, v) for u, v in prod.graph.edges()]
        assert kinds == [EdgeKind.TYPE2 if e in type2 else EdgeKind.TYPE1
                         for e in prod.graph.edges()]
        assert kinds.count(EdgeKind.TYPE2) == g.size
        non_edges = [(u, v) for u in range(prod.graph.order)
                     for v in range(prod.graph.order)
                     if not prod.graph.has_edge(u, v)]
        u, v = rng.choice(non_edges)
        with pytest.raises(ValueError):
            prod.edge_kind(u, v)


def test_fibers_are_copies_of_the_fiber_graph():
    rng = random.Random(21)
    for _ in range(15):
        g = random_tree(rng.randint(2, 5), rng)
        h = random_tree(rng.randint(1, 5), rng)
        f = VertexMap(g.order, h.order,
                      tuple(rng.randrange(h.order) for _ in range(g.order)))
        prod = sierpinski_product(g, h, f)
        assert prod.graph.order == g.order * h.order
        assert prod.graph.size == g.order * h.size + g.size
        type2 = {e for e, _ in prod.connecting}
        for gv in range(g.order):
            seen = set()
            for u, v in prod.graph.edges():
                if (u, v) in type2:
                    continue
                if prod.base_of(u) == gv:
                    assert prod.base_of(v) == gv
                    seen.add((prod.fiber_of(u), prod.fiber_of(v)))
            assert seen == set(h.edges())
        for gv in range(g.order):
            incident = sum(1 for e, _ in prod.connecting
                           if prod.base_of(e[0]) == gv or prod.base_of(e[1]) == gv)
            assert incident <= g.degree(gv) and incident == g.degree(gv)


def _iso_under_bijection(g1, g2, bij):
    return all(g2.has_edge(bij[u], bij[v]) for u, v in g1.edges()) \
        and g1.size == g2.size


def test_factor_automorphisms_give_isomorphic_products():
    rng = random.Random(22)
    for g, h in [(complete(3), path(3)), (path(4), star(3)),
                 (star(3), complete(3))]:
        f = VertexMap(g.order, h.order,
                      tuple(rng.randrange(h.order) for _ in range(g.order)))
        prod = sierpinski_product(g, h, f)
        for sigma in automorphisms(h):
            f2 = VertexMap(g.order, h.order,
                           tuple(sigma[f(v)] for v in range(g.order)))
            prod2 = sierpinski_product(g, h, f2)
            bij = {prod.vertex_of(gv, hv): prod2.vertex_of(gv, sigma[hv])
                   for gv in range(g.order) for hv in range(h.order)}
            assert _iso_under_bijection(prod.graph, prod2.graph, bij)
        for pi in automorphisms(g):
            inv = [0] * g.order
            for v in range(g.order):
                inv[pi[v]] = v
            f2 = VertexMap(g.order, h.order,
                           tuple(f(inv[v]) for v in range(g.order)))
            prod2 = sierpinski_product(g, h, f2)
            bij = {prod.vertex_of(gv, hv): prod2.vertex_of(pi[gv], hv)
                   for gv in range(g.order) for hv in range(h.order)}
            assert _iso_under_bijection(prod.graph, prod2.graph, bij)


def test_automorphism_groups():
    assert len(automorphisms(complete(4))) == 24
    assert len(automorphisms(path(4))) == 2
    assert len(automorphisms(path(1500))) == 2  # deeper than the recursion limit
    assert len(automorphisms(star(3))) == 6
    bull = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])
    assert len(automorphisms(bull)) == 2


def _recursive_automorphisms(g):
    """The recursive search automorphisms replaced, kept as an oracle."""
    n = g.order
    deg = [g.degree(v) for v in range(n)]
    out = []
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            ok = True
            for u in range(v):
                if g.has_edge(u, v) != g.has_edge(image[u], w):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
                image[v] = -1

    extend(0)
    return out


def test_automorphisms_match_the_recursive_search():
    rng = random.Random(23)
    graphs = [make(n) for make in (complete, path, star) for n in range(1, 6)]
    graphs += [path(n) for n in range(6, 9)]
    for _ in range(300):
        n = rng.randint(1, 7)
        graphs.append(Graph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < rng.choice((0.2, 0.5, 0.8))]))
    for g in graphs:
        assert automorphisms(g) == _recursive_automorphisms(g)


def test_enumerate_counts_and_order():
    maps = list(enumerate_maps(complete(2), complete(2)))
    assert len(maps) == 4
    assert [m.image for m in maps] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sum(1 for _ in enumerate_maps(complete(3), complete(3))) == 27
    with pytest.raises(EnumerationBudgetExceeded):
        list(enumerate_maps(complete(10), complete(10), enum_bound=1000))


def test_reduction_hits_every_isomorphism_class():
    # all 27 maps fall into three product-isomorphism classes (sizes
    # 3/18/6, every value 5); the reduced enumeration emits exactly one
    # representative for each
    reps = list(enumerate_maps(complete(3), complete(3), reduce_symmetry=True))
    assert [r.image for r in reps] == [(0, 0, 0), (0, 0, 1), (0, 1, 2)]
    rep_values = sorted(
        chi_rho_exact(sierpinski_product(complete(3), complete(3), f).graph)[0]
        for f in reps)
    all_values = sorted(
        chi_rho_exact(sierpinski_product(complete(3), complete(3), f).graph)[0]
        for f in enumerate_maps(complete(3), complete(3)))
    assert rep_values == [5, 5, 5]
    assert set(all_values) == set(rep_values)


def test_reduction_preserves_min_and_max():
    for g, h in [(complete(3), complete(3)), (path(3), path(3)),
                 (star(3), complete(3))]:
        for mode in ("min", "max"):
            full = sierpinski_chi(g, h, mode)
            red = sierpinski_chi(g, h, mode, reduce_symmetry=True)
            assert full.value == red.value
            assert red.explored <= full.explored


def test_sierpinski_chi_examples():
    assert sierpinski_chi(complete(3), complete(3), "min").value == 5
    assert sierpinski_chi(complete(3), complete(4), "max").value == 8
    assert sierpinski_chi(complete(4), complete(3), "max").value == 7


def test_sierpinski_chi_partial_on_budget():
    result = sierpinski_chi(complete(3), complete(3), "max", node_budget=3)
    assert not result.complete
    assert result.explored == 0


# ---------------------------------------------------------------------------
# the screened optimizer against a plain loop over every map

CYCLE4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
FACTORS = [complete(2), complete(3), path(3), path(4), star(3), CYCLE4, PAW]
BUDGETS = (3, 10, 30, 100, 300, 1000)


def _reference_chi(g, h, mode, reduce_symmetry=False, node_budget=None):
    """chi_rho_exact on every map, keeping the first strict improvement;
    for two complete factors of order >= 3 the min stops at the floor
    mn - 2m + 2.  Returns (value, witness image, witness colors, explored,
    complete)."""
    m, n = g.order, h.order
    both_complete = m >= 3 and n >= 3 and g.size == m * (m - 1) // 2 \
        and h.size == n * (n - 1) // 2
    floor = m * n - 2 * m + 2 if mode == "min" and both_complete else None
    best = best_map = best_col = None
    explored = 0
    try:
        for f in enumerate_maps(g, h, reduce_symmetry):
            value, col = chi_rho_exact(sierpinski_product(g, h, f).graph,
                                       node_budget=node_budget)
            explored += 1
            if best is None or (value < best if mode == "min"
                                else value > best):
                best, best_map, best_col = value, f.image, col.colors
            if best == floor:
                break
    except SearchBudgetExceeded:
        return best, best_map, best_col, explored, False
    return best, best_map, best_col, explored, True


def _summary(result):
    return (result.value,
            None if result.witness_map is None else result.witness_map.image,
            None if result.witness_coloring is None
            else result.witness_coloring.colors,
            result.explored, result.complete)


@pytest.mark.parametrize("mode", ["min", "max"])
@pytest.mark.parametrize("reduce_symmetry", [False, True])
def test_sierpinski_chi_matches_reference_loop(mode, reduce_symmetry):
    for g in FACTORS:
        for h in FACTORS:
            got = sierpinski_chi(g, h, mode, reduce_symmetry=reduce_symmetry)
            want = _reference_chi(g, h, mode, reduce_symmetry)
            assert _summary(got) == want, (g, h)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_budget_never_loses_ground(mode):
    # every screen call is a call the plain loop makes with the same
    # per-call budget, so the screened run gets at least as far
    for g in FACTORS[1:]:
        for h in FACTORS[1:]:
            for budget in BUDGETS:
                got = _summary(sierpinski_chi(g, h, mode,
                                              reduce_symmetry=True,
                                              node_budget=budget))
                want = _reference_chi(g, h, mode, reduce_symmetry=True,
                                      node_budget=budget)
                if want[4]:
                    assert got == want, (g, h, budget)
                assert got[3] >= want[3], (g, h, budget)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_screen_never_decides_above_chi_rho(monkeypatch, mode):
    # SAT far above chi_rho is heavy-tailed, so the screen must only ever
    # decide a prefix of the ascending search, even when the best so far
    # is far from the map's value
    seen = []
    decide = product.chi_rho_decision

    def recording(x, k, **kwargs):
        seen.append((x, k))
        return decide(x, k, **kwargs)

    monkeypatch.setattr(product, "chi_rho_decision", recording)
    result = sierpinski_chi(star(4), star(4), mode, reduce_symmetry=True)
    assert result.complete and seen
    for f in list(enumerate_maps(star(4), star(4), reduce_symmetry=True))[:8]:
        x = sierpinski_product(star(4), star(4), f).graph
        far = chi_rho_exact(x)[0] + 3
        assert (product._improvement(x, mode, far, None,
                                     DEFAULT_EXACT_SEARCH_BOUND)
                is not None) == (mode == "min")
    for x, k in seen:
        assert k <= chi_rho_exact(x)[0]


if given is not None:
    @st.composite
    def _connected_graphs(draw):
        n = draw(st.integers(1, 4))
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        for u in range(n):
            for v in range(u + 1, n):
                if draw(st.booleans()):
                    edges.add((u, v))
        return Graph.from_edges(n, sorted(edges))

    @settings(max_examples=30, deadline=None)
    @given(g=_connected_graphs(), h=_connected_graphs(),
           mode=st.sampled_from(["min", "max"]),
           reduce_symmetry=st.booleans())
    def test_sierpinski_chi_matches_reference_on_random_factors(
            g, h, mode, reduce_symmetry):
        got = sierpinski_chi(g, h, mode, reduce_symmetry=reduce_symmetry)
        assert _summary(got) == _reference_chi(g, h, mode, reduce_symmetry)
