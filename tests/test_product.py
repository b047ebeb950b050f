import random
from itertools import combinations, groupby, permutations, product as iproduct

import pytest

from sierpack import coloring, product
from sierpack.coloring import chi_rho_exact, chi_rho_lower_bound
from sierpack.errors import (EnumerationBudgetExceeded, FactorMismatchError,
                             InputFormatError, SearchBudgetExceeded)
from sierpack.families import complete_pair_value
from sierpack.graphs import (Graph, complete, diameter, distances, path,
                             random_tree, star, tree_isomorphic)
from sierpack.product import (VertexMap, automorphisms, enumerate_maps,
                              map_count, sierpinski_chi, sierpinski_product)

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
    for (u, v), base_edge in prod.connecting:
        assert prod.graph.has_edge(u, v)
        assert (prod.base_of(u), prod.base_of(v)) == base_edge
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
        crossing = {(u, v) for u, v in prod.graph.edges()
                    if prod.base_of(u) != prod.base_of(v)}
        assert crossing == type2 and len(crossing) == g.size


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
    assert automorphisms(complete(5), 7) == automorphisms(complete(5))[:7]
    assert automorphisms(path(4), 5) == automorphisms(path(4))


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


def test_map_count_stops_at_the_bound():
    for m, n, bound in ((3, 30, 27000), (3, 30, 26999), (20, 2, 2 ** 20),
                        (21, 2, 2 ** 21 - 1), (10 ** 11, 1, 1), (5, 0, 1)):
        assert map_count(m, n, bound) == (n ** m if n ** m <= bound
                                          else None)
    # 2^(10^11) would take gigabytes; it is never formed
    assert map_count(10 ** 11, 2, product.DEFAULT_ENUM_BOUND) is None


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


def _closed_form_floor(g, h):
    # mn - 2m + 2 for two complete factors of order >= 3, else None
    m, n = g.order, h.order
    if m >= 3 and n >= 3 and g.size == m * (m - 1) // 2 \
            and h.size == n * (n - 1) // 2:
        return m * n - 2 * m + 2
    return None


def _reference_floor(g, h, node_budget=None):
    """The min-run floor, computed apart from the library: the closed form
    for two complete factors; else, with w the largest clique of g by brute
    force and 2 <= w < n(g), the min over K_w x H by a plain loop of
    chi_rho_exact(x, below=best) over the orbit representatives, stopping
    at that pair's closed form; None if the loop runs out of budget."""
    floor = _closed_form_floor(g, h)
    if floor is not None:
        return floor
    edges = set(g.edges())
    omega = max(len(c) for r in range(1, g.order + 1)
                for c in combinations(range(g.order), r)
                if all(e in edges for e in combinations(c, 2)))
    if not 2 <= omega < g.order:
        return None
    k = complete(omega)
    stop = _closed_form_floor(k, h)
    best = None
    try:
        for f in enumerate_maps(k, h, reduce_symmetry=True):
            solved = chi_rho_exact(sierpinski_product(k, h, f).graph,
                                   below=best, node_budget=node_budget)
            if solved is not None:
                best = solved[0]
            if best == stop:
                break
    except SearchBudgetExceeded:
        return None
    return best


def _reference_chi(g, h, mode, reduce_symmetry=False, node_budget=None,
                   floor=True):
    """chi_rho_exact on every map, keeping the first strict improvement;
    with floor, the min stops at _reference_floor.  Returns (value,
    witness image, witness colors, explored, complete)."""
    stop = _reference_floor(g, h, node_budget) \
        if mode == "min" and floor else None
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
            if best == stop:
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


@pytest.mark.parametrize("mode, reduce_symmetry", [
    pytest.param(mode, reduce_symmetry,
                 id=mode if reduce_symmetry else f"{mode}-unreduced")
    for reduce_symmetry in (True, False) for mode in ("min", "max")])
def test_budget_never_loses_ground(mode, reduce_symmetry):
    # every screen call is a call the plain loop makes with the same
    # per-call budget, and a map skipped for its orbit makes none, so the
    # screened run gets at least as far
    for g in FACTORS[1:]:
        for h in FACTORS[1:]:
            for budget in BUDGETS:
                got = _summary(sierpinski_chi(g, h, mode,
                                              reduce_symmetry=reduce_symmetry,
                                              node_budget=budget))
                want = _reference_chi(g, h, mode,
                                      reduce_symmetry=reduce_symmetry,
                                      node_budget=budget)
                if want[4]:
                    assert got == want, (g, h, budget)
                assert got[3] >= want[3], (g, h, budget)


@pytest.mark.parametrize("mode", ["min", "max"])
def test_unreduced_run_builds_only_orbit_representatives(monkeypatch, mode):
    # a map whose orbit's lexmin came earlier is settled without a
    # product, so an unreduced run builds the products the reduced run
    # builds, in the same order; a min floor's sub-run over K_w x H builds
    # products of its own pair, left out here
    built = []
    build = product.sierpinski_product

    def recording(g, h, f):
        built.append((g, h, f.image))
        return build(g, h, f)

    monkeypatch.setattr(product, "sierpinski_product", recording)
    for g in FACTORS:
        for h in FACTORS:
            reps = {f.image for f in enumerate_maps(g, h,
                                                    reduce_symmetry=True)}
            built.clear()
            full = sierpinski_chi(g, h, mode)
            full_built = [f for x, y, f in built if (x, y) == (g, h)]
            built.clear()
            red = sierpinski_chi(g, h, mode, reduce_symmetry=True)
            red_built = [f for x, y, f in built if (x, y) == (g, h)]
            assert set(full_built) <= reps, (g, h)
            assert full_built == red_built, (g, h)
            assert _summary(full)[:3] == _summary(red)[:3], (g, h)


def _lex_rank(image, n):
    # the number of maps before image in lex order: image in base n
    return int("".join(map(str, image)), n)


def test_unreduced_run_reports_its_lex_prefix(monkeypatch):
    # without reduce_symmetry explored is the length of the settled lex
    # prefix: up to the map whose screen ran out of budget, or through the
    # map that reached the floor, or every map
    built = []
    build = product.sierpinski_product

    def recording(g, h, f):
        built.append((g, h, f.image))
        return build(g, h, f)

    monkeypatch.setattr(product, "sierpinski_product", recording)
    partial = 0
    for g in FACTORS[1:]:
        for h in FACTORS[1:]:
            for mode in ("min", "max"):
                for budget in BUDGETS:
                    built.clear()
                    got = sierpinski_chi(g, h, mode, node_budget=budget)
                    last = [f for x, y, f in built if (x, y) == (g, h)][-1]
                    rank = _lex_rank(last, h.order)
                    if not got.complete:
                        partial += 1
                        assert got.explored == rank, (g, h, mode, budget)
                    elif got.explored != h.order ** g.order:
                        assert mode == "min"
                        assert got.value == _reference_floor(g, h, budget)
                        assert got.explored == rank + 1, (g, h, budget)
    assert partial > 0  # the budgets cut some runs short


# ---------------------------------------------------------------------------
# min-run floors: the closed form or the min over K_w x H

DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def test_min_floor_bounds_the_walk_that_never_stops():
    # the floor is at most the minimum over every map, and stopping at it
    # keeps the value, witness map and witness coloring of the full walk
    factors = FACTORS + [star(4), path(5), DIAMOND]
    for g in factors:
        for h in factors:
            walk = _reference_chi(g, h, "min", reduce_symmetry=True,
                                  floor=False)
            floor = product._min_floor(g, h)
            assert floor is None or floor <= walk[0], (g, h)
            for reduce_symmetry in (False, True):
                got = sierpinski_chi(g, h, "min",
                                     reduce_symmetry=reduce_symmetry)
                assert got.complete, (g, h)
                assert _summary(got)[:3] == walk[:3], (g, h)


@pytest.mark.parametrize("g, h, explored", [
    (path(6), path(6), 211),   # 11,772 representatives without a floor
    (star(5), star(5), 12),    # 63 without a floor
], ids=["P6xP6", "S5xS5"])
def test_min_run_stops_at_the_clique_floor(g, h, explored):
    # the min over K2 x H is 3, which these runs reach early
    assert product._min_floor(g, h) == 3
    result = sierpinski_chi(g, h, "min", reduce_symmetry=True)
    assert result.complete and result.value == 3
    assert result.explored == explored


def test_floor_sub_run_out_of_budget_gives_no_floor():
    # with 75 nodes per search the K3 x C4 sub-run runs out where the first
    # PAW x C4 map does not: the run then goes on past that map, which
    # attains the floor, and runs out where the walk with no floor does
    g, h = PAW, CYCLE4
    assert product._min_floor(g, h) == 5
    assert product._min_floor(g, h, node_budget=75) is None
    assert sierpinski_chi(g, h, "min", reduce_symmetry=True).explored == 1
    got = sierpinski_chi(g, h, "min", reduce_symmetry=True, node_budget=75)
    assert _summary(got) == _reference_chi(g, h, "min", reduce_symmetry=True,
                                           node_budget=75, floor=False)
    assert got.explored == 2 and not got.complete
    # every K2 x K4 product has diameter 3, so each map of the sub-run is
    # one joint packing search of 5 nodes, and 20 nodes are enough
    assert product._min_floor(path(3), complete(4), node_budget=20) == 6


def test_reduced_maps_are_the_orbit_minima():
    # the orbits of f -> sigma o f o pi by brute force, with both groups
    # taken from every permutation that keeps the edge set
    def group(x):
        edges = set(x.edges())
        return [p for p in permutations(range(x.order))
                if {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges]

    for g in FACTORS:
        for h in FACTORS:
            auts_g, auts_h = group(g), group(h)
            minima = {min(tuple(sigma[f[v]] for v in pi)
                          for pi in auts_g for sigma in auts_h)
                      for f in iproduct(range(h.order), repeat=g.order)}
            got = [f.image for f in enumerate_maps(g, h,
                                                   reduce_symmetry=True)]
            assert got == sorted(minima), (g, h)


def test_unreduced_complete_pair_max():
    # 3125 maps in 7 orbits; solving every map would take minutes
    result = sierpinski_chi(complete(5), complete(5), "max")
    assert result.complete and result.explored == 3125
    assert result.value == complete_pair_value(5, 5, "max").value


def test_unreduced_path_complete_max_matches_reduced():
    full = sierpinski_chi(path(4), complete(4), "max")
    red = sierpinski_chi(path(4), complete(4), "max", reduce_symmetry=True)
    assert full.complete and full.explored == 256
    assert (full.value, full.witness_map) == (red.value, red.witness_map)


def test_orbit_test_cuts_a_huge_group_to_the_map_count(monkeypatch):
    # K12 has 12! automorphisms but K2 x K12 only 144 maps; building the
    # whole group would take hours and gigabytes
    found = []
    search = product.automorphisms

    def bounded(g, limit=None):
        assert limit is not None and limit <= 144
        auts = search(g, limit)
        found.append(len(auts))
        return auts

    monkeypatch.setattr(product, "automorphisms", bounded)
    for mode in ("min", "max"):
        for reduce_symmetry in (False, True):
            result = sierpinski_chi(complete(2), complete(12), mode,
                                    reduce_symmetry=reduce_symmetry)
            # 2n - 2: colors 1 and 2 twice across the bridge, every
            # other color once
            assert result.complete and result.value == 22
            assert result.explored <= 144
    assert max(found) == 144


def test_template_products_match_the_edge_rule():
    # products are patched from a per-pair template of fiber copies and not
    # re-validated, so each must equal the graph the two edge rules give
    # when built and validated from scratch
    for g in FACTORS:
        for h in FACTORS:
            nh = h.order
            fibers = [(gv * nh + a, gv * nh + b)
                      for gv in range(g.order) for a, b in h.edges()]
            for f in enumerate_maps(g, h):
                x = sierpinski_product(g, h, f).graph
                want = Graph.from_edges(
                    g.order * nh,
                    fibers + [(g1 * nh + f(g2), g2 * nh + f(g1))
                              for g1, g2 in g.edges()])
                assert x == want and hash(x) == hash(want), (g, h, f)
                assert x.adj == want.adj
                assert distances(x) is distances(want)


def _orbit_minimal(image, auts_g, auts_h):
    """The orbit filter the marks replaced, kept as an oracle: whether no
    sigma o f o pi (pi in auts_g, sigma in auts_h) has a lexicographically
    smaller image than f."""
    for pi in auts_g:
        moved = tuple(image[v] for v in pi)
        for sigma in auts_h:
            if tuple(map(sigma.__getitem__, moved)) < image:
                return False
    return True


def _filtered_maps(g, h):
    total = h.order ** g.order
    auts = automorphisms(g, total), automorphisms(h, total)
    images = list(iproduct(range(h.order), repeat=g.order))
    return images[:1] + [f for f in images[1:] if _orbit_minimal(f, *auts)]


def test_orbit_marks_match_the_lexmin_filter():
    # no group here is cut, so marking each yielded map's orbit leaves
    # exactly the orbit minima the filter passes, in the same order
    pairs = [(g, h) for g in FACTORS for h in FACTORS]
    pairs += [(star(5), star(3)), (complete(4), star(3)),
              (star(3), complete(4))]
    for g, h in pairs:
        total = h.order ** g.order
        assert len(automorphisms(g)) <= total
        assert len(automorphisms(h)) <= total
        got = [f.image for f in enumerate_maps(g, h, reduce_symmetry=True)]
        assert got == _filtered_maps(g, h), (g, h)


def test_orbit_marks_with_a_cut_group():
    # K12's group is cut to its first 144 automorphisms: every map left out
    # is still an image of an earlier yielded map under the cut lists, and
    # the answer is the unreduced walk's
    g, h = complete(2), complete(12)
    auts_g, auts_h = automorphisms(g, 144), automorphisms(h, 144)
    yielded = [f.image for f in enumerate_maps(g, h, reduce_symmetry=True)]
    reached = set()
    for f in iproduct(range(12), repeat=2):
        if yielded and f == yielded[0]:
            yielded.pop(0)
            reached |= {tuple(sigma[f[v]] for v in pi)
                        for pi in auts_g for sigma in auts_h}
        else:
            assert f in reached, f
    assert not yielded
    for mode in ("min", "max"):
        red = sierpinski_chi(g, h, mode, reduce_symmetry=True)
        full = sierpinski_chi(g, h, mode)
        assert red.complete and red.explored <= 144
        assert _summary(red)[:3] == _summary(full)[:3]
        assert _summary(red)[:3] == _reference_chi(g, h, mode)[:3]


@pytest.mark.parametrize("mode", ["min", "max"])
def test_screen_never_decides_above_chi_rho(monkeypatch, mode):
    # SAT far above chi_rho is heavy-tailed, so a run must only ever
    # decide a prefix of the ascending search, even when the best so far
    # is far from the map's value
    seen = []
    decide = coloring.chi_rho_decision

    def recording(x, k, **kwargs):
        seen.append((x, k))
        return decide(x, k, **kwargs)

    monkeypatch.setattr(coloring, "chi_rho_decision", recording)
    result = sierpinski_chi(star(4), star(4), mode, reduce_symmetry=True)
    monkeypatch.undo()
    assert result.complete and seen
    for f in list(enumerate_maps(star(4), star(4), reduce_symmetry=True))[:8]:
        x = sierpinski_product(star(4), star(4), f).graph
        far = chi_rho_exact(x)[0] + 3
        if mode == "min":
            assert chi_rho_exact(x, below=far) is not None
        else:
            assert chi_rho_exact(x)[0] <= far
    for x, k in seen:
        assert k <= chi_rho_exact(x)[0]
    # each map's decisions run consecutively up from its lower bound
    for x, calls in groupby(seen, key=lambda call: call[0]):
        ks = [k for _, k in calls]
        start = chi_rho_lower_bound(x)
        assert ks == list(range(start, start + len(ks)))


@pytest.mark.parametrize("g, h, value, most", [
    (path(5), path(5), 5, 200),   # 1,085 decisions without the pool
    (star(4), star(4), 6, 10),    # 73 without the pool
    (path(5), path(5), 5, 40),    # 190 without evictions
], ids=["P5xP5", "S4xS4", "P5xP5-evictions"])
def test_max_screen_repairs_witnesses_before_deciding(monkeypatch, g, h,
                                                      value, most):
    # a repaired witness coloring with at most best colors settles a map
    # with no decision, so most maps of a max run cost no search
    seen = []
    decide = coloring.chi_rho_decision

    def recording(x, k, **kwargs):
        seen.append(k)
        return decide(x, k, **kwargs)

    monkeypatch.setattr(coloring, "chi_rho_decision", recording)
    result = sierpinski_chi(g, h, "max")
    assert result.complete and result.value == value
    assert result.explored == h.order ** g.order
    assert len(seen) <= most


def test_max_run_solves_and_repairs_are_pinned(monkeypatch):
    # unreduced P5 x P5 max: (solves, repairs, failed repairs), as counted
    # when repair_coloring still fetched each ball row on its first use
    counts = [0, 0, 0]
    repair, exact = product.repair_coloring, product.chi_rho_exact

    def repairing(*args, **kwargs):
        got = repair(*args, **kwargs)
        counts[1] += 1
        counts[2] += got is None
        return got

    def solving(*args, **kwargs):
        counts[0] += 1
        return exact(*args, **kwargs)

    monkeypatch.setattr(product, "repair_coloring", repairing)
    monkeypatch.setattr(product, "chi_rho_exact", solving)
    result = sierpinski_chi(path(5), path(5), "max")
    assert result.complete and result.value == 5
    assert counts == [8, 912, 101]


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
