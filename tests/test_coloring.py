import math
import random
import sys

import pytest

from sierpack.coloring import (PackingColoring, chi_rho_decision,
                               chi_rho_exact, chi_rho_lower_bound,
                               chi_rho_naive, packing_capacity,
                               repair_coloring, verify_packing_coloring)
from sierpack.errors import (ColoringCoverageError, DisconnectedGraphError,
                             GraphTooLargeError, SearchBudgetExceeded)
from sierpack.graphs import (Graph, complete, corona, diameter, distances,
                             is_connected, max_packing, path, random_tree,
                             star)
from sierpack.product import VertexMap, sierpinski_product

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis comes with the test extra
    given = None


def test_verify_examples():
    p4 = path(4)
    assert verify_packing_coloring(p4, PackingColoring([1, 2, 1, 3])).ok
    res = verify_packing_coloring(p4, PackingColoring([1, 2, 1, 2]))
    assert not res.ok and res.violation == (1, 3, 2)


def _bitmask_verify(g, c):
    # the verifier that read the solver's distance balls, kept as the
    # reference: (ok, violation) with the same first-triple contract
    balls = distances(g)
    by_color = {}
    for v, col in enumerate(c.colors):
        by_color[col] = by_color.get(col, 0) | 1 << v
    for col in sorted(by_color):
        members = by_color[col]
        near = balls.within(col)
        while members:
            u = (members & -members).bit_length() - 1
            members &= members - 1
            hit = near[u] & members
            if hit:
                return False, (u, (hit & -hit).bit_length() - 1, col)
    return True, None


def test_verify_matches_the_bitmask_verifier():
    rng = random.Random(21)
    seen = set()
    for _ in range(3000):
        n = rng.randint(1, 14)
        p = rng.choice((0.1, 0.2, 0.35, 0.6))
        g = Graph.from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p])
        c = PackingColoring(
            rng.randint(1, rng.randint(1, 6)) for _ in range(n))
        res = verify_packing_coloring(g, c)
        assert (res.ok, res.violation) == _bitmask_verify(g, c), (g, c)
        seen.add((res.ok, is_connected(g)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_verify_and_diameter_read_no_distance_balls(monkeypatch):
    g = corona(path(9), 2)
    witness = chi_rho_exact(g)[1]  # solved while the balls are still there

    def no_balls(g):
        raise AssertionError("distance balls read")
    monkeypatch.setattr("sierpack.graphs.distances", no_balls)
    monkeypatch.setattr("sierpack.coloring.distances", no_balls)
    assert verify_packing_coloring(g, witness).ok
    bad = PackingColoring([1] * g.order)
    assert verify_packing_coloring(g, bad).violation == (0, 1, 1)
    assert diameter(g) == 10
    assert diameter(Graph.from_edges(4, [(0, 1), (2, 3)])) == math.inf


def test_verify_coverage_mismatch():
    with pytest.raises(ColoringCoverageError):
        verify_packing_coloring(path(4), PackingColoring([1, 2, 1]))


def test_coloring_type_invariants():
    with pytest.raises(ValueError):
        PackingColoring((1, 0))
    with pytest.raises(ValueError):
        PackingColoring([])
    c = PackingColoring([1, 3, 2])
    assert c == PackingColoring((1, 3, 2)) and c.colors == (1, 3, 2)
    assert c.k == 3


def test_printed_figure_coloring_verifies():
    # the published 14-by-3 path-by-star figure, colors as printed
    from sierpack.families import FAMILIES
    f = FAMILIES["path-star"].min_map(14, 3)
    prod = sierpinski_product(path(14), star(3), f)
    colors = []
    for i in range(1, 15):
        colors.extend([3 if i % 4 == 1 else 2, 1, 1, 1])
    for base, leaf in ((3, 1), (7, 2), (11, 1)):
        colors[(base - 1) * 4 + leaf] = 3
    assert verify_packing_coloring(prod.graph,
                                   PackingColoring(colors)).ok


def test_decision_examples():
    assert chi_rho_decision(path(4), 2) is None
    witness = chi_rho_decision(path(4), 3)
    assert witness is not None
    assert verify_packing_coloring(path(4), witness).ok
    assert chi_rho_decision(corona(path(5), 2), 4) is None


def test_decision_rejects_bad_inputs():
    with pytest.raises(GraphTooLargeError):
        chi_rho_decision(path(41), 3)
    with pytest.raises(DisconnectedGraphError):
        chi_rho_decision(Graph.from_edges(4, [(0, 1), (2, 3)]), 3)


def test_order_is_checked_before_any_balls_are_built(monkeypatch):
    def no_balls(g):
        raise AssertionError("distance balls built")
    monkeypatch.setattr("sierpack.coloring.distances", no_balls)
    with pytest.raises(GraphTooLargeError, match="exact-search bound 40"):
        chi_rho_exact(path(100))
    with pytest.raises(GraphTooLargeError, match="exact-search bound 40"):
        chi_rho_decision(path(100), 3)


def test_connectivity_is_checked_before_any_class_capacity(monkeypatch):
    # alpha_c of two disjoint C26 takes about a minute, so a disconnected
    # graph must be rejected before any class capacity is computed
    def no_capacity(g, c, max_order):
        raise AssertionError("class capacity computed")
    monkeypatch.setattr("sierpack.coloring.max_packing", no_capacity)
    two_cycles = Graph.from_edges(8, [(c + v, c + (v + 1) % 4)
                                      for c in (0, 4) for v in range(4)])
    with pytest.raises(DisconnectedGraphError):
        chi_rho_exact(two_cycles)


def test_exact_below_decides_only_smaller_k():
    assert chi_rho_exact(complete(5), below=5) is None
    assert chi_rho_exact(complete(5), below=6)[0] == 5
    assert chi_rho_exact(path(1)) == (1, PackingColoring((1,)))


def test_decision_takes_orders_past_the_recursion_limit():
    # the decision search keeps one frame per colored vertex on an explicit
    # stack, and the joint packing search one per vertex packed, so only
    # max_order bounds them: K_{2,1000}'s joint search packs 1001 vertices
    n = sys.getrecursionlimit() + 100
    assert chi_rho_exact(path(n), max_order=n)[0] == 3
    k2 = Graph.from_edges(1002, [(a, b) for a in (0, 1)
                                 for b in range(2, 1002)])
    value, witness = chi_rho_exact(k2, max_order=1002)
    assert value == 3 and verify_packing_coloring(k2, witness).ok
    with pytest.raises(GraphTooLargeError, match="exceeds exact-search"):
        chi_rho_decision(path(n + 1), 3, max_order=n)


def test_searches_answer_under_a_deep_caller():
    # a caller already 300 frames deep under a limit of 1000 gets answers
    # from both searches on 850 vertices: neither uses a frame per vertex
    def deep(frames, call):
        return call() if frames == 0 else deep(frames - 1, call)

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        witness = deep(300, lambda: chi_rho_decision(path(850), 3,
                                                     max_order=900))
        alpha = deep(300, lambda: max_packing(Graph.from_edges(850, []), 1,
                                              max_order=900))
    finally:
        sys.setrecursionlimit(old)
    assert witness is not None and verify_packing_coloring(path(850),
                                                           witness).ok
    assert alpha == 850


def _s5_s5(image):
    return sierpinski_product(star(5), star(5), VertexMap(6, 6, image)).graph


def _tree40():
    base = Graph.from_edges(5, [(0, 3), (1, 2), (2, 3), (3, 4)])
    fiber = Graph.from_edges(8, [(0, 3), (1, 2), (1, 5), (2, 3), (2, 4),
                                 (2, 6), (3, 7)])
    return sierpinski_product(base, fiber,
                              VertexMap(5, 8, (3, 0, 7, 2, 4))).graph


@pytest.mark.parametrize("build, k, nodes, sat", [
    (lambda: _s5_s5((0, 1, 1, 1, 1, 1)), 6, 447, False),
    (lambda: _s5_s5((0, 0, 0, 0, 0, 0)), 6, 1_067, False),
    (_tree40, 5, 40, True),
    (lambda: corona(path(11), 2), 4, 78, False),
    (lambda: corona(path(11), 2), 5, 242, True),
], ids=["s5s5-01111", "s5s5-00000", "tree40", "corona11-k4", "corona11-k5"])
def test_decision_search_tree_is_pinned(build, k, nodes, sat):
    # the exact node count of each search: a budget of that many passes
    # and one fewer does not, so any change to the branching shows here
    g = build()
    witness = chi_rho_decision(g, k, node_budget=nodes)
    assert (witness is not None) == sat
    if sat:
        assert witness.k <= k and verify_packing_coloring(g, witness).ok
    with pytest.raises(SearchBudgetExceeded):
        chi_rho_decision(g, k, node_budget=nodes - 1)


def test_budget_is_distinct_from_unsat():
    with pytest.raises(SearchBudgetExceeded):
        chi_rho_decision(corona(path(6), 2), 4, node_budget=5)


def test_joint_packing_search_counts_against_the_node_budget():
    # K3 (x) K3 has diameter 3: its joint packing search takes 7 branches,
    # the root included, and no decision is made
    g = sierpinski_product(complete(3), complete(3),
                           VertexMap.constant(3, 3, 0)).graph
    with pytest.raises(SearchBudgetExceeded) as info:
        chi_rho_exact(g, node_budget=6)
    assert info.value.nodes == 7
    assert chi_rho_exact(g, node_budget=7)[0] == 5
    # beta_2 of K5 (x)_id K5 is 10, found in 11 branches, and the value
    # 2 + 25 - 10 needs no decision
    g = sierpinski_product(complete(5), complete(5),
                           VertexMap(5, 5, tuple(range(5)))).graph
    with pytest.raises(SearchBudgetExceeded) as info:
        chi_rho_exact(g, node_budget=10)
    assert info.value.nodes == 11
    assert chi_rho_exact(g, node_budget=11)[0] == 17


def test_exact_examples():
    assert chi_rho_exact(complete(5))[0] == 5
    prod = sierpinski_product(complete(3), complete(4),
                              VertexMap.constant(3, 4, 0))
    assert chi_rho_exact(prod.graph)[0] == 8
    assert chi_rho_exact(path(1))[0] == 1


def test_exact_corona_p12():
    value, witness = chi_rho_exact(corona(path(12), 2),
                                   node_budget=50_000_000)
    assert value == 6
    assert verify_packing_coloring(corona(path(12), 2), witness).ok


def test_corona_p12_decisions_fit_a_small_budget():
    # with a static degree order the UNSAT decision at k = 5 needs about
    # 1,500,000 nodes and the SAT one at k = 6 over 2,000,000; choosing the
    # vertex with the fewest colors left settles both in a few thousand
    g = corona(path(12), 2)
    assert chi_rho_decision(g, 5, node_budget=20_000) is None
    witness = chi_rho_decision(g, 6, node_budget=20_000)
    assert witness is not None and witness.k <= 6
    assert verify_packing_coloring(g, witness).ok


def test_tree_product_sat_fits_a_small_budget():
    # order 40, chi_rho = 5: with ties broken by degree and colors tried
    # ascending the SAT decision at k = 5 takes 405,209 nodes; with ties
    # broken by the distance-2 ball and the largest color first, 40
    base = Graph.from_edges(5, [(0, 3), (1, 2), (2, 3), (3, 4)])
    fiber = Graph.from_edges(8, [(0, 3), (1, 2), (1, 5), (2, 3), (2, 4),
                                 (2, 6), (3, 7)])
    g = sierpinski_product(base, fiber, VertexMap(5, 8, (3, 0, 7, 2, 4))).graph
    witness = chi_rho_decision(g, 5, node_budget=2_000)
    assert witness is not None and witness.k <= 5
    assert verify_packing_coloring(g, witness).ok


@pytest.mark.parametrize("image, sat", [
    ((3, 5, 0, 4, 2, 5, 1, 3), False),  # 621,788 nodes with the old order
    ((0, 0, 0, 5, 4, 7, 4, 5), True),   # 879,920 nodes with the old order
])
def test_p8_p8_decisions_at_4_fit_a_small_budget(image, sat):
    g = sierpinski_product(path(8), path(8), VertexMap(8, 8, image)).graph
    witness = chi_rho_decision(g, 4, node_budget=2_000, max_order=64)
    if not sat:
        assert witness is None
    else:
        assert witness is not None and witness.k <= 4
        assert verify_packing_coloring(g, witness).ok


@pytest.mark.parametrize("n", [7, 8])
def test_complete_identity_products_past_the_order_cap(n):
    # K_n (x)_id K_n has order n^2, past the default cap for n = 7 and 8,
    # and diameter 3, so one joint packing search settles it, with the
    # mn - 2m + 2 colors of the complete-pair floor, and with no more than
    # 100 frames of stack past the caller's
    g = sierpinski_product(complete(n), complete(n),
                           VertexMap(n, n, tuple(range(n)))).graph
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        value, witness = chi_rho_exact(g, node_budget=1_000, max_order=64)
    finally:
        sys.setrecursionlimit(old)
    assert value == n * n - 2 * n + 2
    assert witness.k == value
    assert verify_packing_coloring(g, witness).ok


@pytest.mark.parametrize("image, budget", [
    ((0, 1, 1, 1, 1, 1), 2_000),  # 447 nodes; 6,604 without the room count
    ((0, 0, 0, 0, 0, 0), 5_000),  # 1,067 nodes; 16,428 without it
])
def test_s5_s5_unsat_at_6_needs_the_capacity_room_count(image, budget):
    # the capacity-room prune counts, per class, only the uncolored
    # vertices outside the balls of its members; counting every uncolored
    # vertex makes it fire only when the capacities sum below n, which the
    # root already rejects
    g = sierpinski_product(star(5), star(5), VertexMap(6, 6, image)).graph
    assert chi_rho_decision(g, 6, node_budget=budget) is None


def test_soundness_and_minimality():
    rng = random.Random(11)
    for _ in range(25):
        g = random_tree(rng.randint(2, 12), rng)
        value, witness = chi_rho_exact(g)
        assert verify_packing_coloring(g, witness).ok
        if value > 1:
            assert chi_rho_decision(g, value - 1) is None


def _greedy(g):
    """k of the degree-descending greedy: a repair from no colors."""
    return repair_coloring(g, (0,) * g.order, g.order).k


def test_greedy_examples_and_dominance():
    assert _greedy(complete(4)) == 4
    assert _greedy(path(2)) == 2
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(2, 14)
        edges = set(random_tree(n, rng).edges())
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.25:
                    edges.add((u, v))
        g = Graph.from_edges(n, sorted(edges))
        assert _greedy(g) >= chi_rho_exact(g)[0]


def test_capped_greedy_stops_above_the_cap():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 12)
        edges = set(random_tree(n, rng).edges())
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    edges.add((u, v))
        g = Graph.from_edges(n, sorted(edges))
        k = _greedy(g)
        for cap in range(1, n + 1):
            capped = repair_coloring(g, (0,) * n, cap)
            assert (capped and capped.k) == (k if k <= cap else None)


def _plain_greedy(g):
    """The degree-descending greedy with breadth-first distances: each
    vertex, by descending degree and then index, takes its least color c
    with no vertex of color c within distance c."""
    colors = {}
    for v in sorted(range(g.order), key=lambda v: (-g.degree(v), v)):
        dist, queue = {v: 0}, [v]
        for u in queue:
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        c = 1
        while any(colors.get(u) == c and d <= c for u, d in dist.items()):
            c += 1
        colors[v] = c
    return max(colors.values())


if given is not None:
    @st.composite
    def _graphs_and_starts(draw, max_order=12):
        """A connected graph of order <= max_order, a start coloring (0 for
        none, colors up to n + 1) and a cap in 1..n."""
        n = draw(st.integers(1, max_order))
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        for u in range(n):
            for v in range(u + 1, n):
                if draw(st.integers(0, 5)) == 0:
                    edges.add((u, v))
        g = Graph.from_edges(n, sorted(edges))
        start = draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n))
        return g, start, draw(st.integers(1, n))

    @settings(max_examples=200, deadline=None)
    @given(case=_graphs_and_starts())
    def test_repair_gives_valid_colorings_within_the_cap(case):
        g, start, cap = case
        repaired = repair_coloring(g, start, cap)
        if repaired is not None:
            assert verify_packing_coloring(g, repaired).ok
            assert repaired.k <= cap
        if min(start) > 0 and max(start) <= cap and verify_packing_coloring(
                g, PackingColoring(start)).ok:
            # a valid start is kept whole
            assert repaired.colors == tuple(start)
        empty = repair_coloring(g, (0,) * g.order, g.order)
        assert empty.k == _plain_greedy(g)

    @settings(max_examples=200, deadline=None)
    @given(case=_graphs_and_starts(16), evictions=st.integers(1, 40))
    def test_eviction_repair_is_valid_and_extends_the_plain_one(case,
                                                                evictions):
        # an eviction only happens where the plain repair gives up, so
        # wherever that one succeeds both return the same coloring
        g, start, cap = case
        repaired = repair_coloring(g, start, cap, evictions)
        if repaired is not None:
            assert verify_packing_coloring(g, repaired).ok
            assert repaired.k <= cap
        plain = repair_coloring(g, start, cap)
        if plain is not None:
            assert repaired == plain


def test_naive_agrees_on_small_graphs():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 7)
        edges = set(random_tree(n, rng).edges())
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    edges.add((u, v))
        g = Graph.from_edges(n, sorted(edges))
        assert chi_rho_exact(g)[0] == chi_rho_naive(g)[0]


def test_naive_takes_orders_past_the_recursion_limit():
    # its choices are its stack, and its balls reach only as far as k
    assert chi_rho_naive(path(1200))[0] == 3


def test_naive_reads_no_cached_balls(monkeypatch):
    # the naive solver is the independent check on the main one, so it
    # must not share the main solver's distance balls
    def no_balls(g):
        raise AssertionError("cached distance balls read")
    monkeypatch.setattr("sierpack.coloring.distances", no_balls)
    c5 = Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
    value, witness = chi_rho_naive(c5)
    assert value == 4 and witness.k == 4
    with pytest.raises(DisconnectedGraphError, match="chi_rho_naive requires"):
        chi_rho_naive(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_diameter_three_lower_bound_law():
    # any diameter-3 graph needs at least 2 + (n - alpha - alpha2) colors,
    # which on complete-by-complete products is mn - 2m + 2
    from sierpack.product import enumerate_maps
    for m in (3, 4):
        for n in (3, 4):
            for f in enumerate_maps(complete(m), complete(n)):
                g = sierpinski_product(complete(m), complete(n), f).graph
                assert diameter(g) == 3
                bound = 2 + (g.order - max_packing(g, 1)
                             - max_packing(g, 2))
                value = chi_rho_exact(g)[0]
                assert value >= bound
                assert value >= m * n - 2 * m + 2


def test_lower_bound_seed_is_valid():
    rng = random.Random(15)
    for _ in range(20):
        g = random_tree(rng.randint(2, 12), rng)
        assert chi_rho_lower_bound(g) <= chi_rho_exact(g)[0]


def test_clique_with_a_long_tail_is_solved_from_the_capacity_bound():
    # K5 with a path of 8 hanging off one vertex: the diameter is large, so
    # the capacity bound starts below the five colors the clique forces,
    # and the decisions below 5 are refuted within the node budget
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(4 + i, 5 + i) for i in range(8)]
    g = Graph.from_edges(13, edges)
    assert chi_rho_lower_bound(g) <= 5
    value, witness = chi_rho_exact(g, node_budget=1_000)
    assert value == 5 and verify_packing_coloring(g, witness).ok


def test_lower_bound_is_the_capacity_sum():
    # trees with a planted clique of 3 to 6 vertices: the clique often
    # beats the capacity bound, and the lower bound is that bound alone
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randint(4, 14)
        edges = set(random_tree(n, rng).edges())
        clique = sorted(rng.sample(range(n), rng.randint(3, min(n, 6))))
        edges.update((u, v) for i, u in enumerate(clique)
                     for v in clique[i + 1:])
        g = Graph.from_edges(n, sorted(edges))
        k, total = 0, 0
        while total < n:
            k += 1
            total += packing_capacity(g, k)
        assert chi_rho_lower_bound(g) == k
