import math
import random
import sys
import threading
from itertools import combinations

import pytest

from sierpack.errors import GraphTooLargeError, NotATreeError
from sierpack.graphs import (Balls, Graph, complete, corona, diameter,
                             distances, free_trees, independence_number,
                             is_connected, is_tree, path, random_tree,
                             reachable, star,
                             tree_canonical_form, tree_centers, tree_iso_map,
                             tree_isomorphic, two_packing_number)
from sierpack.product import VertexMap, sierpinski_product

INF = math.inf


def test_graph_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])


def _dist(balls, u, v):
    # the least r whose ball around u holds v; INF when none does
    return next((r for r in range(len(balls.adj))
                 if balls.within(r)[u] >> v & 1), INF)


def _members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def test_distances_examples():
    assert _dist(distances(path(4)), 0, 3) == 3
    balls = distances(complete(5))
    assert all(_dist(balls, u, v) == 1
               for u in range(5) for v in range(5) if u != v)
    two_edges = distances(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert _dist(two_edges, 0, 2) == INF
    assert not any(two_edges.within(r)[0] >> 2 & 1 for r in range(5))
    assert two_edges.within(100)[0] == 0b11


def test_balls_grow_only_to_the_radius_asked_for():
    balls = Balls(path(50))  # not the cached object, whose rows may have grown
    assert balls.within(2)[10] == 0b11111 << 8
    assert len(balls.ball) == 3
    assert balls.diameter == 49 and len(balls.ball) == 3
    assert balls.within(1000) == balls.within(49)
    assert len(balls.ball) == 50


def test_diameter_keeps_no_rows():
    g = path(400)
    rows = len(distances(g).ball)
    assert diameter(g) == 399
    assert len(distances(g).ball) == rows


def _from_threads(call, count=4):
    # start count threads running call together; never more than four
    barrier = threading.Barrier(count)

    def run():
        barrier.wait()
        call()
    threads = [threading.Thread(target=run) for _ in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_balls_grown_from_concurrent_threads_stay_right():
    # threads growing the same shared rows must not stop the growth early
    for _ in range(20):
        balls = Balls(path(2000))
        _from_threads(lambda: balls.within(30))
        assert balls.within(30)[0] == (1 << 31) - 1
        assert len(balls.ball) == 31
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            balls = Balls(path(60))
            seen = []

            def both():
                balls.within(40)
                seen.append(balls.diameter)
            _from_threads(both)
            assert seen == [59] * 4
            assert balls.within(100)[0] == (1 << 60) - 1
            assert len(balls.ball) == 60
    finally:
        sys.setswitchinterval(old)


def test_triangle_inequality_random():
    # as ball composition: the ball of radius t around any vertex of the ball
    # of radius r around u lies inside the ball of radius r + t around u
    rng = random.Random(1)
    for _ in range(25):
        balls = distances(random_tree(rng.randint(2, 12), rng))
        radii = range(len(balls.adj) + 1)
        for u in range(len(balls.adj)):
            for r in radii:
                for w in _members(balls.within(r)[u]):
                    for t in radii:
                        assert balls.within(t)[w] & ~balls.within(r + t)[u] == 0


def test_diameter_examples():
    f = VertexMap.parse("5 4: 1 3 3 0 2")
    prod = sierpinski_product(complete(5), complete(4), f)
    assert diameter(prod.graph) == 3
    assert diameter(complete(1)) == 0
    assert diameter(Graph.from_edges(4, [(0, 1), (2, 3)])) == INF


def _double_sweep(g):
    # independent diameter lower bound: farthest-from-farthest BFS; exact on
    # the instances it is cross-checked against here
    balls = distances(g)
    far = max(range(g.order), key=lambda v: _dist(balls, 0, v))
    return max(_dist(balls, far, v) for v in range(g.order))


def test_diameter_against_double_sweep_on_k2_products():
    for img in [(a, b) for a in range(3) for b in range(3)]:
        prod = sierpinski_product(complete(2), complete(3),
                                  VertexMap(2, 3, img))
        assert diameter(prod.graph) == _double_sweep(prod.graph) == 3


def test_independence_number_examples():
    assert independence_number(complete(6)) == 1
    assert independence_number(path(5)) == 3


def test_independence_number_matches_subset_search():
    f = VertexMap.constant(3, 4, 0)
    prod = sierpinski_product(complete(3), complete(4), f)
    g = prod.graph
    best = 0
    for r in range(g.order + 1):
        if any(all(not g.has_edge(u, v) for u, v in combinations(sub, 2))
               for sub in combinations(range(g.order), r)):
            best = r
    assert best == 3
    assert independence_number(g) == 3


def test_two_packing_examples():
    for img in [(0, 1, 2), (0, 0, 0), (3, 1, 0)]:
        prod = sierpinski_product(complete(3), complete(4),
                                  VertexMap(3, 4, img))
        assert two_packing_number(prod.graph) == 3
    assert two_packing_number(complete(5)) == 1
    assert two_packing_number(star(6)) == 1


def test_alpha_at_least_alpha2():
    rng = random.Random(2)
    for _ in range(30):
        g = random_tree(rng.randint(2, 14), rng)
        assert independence_number(g) >= two_packing_number(g)


def test_exact_search_bound():
    with pytest.raises(GraphTooLargeError):
        independence_number(path(41))
    assert independence_number(path(41), max_order=50) == 21


def test_is_tree():
    assert is_tree(path(7))
    assert not is_tree(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    rng = random.Random(3)
    for _ in range(20):
        t1 = random_tree(rng.randint(2, 6), rng)
        t2 = random_tree(rng.randint(2, 6), rng)
        f = VertexMap(t1.order, t2.order,
                      tuple(rng.randrange(t2.order) for _ in range(t1.order)))
        prod = sierpinski_product(t1, t2, f)
        assert prod.graph.size == t1.order * t2.order - 1
        assert is_tree(prod.graph)


def test_tree_isomorphic_examples():
    assert tree_isomorphic(path(5), path(5))
    assert not tree_isomorphic(star(4), path(5))
    with pytest.raises(NotATreeError):
        tree_isomorphic(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), path(3))


def test_tree_isomorphic_under_relabeling():
    rng = random.Random(4)
    for _ in range(100):
        t = random_tree(rng.randint(1, 12), rng)
        assert tree_isomorphic(t, t)
        perm = list(range(t.order))
        rng.shuffle(perm)
        assert tree_isomorphic(t, t.relabel(perm))


def test_tree_iso_map_is_an_isomorphism():
    rng = random.Random(5)
    for _ in range(30):
        t = random_tree(rng.randint(2, 10), rng)
        perm = list(range(t.order))
        rng.shuffle(perm)
        other = t.relabel(perm)
        m = tree_iso_map(t, other)
        assert m is not None
        for u, v in t.edges():
            assert other.has_edge(m[u], m[v])


def test_corona_contracts():
    g = corona(path(2), 2)
    assert g.order == 6 and g.size == 5
    g = corona(path(3), 3)
    assert g.order == 12
    for v in range(3):
        pendants = [u for u in g.adj[v] if g.degree(u) == 1 and u >= 3]
        assert len(pendants) == 3
    assert tree_isomorphic(corona(path(1), 4), star(4))
    with pytest.raises(ValueError):
        corona(path(2), 0)


def test_generators():
    s = star(3)
    assert s.order == 4 and all(s.has_edge(0, i) for i in (1, 2, 3))
    assert path(1).order == 1 and path(1).size == 0
    assert complete(3).size == 3
    with pytest.raises(ValueError):
        path(0)


def test_canonical_form_separates_small_trees():
    forms = {tree_canonical_form(t) for t in (path(4), star(3))}
    assert len(forms) == 2


def _random_graph(n, p, rng):
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                if rng.random() < p])


def test_is_connected_agrees_with_balls():
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        g = _random_graph(rng.randint(1, 12), rng.choice((0.1, 0.2, 0.4)), rng)
        expected = distances(g).connected
        assert is_connected(g) == expected
        seen.add(expected)
    assert seen == {True, False}


def _reference_bfs(g, source):
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for w in g.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def test_balls_match_reference_bfs():
    rng = random.Random(14)
    seen = set()
    for _ in range(300):
        g = _random_graph(rng.randint(1, 12), rng.choice((0.1, 0.2, 0.4)), rng)
        balls = distances(g)
        dist = [_reference_bfs(g, v) for v in range(g.order)]
        ecc = max(max(d.values()) for d in dist)
        for r in range(ecc + 3):
            for v in range(g.order):
                assert _members(balls.within(r)[v]) == \
                    sorted(u for u, d in dist[v].items() if d <= r)
        assert len(balls.ball) == ecc + 1
        connected = all(len(d) == g.order for d in dist)
        assert balls.connected == connected
        assert balls.diameter == (ecc if connected else INF)
        seen.add(connected)
    assert seen == {True, False}


def test_reachable_in_bfs_order():
    assert reachable(path(5), 2) == [2, 1, 3, 0, 4]
    cycle = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert reachable(cycle) == [0, 1, 3, 2]
    assert reachable(Graph.from_edges(3, [(1, 2)])) == [0]


def _reference_canon(g, root, parent=-1):
    # the recursive encoding the iterative one must reproduce exactly
    return "(" + "".join(sorted(_reference_canon(g, c, root)
                                for c in g.adj[root] if c != parent)) + ")"


def _reference_form(g):
    return min(_reference_canon(g, c) for c in tree_centers(g))


def test_canonical_form_matches_recursive_reference():
    for n in range(1, 10):
        for t in free_trees(n):
            assert tree_canonical_form(t) == _reference_form(t)
    rng = random.Random(12)
    for _ in range(100):
        t = random_tree(rng.randint(1, 60), rng)
        assert tree_canonical_form(t) == _reference_form(t)


def test_free_tree_counts():
    # OEIS A000055
    assert [len(free_trees(n)) for n in range(1, 10)] == \
        [1, 1, 1, 2, 3, 6, 11, 23, 47]


def test_isomorphism_agrees_with_canonical_form():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 9)
        t1, t2 = random_tree(n, rng), random_tree(n, rng)
        same = tree_canonical_form(t1) == tree_canonical_form(t2)
        assert tree_isomorphic(t1, t2) == same
        m = tree_iso_map(t1, t2)
        assert (m is not None) == same
        if m is not None:
            assert sorted(m.values()) == list(range(n))
            assert all(t2.has_edge(m[u], m[v]) for u, v in t1.edges())
