import random
import sys
from contextlib import contextmanager

import pytest

from sierpack.families import path_path_min_map
from sierpack.graphs import (Graph, free_trees, path, random_tree, star,
                             tree_canonical_form, tree_iso_map,
                             tree_isomorphic, tree_preorder)
from sierpack.product import VertexMap, sierpinski_product
from sierpack.recognition import (PeelStep, PeelTrace, _PeelState, _peel,
                                  _rooting, pendant_split_edges,
                                  recognize_tree_product, reconstruct_map)


def test_pendant_split_examples():
    assert pendant_split_edges(path(6), 3) == [(2, 3)]
    prod = sierpinski_product(path(2), path(3), VertexMap.constant(2, 3, 0))
    edges = pendant_split_edges(prod.graph, 3)
    assert edges == [e for e, _ in prod.connecting]
    assert pendant_split_edges(star(5), 2) == []


def test_pendant_split_on_non_tree():
    # two triangles joined by one bridge: connected, but not a tree
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (0, 3)])
    with pytest.raises(ValueError):
        pendant_split_edges(g, 3)
    with pytest.raises(ValueError):
        pendant_split_edges(Graph.from_edges(4, [(0, 1), (2, 3)]), 2)


def test_recognize_p4():
    out = recognize_tree_product(path(4))
    assert out.status == "factored"
    fact = out.factorizations[0]
    assert fact.base.order == 2 and fact.fiber.order == 2
    rebuilt = sierpinski_product(fact.base, fact.fiber, fact.vmap)
    assert tree_isomorphic(rebuilt.graph, path(4))


def test_recognize_rejections():
    out = recognize_tree_product(star(11))  # order 12, no valid peel
    assert out.status == "not_a_product"
    assert len(out.diagnostics) == 4
    assert recognize_tree_product(path(7)).status == "not_a_product"
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert recognize_tree_product(c4).status == "not_a_product"


def test_roundtrip_random_products():
    rng = random.Random(41)
    for _ in range(40):
        n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
        t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
        f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
        prod = sierpinski_product(t1, t2, f)
        out = recognize_tree_product(prod.graph)
        assert out.status == "factored"
        for fact in out.factorizations:
            rebuilt = sierpinski_product(fact.base, fact.fiber, fact.vmap)
            assert tree_isomorphic(rebuilt.graph, prod.graph)


def test_reconstruct_map_roundtrips():
    cases = [
        (path(2), path(2), VertexMap(2, 2, (1, 0))),
        (path(4), path(3), VertexMap.constant(4, 3, 1)),
        (star(3), path(2), VertexMap(4, 2, (0, 1, 1, 0))),
    ]
    for t1, t2, f in cases:
        prod = sierpinski_product(t1, t2, f)
        out = recognize_tree_product(prod.graph)
        assert out.status == "factored"
        fact = out.factorizations[0]
        # reconstruct_map is what produced fact.vmap; replay it and rebuild
        vmap = reconstruct_map(fact.peel_trace, fact.base, fact.fiber)
        rebuilt = sierpinski_product(fact.base, fact.fiber, vmap)
        assert tree_isomorphic(rebuilt.graph, prod.graph)


def test_pendant_connecting_edge_characterization():
    # the completeness lemma: in a product in any vertex order, the edges
    # with a side of the fiber's order are exactly the connecting edges of
    # the base tree's pendant edges, each such side is a leaf's whole fiber
    # (both sides when n1 = 2), and greedy peeling only ever peels fibers
    rng = random.Random(42)
    for _ in range(100):
        n1, n2 = rng.randint(2, 7), rng.randint(2, 7)
        t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
        f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
        prod = sierpinski_product(t1, t2, f)
        perm = list(range(prod.graph.order))
        rng.shuffle(perm)
        x = prod.graph.relabel(perm)
        fibers = [frozenset(perm[prod.vertex_of(g, h)] for h in range(n2))
                  for g in range(n1)]
        leaf_fibers = {fibers[g] for g in range(n1) if t1.degree(g) == 1}
        expected = {frozenset((perm[u], perm[v]))
                    for (u, v), (g1, g2) in prod.connecting
                    if t1.degree(g1) == 1 or t1.degree(g2) == 1}
        split = pendant_split_edges(x, n2)
        assert {frozenset(e) for e in split} == expected
        for edge in split:
            sides = [frozenset(c) for c in _components_minus_edge(x, edge)
                     if len(c) == n2]
            assert len(sides) == (2 if n1 == 2 else 1)
            assert all(side in leaf_fibers for side in sides)
        state = _PeelState(_rooting(x), n2)
        while state.total > n2:
            edge = state.least()
            side = state.side(*edge)
            assert frozenset(side) in fibers
            state.peel(*edge, side)


def _components_minus_edge(g, edge):
    comps = []
    seen = set()
    for start in edge:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                if {x, y} == set(edge) or y in comp:
                    continue
                comp.add(y)
                stack.append(y)
        comps.append(comp)
        seen |= comp
    return comps


def test_completeness_small_trees():
    from itertools import product as iproduct
    for n in (4, 6, 8):
        for x in free_trees(n):
            brute = False
            for n2 in range(2, n // 2 + 1):
                if n % n2:
                    continue
                n1 = n // n2
                for t1 in free_trees(n1):
                    for t2 in free_trees(n2):
                        for img in iproduct(range(n2), repeat=n1):
                            prod = sierpinski_product(
                                t1, t2, VertexMap(n1, n2, img))
                            if tree_isomorphic(prod.graph, x):
                                brute = True
                                break
                        if brute:
                            break
                    if brute:
                        break
                if brute:
                    break
            assert (recognize_tree_product(x).status == "factored") == brute


def test_factorizations_deduplicated_by_shape():
    prod = sierpinski_product(path(2), path(4), VertexMap.constant(2, 4, 0))
    out = recognize_tree_product(prod.graph)
    shapes = [(tree_canonical_form(f.base), tree_canonical_form(f.fiber))
              for f in out.factorizations]
    assert len(shapes) == len(set(shapes))


def test_recognize_long_path_product():
    vmap, _ = path_path_min_map(40, 30)
    prod = sierpinski_product(path(40), path(30), vmap)
    out = recognize_tree_product(prod.graph)
    assert out.status == "factored"
    for fact in out.factorizations:
        rebuilt = sierpinski_product(fact.base, fact.fiber, fact.vmap)
        assert tree_isomorphic(rebuilt.graph, prod.graph)


@contextmanager
def _shallow_stack(headroom=100):
    """Allow only `headroom` frames beyond the current stack depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_tree_layer_depth_does_not_grow_with_input():
    long_path = path(1000)
    perm = list(range(1000))
    random.Random(43).shuffle(perm)
    rng = random.Random(44)
    base, fiber = random_tree(120, rng), random_tree(3, rng)
    f = VertexMap(120, 3, tuple(rng.randrange(3) for _ in range(120)))
    prod = sierpinski_product(base, fiber, f).graph
    with _shallow_stack():
        # rooted at a center: two chains, of 500 and 499 vertices
        assert tree_canonical_form(long_path) == \
            "(" + "(" * 500 + ")" * 500 + "(" * 499 + ")" * 499 + ")"
        assert tree_iso_map(long_path, long_path.relabel(perm)) is not None
        out = recognize_tree_product(prod)
    assert out.status == "factored"
    assert any(fact.base.order == 120 for fact in out.factorizations)


def test_relabelled_long_path_product():
    # a path of order 2,000 in random vertex order: deep rootings, and every
    # divisor pair of 2,000 is a factorization
    vmap, _ = path_path_min_map(40, 50)
    prod = sierpinski_product(path(40), path(50), vmap).graph
    perm = list(range(prod.order))
    random.Random(46).shuffle(perm)
    out = recognize_tree_product(prod.relabel(perm))
    assert out.status == "factored"
    assert sorted((f.base.order, f.fiber.order)
                  for f in out.factorizations) == \
        sorted((2000 // d, d) for d in range(2, 1001) if 2000 % d == 0)


def test_large_tree_product_under_a_shallow_stack():
    rng = random.Random(47)
    base, fiber = random_tree(60, rng), random_tree(60, rng)
    f = VertexMap(60, 60, tuple(rng.randrange(60) for _ in range(60)))
    prod = sierpinski_product(base, fiber, f).graph
    with _shallow_stack():
        out = recognize_tree_product(prod)
    assert out.status == "factored"
    fact = next(f for f in out.factorizations if f.base.order == 60)
    assert tree_isomorphic(fact.base, base)
    assert tree_isomorphic(fact.fiber, fiber)


# the eager candidate list of an earlier version, kept as the oracle for the
# peel state's candidates

def _old_subtree_sizes(adj, vertices, root):
    alive = set(vertices)
    parent = {root: -1}
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w in alive and w not in parent:
                parent[w] = v
                stack.append(w)
    sizes = {v: 1 for v in order}
    for v in reversed(order):
        if parent[v] != -1:
            sizes[parent[v]] += sizes[v]
    return sizes


def _old_component_without_edge_sub(adj, alive, start, removed):
    ru, rv = removed
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in alive or {v, w} == {ru, rv} or w in seen:
                continue
            seen.add(w)
            stack.append(w)
    return seen


def _old_split_candidates(x, remaining, n2):
    root = min(remaining)
    sizes = _old_subtree_sizes(x.adj, remaining, root)
    total = len(remaining)
    out = []
    for u in sorted(remaining):
        for v in x.adj[u]:
            if u < v and v in sizes:
                child = v if sizes[v] < sizes[u] else u
                other = u if child == v else v
                if sizes[child] == n2:
                    side = frozenset(_old_component_without_edge_sub(
                        x.adj, remaining, child, (u, v)))
                    out.append(((child, other), side))
                if total - sizes[child] == n2 and total - sizes[child] != sizes[child]:
                    side = frozenset(remaining - _old_component_without_edge_sub(
                        x.adj, remaining, child, (u, v)))
                    out.append(((other, child), side))
    return out


def test_split_candidates_match_eager_oracle():
    rng = random.Random(45)
    compared = 0
    for _ in range(60):
        n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
        t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
        f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
        x = sierpinski_product(t1, t2, f).graph
        perm = list(range(x.order))
        rng.shuffle(perm)
        x = x.relabel(perm)
        remaining = frozenset(range(x.order))
        state = _PeelState(_rooting(x), n2)
        # walk one random peel path, comparing the least candidate and its
        # side at every step
        while len(remaining) > n2:
            old = _old_split_candidates(x, remaining, n2)
            edge = state.least()
            new = [] if edge is None else \
                [(edge, frozenset(state.side(*edge)))]
            assert new == old[:1]
            compared += 1
            if not old:
                break
            edge, side = old[rng.randrange(len(old))]
            remaining = remaining - side
            state.peel(*edge, list(side))
    assert compared > 100


def _random_inputs(rng, count):
    """Random tree products in shuffled vertex order, and random trees of
    composite order (mostly not products)."""
    for i in range(count):
        if i % 3 == 2:
            x = random_tree(rng.choice([12, 16, 18, 24, 30, 36]), rng)
        else:
            n1, n2 = rng.randint(2, 9), rng.randint(2, 9)
            t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
            f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
            x = sierpinski_product(t1, t2, f).graph
        perm = list(range(x.order))
        rng.shuffle(perm)
        yield x.relabel(perm)


# the per-peel rebuild the peel state replaced, kept as its oracle

def _rebuilt_candidates(x, peeled, n2):
    order, parent = tree_preorder(x.adj, peeled.index(0), peeled)
    size = [1] * x.order
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    total = len(order)
    hits = []
    for lo in range(1, total):
        child = order[lo]
        if size[child] == n2 or total - size[child] == n2:
            other = parent[child]
            hits.append((min(child, other), max(child, other), lo))
    for _, _, lo in sorted(hits):
        child, k = order[lo], size[order[lo]]
        if k == n2:
            yield (child, parent[child]), order[lo:lo + k]
        else:
            yield (parent[child], child), order[:lo] + order[lo + k:]


def _rebuilt_peel(x, n2):
    steps = []
    peeled = bytearray(x.order)
    reference = None
    while x.order - n2 * len(steps) > n2:
        cand = next(_rebuilt_candidates(x, peeled, n2), None)
        if cand is None:
            return None, (f"after {len(steps)} peels no pendant split edge "
                          f"isolates a component of order {n2}")
        (near, far), side = cand
        comp = tuple(sorted(side))
        sub = x.induced(comp)
        if reference is None:
            reference = sub
        elif not tree_isomorphic(sub, reference):
            return None, (f"peeled component at step {len(steps)} is not "
                          "isomorphic to the first fiber")
        steps.append(PeelStep(len(steps), (near, far), comp))
        for v in comp:
            peeled[v] = 1
    final = tuple(v for v in range(x.order) if not peeled[v])
    if not tree_isomorphic(x.induced(final), reference):
        return None, "last remaining component does not match the fiber"
    return PeelTrace(x, tuple(steps), final), "ok"


def test_peel_matches_per_peel_rebuild():
    rng = random.Random(49)
    splits = 0
    for x in _random_inputs(rng, 120):
        rooting = _rooting(x)
        for n2 in range(2, x.order // 2 + 1):
            if x.order % n2:
                continue
            assert _peel(x, n2, rooting) == _rebuilt_peel(x, n2)
            splits += 1
    assert splits > 400
