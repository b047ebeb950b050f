"""The main solver and the tree capacities against independent oracles.

chi_rho_exact, and chi_rho_decision at every k up to chi_rho + 1, are
checked against chi_rho_naive, which keeps index order and no bounds, on
graphs of every diameter.  On products of diameter at most 3,
chi_rho_exact takes one joint packing search; there it is also checked
against the decision ladder it replaces.
The deepest-first greedy that max_packing runs on trees is checked
against the clique-cover branch-and-bound it replaces there, and that
search against a plain subset enumeration over BFS distances.
"""

import time
from itertools import combinations, product

import pytest

from sierpack.coloring import (chi_rho_decision, chi_rho_exact,
                               chi_rho_lower_bound, chi_rho_naive,
                               verify_packing_coloring)
from sierpack.graphs import (Graph, _max_packing_search, complete, diameter,
                             distances, max_packing, path, random_tree, star)
from sierpack.product import enumerate_maps, sierpinski_product

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None)
CAPACITY_RADII = range(1, 7)


class _Pruefer:
    """Feeds a fixed Pruefer sequence to random_tree in place of a random
    source, which draws the n - 2 entries one randrange call each."""

    def __init__(self, seq):
        self._entries = iter(seq)

    def randrange(self, n):
        return next(self._entries)


def _assert_tree_capacities(t):
    for c in CAPACITY_RADII:
        assert max_packing(t, c) == \
            _max_packing_search(distances(t).within(c))[0], (t, c)


def test_tree_capacities_on_every_labeled_tree_to_order_7():
    for n in range(1, 8):
        trees = {}
        for seq in product(range(n), repeat=max(n - 2, 0)):
            t = random_tree(n, _Pruefer(seq))
            trees[t.adj] = t
        assert len(trees) == n ** max(n - 2, 0)  # Cayley: every labeled tree
        for t in trees.values():
            _assert_tree_capacities(t)


@PROPERTY
@given(st.integers(1, 16), st.randoms(use_true_random=False))
def test_tree_capacities_on_random_trees(n, rnd):
    _assert_tree_capacities(random_tree(n, rnd))


@st.composite
def connected_graphs(draw, max_order=9, extra_per_vertex=2):
    """A random spanning tree plus random extra edges, up to
    extra_per_vertex per vertex."""
    n = draw(st.integers(1, max_order))
    tree = random_tree(n, draw(st.randoms(use_true_random=False)))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=extra_per_vertex * n))
    edges = set(tree.edges())
    edges.update((min(u, v), max(u, v)) for u, v in extra if u != v)
    return Graph.from_edges(n, sorted(edges))


@PROPERTY
@given(connected_graphs())
def test_exact_agrees_with_naive_and_is_minimal(g):
    value, witness = chi_rho_exact(g)
    assert value == chi_rho_naive(g)[0]
    assert witness.k == value
    assert verify_packing_coloring(g, witness).ok
    assert chi_rho_decision(g, value - 1) is None


@PROPERTY
@given(st.one_of(connected_graphs(), connected_graphs(extra_per_vertex=1),
                 connected_graphs(extra_per_vertex=4)))
def test_exact_agrees_with_naive_at_every_diameter(g):
    # sparser and denser graphs than connected_graphs() alone: diameters up
    # to 3 take the joint packing route, and diameter 4 and up the ladder
    event(f"diameter {diameter(g)}")
    value, witness = chi_rho_exact(g)
    assert value == chi_rho_naive(g)[0]
    assert witness.k == value
    assert verify_packing_coloring(g, witness).ok
    assert chi_rho_decision(g, value - 1) is None


def _ladder(g):
    """chi_rho by the decision ladder alone: chi_rho_decision upward from
    chi_rho_lower_bound."""
    k = chi_rho_lower_bound(g)
    while chi_rho_decision(g, k) is None:
        k += 1
    return k


_CYCLE4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
_PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
_DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
_MAP_OPT_FACTORS = [complete(3), complete(4), path(3), path(4), star(3),
                    _CYCLE4, _PAW, _DIAMOND]


def _products(g, h):
    for f in enumerate_maps(g, h, reduce_symmetry=True):
        yield sierpinski_product(g, h, f).graph


def _assert_route_matches_ladder(x):
    value, witness = chi_rho_exact(x)
    assert value == _ladder(x)
    assert witness.k == value
    assert verify_packing_coloring(x, witness).ok


@pytest.mark.parametrize("m, n", list(product(range(3, 6), repeat=2)))
def test_joint_packing_route_matches_the_ladder_on_complete_pairs(m, n):
    for x in _products(complete(m), complete(n)):
        assert diameter(x) == 3
        _assert_route_matches_ladder(x)


def test_joint_packing_route_matches_the_ladder_on_small_factors():
    # 26 of the 1,397 orbit representatives have diameter at most 3
    routed = 0
    for g in _MAP_OPT_FACTORS:
        for h in _MAP_OPT_FACTORS:
            for x in _products(g, h):
                if diameter(x) <= 3:
                    _assert_route_matches_ladder(x)
                    routed += 1
    assert routed == 26


@PROPERTY
@given(connected_graphs())
def test_decision_agrees_with_naive_at_every_k(g):
    value = chi_rho_naive(g)[0]
    for k in range(1, value + 2):
        witness = chi_rho_decision(g, k)
        if k < value:
            assert witness is None, k
        else:
            assert witness is not None and witness.k <= k, k
            assert verify_packing_coloring(g, witness).ok, k


def _plain_packing_number(g, i):
    """Largest set of vertices pairwise more than i apart, by trying every
    subset of each size upward; packings are closed under subsets, so the
    first size with none ends the search."""
    dist = []
    for s in range(g.order):
        d = {s: 0}
        queue = [s]
        for v in queue:
            for w in g.adj[v]:
                if w not in d:
                    d[w] = d[v] + 1
                    queue.append(w)
        dist.append(d)
    best = 0
    for r in range(1, g.order + 1):
        if not any(all(dist[u].get(v, i + 1) > i
                       for u, v in combinations(sub, 2))
                   for sub in combinations(range(g.order), r)):
            break
        best = r
    return best


@PROPERTY
@given(connected_graphs(max_order=14))
def test_packing_search_agrees_with_subset_enumeration(g):
    for i in (1, 2, 3):
        want = _plain_packing_number(g, i)
        assert _max_packing_search(distances(g).within(i))[0] == want
        assert max_packing(g, i) == want


def _cycle(n):
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def test_packing_numbers_of_cycles():
    # a cycle's vertices more than i apart: floor(n / (i + 1)) of them,
    # and one where that floor is 0
    for n in range(3, 81):
        for i in (1, 2, 3):
            assert max_packing(_cycle(n), i, max_order=80) == \
                max(n // (i + 1), 1), (n, i)


def test_packing_numbers_of_c48_take_under_a_second():
    # bounding a branch by its candidate count alone takes seconds on C48;
    # the clique cover cuts every branch that cannot beat floor(48 / (i + 1))
    c48 = _cycle(48)
    distances(c48).within(3)  # ball rows are not the search's cost
    start = time.perf_counter()
    for i in (1, 2, 3):
        assert max_packing(c48, i, max_order=48) == 48 // (i + 1)
    assert time.perf_counter() - start < 1.0
