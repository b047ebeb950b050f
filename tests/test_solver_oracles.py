"""The main solver and the tree capacities against independent oracles.

chi_rho_exact is checked against chi_rho_naive, which keeps index order
and no bounds.  The deepest-first greedy that max_packing runs on trees is
checked against the subset branch-and-bound it replaces there.
"""

from itertools import product

import pytest

from sierpack.coloring import (chi_rho_decision, chi_rho_exact, chi_rho_naive,
                               verify_packing_coloring)
from sierpack.graphs import (Graph, _max_packing_search, distances,
                             max_packing, random_tree)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
            _max_packing_search(distances(t).within(c), t.order), (t, c)


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
def connected_graphs(draw, max_order=9):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(1, max_order))
    tree = random_tree(n, draw(st.randoms(use_true_random=False)))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
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
