"""Seeded inputs, the query each input is sent through, and the check of
each answer, for the three benchmark workloads.

Every workload is a fixed menu of query slots.  A batch draws one query per
slot from ``batch_rng(workload, seed, batch)``, so the same seed always
gives the same inputs, and the menu fixes the size and kind of every query,
so batches from different seeds cost about the same.  No two queries of a
batch share a factor pair or an input graph: the distance cache and the
class-capacity cache key on structural graph equality, and a repeated input
would measure cache hits instead of the work a command-line call pays for.

* ``map-opt`` calls ``sierpinski_chi`` (the ``schirho`` command) on factor
  pairs of order 3-4.  Each query builds 10-256 tiny products, so product
  construction, per-graph set-up and many short decision searches dominate.
* ``exact`` calls ``sniff_parse`` and ``chi_rho_exact`` (the ``chirho``
  command) on graph text of order 16-33.  Each query is one deep search.
* ``recognize`` calls ``sniff_parse`` and ``recognize_tree_product`` (the
  ``recognize`` command) on tree text of order 100-800.  Peel search, tree
  canonical forms and distance matrices do the work; nothing is colored.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from sierpack import (Graph, VertexMap, chi_rho_decision, chi_rho_exact,
                      complete, complete_pair_value, corona,
                      corona_table_value, emit_graph_text, path,
                      path_path_min_map, random_tree, recognize_tree_product,
                      sierpinski_chi, sierpinski_product, sniff_parse, star,
                      verify_packing_coloring)


@dataclass(frozen=True)
class Query:
    label: str                # names the slot in failure reports and digests
    args: tuple
    expect: Any = None        # a value known in advance, when there is one


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random], list[Query]]
    run: Callable[[Query], Any]
    check: Callable[[Query, Any], Optional[str]]  # failure reason or None
    summary: Callable[[Query, Any], Any]          # JSON answer for the digest


def batch_rng(workload: str, seed: int, batch: int) -> random.Random:
    # string seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{batch}")


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return g.relabel(perm)


# ---------------------------------------------------------------------------
# map-opt

_FAMILIES = {"K": complete, "P": path, "S": star}

# connected graphs of order 4 outside the K, P and S families
_SHAPES = {
    "C4": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "paw": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "diamond": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
}

# (base, fiber, reduce_symmetry, mode).  "K4", "P3", "S3" are the shorthands
# the command line builds, with the same vertex numbering; "~paw" is a
# seeded random labeling of that shape.  A mode of None is drawn from the
# seed: min and max cost the same on these pairs, while on a pair of complete
# graphs min stops at the first map that meets the mn - 2m + 2 floor.
# The first four slots (256 maps each, no reduction) cost about the same and
# twice any other, so the tail percentile falls among them.  P4 x K4 without
# reduction (16 s) is left out to keep a run short.
_MAPOPT_SLOTS = (
    ("P4", "P4", False, None), ("~C4", "P4", False, None),
    ("S3", "S3", False, None), ("S3", "P4", False, None),
    ("K4", "P3", False, None), ("P4", "K3", False, None),
    ("K3", "K4", False, "max"), ("K4", "K3", False, "max"),
    ("P3", "K4", False, None), ("K3", "S3", False, None),
    ("K3", "K3", False, "min"), ("~C4", "P3", False, None),
    ("~paw", "K3", False, None), ("~diamond", "P3", False, None),
    ("K3", "~C4", False, None), ("P3", "~diamond", False, None),
    ("S3", "~paw", True, None), ("K4", "P4", True, None),
    ("~diamond", "~C4", True, None), ("~paw", "P4", True, None),
    ("S3", "K4", True, None), ("K4", "~C4", True, None),
    ("~C4", "K4", True, None), ("K4", "K4", True, "max"),
    ("P4", "S3", True, None),
)


def _factor(spec: str, rng: random.Random) -> Graph:
    if spec.startswith("~"):
        return _relabeled(_SHAPES[spec[1:]], rng)
    return _FAMILIES[spec[0]](int(spec[1:]))


def _make_mapopt(rng: random.Random) -> list[Query]:
    out = []
    for base_spec, fiber_spec, reduce, mode in _MAPOPT_SLOTS:
        base, fiber = _factor(base_spec, rng), _factor(fiber_spec, rng)
        mode = mode or rng.choice(("min", "max"))
        label = f"{base_spec}x{fiber_spec} {mode}{' reduce' if reduce else ''}"
        out.append(Query(label, (base, fiber, mode, reduce)))
    return out


def _run_mapopt(q: Query):
    base, fiber, mode, reduce = q.args
    return sierpinski_chi(base, fiber, mode, reduce_symmetry=reduce)


def _is_complete(g: Graph) -> bool:
    return g.size == g.order * (g.order - 1) // 2


def _check_mapopt(q: Query, r) -> Optional[str]:
    base, fiber, mode, _ = q.args
    if not r.complete or r.value is None:
        return "search did not complete"
    if r.witness_coloring.k != r.value:
        return f"witness uses {r.witness_coloring.k} colors, value is {r.value}"
    prod = sierpinski_product(base, fiber, r.witness_map)
    if not verify_packing_coloring(prod.graph, r.witness_coloring):
        return "witness coloring fails verification on the witness product"
    if _is_complete(base) and _is_complete(fiber):
        want = complete_pair_value(base.order, fiber.order, mode).value
        if r.value != want:
            return f"value {r.value}, closed form gives {want}"
    return None


def _summary_mapopt(q: Query, r):
    return [q.label, r.value]


# ---------------------------------------------------------------------------
# exact

# Products of seeded random trees, by (base order, fiber order).  Above order
# about 28 their solve times turn heavy-tailed (some take 5-20 s), which
# would make a run's time depend on a few draws; corona(P_n, 2) supplies the
# deep searches instead.
_EXACT_PRODUCTS = ((4, 4), (2, 8), (8, 2), (4, 5), (5, 4), (3, 6), (6, 3),
                   (2, 10), (10, 2), (3, 7), (7, 3), (4, 6), (6, 4), (5, 5),
                   (3, 8), (8, 3), (2, 12), (12, 2), (5, 5))
# corona(P12, 2) alone takes about 17 s, so the family stops at n = 11
_EXACT_CORONAS = (6, 7, 8, 9, 10, 11)


def _tree_product(a: int, b: int, rng: random.Random) -> Graph:
    base, fiber = random_tree(a, rng), random_tree(b, rng)
    f = VertexMap(a, b, tuple(rng.randrange(b) for _ in range(a)))
    return sierpinski_product(base, fiber, f).graph


def _make_exact(rng: random.Random) -> list[Query]:
    out = []
    for a, b in _EXACT_PRODUCTS:
        text = emit_graph_text(_tree_product(a, b, rng))
        out.append(Query(f"T{a}xT{b}", (text,)))
    for n in _EXACT_CORONAS:
        # the family's own numbering, as `sierpack family corona` builds it
        text = emit_graph_text(corona(path(n), 2))
        out.append(Query(f"corona(P{n},2)", (text,),
                         corona_table_value(n, 2).value))
    return out


def _run_exact(q: Query):
    g = sniff_parse(q.args[0])
    value, witness = chi_rho_exact(g)
    return g, value, witness


def _check_exact(q: Query, answer) -> Optional[str]:
    g, value, witness = answer
    if witness.k != value:
        return f"witness uses {witness.k} colors, value is {value}"
    if not verify_packing_coloring(g, witness):
        return "witness coloring fails verification"
    if chi_rho_decision(g, value - 1) is not None:
        return f"a coloring with {value - 1} colors exists"
    if q.expect is not None and value != q.expect:
        return f"value {value}, table gives {q.expect}"
    return None


def _summary_exact(q: Query, answer):
    return [q.label, answer[1]]


# ---------------------------------------------------------------------------
# recognize

# products of two seeded random trees (one factorization each); the four of
# order 800 cost about the same and more than any other query, so the tail
# percentile falls among them
_RECOGNIZE_PRODUCTS = ((10, 10), (8, 15), (15, 8), (12, 12), (10, 20),
                       (20, 10), (12, 20), (15, 16), (16, 15), (16, 25),
                       (25, 32), (32, 25), (20, 40), (40, 20))
# path products from path_path_min_map are paths of order mn, with one
# factorization per divisor pair; the seed picks (m, n) for each order
_RECOGNIZE_PATHS = (100, 120, 144, 192)
# seeded random trees of composite order, for the rejection paths
_RECOGNIZE_TREES = (100, 120, 150, 180, 240, 300, 360)


def _divisor_pairs(n: int) -> list[tuple[int, int]]:
    return [(m, n // m) for m in range(4, n // 4 + 1) if n % m == 0]


def _make_recognize(rng: random.Random) -> list[Query]:
    out = []
    for a, b in _RECOGNIZE_PRODUCTS:
        text = emit_graph_text(_tree_product(a, b, rng))
        out.append(Query(f"T{a}xT{b}", (text,), "factored"))
    for n in _RECOGNIZE_PATHS:
        m, k = rng.choice(_divisor_pairs(n))
        vmap, _ = path_path_min_map(m, k)
        text = emit_graph_text(sierpinski_product(path(m), path(k), vmap).graph)
        out.append(Query(f"P{m}xP{k}", (text,), "factored"))
    for n in _RECOGNIZE_TREES:
        text = emit_graph_text(random_tree(n, rng))
        out.append(Query(f"T{n}", (text,)))
    return out


def _run_recognize(q: Query):
    g = sniff_parse(q.args[0])
    return g, recognize_tree_product(g)


def _tree_code(t: Graph) -> Optional[str]:
    """Canonical code of a free tree (AHU code rooted at its centre, the
    smaller one when there are two), or None when t is not a tree.  It is
    kept apart from the library's tree code, so the check and the digest
    do not change when that code does."""
    n = t.order
    if t.size != n - 1:
        return None
    deg = [len(nbrs) for nbrs in t.adj]
    leaves = [v for v in range(n) if deg[v] <= 1]
    left = n
    while left > 2:
        if not leaves:
            return None
        left -= len(leaves)
        nxt = []
        for v in leaves:
            deg[v] = 0
            for w in t.adj[v]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        leaves = nxt
    codes = []
    for root in leaves:
        parent = {root: -1}
        order = [root]
        for v in order:
            for w in t.adj[v]:
                if w != parent[v]:
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            return None
        code: dict[int, str] = {}
        for v in reversed(order):
            code[v] = "(" + "".join(sorted(
                code[w] for w in t.adj[v] if w != parent[v])) + ")"
        codes.append(code[root])
    return min(codes)


def _check_recognize(q: Query, answer) -> Optional[str]:
    g, outcome = answer
    if (outcome.status == "factored") != bool(outcome.factorizations):
        return f"status {outcome.status} with " \
               f"{len(outcome.factorizations)} factorizations"
    if q.expect is not None and outcome.status != q.expect:
        return f"status {outcome.status}, input was built as a product"
    want = _tree_code(g)
    for fact in outcome.factorizations:
        rebuilt = sierpinski_product(fact.base, fact.fiber, fact.vmap).graph
        if want is None or _tree_code(rebuilt) != want:
            return f"{fact.base.order}x{fact.fiber.order} factorization " \
                   "does not rebuild the input"
    return None


def _shape(t: Graph) -> str:
    return hashlib.sha256(str(_tree_code(t)).encode()).hexdigest()[:16]


def _summary_recognize(q: Query, answer):
    _, outcome = answer
    shapes = sorted([f.base.order, f.fiber.order, _shape(f.base),
                     _shape(f.fiber)] for f in outcome.factorizations)
    return [q.label, outcome.status, shapes]


WORKLOADS = {
    w.name: w for w in (
        Workload("map-opt", _make_mapopt, _run_mapopt, _check_mapopt,
                 _summary_mapopt),
        Workload("exact", _make_exact, _run_exact, _check_exact,
                 _summary_exact),
        Workload("recognize", _make_recognize, _run_recognize,
                 _check_recognize, _summary_recognize),
    )
}
