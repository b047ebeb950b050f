"""The Sierpinski product of two graphs and exact optimization over all
connecting functions.

G (x)_f H has vertex set V(G) x V(H).  Each base vertex g carries a copy of
H (Type-1 edges), and each base edge gg' contributes the single connecting
edge (g, f(g'))-(g', f(g)) (Type-2).  Vertex (g, h) gets index g*n(H) + h.

sierpinski_chi solves the first map exactly; every later map is first
screened against the best value so far.  The screen runs the decision calls
chi_rho_exact would make, ascending from the lower bound, so it never
decides a k above the map's packing chromatic number (SAT far above it is
the slow case):

* min: decide k = lower bound .. best - 1; the map improves iff one is SAT,
  and that SAT decision's k and coloring are its value and witness;
* max: skip the map if the degree-descending greedy colors it with at most
  best colors; otherwise decide k = lower bound .. best, and the map
  improves iff all are UNSAT, in which case the decisions go on above best
  to the first SAT, which gives the value and witness.

A map that improves is therefore never solved a second time.  Each screen
call is a call chi_rho_exact makes on that map with the same per-call node
budget, so a run that completes without screening completes with
screening, with the same value, witness map, witness coloring and explored
count; under a budget it gets at least as far.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .coloring import (PackingColoring, _greedy, chi_rho_decision,
                       chi_rho_exact, chi_rho_lower_bound)
from .errors import (ConstructionError, EnumerationBudgetExceeded,
                     FactorMismatchError, InputFormatError,
                     SearchBudgetExceeded)
from .graphs import DEFAULT_EXACT_SEARCH_BOUND, Graph

DEFAULT_ENUM_BOUND = 2_000_000


class EdgeKind(enum.Enum):
    TYPE1 = 1  # inside a fiber
    TYPE2 = 2  # connecting edge


@dataclass(frozen=True)
class VertexMap:
    """A function from base vertices to fiber vertices, stored as a tuple."""

    base_order: int
    fiber_order: int
    image: tuple[int, ...]

    def __post_init__(self):
        if self.base_order < 1 or self.fiber_order < 1:
            raise ValueError("orders must be positive")
        if len(self.image) != self.base_order:
            raise ValueError("image length must equal base_order")
        for h in self.image:
            if not 0 <= h < self.fiber_order:
                raise ValueError(f"image value {h} outside fiber range")

    def __call__(self, g: int) -> int:
        return self.image[g]

    @staticmethod
    def constant(base_order: int, fiber_order: int, value: int) -> "VertexMap":
        return VertexMap(base_order, fiber_order, (value,) * base_order)

    # text format: "n_base n_fiber: i0 i1 ... i_{nbase-1}"

    @staticmethod
    def parse(text: str) -> "VertexMap":
        try:
            head, _, body = text.partition(":")
            nb, nf = (int(t) for t in head.split())
            image = tuple(int(t) for t in body.split())
            return VertexMap(nb, nf, image)
        except (ValueError, TypeError) as exc:
            raise InputFormatError(f"bad vertex map {text!r}: {exc}") from None

    def to_text(self) -> str:
        return f"{self.base_order} {self.fiber_order}: " + \
            " ".join(str(h) for h in self.image)


@dataclass(frozen=True)
class ProductGraph:
    """A Sierpinski product together with its factor structure and per-edge
    Type-1/Type-2 tags."""

    graph: Graph
    base: Graph
    fiber: Graph
    vmap: VertexMap
    connecting: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    # each entry: ((u, v) product edge with u < v, (g, g') originating base edge)

    def vertex_of(self, g: int, h: int) -> int:
        return g * self.fiber.order + h

    def base_of(self, v: int) -> int:
        return v // self.fiber.order

    def fiber_of(self, v: int) -> int:
        return v % self.fiber.order

    def edge_kind(self, u: int, v: int) -> EdgeKind:
        if not self.graph.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge of the product")
        e = (u, v) if u < v else (v, u)
        return EdgeKind.TYPE2 if e in self._connecting_set else EdgeKind.TYPE1

    @property
    def _connecting_set(self):
        return frozenset(e for e, _ in self.connecting)


def sierpinski_product(g: Graph, h: Graph, f: VertexMap) -> ProductGraph:
    """Build G (x)_f H with deterministic vertex indexing g*n(H) + h."""
    if f.base_order != g.order or f.fiber_order != h.order:
        raise FactorMismatchError(
            f"map is {f.base_order}->{f.fiber_order}, factors are "
            f"{g.order} and {h.order}")
    nh = h.order
    edges = []
    for gv in range(g.order):
        off = gv * nh
        for (a, b) in h.edges():
            edges.append((off + a, off + b))
    connecting = []
    for (g1, g2) in g.edges():
        u = g1 * nh + f(g2)
        v = g2 * nh + f(g1)
        e = (u, v) if u < v else (v, u)
        edges.append(e)
        connecting.append((e, (g1, g2)))
    labels = tuple(f"({gv},{hv})" for gv in range(g.order) for hv in range(nh))
    graph = Graph.from_edges(g.order * nh, edges, labels)
    if graph.size != g.order * h.size + g.size:
        raise ConstructionError(
            f"product has {graph.size} edges, expected "
            f"{g.order * h.size + g.size}")
    return ProductGraph(graph, g, h, f, tuple(connecting))


# ---------------------------------------------------------------------------
# automorphisms and map enumeration

def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms of g as permutation tuples, in lexicographic
    order, by a degree-pruned backtracking search intended for small
    factors."""
    n = g.order
    deg = [g.degree(v) for v in range(n)]
    out: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(v: int):
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


def enumerate_maps(g: Graph, h: Graph, reduce_symmetry: bool = False,
                   enum_bound: int = DEFAULT_ENUM_BOUND) -> Iterator[VertexMap]:
    """All maps V(G) -> V(H) in lexicographic order of their image tuples.

    With reduce_symmetry, one lexicographically minimal representative per
    orbit of the action f -> sigma o f o pi (sigma an automorphism of H, pi
    of G) is yielded; products of omitted maps are isomorphic to the
    representative's, via (g, h) -> (pi(g), sigma(h)).
    """
    total = h.order ** g.order
    if total > enum_bound:
        raise EnumerationBudgetExceeded(
            f"{h.order}^{g.order} = {total} maps exceeds bound {enum_bound}")
    if not reduce_symmetry:
        for image in itertools.product(range(h.order), repeat=g.order):
            yield VertexMap(g.order, h.order, image)
        return
    auts_g = automorphisms(g)
    auts_h = automorphisms(h)
    for image in itertools.product(range(h.order), repeat=g.order):
        minimal = True
        for pi in auts_g:
            for sigma in auts_h:
                cand = tuple(sigma[image[pi[v]]] for v in range(g.order))
                if cand < image:
                    minimal = False
                    break
            if not minimal:
                break
        if minimal:
            yield VertexMap(g.order, h.order, image)


# ---------------------------------------------------------------------------
# optimizing chi_rho over all connecting functions

@dataclass(frozen=True)
class SierpinskiChiResult:
    mode: str                      # "min" or "max"
    value: Optional[int]
    witness_map: Optional[VertexMap]
    witness_coloring: Optional[PackingColoring]
    explored: int
    complete: bool


def _complete_pair_floor(g: Graph, h: Graph) -> Optional[int]:
    """The mn-2m+2 lower bound valid for every f when both factors are
    complete with order >= 3; None when it does not apply."""
    m, n = g.order, h.order
    if m >= 3 and n >= 3 and g.size == m * (m - 1) // 2 \
            and h.size == n * (n - 1) // 2:
        return m * n - 2 * m + 2
    return None


def _improvement(x: Graph, mode: str, best: int,
                 node_budget: Optional[int], max_order: int
                 ) -> Optional[tuple[int, PackingColoring]]:
    """chi_rho(x) with a witness when it beats best in mode, else None: for
    min, some k below best is SAT; for max, every k up to best is UNSAT,
    and the decisions go on above best to the first SAT.  Decisions ascend
    from the lower bound and stop at the first SAT, so they are the calls
    chi_rho_exact(x) makes, and no k above chi_rho(x) is decided."""
    if mode == "max" and _greedy(x, best) is not None:
        return None
    k = chi_rho_lower_bound(x, max_order)
    while mode == "max" or k < best:
        witness = chi_rho_decision(x, k, node_budget=node_budget,
                                   max_order=max_order)
        if witness is not None:
            return (k, witness) if mode == "min" or k > best else None
        k += 1
    return None


def sierpinski_chi(g: Graph, h: Graph, mode: str, *,
                   reduce_symmetry: bool = False,
                   enum_bound: int = DEFAULT_ENUM_BOUND,
                   node_budget: Optional[int] = None,
                   max_order: int = DEFAULT_EXACT_SEARCH_BOUND
                   ) -> SierpinskiChiResult:
    """Exact min (or max) of chi_rho(G (x)_f H) over all f, with a witness
    map and an optimal coloring for it.

    The witness is the first map, in enumeration order, that attains the
    optimum.  Once a best value exists, every map goes through the screen
    of _improvement, which hands back the map's value and witness when it
    beats the best.  explored counts the settled maps, screened out or
    solved.  Budget exhaustion (enumeration bound or solver node
    budget) yields a partial result with complete=False and the explored
    count.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    best: Optional[int] = None
    best_map: Optional[VertexMap] = None
    best_col: Optional[PackingColoring] = None
    explored = 0
    floor = _complete_pair_floor(g, h) if mode == "min" else None
    complete_run = True
    try:
        for f in enumerate_maps(g, h, reduce_symmetry, enum_bound):
            x = sierpinski_product(g, h, f).graph
            if best is None:
                solved = chi_rho_exact(x, node_budget=node_budget,
                                       max_order=max_order)
            else:
                solved = _improvement(x, mode, best, node_budget, max_order)
            if solved is not None:
                best, best_col = solved
                best_map = f
            explored += 1
            if best == floor:
                # no f can go below the floor, so the minimum is settled
                break
    except (SearchBudgetExceeded, EnumerationBudgetExceeded):
        complete_run = False
    return SierpinskiChiResult(mode, best, best_map, best_col,
                               explored, complete_run)
