"""The Sierpinski product of two graphs and exact optimization over all
connecting functions.

G (x)_f H has vertex set V(G) x V(H).  Each base vertex g carries a copy of
H (Type-1 edges), and each base edge gg' contributes the single connecting
edge (g, f(g'))-(g', f(g)) (Type-2).  Vertex (g, h) gets index g*n(H) + h.
The Type-1 edges do not depend on f, so sierpinski_product patches each
product into a template of them built once per factor pair.

sierpinski_chi settles every map by repair or by chi_rho_exact, which
decides k upward from the map's lower bound and stops at the first SAT, so
no k above the map's packing chromatic number is decided (SAT far above it
is the slow case):

* min: chi_rho_exact(x, below=best) decides only the k below the best so
  far; a SAT is an improvement, and its k and coloring are the map's value
  and witness;
* max: the map is skipped if a coloring with at most best colors is found
  with no search, by repairing one of the last POOL_SIZE witness colorings
  of the run or by the degree-descending greedy; otherwise chi_rho_exact(x)
  gives its value and witness, and the map improves iff the value is above
  best.

With no best yet, both modes are a plain chi_rho_exact(x).

A min run stops once best reaches a floor that holds for every map
(_min_floor), set after the first map is settled: the closed form
mn - 2m + 2 for two complete factors, else the min over K_w (x) H for w
the clique number of G, by a sub-run.  The witness is still the first map
in enumeration order that attains the minimum, so only explored changes:
it counts the maps settled up to the stop.

The pool holds the colors of every witness a max run solves, most recent
first; a coloring that settles a map moves to the front.  All products of
one run share their vertex indexing, and maps that are close in
lexicographic order differ in a few connecting edges, so a recent witness
often needs only a few vertices recolored (coloring.repair_coloring).  A
vertex the repair cannot fit within best colors may evict the vertices in
its way, up to _EVICTIONS_PER_VERTEX * n evictions per repair of a product
of order n; without them most maps whose value equals best would still be
decided.  A repair within best colors proves chi_rho <= best, so the map
is settled with no lower bound and no decision.  Repair colorings are never
witnesses: a map that beats best cannot be repaired within best colors, so
it is always solved.

sierpinski_chi settles only the orbit representatives enumerate_maps
yields with reduce_symmetry.  A map left out is settled with no product and
no decision: a yielded map that came earlier marked it as sigma o f o pi,
the two products are isomorphic, and best only moves toward the optimum,
so it cannot beat best.
reduce_symmetry only chooses whether explored counts the maps settled or,
by lex rank, every map up to the last one settled.

Every decision of a run is one chi_rho_exact makes on one of its maps or
on a map of the floor's sub-run, with the same per-call node budget.  A
sub-run that runs out gives no floor, and the run goes on as it would
without one, so under a budget a run gets at least as far as solving every
map in full would.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .coloring import PackingColoring, chi_rho_exact, repair_coloring
from .errors import (EnumerationBudgetExceeded, FactorMismatchError,
                     InputFormatError, SearchBudgetExceeded)
from .graphs import (DEFAULT_SOLVER_BOUND, Graph, _max_packing_search,
                     complete)

DEFAULT_ENUM_BOUND = 2_000_000
POOL_SIZE = 8  # witness colorings a max run keeps to repair
_EVICTIONS_PER_VERTEX = 2  # a repair of x may evict this many times n(x)


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
    """A Sierpinski product together with its factors and map.  An edge uv
    is Type-2 exactly when base_of(u) != base_of(v); ``connecting`` lists
    those edges."""

    graph: Graph
    base: Graph
    fiber: Graph
    vmap: VertexMap

    def vertex_of(self, g: int, h: int) -> int:
        return g * self.fiber.order + h

    def base_of(self, v: int) -> int:
        return v // self.fiber.order

    def fiber_of(self, v: int) -> int:
        return v % self.fiber.order

    @property
    def connecting(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """The Type-2 edges in base edge order, each as ((u, v) product
        edge, (g, g') originating base edge); g < g' gives u < v."""
        f = self.vmap
        return tuple(((self.vertex_of(g1, f(g2)), self.vertex_of(g2, f(g1))),
                      (g1, g2)) for g1, g2 in self.base.edges())


def sierpinski_product(g: Graph, h: Graph, f: VertexMap) -> ProductGraph:
    """Build G (x)_f H with deterministic vertex indexing g*n(H) + h.

    The n(G) fiber copies are the same for every f, so they come from a
    template built once per factor pair (_fiber_copies).  Each call copies
    its lists, appends the |E(G)| connecting edges and re-sorts only the
    lists those touch.  The result is not re-validated: the factors are
    valid Graphs, so the copies are, and a connecting edge joins two
    distinct fibers, one per base edge, so it is neither a loop nor a
    duplicate."""
    if f.base_order != g.order or f.fiber_order != h.order:
        raise FactorMismatchError(
            f"map is {f.base_order}->{f.fiber_order}, factors are "
            f"{g.order} and {h.order}")
    copies, base_edges = _fiber_copies(g, h)
    nh, image = h.order, f.image
    adj = list(copies)
    touched = set()
    for g1, g2 in base_edges:
        u, v = g1 * nh + image[g2], g2 * nh + image[g1]
        adj[u] += (v,)
        adj[v] += (u,)
        touched.add(u)
        touched.add(v)
    for u in touched:
        adj[u] = tuple(sorted(adj[u]))
    return ProductGraph(Graph._trusted(len(adj), tuple(adj)), g, h, f)


@functools.lru_cache(maxsize=1)
def _fiber_copies(g: Graph, h: Graph) -> tuple[tuple[tuple[int, ...], ...],
                                             tuple[tuple[int, int], ...]]:
    """The adjacency of n(G) disjoint copies of h, copy g on vertices
    g*n(H) .. g*n(H) + n(H) - 1, and the edges of g.  Only the last factor
    pair's template is kept: a run reuses it for every map, and the next
    pair replaces it."""
    nh = h.order
    copies = tuple(tuple(u + off for u in nbrs)
                   for off in range(0, g.order * nh, nh) for nbrs in h.adj)
    return copies, tuple(g.edges())


# ---------------------------------------------------------------------------
# automorphisms and map enumeration

def automorphisms(g: Graph, limit: Optional[int] = None
                  ) -> list[tuple[int, ...]]:
    """The automorphisms of g as permutation tuples in lexicographic order,
    all of them or the first limit, by a degree-pruned backtracking search
    intended for small factors.  The search keeps its own stack, so its
    depth is not bounded by the recursion limit, and it stops once limit
    automorphisms are found."""
    n, adj = g.order, g.adj
    nbrs = [set(a) for a in adj]
    image = [-1] * n
    inverse = [-1] * n

    def extensions(v: int):
        # w can take v iff it is free, has v's degree, and the mapped
        # vertices among its neighbours are exactly the images of v's
        # earlier neighbours
        earlier = [image[u] for u in adj[v] if u < v]
        for w in (adj[earlier[0]] if earlier else range(n)):
            if inverse[w] < 0 and len(adj[w]) == len(adj[v]) \
                    and all(x in nbrs[w] for x in earlier) \
                    and sum(inverse[x] >= 0 for x in adj[w]) == len(earlier):
                image[v], inverse[w] = w, v
                yield w
                image[v], inverse[w] = -1, -1

    def search():
        stack = [extensions(0)]
        while stack:
            if next(stack[-1], None) is None:
                stack.pop()
            elif len(stack) == n:
                yield tuple(image)
            else:
                stack.append(extensions(len(stack)))

    return list(itertools.islice(search(), limit))


def map_count(m: int, n: int, bound: int) -> Optional[int]:
    """n^m, the number of maps from m base vertices to n fiber vertices,
    or None when it exceeds bound.  With n >= 2 and 2^m > bound the count
    is not formed, so a huge base costs nothing."""
    if n > 1 and m >= bound.bit_length():  # n^m >= 2^m > bound
        return None
    total = n ** m
    return total if total <= bound else None


def enumerate_maps(g: Graph, h: Graph, reduce_symmetry: bool = False,
                   enum_bound: int = DEFAULT_ENUM_BOUND) -> Iterator[VertexMap]:
    """All maps V(G) -> V(H) in lexicographic order of their image tuples.

    With reduce_symmetry, a map is left out once a yielded map reaches it
    by the action f -> sigma o f o pi (sigma an automorphism of H, pi of
    G): the products are isomorphic, via (g, h) -> (pi(g), sigma(h)).  A
    bytearray holds one mark per map, indexed by lex rank (at most
    enum_bound bytes, 2 MB by default).  Each yielded map marks the ranks
    of its images, and each later map costs one lookup: bytearray.find
    jumps to the next unmarked rank.  When neither group is cut, the maps
    yielded are exactly the lexicographically minimal map of each orbit.
    Each group is cut to its first n(H)^n(G) elements in lexicographic
    order, which keeps a huge group (K12 has 12! automorphisms) no dearer
    than the maps; a cut group marks only part of each orbit, so an orbit
    may yield more than one map.  Either way the first map in lex order
    with a given value is never marked, as every map that marks it comes
    earlier and has the same value.  The groups and the marks are built
    once the first map, the all-zero one, is consumed, so a caller that
    stops there never pays for them.
    """
    m, n = g.order, h.order
    total = map_count(m, n, enum_bound)
    if total is None:
        raise EnumerationBudgetExceeded(
            f"{n}^{m} maps exceeds bound {enum_bound}")
    if not reduce_symmetry:
        for image in itertools.product(range(n), repeat=m):
            yield VertexMap(m, n, image)
        return
    image = (0,) * m
    yield VertexMap(m, n, image)
    auts_g, auts_h = automorphisms(g, total), automorphisms(h, total)
    # f -> f o pi as tuples; itemgetter of one index returns a bare value,
    # but one base vertex has only the identity
    movers = [operator.itemgetter(*pi) for pi in auts_g] if m > 1 else [tuple]
    weights = [n ** (m - 1 - v) for v in range(m)]  # rank = image . weights
    marks = bytearray(total)
    rank = 0
    while True:
        _mark_images(marks, image, movers, auts_h, weights)
        rank = marks.find(0, rank + 1)
        if rank < 0:
            return
        image = tuple(rank // w % n for w in weights)
        yield VertexMap(m, n, image)


def _mark_images(marks: bytearray, image: tuple[int, ...], movers: list,
                 auts_h: list[tuple[int, ...]], weights: list[int]) -> None:
    """Mark the lex rank of sigma o f o pi for every sigma in auts_h and
    every f o pi that movers give, f the map with this image.  With
    moved = f o pi, that rank is the sum over fiber vertices x of sigma(x)
    times the weights of the base vertices moved sends to x, so each
    distinct moved costs one pass over the base, then n(H) products per
    sigma."""
    n = len(auts_h[0])
    for moved in {move(image) for move in movers}:
        by_value = [0] * n
        for x, w in zip(moved, weights):
            by_value[x] += w
        for sigma in auts_h:
            marks[sum(map(operator.mul, sigma, by_value))] = 1


# ---------------------------------------------------------------------------
# optimizing chi_rho over all connecting functions

@dataclass(frozen=True)
class SierpinskiChiResult:
    value: Optional[int]
    witness_map: Optional[VertexMap]
    witness_coloring: Optional[PackingColoring]
    explored: int
    complete: bool


def _complete_pair_floor(g: Graph, h: Graph) -> Optional[int]:
    """The mn-2m+2 lower bound valid for every f when G = K_m and H = K_n,
    m, n >= 3; None otherwise.  Proof: two vertices of one fiber are
    adjacent and any other two are joined by a step, the connecting edge
    and a step, so the diameter is at most 3 and every class of a color
    >= 3 is one vertex; each fiber is a clique, so classes 1 and 2 hold at
    most m vertices each.  So k colors cover at most 2m + k - 2 of the mn
    vertices.  The bound holds for all m and n, but only for m, n >= 3 is
    it used, where it equals the minimum; on a K2 base it would stop runs
    early and change explored."""
    m, n = g.order, h.order
    if m >= 3 and n >= 3 and g.size == m * (m - 1) // 2 \
            and h.size == n * (n - 1) // 2:
        return m * n - 2 * m + 2
    return None


def _min_floor(g: Graph, h: Graph, **limits) -> Optional[int]:
    """A lower bound on chi_rho(G (x)_f H) valid for every f, or None.

    Complete pairs take _complete_pair_floor.  Otherwise, with w = omega(G)
    and 2 <= w < n(G), it is the min over K_w (x) H, a sub-run with the
    same limits: K_w is a subgraph of G, so K_w (x)_{f|K_w} H is a subgraph
    of G (x)_f H, and chi_rho is monotone under subgraphs.  K_w has no
    proper clique floor, so the sub-run makes no sub-run of its own.  A
    sub-run cut short by a limit gives no floor."""
    floor = _complete_pair_floor(g, h)
    if floor is not None:
        return floor
    n = g.order
    full = (1 << n) - 1
    # a largest set with no two non-adjacent vertices: a largest clique
    omega = _max_packing_search(
        tuple(full ^ sum(1 << u for u in nbrs) for nbrs in g.adj))[0]
    if not 2 <= omega < n:
        return None
    sub = sierpinski_chi(complete(omega), h, "min", reduce_symmetry=True,
                         **limits)
    return sub.value if sub.complete else None


def _repaired(x: Graph, pool: deque, best: int) -> bool:
    """Whether a coloring of x with at most best colors is found with no
    search, by repairing each coloring of pool, then the empty one (the
    greedy), each with _EVICTIONS_PER_VERTEX * n(x) evictions.  A pool
    coloring that succeeds moves to the front."""
    evictions = _EVICTIONS_PER_VERTEX * x.order
    for i, colors in enumerate(pool):
        if repair_coloring(x, colors, best, evictions) is not None:
            del pool[i]
            pool.appendleft(colors)
            return True
    return repair_coloring(x, (0,) * x.order, best, evictions) is not None


def sierpinski_chi(g: Graph, h: Graph, mode: str, *,
                   reduce_symmetry: bool = False,
                   enum_bound: int = DEFAULT_ENUM_BOUND,
                   node_budget: Optional[int] = None,
                   max_order: int = DEFAULT_SOLVER_BOUND
                   ) -> SierpinskiChiResult:
    """Exact min (or max) of chi_rho(G (x)_f H) over all f, with a witness
    map and an optimal coloring for it.

    The witness is the first map, in enumeration order, that attains the
    optimum.  The maps are those enumerate_maps yields with reduce_symmetry;
    each is settled by a repair or by chi_rho_exact bounded by the best so
    far, and a min run stops at the first map that reaches _min_floor.
    explored counts the settled maps: those yielded, or without
    reduce_symmetry every map up to the last one settled.  Budget exhaustion
    (enumeration bound or solver node budget) yields a partial result with
    complete=False and the explored count; the floor's sub-run gets the
    same limits, and one it does not finish only leaves the run without a
    floor.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    best: Optional[int] = None
    best_map: Optional[VertexMap] = None
    best_col: Optional[PackingColoring] = None
    explored = 0
    floor: Optional[int] = None
    floor_due = mode == "min"
    complete_run = True
    pool: deque = deque(maxlen=POOL_SIZE)  # colors tuples, most recent first
    try:
        for f in enumerate_maps(g, h, True, enum_bound):
            if not reduce_symmetry:
                # every map before f in lex order is settled: by a solve,
                # a repair, or left out because its orbit's lexmin came
                # earlier
                explored = functools.reduce(lambda r, v: r * h.order + v,
                                            f.image, 0)
            x = sierpinski_product(g, h, f).graph
            if mode == "min":
                solved = chi_rho_exact(x, below=best, node_budget=node_budget,
                                       max_order=max_order)
            elif best is not None and _repaired(x, pool, best):
                solved = None
            else:
                solved = chi_rho_exact(x, node_budget=node_budget,
                                       max_order=max_order)
                pool.appendleft(solved[1].colors)
                if best is not None and solved[0] <= best:
                    solved = None
            if solved is not None:
                best, best_col = solved
                best_map = f
            explored += 1
            if floor_due:
                # after the first map, so a run the enumeration bound or
                # the budget stops there pays for no sub-run
                floor_due = False
                floor = _min_floor(g, h, enum_bound=enum_bound,
                                   node_budget=node_budget,
                                   max_order=max_order)
            if best == floor:
                # no f can go below the floor, so the minimum is settled
                break
        else:
            if not reduce_symmetry:
                explored = h.order ** g.order
    except (SearchBudgetExceeded, EnumerationBudgetExceeded):
        complete_run = False
    return SierpinskiChiResult(best, best_map, best_col, explored,
                               complete_run)
