"""Closed-form values and constructive colorings for products of complete
graphs, paths and stars, plus the corona tables they are checked against.

FAMILIES, at the end of the module, is the one registry of the paper's
product families: for each it names the parameters, gives the value in each
mode it has, and, where the paper colors the family constructively, the
factor graphs, the default map and the verified coloring.  The `family`
command reads it, and so does every `verify-paper` check that compares
against a family's value or coloring; Family.value and Family.construct
are the only way to them.

Every coloring built here is verified before it is returned; a verification
failure raises ConstructionError.  Values carry a source token naming the
formula they come from, so reports can say what a number was checked
against.

Two pattern constructions deviate from their published description in small
ways that the verifier forced:

* seven_color_tree_class: when a spine vertex with a color other than 1
  carries a second attached path, that path starts 1,3,1,2,... instead of
  3,1,2,...  (the unshifted start puts two 3s at distance 3 whenever two
  adjacent spine vertices both carry second paths);
* path_star min coloring: a leaf that carries two connecting edges is
  colored 3, not 2 (it is adjacent to its own fiber center, which is 2).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .coloring import PackingColoring, verify_packing_coloring
from .errors import ConstructionError, ConstructionOutOfRange
from .graphs import Graph, is_tree, path, star, tree_preorder
from .product import ProductGraph, VertexMap, sierpinski_product

SPINE_CYCLE = (1, 4, 1, 5, 1, 6, 1, 7)
FIRST_BRANCH = (2, 1, 3, 1)
SECOND_BRANCH = (3, 1, 2, 1)          # attachment vertex colored 1
SECOND_BRANCH_SHIFTED = (1, 3, 1, 2)  # attachment vertex colored 4..7

# 64-entry pattern for the shortest path through a path-by-star product,
# verified by computer for this length.
PATH_STAR_SPINE_PATTERN = (
    3, 4, 7, 5, 3, 6, 4, 9, 3, 5, 7, 4, 3, 6, 8, 5,
    3, 4, 7, 9, 3, 5, 4, 6, 3, 8, 7, 4, 3, 5, 6, 9,
    3, 4, 7, 5, 3, 6, 4, 8, 3, 5, 7, 4, 3, 6, 9, 5,
    3, 4, 7, 8, 3, 5, 4, 6, 3, 9, 7, 4, 3, 5, 6, 8,
)


@dataclass(frozen=True)
class FamilyValue:
    """A closed-form value (or bound/interval) for one product family."""

    family: str
    params: tuple[tuple[str, int], ...]
    kind: str  # "exact" | "lower_bound" | "upper_bound" | "interval"
    value: Optional[int] = None
    lo: Optional[int] = None
    hi: Optional[int] = None
    source: str = ""

    def __post_init__(self):
        if self.kind == "interval":
            if self.lo is None or self.hi is None or self.lo > self.hi:
                raise ValueError("interval needs lo <= hi")
        elif self.value is None or self.value < 1:
            raise ValueError(f"{self.kind} value must be a positive integer")

    def to_json_dict(self) -> dict:
        d = {"family": self.family, "params": dict(self.params),
             "kind": self.kind, "source": self.source}
        if self.kind == "interval":
            d["lo"], d["hi"] = self.lo, self.hi
        else:
            d["value"] = self.value
        return d


def _checked(graph: Graph, colors: list[int], what: str) -> PackingColoring:
    col = PackingColoring.from_colors(colors)
    res = verify_packing_coloring(graph, col)
    if not res.ok:
        raise ConstructionError(f"{what}: construction violates packing "
                                f"contract at {res.violation}")
    return col


# ---------------------------------------------------------------------------
# complete factors

def complete_pair_value(m: int, n: int, mode: str) -> FamilyValue:
    """Exact min (mn-2m+2) or max (mn-2m+2 when n >= m, else mn-m-n+2) of
    the packing chromatic number over all connecting functions, for complete
    base K_m and complete fiber K_n with m, n >= 3.  Parameters equal to 2
    are routed to the K_2 special cases."""
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    if m == 2:
        return _k2_base_value(n)
    if n == 2:
        return _k2_fiber_value(m, mode)
    if m < 3 or n < 3:
        raise ValueError("complete_pair_value needs m, n >= 2")
    if mode == "min":
        value, source = m * n - 2 * m + 2, "complete-complete-min"
    elif n >= m:
        value, source = m * n - 2 * m + 2, "complete-complete-max-wide-fiber"
    else:
        value, source = m * n - m - n + 2, "complete-complete-max-wide-base"
    return FamilyValue("complete-complete", (("m", m), ("n", n)),
                       "exact", value=value, source=source)


def complete_by_K2_value(m: int, m1: int, m2: int) -> FamilyValue:
    """Exact value for K_m with fiber K_2 where m1 base vertices map to one
    fiber vertex and m2 to the other: 2m - max(m1,m2) - 1 when both parts
    have size >= 2, else m + 1."""
    if m1 < m2:
        raise ValueError("normalize to m1 >= m2 before calling")
    if m1 + m2 != m or m2 < 0 or m < 3:
        raise ValueError(f"need m1 + m2 = m >= 3, got ({m}, {m1}, {m2})")
    value = 2 * m - m1 - 1 if m2 >= 2 else m + 1
    return FamilyValue("complete-k2", (("m", m), ("m1", m1), ("m2", m2)),
                       "exact", value=value, source="complete-k2-piecewise")


# The two K_2 special cases give the published values as stated.  These
# are claims, not oracle-certified ground truth; the cross-check suite
# computes the truth and reports against them.

def _k2_base_value(n: int) -> FamilyValue:
    """Base K_2, fiber K_n: min and max both claimed to be 2n-1 (the claim
    fails for n >= 3)."""
    if n < 2:
        raise ValueError("base_K2 needs fiber order n >= 2")
    return FamilyValue("k2-complete", (("n", n),), "exact",
                       value=2 * n - 1, source="k2-base-identity")


def _k2_fiber_value(m: int, mode: str) -> FamilyValue:
    """Base K_m, fiber K_2, over all maps: min m+1, max 2m - ceil(m/2) - 1
    (the max formula fails at m = 3)."""
    if m < 3:
        raise ValueError("fiber_K2 needs base order m >= 3")
    if mode == "min":
        return FamilyValue("complete-k2", (("m", m),), "exact",
                           value=m + 1, source="k2-fiber-min")
    return FamilyValue("complete-k2", (("m", m),), "exact",
                       value=2 * m - (-(-m // 2)) - 1, source="k2-fiber-max")


def corona_table_value(n: int, p: int) -> FamilyValue:
    """Packing chromatic number of the path corona P_n with p pendants per
    vertex, from the published piecewise tables (p = 2, p = 3, p >= 4)."""
    if n < 1:
        raise ValueError("corona table needs n >= 1")
    if p < 2:
        raise ValueError("corona table covers p >= 2 only")
    if n == 1:
        value = 2
    elif n == 2:
        value = 3
    elif n <= 4:
        value = 4
    elif p == 2:
        value = 5 if n <= 11 else 6
    elif p == 3:
        value = 5 if n <= 8 else 6
    else:
        value = 5 if n <= 8 else (6 if n <= 34 else 7)
    source = f"corona-{min(p, 4)}{'plus' if p >= 4 else ''}-pendants-table"
    return FamilyValue("corona", (("n", n), ("p", p)), "exact",
                       value=value, source=source)


# ---------------------------------------------------------------------------
# path by path

def path_path_min_map(m: int, n: int) -> tuple[VertexMap, PackingColoring]:
    """The endpoint-alternating map that turns P_m (x)_g P_n into the path
    on mn vertices, plus a 3-coloring of the result."""
    prod, coloring = FAMILIES["path-path"].construct({"m": m, "n": n}, "min")
    return prod.vmap, coloring


def _path_path_min(prod: ProductGraph) -> PackingColoring:
    g = prod.graph
    ends = [v for v in range(g.order) if g.degree(v) == 1]
    if len(ends) != 2 or max(g.degree(v) for v in range(g.order)) > 2 \
            or not is_tree(g):
        raise ConstructionError("endpoint-alternating map did not yield a path")
    return _by_depth(g, min(ends), (1, 2, 1, 3), "path-path-min")


def _by_depth(g: Graph, root: int, pattern: tuple[int, ...],
              what: str) -> PackingColoring:
    """The tree g colored by depth from root, cycling through pattern."""
    order, parent = tree_preorder(g.adj, root)
    depth = [0] * g.order
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    return _checked(g, [pattern[d % len(pattern)] for d in depth], what)


def _is_canonical_path(g: Graph) -> bool:
    return g.size == g.order - 1 and \
        all(g.has_edge(i, i + 1) for i in range(g.order - 1))


@dataclass
class SpineDecomposition:
    """A tree split into a spine path plus up to two pendant paths per spine
    vertex.  Branch lists run outward and exclude the attachment vertex."""

    graph: Graph
    spine: tuple[int, ...]
    branches: dict[int, tuple[tuple[int, ...], ...]]

    def validate(self) -> None:
        g = self.graph
        if not is_tree(g):
            raise ValueError("spine decompositions are defined on trees")
        if not self.spine:
            raise ValueError("empty spine")
        for a, b in zip(self.spine, self.spine[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"spine break between {a} and {b}")
        seen = set(self.spine)
        if len(seen) != len(self.spine):
            raise ValueError("spine revisits a vertex")
        for attach, paths in self.branches.items():
            if attach not in seen:
                raise ValueError(f"branch attached to non-spine vertex {attach}")
            if len(paths) > 2:
                raise ValueError(f"more than two branches at {attach}")
            for branch in paths:
                if not branch:
                    raise ValueError("empty branch")
                if not g.has_edge(attach, branch[0]):
                    raise ValueError("branch does not start at its attachment")
                for a, b in zip(branch, branch[1:]):
                    if not g.has_edge(a, b):
                        raise ValueError("branch is not a path")
                for v in branch:
                    if v in seen:
                        raise ValueError(f"vertex {v} on two pieces")
                    seen.add(v)
        if len(seen) != g.order:
            raise ValueError("decomposition does not cover the tree")


def spine_decompose(p: ProductGraph) -> SpineDecomposition:
    """Split a path-by-path product into its spine walk and leftover stubs.

    The spine enters fiber j at the image of u_{j-1}, runs inside the fiber
    to the image of u_{j+1}, and crosses the connecting edge; the end fibers
    contribute only their connecting vertex.  Leftover fiber ends hang off
    the segment endpoints as branches.
    """
    base, fiber = p.base, p.fiber
    if not _is_canonical_path(base) or not _is_canonical_path(fiber):
        raise ValueError("spine_decompose needs a product of two paths "
                         "in path order")
    m, n = base.order, fiber.order
    fm = p.vmap.image
    if m == 1:
        return SpineDecomposition(
            p.graph, tuple(p.vertex_of(0, h) for h in range(n)), {})
    segs = []
    for j in range(m):
        if j == 0:
            segs.append([fm[1]])
        elif j == m - 1:
            segs.append([fm[m - 2]])
        else:
            a, b = fm[j - 1], fm[j + 1]
            step = 1 if b >= a else -1
            segs.append(list(range(a, b + step, step)))
    spine = tuple(p.vertex_of(j, h) for j, seg in enumerate(segs) for h in seg)
    branches: dict[int, list[tuple[int, ...]]] = {}
    for j, seg in enumerate(segs):
        lo = min(seg[0], seg[-1])
        hi = max(seg[0], seg[-1])
        if lo > 0:
            branches.setdefault(p.vertex_of(j, lo), []).append(
                tuple(p.vertex_of(j, h) for h in range(lo - 1, -1, -1)))
        if hi < n - 1:
            branches.setdefault(p.vertex_of(j, hi), []).append(
                tuple(p.vertex_of(j, h) for h in range(hi + 1, n)))
    out = SpineDecomposition(p.graph, spine,
                             {a: tuple(b) for a, b in branches.items()})
    out.validate()
    return out


def color_class_T(d: SpineDecomposition) -> PackingColoring:
    """Color a spine-plus-pendant-paths tree with at most 7 colors.

    Spine: 1,4,1,5,1,6,1,7 cyclically.  First branch at a spine vertex:
    2,1,3,1,...  Second branch: 3,1,2,1,... when the spine vertex is
    colored 1, and 1,3,1,2,... otherwise (see the module docstring for why
    the second case is shifted).
    """
    d.validate()
    colors = [0] * d.graph.order
    for i, v in enumerate(d.spine):
        colors[v] = SPINE_CYCLE[i % 8]
    for attach, paths in d.branches.items():
        cv = colors[attach]
        for idx, branch in enumerate(paths):
            if idx == 0:
                cyc = FIRST_BRANCH
            elif cv == 1:
                cyc = SECOND_BRANCH
            else:
                cyc = SECOND_BRANCH_SHIFTED
            for t, v in enumerate(branch):
                colors[v] = cyc[t % 4]
    return _checked(d.graph, colors, "seven-color-tree-class")


# ---------------------------------------------------------------------------
# star by path

def star_path_min_map(m: int, n: int) -> VertexMap:
    """The constant map sending every star vertex to path endpoint 1."""
    return VertexMap.constant(m + 1, n, 0)


def _star_path_min(prod: ProductGraph) -> PackingColoring:
    """Star base K_{1,m} (center 0), path fiber P_n, constant endpoint map:
    the product is a spider; its hub is colored 2, odd levels 1, levels
    2 mod 4 get 3 and levels 0 mod 4 get 2, using exactly three colors."""
    return _by_depth(prod.graph, prod.vertex_of(0, 0), (2, 1, 3, 1),
                     "star-path-min")


def _star_path_max(prod: ProductGraph) -> PackingColoring:
    """A coloring of K_{1,m} (x)_f P_n with at most 7 colors, for any map f.

    When every leaf fiber hangs from a path endpoint the hub path takes the
    pattern 2,4,3,5,2,6,3,7 and each pendant path takes 1,2,1,3,... or
    1,3,1,2,... depending on the color at its attachment.  When fibers
    attach at an interior path vertex both stubs of the fiber are colored
    around the connecting vertex, and the hub path switches to the palette
    {1,4,5,6,7} so that interior attachments stay legal; hub vertices
    carrying three or more fibers must then take a high color, and inputs
    too dense for that raise ConstructionOutOfRange.
    """
    g, f = prod.graph, prod.vmap
    m, n = prod.base.order - 1, prod.fiber.order
    p = f(0)
    colors = [0] * g.order
    if p == 0 or p == n - 1:
        hub_cycle = (2, 4, 3, 5, 2, 6, 3, 7)
        for h in range(n):
            colors[prod.vertex_of(0, h)] = hub_cycle[h % 8]
        for i in range(1, m + 1):
            at_color = hub_cycle[f(i) % 8]
            pat = (1, 3, 1, 2) if at_color == 2 else (1, 2, 1, 3)
            for h in range(n):
                colors[prod.vertex_of(i, h)] = pat[abs(h - p) % 4]
        return _checked(g, colors, "star-path-max-endpoint")

    loads = Counter(f(i) for i in range(1, m + 1))
    heavy = {h for h, c in loads.items() if c >= 3}
    hub = _hub_path_colors(n, heavy)
    for h in range(n):
        colors[prod.vertex_of(0, h)] = hub[h]
    rank: Counter = Counter()
    for i in range(1, m + 1):
        w = f(i)
        if hub[w] != 1:
            _fill_interior_fiber(colors, prod, i, p, n, "A")
        else:
            variant = "B" if rank[w] == 0 else "C"
            rank[w] += 1
            if rank[w] > 2:
                raise ConstructionOutOfRange(
                    "hub vertex with three fibers was not given a high color")
            _fill_interior_fiber(colors, prod, i, p, n, variant)
    return _checked(g, colors, "star-path-max-interior")


def _hub_path_colors(n: int, heavy: set[int]) -> list[int]:
    """Colors for the hub path from the palette {1,4,5,6,7}: no adjacent 1s,
    each high color more than its own value apart, high colors at every
    heavy position."""
    for phase in (0, 1):
        if all(h % 2 == phase for h in heavy):
            bigs = itertools.cycle((4, 5, 6, 7))
            return [next(bigs) if h % 2 == phase else 1 for h in range(n)]
    out = [0] * n
    last = {4: -100, 5: -100, 6: -100, 7: -100}

    def choices(i: int):
        # the colors position i can take, in search order; each high color
        # holds its place in `last` until the search moves past it
        if i not in heavy and (i == 0 or out[i - 1] != 1):
            yield 1
        for c in (4, 5, 6, 7):
            if i - last[c] > c:
                prev, last[c] = last[c], i
                yield c
                last[c] = prev

    # depth-first on an explicit stack, one generator per colored position;
    # a step is one position entered, the end of the path included
    stack = []
    for steps in itertools.count(1):
        if steps > 200_000:
            raise ConstructionOutOfRange(
                "no {1,4,5,6,7} hub coloring found within the search cap")
        if len(stack) == n:
            return out
        stack.append(choices(len(stack)))
        while stack:
            c = next(stack[-1], None)
            if c is not None:
                out[len(stack) - 1] = c
                break
            stack.pop()
        else:
            raise ConstructionOutOfRange(
                "attachments too dense for the {1,4,5,6,7} hub palette")


def _fill_interior_fiber(colors: list[int], prod: ProductGraph, i: int,
                         p: int, n: int, variant: str) -> None:
    # A hangs from a high hub color: connecting vertex 1, stubs 2,1,3,1 and
    # 3,1,2,1.  B and C hang from a hub 1: connecting vertex 2 (resp. 3),
    # both stubs 1 at odd offsets and 3/2 (resp. 2/3) at even offsets.
    for h in range(n):
        if variant == "A":
            pattern = (1, 2, 1, 3) if h > p else (1, 3, 1, 2)
        else:
            pattern = (2, 1, 3, 1) if variant == "B" else (3, 1, 2, 1)
        colors[prod.vertex_of(i, h)] = pattern[abs(h - p) % 4]


# ---------------------------------------------------------------------------
# path by star

def path_star_min_map(m: int, n: int) -> VertexMap:
    """The period-8 map onto star vertices {center, three leaves}: center at
    i = 1 mod 4, leaf 1 at i = 2, 4 mod 8, leaf 2 at i = 6, 0 mod 8 and
    leaf 3 at i = 3 mod 4 (1-indexed base positions)."""
    if n < 3:
        raise ValueError("the min map uses three distinct leaves, needs n >= 3")
    image = []
    for i in range(1, m + 1):
        if i % 4 == 1:
            image.append(0)
        elif i % 8 in (2, 4):
            image.append(1)
        elif i % 8 in (6, 0):
            image.append(2)
        else:
            image.append(3)
    return VertexMap(m, n + 1, tuple(image))


def _path_star_min(prod: ProductGraph) -> PackingColoring:
    """Path base P_m, star fiber K_{1,n} (center 0), period-8 map: color
    every vertex of degree at most 2 with 1, fiber centers with 3 where the
    map value is the center and 2 elsewhere, and doubly-connecting leaves
    with 3."""
    g, f = prod.graph, prod.vmap
    colors = []
    for v in range(g.order):
        if g.degree(v) <= 2:
            colors.append(1)
        elif prod.fiber_of(v) == 0:
            colors.append(3 if f(prod.base_of(v)) == 0 else 2)
        else:
            colors.append(3)  # leaf carrying two connecting edges
    # the degree rule is blind to the last fiber, whose connecting vertex
    # can never carry two connecting edges; when the final connecting edge
    # joins two degree-2 leaves (m = 3, 7 mod 8) the later endpoint takes
    # 3, the same color a doubly-connecting leaf would have taken there
    for (a, b), _ in prod.connecting:
        if colors[a] == 1 and colors[b] == 1:
            later = a if prod.base_of(a) > prod.base_of(b) else b
            colors[later] = 3
    return _checked(g, colors, "path-star-min")


def _path_star_max(prod: ProductGraph, cyclic: bool) -> PackingColoring:
    """A coloring of P_m (x)_f K_{1,n} with at most 9 colors, for any map f:
    the shortest path between the connecting vertices of the two end fibers
    takes the 64-entry high pattern, all remaining leaves 1 and all
    remaining centers 2.  Paths longer than the pattern need cyclic=True
    and are always re-verified."""
    g, f, m = prod.graph, prod.vmap, prod.base.order
    src = prod.vertex_of(0, f(1))
    dst = prod.vertex_of(m - 1, f(m - 2))
    parent = tree_preorder(g.adj, src)[1]  # the product is a tree
    q = [dst]
    while q[-1] != src:
        q.append(parent[q[-1]])
    q.reverse()
    if len(q) > len(PATH_STAR_SPINE_PATTERN) and not cyclic:
        raise ConstructionOutOfRange(
            f"path of {len(q)} vertices exceeds the {len(PATH_STAR_SPINE_PATTERN)}"
            " entry pattern; pass cyclic=True (--cyclic) to wrap it")
    colors = [0] * g.order
    on_q = set(q)
    for pos, v in enumerate(q):
        colors[v] = PATH_STAR_SPINE_PATTERN[pos % len(PATH_STAR_SPINE_PATTERN)]
    for v in range(g.order):
        if v in on_q:
            continue
        colors[v] = 1 if g.degree(v) == 1 else 2
    col = PackingColoring.from_colors(colors)
    res = verify_packing_coloring(g, col)
    if not res.ok:
        if len(q) > len(PATH_STAR_SPINE_PATTERN):
            raise ConstructionOutOfRange(
                f"cyclic extension of the pattern fails at {res.violation}")
        raise ConstructionError(f"path-star-max violates packing contract "
                                f"at {res.violation}")
    return col


# ---------------------------------------------------------------------------
# star by star

def star_star_min_map(m: int, n: int) -> VertexMap:
    """The constant map sending every base vertex to the last fiber leaf."""
    return VertexMap.constant(m + 1, n + 1, n)


def _star_star_min(prod: ProductGraph) -> PackingColoring:
    """Star base K_{1,m}, star fiber K_{1,n}, both centers at index 0: the
    minimum over all maps is exactly 3, witnessed by the constant-leaf map
    with hub leaf 3, fiber centers 2, everything else 1."""
    m, n = prod.base.order - 1, prod.fiber.order - 1
    colors = [1] * prod.graph.order
    colors[prod.vertex_of(0, n)] = 3
    for i in range(m + 1):
        colors[prod.vertex_of(i, 0)] = 2
    return _checked(prod.graph, colors, "star-star-min")


def _star_star_max(prod: ProductGraph) -> PackingColoring:
    """The proof bound of the max interval [min(m,n)+2, max(m,n)+2], for
    any map f: when the base center maps to the fiber center, leaves are 1
    and the m+1 fiber centers take distinct colors 2..m+2; otherwise leaf
    fibers take center 2 / rest 1 and the hub fiber's connecting vertices
    take one fresh high color each."""
    graph, f, m = prod.graph, prod.vmap, prod.base.order - 1
    colors = [1] * graph.order
    if f(0) == 0:
        # every connecting edge lands on fiber centers: centers take
        # mutually distinct colors, everything else stays 1
        for i in range(m + 1):
            colors[prod.vertex_of(i, 0)] = 2 + i
        return _checked(graph, colors, "star-star-max-central")
    hub_values = sorted({f(i) for i in range(1, m + 1)})
    for i in range(1, m + 1):
        colors[prod.vertex_of(i, 0)] = 2
    if 0 not in hub_values:
        colors[prod.vertex_of(0, 0)] = 2
    nxt = 3
    for v in hub_values:
        colors[prod.vertex_of(0, v)] = nxt
        nxt += 1
    return _checked(graph, colors, "star-star-max-offcenter")


# ---------------------------------------------------------------------------
# the family registry

Params = Mapping[str, int]


@dataclass(frozen=True)
class Family:
    """One product family: its parameter names and its value in each mode
    it has.  A family the paper colors constructively also gives its factor
    graphs, min_map, the one map its min construction colors, and the
    construction per mode: colors[mode](product, cyclic) returns the
    verified coloring, where cyclic lets path-star's max construction wrap
    its pattern."""

    params: tuple[str, ...]
    values: dict[str, Callable[[Params], FamilyValue]]
    factors: Optional[Callable[[int, int], tuple[Graph, Graph]]] = None
    min_map: Optional[Callable[[int, int], VertexMap]] = None
    colors: dict[str, Callable] = field(default_factory=dict)
    names_map: bool = False  # path-path's report names its min_map

    def value(self, p: Params, mode: str) -> FamilyValue:
        if mode not in self.values:
            raise ValueError(f"no closed form in {mode} mode; "
                             "`sierpack schirho` computes it exactly")
        return self.values[mode](p)

    def construct(self, p: Params, mode: str, f: Optional[VertexMap] = None,
                  cyclic: bool = False
                  ) -> Optional[tuple[ProductGraph, PackingColoring]]:
        """The product the mode's construction colors, min_map in min mode
        and f otherwise, with its coloring; None when the mode has no
        construction or f is needed and None."""
        self.value(p, mode)  # checks the mode and the parameters
        color = self.colors.get(mode)
        if color is None or (mode != "min" and f is None):
            return None
        m, n = p["m"], p["n"]
        if mode == "min":
            want = self.min_map(m, n)
            if f not in (None, want):
                raise ValueError("the min construction colors only the map "
                                 + want.to_text())
            f = want
        prod = sierpinski_product(*self.factors(m, n), f)
        return prod, color(prod, cyclic)


def _sizes(p: Params, m_lo: int, n_lo: int) -> tuple[tuple[str, int], ...]:
    m, n = p["m"], p["n"]
    if m < m_lo or n < n_lo:
        raise ValueError(f"the family needs m >= {m_lo} and n >= {n_lo}")
    return ("m", m), ("n", n)


FAMILIES: dict[str, Family] = {
    "complete-complete": Family(("m", "n"), {
        mode: (lambda p, mode=mode: complete_pair_value(p["m"], p["n"], mode))
        for mode in ("min", "max")}),
    "complete-k2": Family(("m", "m1", "m2"), {  # m1 and m2 come together
        mode: (lambda p, mode=mode:
               complete_by_K2_value(p["m"], max(p["m1"], p["m2"]),
                                    min(p["m1"], p["m2"]))
               if "m1" in p or "m2" in p
               else _k2_fiber_value(p["m"], mode))
        for mode in ("min", "max")}),
    "k2-complete": Family(("n",), {
        mode: (lambda p: _k2_base_value(p["n"])) for mode in ("min", "max")}),
    "corona": Family(("n", "p"), {
        mode: (lambda p: corona_table_value(p["n"], p["p"]))
        for mode in ("min", "max")}),
    "path-path": Family(
        ("m", "n"),
        {"min": lambda p: FamilyValue("path-path", _sizes(p, 2, 2), "exact",
                                      value=3, source="path-path-min")},
        lambda m, n: (path(m), path(n)),
        # endpoint-alternating: u_i goes to fiber vertex 1 when i mod 4 is 1
        # or 2, to fiber vertex n otherwise (1-indexed)
        lambda m, n: VertexMap(m, n, tuple(0 if i % 4 in (1, 2) else n - 1
                                           for i in range(1, m + 1))),
        {"min": lambda x, cyclic: _path_path_min(x)}, names_map=True),
    "star-path": Family(
        ("m", "n"),
        {"min": lambda p: FamilyValue("star-path", _sizes(p, 3, 1), "exact",
                                      value=3, source="star-path-min"),
         "max": lambda p: FamilyValue("star-path", _sizes(p, 3, 1),
                                      "upper_bound", value=7,
                                      source="star-path-max-bound")},
        lambda m, n: (star(m), path(n)), star_path_min_map,
        {"min": lambda x, cyclic: _star_path_min(x),
         "max": lambda x, cyclic: _star_path_max(x)}),
    "path-star": Family(
        ("m", "n"),
        {"min": lambda p: FamilyValue("path-star", _sizes(p, 2, 3), "exact",
                                      value=3, source="path-star-min"),
         "max": lambda p: FamilyValue("path-star", _sizes(p, 2, 3),
                                      "upper_bound", value=9,
                                      source="path-star-max-bound")},
        lambda m, n: (path(m), star(n)), path_star_min_map,
        {"min": lambda x, cyclic: _path_star_min(x),
         "max": _path_star_max}),
    "star-star": Family(
        ("m", "n"),
        {"min": lambda p: FamilyValue("star-star", _sizes(p, 3, 3), "exact",
                                      value=3, source="star-star-min"),
         "max": lambda p: FamilyValue(
             "star-star", _sizes(p, 3, 3), "interval",
             lo=min(p["m"], p["n"]) + 2, hi=max(p["m"], p["n"]) + 2,
             source="star-star-max-interval")},
        lambda m, n: (star(m), star(n)), star_star_min_map,
        {"min": lambda x, cyclic: _star_star_min(x),
         "max": lambda x, cyclic: _star_star_max(x)}),
}
