"""Undirected simple graphs on vertices 0..n-1, with the distance, packing
and tree machinery the rest of the package is built on.

Graphs are immutable after construction and all operations here are pure
functions of their inputs.  The per-graph record behind ``distances``
(``Balls``: distance balls, BFS order, tree flag, search orders) serves
the solver: it is cached and shared between structurally equal graphs, so
each ``Balls`` grows its rows under its own lock.  All other distances
come from ``bfs_layers``, in O(n) memory.
max_packing checks its order (check_exact_order) before any balls are built.
No search here recurses: the clique-cover search keeps its path on an
explicit stack, so max_order and memory alone bound the orders it takes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import GraphTooLargeError, NotATreeError, SearchBudgetExceeded

# Exact searches (i-packing numbers, the packing coloring solver) reject
# graphs above this order unless the caller raises the bound explicitly.
DEFAULT_SOLVER_BOUND = 40


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    Vertices are the integers 0..order-1.  ``adj[v]`` is the sorted tuple of
    neighbors of ``v``.
    """

    order: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("graph must have at least one vertex")
        if len(self.adj) != self.order:
            raise ValueError("adjacency length does not match order")
        for v, nbrs in enumerate(self.adj):
            if tuple(sorted(set(nbrs))) != nbrs:
                raise ValueError(f"adjacency of {v} is not a sorted set")
            for u in nbrs:
                if not 0 <= u < self.order:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at {v}")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @classmethod
    def _trusted(cls, order: int, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """A graph from adjacency lists the caller guarantees valid, built
        without __post_init__'s checks (for from_edges, parsed text, the
        fibers recognition cuts and products of validated factors)."""
        g = object.__new__(cls)
        object.__setattr__(g, "order", order)
        object.__setattr__(g, "adj", adj)
        return g

    @staticmethod
    def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; rejects loops and duplicates.
        The lists built here are sorted, symmetric and in range, so the
        graph skips __post_init__'s re-validation."""
        if order < 1:
            raise ValueError("graph must have at least one vertex")
        nbrs: list[set[int]] = [set() for _ in range(order)]
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u},{v}) out of range for order {order}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph._trusted(order, tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.order):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def relabel(self, perm: dict[int, int] | list[int]) -> "Graph":
        """Return the graph with vertex v renamed to perm[v]."""
        edges = [(perm[u], perm[v]) for u, v in self.edges()]
        return Graph.from_edges(self.order, edges)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertices, relabeled 0..k-1 in the
        order given."""
        verts = list(vertices)
        index = {v: i for i, v in enumerate(verts)}
        edges = [(index[u], index[v])
                 for u in verts for v in self.adj[u]
                 if v in index and index[u] < index[v]]
        return Graph.from_edges(len(verts), edges)


# ---------------------------------------------------------------------------
# family generators (vertex conventions are fixed here: path vertices in path
# order, star vertex 0 is the center)

def path(n: int) -> Graph:
    """Path P_n with vertices 0..n-1 in path order."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Star K_{1,n} on n+1 vertices; vertex 0 is the center."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])


def complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def corona(g: Graph, p: int) -> Graph:
    """Attach p new pendant vertices to every vertex of g.

    The original vertices keep their indices 0..n-1; the pendants of vertex
    v are n + v*p .. n + v*p + p - 1.
    """
    if p < 1:
        raise ValueError("corona needs p >= 1 pendants per vertex")
    n = g.order
    edges = list(g.edges())
    for v in range(n):
        for j in range(p):
            edges.append((v, n + v * p + j))
    return Graph.from_edges(n * (1 + p), edges)


# ---------------------------------------------------------------------------
# distances

class Balls:
    """The per-graph record of what the solver, the repair and alpha_c
    derive from a graph alone.

    ``within(r)[v]`` is the bitmask of the vertices within distance r of v
    (none in another component).  ``ball`` holds the rows grown so far; row
    r+1, ball[r][v] or-ed with ball[r][w] over the neighbours w of v, is
    grown only when asked for, so memory follows the largest radius used,
    not the diameter.  Rows are grown under ``lock``, as the object may be
    shared between threads.  ``bfs`` is the BFS order from vertex 0 that
    the connectivity check takes, ``capacity`` memoizes alpha_c
    (coloring.packing_capacity), and ``tree``, ``static_order`` and
    ``degree_order`` are filled in the first time they are read.  Those
    three are set without ``lock``: each is a pure function of the graph,
    so threads that fill one at once store equal values.  All of it is
    evicted together (distances)."""

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.ball = [tuple(1 << v for v in range(g.order))]
        self.last = False  # set once a grown row equals the one before it
        self.lock = threading.Lock()
        self.bfs = reachable(g)
        self.connected = len(self.bfs) == g.order
        self.capacity: dict[int, int] = {}

    @cached_property
    def tree(self) -> bool:
        """Whether the graph is a tree: connected with order - 1 edges."""
        return self.connected and \
            sum(map(len, self.adj)) == 2 * (len(self.adj) - 1)

    @cached_property
    def static_order(self) -> tuple[int, ...]:
        """The decision search's static order: by descending size of the
        distance-2 ball, then by descending degree, then by index."""
        adj, ball2 = self.adj, self.within(2)
        return tuple(sorted(range(len(adj)), key=lambda v: (
            -ball2[v].bit_count(), -len(adj[v]), v)))

    @cached_property
    def degree_order(self) -> tuple[int, ...]:
        """The repair's order: by descending degree, ties by index."""
        adj = self.adj
        # sorted is stable, so vertices of equal degree stay in index order
        return tuple(sorted(range(len(adj)), key=lambda v: -len(adj[v])))

    def within(self, r: int) -> tuple[int, ...]:
        """Row r; past the largest eccentricity every row is the last."""
        rows = self.ball
        if r >= len(rows) and not self.last:
            with self.lock:
                while r >= len(rows) and not self.last:
                    row = rows[-1]
                    nxt = []
                    for v, nbrs in enumerate(self.adj):
                        m = row[v]
                        for w in nbrs:
                            m |= row[w]
                        nxt.append(m)
                    nxt = tuple(nxt)
                    if nxt == row:
                        self.last = True
                    else:
                        rows.append(nxt)
        return rows[min(r, len(rows) - 1)]


@lru_cache(maxsize=512)
def distances(g: Graph) -> Balls:
    """The record (Balls) of g, cached per graph (the 512 most recent)."""
    return Balls(g)


def bfs_layers(g: Graph, source: int, depth: int, stamp: list[int]
               ) -> Iterator[list[int]]:
    """The vertices at distance 1, 2, ... up to depth from source, one list
    per distance in BFS order, up to the first empty one.  ``stamp`` (n
    ints, -1 at first) may be shared by searches from distinct sources:
    each marks what it reaches with its source, so memory stays O(n)."""
    adj = g.adj
    stamp[source] = source
    layer = [source]
    for _ in range(depth):
        nxt = []
        for v in layer:
            for w in adj[v]:
                if stamp[w] != source:
                    stamp[w] = source
                    nxt.append(w)
        if not nxt:
            return
        yield nxt
        layer = nxt


def diameter(g: Graph) -> float:
    """Max distance, math.inf when g is disconnected: a BFS per vertex."""
    if not is_connected(g):
        return math.inf
    stamp = [-1] * g.order
    return max(sum(1 for _ in bfs_layers(g, v, g.order, stamp))
               for v in range(g.order))


def reachable(g: Graph, start: int = 0) -> list[int]:
    """The vertices reachable from start, in BFS order: start, then the
    layers of bfs_layers from it, concatenated.  One queue walk, O(n + m)
    time and memory.  The marks are a list rather than a bytearray because
    CPython specializes list subscripts."""
    adj = g.adj
    seen = [False] * g.order
    seen[start] = True
    order = [start]
    for v in order:
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    return order


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (one BFS)."""
    return len(reachable(g)) == g.order


# ---------------------------------------------------------------------------
# exact packing numbers: a greedy pass on trees, a clique-cover
# branch-and-bound on the conflict graph otherwise

def check_exact_order(n: int, max_order: int) -> None:
    if n > max_order:
        raise GraphTooLargeError(
            f"order {n} exceeds exact-search bound {max_order}")


def max_packing(g: Graph, i: int,
                max_order: int = DEFAULT_SOLVER_BOUND) -> int:
    """Exact size of a largest i-packing: a set of vertices with pairwise
    distance greater than i.  i=1 is the independence number, i=2 the
    2-packing number.

    On a tree one greedy pass is exact (Meir and Moon 1975): root it
    anywhere, take the vertices by non-increasing depth and keep each one
    whose i-ball holds no vertex kept so far.  The tree test and the pass,
    the BFS order from vertex 0 reversed, read the graph's cached Balls, so
    every alpha_c of one graph shares one BFS.  Proof sketch, an exchange on
    the vertex v being taken when it is kept.  Let P be a largest packing
    that agrees with every choice made before v.  Each vertex y of P within
    distance i of v is undecided, so it is no deeper than v; with l_y where
    the root paths of v and y meet, d(v, y) = t_y + s_y for
    t_y = d(v, l_y) >= s_y = d(l_y, y).  For two such x, y with t_x <= t_y,
    d(x, y) <= s_x + (t_y - t_x) + s_y <= t_y + s_y = d(v, y) <= i.  So P
    holds at most one vertex of the i-ball of v, and at least one, or v
    could be added to P.  Swapping that vertex for v gives a largest
    packing that also agrees with keeping v.

    Every other graph goes to the clique-cover branch-and-bound
    (_max_packing_search) on the conflict graph, which joins the vertices
    within distance i.  Its branches are not charged to the solver's node
    budget, so only max_order bounds it.  Its worst case is still
    exponential, but a cycle of order 80 takes about a millisecond for
    i = 1..3 (CPython 3.11, 2-vCPU machine).
    """
    n = g.order
    check_exact_order(n, max_order)
    balls = distances(g)
    conflict = balls.within(i)
    if not balls.tree:
        return _max_packing_search(conflict)[0]
    kept = 0
    for v in reversed(balls.bfs):  # BFS order reversed: deepest first
        if not conflict[v] & kept:
            kept |= 1 << v
    return kept.bit_count()


def _max_packing_search(conflict: tuple[int, ...],
                        node_budget: Optional[int] = None
                        ) -> tuple[int, int, int]:
    """A largest set of the vertices 0..len(conflict) - 1 with no two in
    conflict (``conflict[v]`` is the bitmask of v's conflicts, v itself
    included): its size, the set as a bitmask and the number of branches,
    the nodes of the search tree with the root.  It is a maximum-clique
    branch and bound on the complement (Tomita and Seki 2003, MCQ).  Each
    node covers its candidates greedily by cliques of the conflict graph,
    taking the lowest candidate and then the lowest that conflicts with
    every vertex so far; a set with no two in conflict holds at most one
    vertex of each clique.  It branches on the vertices of the last clique
    first and cuts once size plus the clique count left cannot beat the
    best.

    The search keeps one [cover, next index, cand, chosen, size] frame per
    vertex in the set on an explicit stack, so its depth is not bounded by
    the recursion limit; covers hold vertex indices, not bitmasks, so the
    stack takes O(n) words per frame.  Each branch counts against node_budget, and
    SearchBudgetExceeded is raised once it is passed.  max_packing and
    product._min_floor read the size; coloring.chi_rho_exact reads the set
    and charges the branches to its node budget."""
    best = best_set = branches = 0
    stack = []
    cand, chosen, size = (1 << len(conflict)) - 1, 0, 0
    while True:
        if size > best:
            best, best_set = size, chosen
        cover = []  # (vertex, number of cliques up to its own)
        rest = cand
        cliques = 0
        while rest:
            cliques += 1
            joinable = rest
            while joinable:
                bit = joinable & -joinable
                rest ^= bit
                v = bit.bit_length() - 1
                joinable &= conflict[v] & rest
                cover.append((v, cliques))
        branches += 1
        if node_budget is not None and branches > node_budget:
            raise SearchBudgetExceeded(branches)
        stack.append([cover, len(cover), cand, chosen, size])
        # the next branch: the last untried vertex of the deepest node whose
        # clique count left can still beat the best
        while stack:
            frame = stack[-1]
            cover, i, cand, chosen, size = frame
            if i and size + cover[i - 1][1] > best:
                v = cover[i - 1][0]
                bit = 1 << v
                cand ^= bit
                frame[1], frame[2] = i - 1, cand
                cand &= ~conflict[v]
                chosen |= bit
                size += 1
                break
            stack.pop()
        else:
            return best, best_set, branches


# ---------------------------------------------------------------------------
# trees

def is_tree(g: Graph) -> bool:
    """True iff g is connected with exactly order-1 edges."""
    return g.size == g.order - 1 and is_connected(g)


def tree_centers(g: Graph) -> list[int]:
    """The one or two center vertices of a tree (peel leaves until <= 2);
    the tree check for every function here that takes free trees."""
    if not is_tree(g):
        raise NotATreeError("input is not a tree")
    return _centers(g.adj, range(g.order), bytes(g.order), 0)


def _centers(adj, vertices, owner, i: int) -> list[int]:
    """The centers, in vertex order, of the tree on ``vertices``: the
    vertices v with ``owner[v] == i``, sorted, known to form a tree.
    Leaves are peeled in place, a degree counting only neighbors with
    owner i, so a component of a larger graph needs no relabelled copy;
    ``range(n)`` with ``owner = bytes(n)`` and i = 0 is a whole tree.  On
    any other graph the peeling stops once no leaf is left, and the
    vertices not peeled are returned."""
    if len(vertices) <= 2:
        return list(vertices)
    deg = {}  # in-component degree left, -1 once peeled
    leaves = []
    for v in vertices:
        d = 0
        for w in adj[v]:
            if owner[w] == i:
                d += 1
        deg[v] = d
        if d == 1:
            leaves.append(v)
    remaining = len(vertices)
    while remaining > 2 and leaves:
        remaining -= len(leaves)
        nxt = []
        for v in leaves:
            deg[v] = -1
            for u in adj[v]:
                # a neighbor not yet peeled still counts v: degree >= 1
                d = deg.get(u, 0)
                if d > 0:
                    deg[u] = d - 1
                    if d == 2:
                        nxt.append(u)
        leaves = nxt
    return [v for v in vertices if deg[v] >= 0]


def tree_preorder(adj, root: int) -> tuple[list[int], list[int]]:
    """Iterative DFS from root: the vertices reached, in preorder, and
    ``parent[v]`` for each (-1 at the root and at vertices not reached).
    On a tree every subtree is a contiguous slice of the preorder, starting
    at its root."""
    parent = [-1] * len(adj)
    seen = [False] * len(adj)
    seen[root] = True
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    return order, parent


def _rooted_canon(g: Graph, root: int) -> str:
    """Parenthesis encoding of the tree rooted at root: each vertex is "("
    followed by its children's encodings in sorted order and ")".  One
    postorder pass; a child's code is dropped once its parent's is built,
    so the codes alive at any time have total length O(n)."""
    order, parent = tree_preorder(g.adj, root)
    code: dict[int, str] = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(
            code.pop(w) for w in g.adj[v] if parent[w] == v)) + ")"
    return code[root]


# a rooted tree's AHU labels and, per vertex, its children sorted by
# (label, vertex): two lists indexed by vertex.  A children entry is None
# at a vertex not reached, and () once _pair_rooted has walked it.
Labelled = tuple[list[int], list[Optional[Sequence[int]]]]


def _unlabelled(n: int) -> Labelled:
    """Empty label and children lists for the vertices 0..n-1."""
    return [0] * n, [None] * n


def _ahu_labels(adj, root: int, table: dict, owner, i: int,
                t: Labelled) -> Labelled:
    """Integer AHU labels (Aho, Hopcroft and Ullman 1974) of the tree on
    the vertices v with ``owner[v] == i`` reached from root, rooted there
    (a BFS tree of them, should they hold a cycle), written into the lists
    of t and returned as t.  A vertex counts as reached once its children
    list is not None, so the caller passes lists in which none of these
    vertices is reached yet; trees on disjoint vertex sets, each labelled
    once, can share one pair.  Two rooted trees, of this graph or of any
    other labelled with the same ``table``, get equal root labels exactly
    when they are isomorphic, that is exactly when their ``_rooted_canon``
    strings are equal.  ``owner = bytes(n)`` with i = 0 labels a whole
    tree."""
    label, kids = t
    kids[root] = []
    order = [root]
    for v in order:
        ch = kids[v]
        for w in adj[v]:
            if kids[w] is None and owner[w] == i:
                kids[w] = []
                ch.append(w)
        order += ch
    leaf = table.setdefault((), len(table))
    by_label = label.__getitem__
    for v in reversed(order):
        ch = kids[v]
        if ch:
            # adjacency lists are sorted, so a stable sort by label leaves
            # children with equal labels in vertex order
            ch.sort(key=by_label)
            # tuple() of a list: tuple(map(...)) measured slower here, with
            # more garbage collections
            label[v] = table.setdefault(tuple([label[w] for w in ch]),
                                        len(table))
        else:
            label[v] = leaf
    return t


def _pair_rooted(t1: Labelled, r1: int, t2: Labelled, r2: int,
                 img) -> bool:
    """Write into ``img`` the rooted isomorphism (t1, r1) -> (t2, r2) read
    off AHU labels from one table; False, writing nothing, when the roots'
    labels differ.  Children with equal labels are paired in vertex order,
    which is valid because equal labels are interchangeable.  On success
    t1's children lists are spent: each is replaced by () as it is walked,
    so trees labelled into shared lists hold no lists once paired, and a
    large input's lists never pile up for the garbage collector."""
    if t1[0][r1] != t2[0][r2]:
        return False
    kids1, kids2 = t1[1], t2[1]
    pairs = [(r1, r2)]
    for a, b in pairs:
        img[a] = b
        pairs += zip(kids1[a], kids2[b])
        kids1[a] = ()
    return True


def tree_canonical_form(g: Graph) -> str:
    """Canonical encoding of a free tree: rooted encoding at the center,
    taking the lexicographic minimum when there are two centers."""
    return min(_rooted_canon(g, c) for c in tree_centers(g))


def tree_isomorphic(t1: Graph, t2: Graph) -> bool:
    """True iff two trees are isomorphic."""
    return tree_iso_map(t1, t2) is not None


def tree_iso_map(t1: Graph, t2: Graph) -> Optional[dict[int, int]]:
    """An isomorphism between free trees as a vertex map, or None (AHU
    labels at their centers)."""
    c1 = tree_centers(t1)
    c2 = tree_centers(t2)
    if t1.order != t2.order or len(c1) != len(c2) or sorted(
            map(len, t1.adj)) != sorted(map(len, t2.adj)):
        return None
    table: dict = {}
    lab1 = _ahu_labels(t1.adj, c1[0], table, bytes(t1.order), 0,
                       _unlabelled(t1.order))
    img = [-1] * t1.order
    for r2 in c2:
        lab2 = _ahu_labels(t2.adj, r2, table, bytes(t2.order), 0,
                           _unlabelled(t2.order))
        if _pair_rooted(lab1, c1[0], lab2, r2, img):
            return dict(enumerate(img))
    return None


def random_tree(n: int, rng) -> Graph:
    """A uniformly random labeled tree on n vertices (Pruefer decoding)."""
    import heapq
    if n < 1:
        raise ValueError("random_tree needs n >= 1")
    if n <= 2:
        return path(n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def free_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices,
    generated by leaf extension with canonical-form deduplication."""
    if n < 1:
        raise ValueError("free_trees needs n >= 1")
    if n == 1:
        return [path(1)]
    out: dict[str, Graph] = {}
    for t in free_trees(n - 1):
        for v in range(t.order):
            g = Graph.from_edges(n, list(t.edges()) + [(v, n - 1)])
            out.setdefault(tree_canonical_form(g), g)
    return list(out.values())
