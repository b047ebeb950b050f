"""Undirected simple graphs on vertices 0..n-1, with the distance, packing
and tree machinery the rest of the package is built on.

Graphs are immutable after construction and all operations here are pure
functions of their inputs.  The per-graph distance balls behind
``distances`` are cached and shared between structurally equal graphs, so
each ``Balls`` grows its rows under its own lock; a row already grown is
read without it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .errors import GraphTooLargeError, NotATreeError

# Exact subset searches (independence number, i-packing numbers) reject
# graphs above this order unless the caller raises the bound explicitly.
DEFAULT_EXACT_SEARCH_BOUND = 40


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

    @staticmethod
    def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; rejects loops and duplicates."""
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
        return Graph(order, tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(len(nbrs) for nbrs in self.adj) // 2

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
    """Distance balls of one graph: ``within(r)[v]`` is the bitmask of the
    vertices within distance r of v (none in another component).  ``ball``
    holds the rows grown so far; row r+1, ball[r][v] or-ed with ball[r][w]
    over the neighbours w of v, is grown only when asked for, so memory
    follows the largest radius used, not the diameter.  Rows are grown
    under ``lock``, as the object may be shared between threads.
    ``capacity`` memoizes alpha_c of the same graph
    (coloring.packing_capacity)."""

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.ball = [tuple(1 << v for v in range(g.order))]
        self.last = False  # set once a grown row equals the one before it
        self.lock = threading.Lock()
        self.connected = is_connected(g)
        self.capacity: dict[int, int] = {}

    def _grow(self, row: tuple[int, ...]) -> tuple[int, ...]:
        """The row one hop wider than ``row``."""
        nxt = []
        for v, nbrs in enumerate(self.adj):
            m = row[v]
            for w in nbrs:
                m |= row[w]
            nxt.append(m)
        return tuple(nxt)

    def within(self, r: int) -> tuple[int, ...]:
        """Row r; past the largest eccentricity every row is the last."""
        rows = self.ball
        if r >= len(rows) and not self.last:
            with self.lock:
                while r >= len(rows) and not self.last:
                    nxt = self._grow(rows[-1])
                    if nxt == rows[-1]:
                        self.last = True
                    else:
                        rows.append(nxt)
        return rows[min(r, len(rows) - 1)]

    @property
    def diameter(self) -> float:
        """Largest distance; math.inf when the graph is disconnected.  Rows
        past the ones already kept are counted with two rolling rows and
        not kept."""
        if not self.connected:
            return math.inf
        with self.lock:
            r = len(self.ball) - 1
            row = self.ball[-1]
            last = self.last
        if not last:
            while (nxt := self._grow(row)) != row:
                row = nxt
                r += 1
        return r


@lru_cache(maxsize=512)
def distances(g: Graph) -> Balls:
    """The distance balls of g, cached per graph (the 512 most recent)."""
    return Balls(g)


def diameter(g: Graph) -> float:
    """Max finite distance; math.inf when g is disconnected."""
    return distances(g).diameter


def reachable(g: Graph, start: int = 0) -> list[int]:
    """The vertices reachable from start, in BFS order.  O(n + m) time and
    memory."""
    seen = bytearray(g.order)
    seen[start] = 1
    order = [start]
    for v in order:
        for w in g.adj[v]:
            if not seen[w]:
                seen[w] = 1
                order.append(w)
    return order


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (one BFS)."""
    return len(reachable(g)) == g.order


# ---------------------------------------------------------------------------
# exact packing numbers: one subset branch-and-bound, thresholded by distance

def max_packing(g: Graph, i: int,
                max_order: int = DEFAULT_EXACT_SEARCH_BOUND) -> int:
    """Exact size of a largest i-packing: a set of vertices with pairwise
    distance greater than i.  i=1 is the independence number, i=2 the
    2-packing number.

    On a tree one greedy pass is exact (Meir and Moon 1975): root it
    anywhere, take the vertices by non-increasing depth and keep each one
    whose i-ball holds no vertex kept so far.  Proof sketch, an exchange on
    the vertex v being taken when it is kept.  Let P be a largest packing
    that agrees with every choice made before v.  Each vertex y of P within
    distance i of v is undecided, so it is no deeper than v; with l_y where
    the root paths of v and y meet, d(v, y) = t_y + s_y for
    t_y = d(v, l_y) >= s_y = d(l_y, y).  For two such x, y with t_x <= t_y,
    d(x, y) <= s_x + (t_y - t_x) + s_y <= t_y + s_y = d(v, y) <= i.  So P
    holds at most one vertex of the i-ball of v, and at least one, or v
    could be added to P.  Swapping that vertex for v gives a largest
    packing that also agrees with keeping v.

    Every other graph goes to the subset branch-and-bound.
    """
    n = g.order
    if n > max_order:
        raise GraphTooLargeError(
            f"order {n} exceeds exact-search bound {max_order}")
    balls = distances(g)
    conflict = balls.within(i)
    if g.size != n - 1 or not balls.connected:
        return _max_packing_search(conflict, n)
    kept = 0
    for v in reversed(reachable(g)):  # BFS order reversed: deepest first
        if not conflict[v] & kept:
            kept |= 1 << v
    return kept.bit_count()


def _max_packing_search(conflict: tuple[int, ...], n: int) -> int:
    """Largest vertex set with no two in conflict (``conflict[v]`` is the
    bitmask of v's conflicts, v itself included): subset branch-and-bound
    with the remaining-candidates bound."""
    best = 0

    def grow(cand: int, size: int):
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand ^= bit
            grow(cand & ~conflict[v], size + 1)

    grow((1 << n) - 1, 0)
    return best


def independence_number(g: Graph,
                        max_order: int = DEFAULT_EXACT_SEARCH_BOUND) -> int:
    """Exact independence number (largest set with pairwise distance >= 2)."""
    return max_packing(g, 1, max_order)


def two_packing_number(g: Graph,
                       max_order: int = DEFAULT_EXACT_SEARCH_BOUND) -> int:
    """Exact 2-packing number (largest set with pairwise distance >= 3)."""
    return max_packing(g, 2, max_order)


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
    return _centers(g.adj)


def _centers(adj) -> list[int]:
    """tree_centers on an adjacency list already known to be a tree.  On
    any other graph it stops once no leaf is left."""
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(nbrs) for nbrs in adj]
    removed = [False] * n
    leaves = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2 and leaves:
        remaining -= len(leaves)
        nxt = []
        for v in leaves:
            removed[v] = True
            for u in adj[v]:
                if not removed[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        leaves = nxt
    return sorted(v for v in range(n) if not removed[v])


def tree_preorder(adj, root: int, blocked: Optional[bytearray] = None
                  ) -> tuple[list[int], list[int]]:
    """Iterative DFS from root, never entering a vertex marked in
    ``blocked`` (a bytearray indexed by vertex; it is not modified): the
    vertices reached, in preorder, and ``parent[v]`` for each (-1 at the
    root and at vertices not reached).  On a tree every subtree is a
    contiguous slice of the preorder, starting at its root."""
    parent = [-1] * len(adj)
    seen = bytearray(len(adj)) if blocked is None else bytearray(blocked)
    seen[root] = 1
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
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
# (label, vertex)
Labelled = tuple[dict[int, int], dict[int, list[int]]]


def _ahu_labels(adj, root: int, table: dict, owner, i: int) -> Labelled:
    """Integer AHU labels (Aho, Hopcroft and Ullman 1974) of the tree on
    the vertices v with ``owner[v] == i`` reached from root, rooted there
    (a BFS tree of them, should they hold a cycle).  Two rooted trees, of
    this graph or of any other labelled with the same ``table``, get equal
    root labels exactly when they are isomorphic, that is exactly when
    their ``_rooted_canon`` strings are equal.  ``owner = bytes(n)`` with
    i = 0 labels a whole tree."""
    kids: dict[int, list[int]] = {root: []}
    order = [root]
    for v in order:
        ch = kids[v]
        for w in adj[v]:
            if w not in kids and owner[w] == i:
                kids[w] = []
                ch.append(w)
        order += ch
    leaf = table.setdefault((), len(table))
    label: dict[int, int] = {}
    for v in reversed(order):
        ch = kids[v]
        if ch:
            # adjacency lists are sorted, so a stable sort by label leaves
            # children with equal labels in vertex order
            ch.sort(key=label.__getitem__)
            label[v] = table.setdefault(tuple([label[w] for w in ch]),
                                        len(table))
        else:
            label[v] = leaf
    return label, kids


def _pair_rooted(t1: Labelled, r1: int, t2: Labelled, r2: int,
                 img) -> bool:
    """Write into ``img`` the rooted isomorphism (t1, r1) -> (t2, r2) read
    off AHU labels from one table; False, writing nothing, when the roots'
    labels differ.  Children with equal labels are paired in vertex order,
    which is valid because equal labels are interchangeable."""
    if t1[0][r1] != t2[0][r2]:
        return False
    kids1, kids2 = t1[1], t2[1]
    stack = [(r1, r2)]
    while stack:
        a, b = stack.pop()
        img[a] = b
        stack.extend(zip(kids1[a], kids2[b]))
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
    lab1 = _ahu_labels(t1.adj, c1[0], table, bytes(t1.order), 0)
    img = [-1] * t1.order
    for r2 in c2:
        lab2 = _ahu_labels(t2.adj, r2, table, bytes(t2.order), 0)
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
