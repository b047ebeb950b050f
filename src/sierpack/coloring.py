"""Packing colorings: verification and exact computation.

A packing coloring assigns each vertex a color in 1..k so that two distinct
vertices sharing color l are at distance greater than l.  The exact solver
is a deterministic branch-and-bound over distance-ball bitmasks:

* the next vertex is chosen by DSatur (Brelaz 1979): the uncolored vertex
  with the fewest colors left, ties broken by the most vertices within
  distance 2, then by descending degree and then by index (every color
  >= 2 conflicts within distance 2, so that ball is a vertex's degree in
  the conflict graph that matters); colors are tried from the largest
  down, so the large colors, whose classes are smallest and whose balls
  largest, go to the most constrained vertices and color 1 fills in;
* assigning color c to v bans c at every uncolored vertex within distance c;
  a partial assignment is abandoned as soon as some uncolored vertex has no
  feasible color;
* the class mask of color c is the union of the c-balls of the vertices
  colored c (set once per assignment, restored on undo); an uncolored
  vertex is banned from c exactly when it lies in that mask, so a class
  is a c-packing by its bans and never outgrows alpha_c, the exact
  c-packing number (computed once per graph by graphs.max_packing: one
  deepest-first greedy pass on trees, otherwise a clique-cover
  branch-and-bound, the maximum-clique search of Tomita and Seki 2003 run
  on the complement);
* a partial assignment is abandoned when the remaining class capacities
  cannot cover the uncolored vertices, each class counting only those
  outside its class mask;
* a color c with alpha_c = 1 bans every vertex once used, so unused colors
  of that kind are interchangeable and only the smallest is tried.  This
  symmetry rule does not depend on the order vertices are colored in.
  It and the room test (with its root form, the capacity sum) are the
  only readers of the capacities.

On a graph of diameter at most 3 every color >= 3 is a single vertex, so
chi_rho_exact first finds beta_2, the most vertices an independent set and
a disjoint 2-packing hold together, by one run of the clique-cover search
(graphs._max_packing_search) on the 2n pairs (vertex, color 1 or 2); then
chi_rho = 2 + n - beta_2 whenever beta_2 < n.  (The capacity sum reads
2 + n - alpha - alpha_2 there, and beta_2 <= alpha + alpha_2.)  Every other
graph, and one with beta_2 = n, goes to the ascending search for the exact
value, seeded by the capacity sum alone: the smallest k with
alpha_1 + ... + alpha_k >= n is a valid lower bound.  The below argument of
chi_rho_exact stops either route short, which is how
product.sierpinski_chi bounds each map by the best value so far.

UNSAT answers are proofs of exhaustion, never timeouts: an optional node
budget aborts a decision or the beta_2 search with SearchBudgetExceeded,
which is a distinct "unknown" outcome.

chi_rho_naive is an intentionally plain second path (index order, direct
conflict checks only, no bounds) kept for cross-checking the main solver.
The main solver, the repair and the class capacities read the graph's
cached record (graphs.distances): its distance balls, its capacities and
the static and repair orders, each sorted once per graph.  chi_rho_naive
and the certificate check, verify_packing_coloring, search with
graphs.bfs_layers (chi_rho_naive tests connectivity with
graphs.is_connected) and share no state with them.
packing_capacity, chi_rho_decision and chi_rho_exact check the order before
any balls are built, and chi_rho_exact the connectivity before any search.
No search here recurses: the decision search keeps one frame per colored
vertex on an explicit stack, and chi_rho_naive keeps its choices in its
partial coloring, so only max_order and memory bound the orders they take.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (ColoringCoverageError, DisconnectedGraphError,
                     SearchBudgetExceeded)
from .graphs import (DEFAULT_SOLVER_BOUND, Graph, _max_packing_search,
                     bfs_layers, check_exact_order, distances, is_connected,
                     max_packing)


@dataclass(frozen=True)
class PackingColoring:
    """A total assignment vertex -> color in 1..k, with k = max color used;
    any sequence of colors is stored as a tuple.

    Validity is a separate, checked property (verify_packing_coloring); the
    type itself only guarantees coverage and positivity.
    """

    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if not self.colors:
            raise ValueError("coloring covers no vertices")
        if min(self.colors) < 1:
            raise ValueError("colors must be positive")

    @property
    def k(self) -> int:
        return max(self.colors)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    violation: Optional[tuple[int, int, int]] = None  # (u, v, color)

    def __bool__(self) -> bool:
        return self.ok


def verify_packing_coloring(g: Graph, c: PackingColoring) -> VerifyResult:
    """Check the distance contract; on failure report the first violating
    (u, v, color) triple, scanning colors ascending and pairs in lex order.
    Each vertex's ball of radius its color is searched by graphs.bfs_layers,
    in (color, index) order: O(n) memory, and no distance balls are read."""
    colors = c.colors
    if len(colors) != g.order:
        raise ColoringCoverageError(
            f"coloring covers {len(colors)} vertices, graph has {g.order}")
    stamp = [-1] * g.order
    # sorted is stable, so vertices of one color stay in index order
    for u in sorted(range(g.order), key=colors.__getitem__):
        col = colors[u]
        hits = [v for layer in bfs_layers(g, u, col, stamp) for v in layer
                if colors[v] == col and v > u]
        if hits:
            return VerifyResult(False, (u, min(hits), col))
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# class capacities

def packing_capacity(g: Graph, c: int,
                     max_order: int = DEFAULT_SOLVER_BOUND) -> int:
    """Exact c-packing number alpha_c, kept with the graph's cached
    distance balls, so it is evicted with them."""
    check_exact_order(g.order, max_order)
    memo = distances(g).capacity
    if c not in memo:
        memo[c] = max_packing(g, c, max_order)
    return memo[c]


def chi_rho_lower_bound(g: Graph,
                        max_order: int = DEFAULT_SOLVER_BOUND) -> int:
    """A valid lower bound for the packing chromatic number: the smallest k
    with alpha_1 + ... + alpha_k >= n, since each alpha_c caps one color
    class (on diameter-3 graphs this is 2 + n - alpha - alpha_2)."""
    n = g.order
    total = 0
    k = 0
    while total < n:
        k += 1
        total += packing_capacity(g, k, max_order)
    return k


# ---------------------------------------------------------------------------
# decision search

def chi_rho_decision(g: Graph, k: int, *,
                     node_budget: Optional[int] = None,
                     max_order: int = DEFAULT_SOLVER_BOUND
                     ) -> Optional[PackingColoring]:
    """A valid coloring of g with colors in 1..k, or None after exhausting
    the search space (a trustworthy UNSAT).

    Raises SearchBudgetExceeded when node_budget runs out first; that
    outcome is unknown, not UNSAT.
    """
    n = g.order
    check_exact_order(n, max_order)
    balls = distances(g)
    if not balls.connected:
        raise DisconnectedGraphError("chi_rho_decision requires a connected graph")
    if k < 1:
        return None

    # near[c][v]: vertices within distance c of v; v itself is never in
    # uncolored when near[c][v] is read
    near = [balls.within(c) for c in range(k + 1)]
    order = balls.static_order

    caps = [0] + [packing_capacity(g, c, max_order) for c in range(1, k + 1)]
    if sum(caps) < n:
        return None

    full = (1 << (k + 1)) - 2  # bits 1..k
    banned = [0] * n
    # class_banned[c]: the union of the c-balls of the vertices colored c
    class_banned = [0] * (k + 1)
    colors = [0] * n
    spare = caps[:]  # spare[c]: the room left in class c
    # colors whose class can only ever hold one vertex are interchangeable
    # while unused, so only the smallest unused one is ever tried
    singleton = 0
    for c in range(1, k + 1):
        if caps[c] == 1:
            singleton |= 1 << c
    unused_singletons = singleton
    uncolored = (1 << n) - 1
    nodes = 0
    # with no budget, a limit past the nodes of any search: there is at
    # most one node per partial coloring, fewer than (k + 1) ** n
    limit = (k + 1) ** n if node_budget is None else node_budget
    stack = []  # (v, avail, need, bit, c, saved, touched) per colored vertex
    while uncolored:
        # DSatur: the uncolored vertex with the fewest colors left (the
        # most banned), ties broken by the static order (largest
        # distance-2 ball first); none has all k banned
        v = most = -1
        for u in order:
            if not colors[u]:
                cnt = banned[u].bit_count()
                if cnt > most:
                    v, most = u, cnt
                    if cnt == k - 1:
                        break
        uncolored ^= 1 << v
        need = uncolored.bit_count()
        avail = ~banned[v] & full
        while True:
            if avail:  # largest color first
                bit = 1 << (avail.bit_length() - 1)
                avail ^= bit
                if bit & unused_singletons and \
                        bit != unused_singletons & -unused_singletons:
                    continue
                nodes += 1
                if nodes > limit:
                    raise SearchBudgetExceeded(nodes)
                c = bit.bit_length() - 1
                colors[v] = c
                spare[c] -= 1
                unused_singletons &= ~bit
                saved = class_banned[c]
                ball = near[c][v]
                class_banned[c] = saved | ball
                # an uncolored vertex is banned from c exactly when it lies
                # in the saved class mask, so only the rest gain the ban
                touched = []
                dead = False
                hit = ball & uncolored & ~saved
                while hit:
                    b = hit & -hit
                    hit ^= b
                    u = b.bit_length() - 1
                    ban = banned[u] | bit
                    banned[u] = ban
                    touched.append(u)
                    if ban == full:
                        dead = True
                        break
                if not dead and need:
                    # remaining class capacities must still cover the
                    # uncolored vertices, counting only vertices a class can
                    # still take: those outside the balls of its members
                    room = 0
                    for rc, mask in zip(spare, class_banned):
                        if rc > 0:
                            cnt = (uncolored & ~mask).bit_count()
                            room += rc if rc < cnt else cnt
                            if room >= need:
                                break
                    dead = room < need
                if not dead:
                    stack.append((v, avail, need, bit, c, saved, touched))
                    break
            else:
                # every color of v is tried: back to the vertex before it
                uncolored ^= 1 << v
                if not stack:
                    return None
                v, avail, need, bit, c, saved, touched = stack.pop()
            # undo the assignment of c to v
            for u in touched:
                banned[u] ^= bit
            class_banned[c] = saved
            spare[c] += 1
            unused_singletons |= bit & singleton
            colors[v] = 0
    return PackingColoring(colors)


def chi_rho_exact(g: Graph, *, below: Optional[int] = None,
                  node_budget: Optional[int] = None,
                  max_order: int = DEFAULT_SOLVER_BOUND
                  ) -> Optional[tuple[int, PackingColoring]]:
    """The packing chromatic number with a verifying witness.  With below,
    only the k < below are decided, and None means every one is UNSAT.
    The order and connectivity are checked before any search.

    A graph of diameter at most 3 goes first to one joint packing search
    (_joint_packing_solution), which settles it unless a 1-packing and a
    disjoint 2-packing cover every vertex.  Every other graph is decided by
    ascending decision calls from the capacity lower bound.  node_budget
    bounds the joint search and each decision call alike."""
    n = g.order
    check_exact_order(n, max_order)
    balls = distances(g)
    if not balls.connected:
        raise DisconnectedGraphError("chi_rho_exact requires a connected graph")
    full = (1 << n) - 1
    if all(row == full for row in balls.within(3)):
        solved = _joint_packing_solution(balls, n, node_budget)
        if solved is not None:
            return solved if below is None or solved[0] < below else None
    k = chi_rho_lower_bound(g, max_order)
    while below is None or k < below:
        witness = chi_rho_decision(g, k, node_budget=node_budget,
                                   max_order=max_order)
        if witness is not None:
            return k, witness
        k += 1
    return None


def _joint_packing_solution(balls, n: int, node_budget: Optional[int]
                            ) -> Optional[tuple[int, PackingColoring]]:
    """chi_rho and an optimal coloring of a connected graph of diameter at
    most 3, given its distance balls and its order n, from one search for
    beta_2; None when beta_2 = n.

    beta_2 is the largest |S_1| + |S_2| over disjoint S_1 and S_2 with S_c
    a c-packing.  With diameter at most 3 every class of a color >= 3 is a
    single vertex, so k >= 2 colors cover at most beta_2 + k - 2 vertices,
    and one color covers only an independent set.  So chi_rho =
    2 + n - beta_2 once beta_2 < n (Goddard et al. 2008 give n + 1 - alpha
    on diameter 2).  A largest pair is a largest set with no two in
    conflict (graphs._max_packing_search) among the pairs (v, c), c = 1, 2,
    at index (c - 1) n + v: (v, 1) and (v, 2) conflict, and so do (u, c)
    and (v, c) when d(u, v) <= c.  The coloring gives S_1 color 1, S_2
    color 2 and every other vertex a color of its own, 3, 4, ... in index
    order."""
    near1, near2 = balls.within(1), balls.within(2)
    conflict = tuple(near1[v] | 1 << (n + v) for v in range(n)) + \
        tuple(near2[v] << n | 1 << v for v in range(n))
    beta2, chosen, _ = _max_packing_search(conflict, node_budget)
    if beta2 == n:
        return None
    colors = []
    single = 2  # the last color given to a vertex of its own
    for v in range(n):
        if chosen >> v & 1:
            colors.append(1)
        elif chosen >> (n + v) & 1:
            colors.append(2)
        else:
            single += 1
            colors.append(single)
    return 2 + n - beta2, PackingColoring(colors)


def repair_coloring(g: Graph, start: Sequence[int], cap: int,
                    evictions: int = 0) -> Optional[PackingColoring]:
    """A valid coloring of g with colors in 1..cap grown from start, a
    color per vertex with 0 for none, or None once a vertex fits no color
    <= cap and cannot evict.

    Vertices are visited by descending degree, ties in index order (the
    graph's Balls.degree_order, sorted once per graph).  A
    vertex keeps its start color c <= cap unless a vertex kept before it
    has color c within distance c; then the dropped vertices, in the same
    order, each take their least feasible color.  From an all-zero start
    this is the degree-descending greedy.

    A dropped vertex with no feasible color spends one of the evictions, a
    min-conflicts step (Minton et al. 1992): it takes the color c <= cap
    with the fewest colored vertices within distance c, the smallest such
    c and never the color it was last evicted from, and those vertices
    lose their colors and queue up behind the dropped ones, in index
    order.  Each class stays a c-packing at every step, so a coloring
    returned is valid.  With no evictions this is the plain repair."""
    balls = distances(g)
    members = [0] * (cap + 1)  # members[c]: the vertices colored c so far
    near = [None] + [balls.within(c) for c in range(1, cap + 1)]
    colors = [0] * g.order
    evicted_from = [0] * g.order  # the color each vertex last lost
    dropped = deque()
    for v in balls.degree_order:
        c = start[v]
        if 0 < c <= cap and not members[c] & near[c][v]:
            members[c] |= 1 << v
            colors[v] = c
        else:
            dropped.append(v)
    while dropped:
        v = dropped.popleft()
        c = 1
        while c <= cap and members[c] & near[c][v]:
            c += 1
        if c > cap:
            if not evictions:
                return None
            evictions -= 1
            c = hit = 0
            fewest = g.order
            for cc in range(1, cap + 1):
                if cc != evicted_from[v]:
                    clash = members[cc] & near[cc][v]
                    if clash.bit_count() < fewest:
                        c, hit, fewest = cc, clash, clash.bit_count()
            if not c:
                return None
            members[c] ^= hit
            while hit:
                b = hit & -hit
                hit ^= b
                u = b.bit_length() - 1
                colors[u] = 0
                evicted_from[u] = c
                dropped.append(u)
        members[c] |= 1 << v
        colors[v] = c
    return PackingColoring(colors)


# ---------------------------------------------------------------------------
# the plain second path

def chi_rho_naive(g: Graph) -> tuple[int, PackingColoring]:
    """Exhaustive reference solver: vertices in index order, colors tried
    ascending, pruning only on a direct conflict with an assigned vertex.
    Kept deliberately free of the main solver's ordering and bounds, and
    of its cached distance balls: for each k tried, its own balls of
    radius up to k come from one BFS per vertex.  The choices made so far
    are its stack: colors[:v], with c the next color to try at v."""
    n = g.order
    if not is_connected(g):
        raise DisconnectedGraphError("chi_rho_naive requires a connected graph")
    k = 0
    while True:  # stops by k = n: n colors always suffice
        k += 1
        stamp = [-1] * n
        near = []  # near[v][c]: the vertices within distance c of v
        for v in range(n):
            ball = [1 << v]
            for layer in bfs_layers(g, v, k, stamp):
                ball.append(ball[-1] | sum(1 << w for w in layer))
            near.append(ball + [ball[-1]] * (k + 1 - len(ball)))
        colors = [0] * n
        members = [0] * (k + 1)  # members[c]: assigned vertices colored c
        v, c = 0, 1
        while 0 <= v < n:
            while c <= k and members[c] & near[v][c]:
                c += 1
            if c <= k:
                colors[v] = c
                members[c] |= 1 << v
                v, c = v + 1, 1
            else:  # back to the vertex before, at its next color
                v -= 1
                if v >= 0:
                    c = colors[v]
                    members[c] ^= 1 << v
                    colors[v] = 0
                    c += 1
        if v == n:
            return k, PackingColoring(colors)
