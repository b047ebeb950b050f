"""Recognition of products whose two factors are trees.

A product of two trees is a tree, and the connecting edge of a pendant base
edge is exactly a cut edge splitting off one whole fiber: one component has
the fiber's order and the other keeps the rest.  Recognition therefore
peels candidate fibers off the input one pendant split at a time, checks
each peeled component against the first one, and finally rebuilds the base
tree and the connecting function from the recorded peel edges.

Map reconstruction works backwards through the peel record.  Each fiber
gets an isomorphism onto the reference fiber H; the far endpoint of a peel
edge pins the peeled base vertex's map value, and the near endpoint pins
the neighbor's value.  When the neighbor's value is already fixed, the
peeled fiber's isomorphism is chosen to respect it (a rooted-tree
isomorphism sending the near endpoint to the fixed value); such a choice
always exists when the input really is a product.  The rebuilt product is
certified isomorphic to the input before a factorization is returned, so a
"factored" answer is sound unconditionally.

The peel edge at each step is taken greedily in a fixed deterministic order
(least lower endpoint, then least higher endpoint), and greedy peeling is
complete: it factors every split (n1, n2) for which the input is a product.
Proof sketch, for x = T1 ⊗_f T2 with |T1| = n1 and |T2| = n2.  Cutting an
edge inside the fiber gT2 splits that fiber into parts P and Q; the side
holding P is P together with whole fibers hanging off it, of order
|P| + n2·k with 0 < |P| < n2, so neither side's order is a multiple of n2.
Hence every candidate is a connecting edge, and cutting the connecting edge
of the base edge gg' leaves the fibers of the two components of T1 - gg'.
One side has order n2 exactly when g or g' is a leaf of T1, and then that
side is the leaf's whole fiber (when n1 = 2 both sides are, and either
orientation is one).  What is left is (T1 - leaf) ⊗ T2 under f restricted,
again a product, and a base tree of order at least 2 has a leaf.  So by
induction every candidate the greedy order picks peels a whole fiber, every
peeled component is a copy of T2, and the base edges of the trace are the
edges of T1.  reconstruct_map then succeeds as argued above and the rebuilt
product is isomorphic to x, so the split is certified whichever candidate
was taken.  A backtracking search over the candidates would make the same
first choice at every step and so follow greedy's path exactly on a
product; on a split for which x is not a product, every completed trace
fails the final certification.  Trying other candidates can therefore
never change an answer.

A split never re-walks the whole input.  The input is rooted once, and each
split's peel state (_PeelState) keeps subtree sizes valid by subtracting
the fiber's order along the peeled edge's path to the root, or by moving
the root when the root side is peeled.  The candidate comes from a lazily
pruned heap of the subtrees of order n2 and one walk down the heavy path
from the root; the peeled side is listed by a walk over its own vertices;
and each peeled component is labelled once and compared with the AHU
labels of the first fiber, computed once per split.  A peel thus costs
O(n2 + depth) up to log factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

from .errors import InconsistentTraceError
from .graphs import (Graph, _ahu_labels, _centers, is_tree,
                     rooted_tree_iso_map, tree_canonical_form, tree_iso_map,
                     tree_isomorphic, tree_preorder)
from .product import VertexMap, sierpinski_product


def pendant_split_edges(x: Graph, n2: int) -> list[tuple[int, int]]:
    """All edges of the tree x whose removal leaves components of orders
    exactly n2 and n(x) - n2; computed by one subtree-size pass."""
    if not is_tree(x):
        raise ValueError("pendant_split_edges needs a tree")
    n = x.order
    if n2 < 1 or n2 >= n:
        return []
    parent, size, _ = _rooting(x)
    return [(u, v) for u, v in x.edges()
            if size[v if parent[v] == u else u] in (n2, n - n2)]


# ---------------------------------------------------------------------------
# peel traces and map reconstruction

@dataclass(frozen=True)
class PeelStep:
    base_vertex: int           # index of the peeled fiber in the base tree
    edge: tuple[int, int]      # (near, far): near lies in the peeled fiber
    component: tuple[int, ...]  # vertices of the peeled fiber, sorted


@dataclass(frozen=True)
class PeelTrace:
    source: Graph
    steps: tuple[PeelStep, ...]
    final_component: tuple[int, ...]  # the last fiber; base index len(steps)

    @property
    def base_order(self) -> int:
        return len(self.steps) + 1

    def components(self) -> list[tuple[int, ...]]:
        return [s.component for s in self.steps] + [self.final_component]

    def base_edges(self) -> list[tuple[int, int]]:
        owner = self.owner_of()
        return [(s.base_vertex, owner[s.edge[1]]) for s in self.steps]

    def owner_of(self) -> dict[int, int]:
        owner = {}
        for i, comp in enumerate(self.components()):
            for v in comp:
                owner[v] = i
        return owner


def reconstruct_map(trace: PeelTrace, base: Graph, fiber: Graph) -> VertexMap:
    """Rebuild the connecting function from a completed peel.

    The peel steps are replayed newest-first.  Each step's far endpoint
    fixes f at the peeled base vertex through the already-chosen
    isomorphism of the neighbor fiber, and its near endpoint either fixes f
    at the neighbor or constrains the peeled fiber's isomorphism to honor
    the value fixed earlier.  Raises InconsistentTraceError when no
    isomorphism honors a constraint; for traces peeled off a genuine
    product that indicates an implementation bug.
    """
    comps = trace.components()
    if base.order != len(comps):
        raise InconsistentTraceError("base order does not match the trace")
    owner = trace.owner_of()
    locals_ = [{v: j for j, v in enumerate(comp)} for comp in comps]
    subtrees = [trace.source.induced(comp) for comp in comps]
    phi: list[Optional[dict[int, int]]] = [None] * len(comps)
    fval: dict[int, Optional[int]] = {i: None for i in range(len(comps))}

    last = len(comps) - 1
    m = tree_iso_map(subtrees[last], fiber)
    if m is None:
        raise InconsistentTraceError("final component is not a copy of the fiber")
    phi[last] = {v: m[locals_[last][v]] for v in comps[last]}

    for step in reversed(trace.steps):
        i = step.base_vertex
        near, far = step.edge
        j = owner[far]
        if phi[j] is None:
            raise InconsistentTraceError(
                "peel edge points into a fiber peeled earlier")
        if fval[j] is None:
            m = tree_iso_map(subtrees[i], fiber)
            if m is None:
                raise InconsistentTraceError(
                    f"component of base vertex {i} is not a copy of the fiber")
            phi[i] = {v: m[locals_[i][v]] for v in comps[i]}
            fval[j] = phi[i][near]
        else:
            root_local = locals_[i][near]
            m = rooted_tree_iso_map(subtrees[i], root_local, fiber, fval[j])
            if m is None:
                raise InconsistentTraceError(
                    f"no fiber isomorphism sends the near endpoint of base "
                    f"vertex {i} to the already fixed value {fval[j]}")
            phi[i] = {v: m[locals_[i][v]] for v in comps[i]}
        fval[i] = phi[j][far]

    if any(v is None for v in fval.values()):
        raise InconsistentTraceError("some base vertex received no map value")
    return VertexMap(base.order, fiber.order,
                     tuple(fval[i] for i in range(len(comps))))


# ---------------------------------------------------------------------------
# recognition

@dataclass(frozen=True)
class Factorization:
    """A certificate that the input is the product of two trees."""

    base: Graph
    fiber: Graph
    vmap: VertexMap
    peel_trace: PeelTrace


@dataclass
class RecognitionOutcome:
    status: str  # "factored" | "not_a_product"
    factorizations: list[Factorization]
    diagnostics: dict[str, str]


def recognize_tree_product(x: Graph) -> RecognitionOutcome:
    """Decide whether x is the product of two trees on >= 2 vertices each,
    returning one certified factorization per distinct (base, fiber) shape.

    Every factorization returned has been rebuilt and checked isomorphic to
    the input; failures are reported per order split in diagnostics.
    """
    diagnostics: dict[str, str] = {}
    if not is_tree(x):
        diagnostics["*"] = "not a tree, so not a product of trees"
        return RecognitionOutcome("not_a_product", [], diagnostics)
    n = x.order
    # n2 from 2 to n/2 covers every ordered pair (n1, n2) with both >= 2
    splits = sorted((n // n2, n2) for n2 in range(2, n // 2 + 1) if n % n2 == 0)
    if not splits:
        diagnostics["*"] = f"order {n} admits no factorization n1*n2 with both >= 2"
        return RecognitionOutcome("not_a_product", [], diagnostics)

    found: list[Factorization] = []
    seen_shapes: set[tuple[str, str]] = set()
    rooting = _rooting(x)
    for n1, n2 in splits:
        fact, reason = _try_split(x, n1, n2, rooting)
        if fact is None:
            diagnostics[f"{n1}x{n2}"] = reason
            continue
        shape = (tree_canonical_form(fact.base), tree_canonical_form(fact.fiber))
        if shape not in seen_shapes:
            seen_shapes.add(shape)
            found.append(fact)
    status = "factored" if found else "not_a_product"
    return RecognitionOutcome(status, found, diagnostics)


# parent, subtree size and child set of every vertex, rooted at vertex 0
_Rooting = tuple[list[int], list[int], list[set[int]]]


def _rooting(x: Graph) -> _Rooting:
    """The tree x rooted at vertex 0 by one preorder: parents, subtree
    sizes and child sets, shared by the peel states of every split."""
    order, parent = tree_preorder(x.adj, 0)
    kids: list[set[int]] = [set() for _ in range(x.order)]
    for v in order[1:]:
        kids[parent[v]].add(v)
    size = [1] * x.order
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    return parent, size, kids


class _PeelState:
    """The part of x left while fibers of order n2 are peeled off it.

    It starts from ``_rooting(x)`` and copies what it changes.  ``parent``
    never changes; ``kids[v]`` holds the children of v that are left and
    ``size[v]`` the order of v's subtree among the vertices left, kept valid
    for every vertex left.  Every edge left joins some c to ``parent[c]``,
    c below the current ``root`` (whose own parent entry is stale once the
    root has moved).  A candidate (near, far) is an edge splitting off
    ``n2`` vertices on the side of near: the subtree of c = near when
    ``parent[near] == far`` (the child side), else everything left outside
    the subtree of c = far (the root side).  Peeling the child side
    subtracts n2 along the path from far up to the root; peeling the root
    side makes far the root and changes no size.  Either costs
    O(n2 + depth).
    """

    def __init__(self, rooting: _Rooting, n2: int):
        self.parent, size, kids = rooting
        self.size = size[:]
        self.kids = list(map(set.copy, kids))
        self.n2 = n2
        self.root = 0
        self.total = len(size)
        self.peeled = bytearray(self.total)  # 1 marks a peeled vertex
        # (lower endpoint, higher endpoint, c) for the edges (c, parent[c])
        # whose subtree side has order n2; a superset of them, pruned lazily
        self.heap = [self._entry(c) for c in range(1, self.total)
                     if size[c] == n2]
        heapify(self.heap)

    def _entry(self, c: int) -> tuple[int, int, int]:
        p = self.parent[c]
        return (c, p, c) if c < p else (p, c, c)

    def _valid(self, c: int) -> bool:
        return (self.size[c] == self.n2 and c != self.root
                and not self.peeled[c])

    def _heavy(self) -> Optional[int]:
        """The c whose subtree leaves n2 vertices outside it, when that is
        more than n2 inside it (else the candidates are all in the heap).
        Such a c lies on the path from the root through children holding
        more than half the vertices; each child passed over puts its whole
        subtree outside, so the walk stops after O(n2) children."""
        need = self.total - self.n2
        if need <= self.n2:
            return None
        size, u = self.size, self.root
        while True:
            slack = size[u] - 1 - need  # room left for u's other subtrees
            if slack < 0:
                return None
            for w in self.kids[u]:
                if size[w] >= need:
                    break
                slack -= size[w]
                if slack < 0:
                    return None
            else:
                return None
            if size[w] == need:
                return w
            u = w

    def _oriented(self, c: int, low_path: set[int]) -> tuple[int, int]:
        """Candidate c as (near, far).  When both sides have order n2
        (``low_path`` is not empty), near's side is the one without the
        lowest vertex left: c's subtree unless c is on ``low_path``."""
        p = self.parent[c]
        if self.size[c] == self.n2 and c not in low_path:
            return c, p
        return p, c

    def _low_path(self) -> set[int]:
        """The lowest vertex left and its ancestors, when both sides of
        every candidate have order n2; else empty."""
        if self.total != 2 * self.n2:
            return set()
        v = self.peeled.index(0)
        path = {v}
        while v != self.root:
            v = self.parent[v]
            path.add(v)
        return path

    def least(self) -> Optional[tuple[int, int]]:
        """The candidate with the least (lower, higher) endpoint pair, or
        None when there is none."""
        heap = self.heap
        while heap and not self._valid(heap[0][2]):
            heappop(heap)
        best = heap[0] if heap else None
        c = self._heavy()
        if c is not None and (best is None or self._entry(c) < best):
            best = self._entry(c)
        return None if best is None else self._oriented(best[2],
                                                         self._low_path())

    def side(self, near: int, far: int) -> list[int]:
        """The vertices on near's side of the candidate edge, by a walk
        over them alone."""
        if self.parent[near] == far:
            start, skip = near, -1
        else:
            start, skip = self.root, far
        out = [start]
        stack = [start]
        while stack:
            for w in self.kids[stack.pop()]:
                if w != skip:
                    out.append(w)
                    stack.append(w)
        return out

    def _add_up(self, v: int, delta: int) -> None:
        """Add delta to the sizes of v and its ancestors up to the root."""
        size, parent, root, n2 = self.size, self.parent, self.root, self.n2
        while True:
            size[v] += delta
            if size[v] == n2:
                heappush(self.heap, self._entry(v))
            if v == root:
                return
            v = parent[v]

    def peel(self, near: int, far: int, side: list[int]) -> None:
        """Remove ``side``, the vertices on near's side of (near, far)."""
        for v in side:
            self.peeled[v] = 1
        self.total -= self.n2
        if self.parent[near] == far:
            self.kids[far].discard(near)
            self._add_up(far, -self.n2)
        else:
            self.root = far


def _fiber_labels(x: Graph, comp: tuple[int, ...], table: dict,
                  centers: int = 2) -> list[int]:
    """AHU labels, from the shared ``table``, of the subtree of x on the
    sorted vertices ``comp`` rooted at its first ``centers`` centers.  Two
    such subtrees are isomorphic exactly when the label at one center of
    the first is among the labels at the centers of the second."""
    index = {v: i for i, v in enumerate(comp)}
    adj = [[index[w] for w in x.adj[v] if w in index] for v in comp]
    return [_ahu_labels(adj, c, table)[0][c] for c in _centers(adj)[:centers]]


def _peel(x: Graph, n2: int, rooting: _Rooting
          ) -> tuple[Optional[PeelTrace], str]:
    """Peel fibers of order n2 off x until n2 vertices remain, taking the
    least candidate at every step (complete, by the argument in the module
    docstring).  Each peeled component is labelled once and checked against
    the labels of the first fiber at its centers.  Returns the trace, or
    None and the reason the peel stopped.
    """
    state = _PeelState(rooting, n2)
    table: dict = {}
    steps: list[PeelStep] = []
    reference: Optional[list[int]] = None  # labels of the first fiber
    while state.total > n2:
        cand = state.least()
        if cand is None:
            return None, (f"after {len(steps)} peels no pendant split edge "
                          f"isolates a component of order {n2}")
        side = state.side(*cand)
        comp = tuple(sorted(side))
        if reference is None:
            reference = _fiber_labels(x, comp, table)
        elif _fiber_labels(x, comp, table, 1)[0] not in reference:
            return None, (f"peeled component at step {len(steps)} is not "
                          "isomorphic to the first fiber")
        steps.append(PeelStep(len(steps), cand, comp))
        state.peel(*cand, side)
    final = tuple(v for v in range(x.order) if not state.peeled[v])
    if _fiber_labels(x, final, table, 1)[0] not in reference:
        return None, "last remaining component does not match the fiber"
    return PeelTrace(x, tuple(steps), final), "ok"


def _try_split(x: Graph, n1: int, n2: int, rooting: _Rooting
               ) -> tuple[Optional[Factorization], str]:
    """Peel n1 - 1 fibers of order n2 off x, then rebuild and certify."""
    trace, reason = _peel(x, n2, rooting)
    if trace is None:
        return None, reason
    base = Graph.from_edges(n1, trace.base_edges())
    fiber = x.induced(trace.steps[0].component)
    try:
        vmap = reconstruct_map(trace, base, fiber)
    except InconsistentTraceError as exc:
        return None, f"map reconstruction failed: {exc}"
    rebuilt = sierpinski_product(base, fiber, vmap)
    if not tree_isomorphic(rebuilt.graph, x):
        return None, "rebuilt product is not isomorphic to the input"
    return Factorization(base, fiber, vmap, trace), "ok"
