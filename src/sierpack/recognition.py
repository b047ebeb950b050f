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
by default; exhaustive=True backtracks over every candidate before
rejecting a split.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional

from .errors import InconsistentTraceError
from .graphs import (Graph, is_connected, is_tree, reachable,
                     rooted_tree_iso_map, tree_canonical_form, tree_iso_map,
                     tree_isomorphic, tree_preorder)
from .product import VertexMap, sierpinski_product


def pendant_split_edges(x: Graph, n2: int) -> list[tuple[int, int]]:
    """All cut edges whose removal leaves components of orders exactly n2
    and n(x) - n2; computed by one subtree-size DFS on trees."""
    if not is_connected(x):
        raise ValueError("pendant_split_edges needs a connected graph")
    n = x.order
    if n2 < 1 or n2 >= n:
        return []
    if x.size == n - 1:
        order, parent = tree_preorder(x.adj, 0)
        size = _subtree_sizes(order, parent)
        return [(u, v) for u, v in x.edges()
                if size[v if parent[v] == u else u] in (n2, n - n2)]
    # an edge on a cycle leaves all n vertices on u's side, never n2 or n - n2
    return [(u, v) for u, v in x.edges()
            if len(reachable(x, u, (u, v))) in (n2, n - n2)]


def _subtree_sizes(order: list[int], parent: list[int]) -> list[int]:
    """Subtree sizes from a rooted preorder, indexed by vertex."""
    size = [1] * len(parent)
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    return size


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


def recognize_tree_product(x: Graph, exhaustive: bool = False) -> RecognitionOutcome:
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
    for n1, n2 in splits:
        fact, reason = _try_split(x, n1, n2, exhaustive)
        if fact is None:
            diagnostics[f"{n1}x{n2}"] = reason
            continue
        shape = (tree_canonical_form(fact.base), tree_canonical_form(fact.fiber))
        if shape not in seen_shapes:
            seen_shapes.add(shape)
            found.append(fact)
    status = "factored" if found else "not_a_product"
    return RecognitionOutcome(status, found, diagnostics)


def _split_candidates(x: Graph, peeled: bytearray, n2: int
                      ) -> Iterator[tuple[tuple[int, int], list[int]]]:
    """Lazily yield the ((near, far), fiber-side) candidates of the subtree
    left after removing the ``peeled`` vertices, ordered by the edge's
    lower endpoint, then its higher one.

    One preorder pass from the lowest vertex left gives every subtree size,
    and the subtree below an edge is a slice of that preorder, so a side
    costs only the time to copy it, and only when it is asked for.
    """
    order, parent = tree_preorder(x.adj, peeled.index(0), peeled)
    size = _subtree_sizes(order, parent)
    total = len(order)
    # every edge joins a non-root vertex to its parent; when both sides
    # have order n2, the subtree side is the candidate
    hits = []
    for lo in range(1, total):
        child = order[lo]
        if size[child] == n2 or total - size[child] == n2:
            other = parent[child]
            hits.append((min(child, other), max(child, other), lo))
    for _, _, lo in sorted(hits):
        child, k = order[lo], size[order[lo]]
        if k == n2:
            yield (child, parent[child]), order[lo:lo + k]
        else:
            yield (parent[child], child), order[:lo] + order[lo + k:]


def _peel(x: Graph, n2: int, exhaustive: bool
          ) -> tuple[Optional[PeelTrace], str]:
    """Peel fibers of order n2 off x until n2 vertices remain.

    Greedy mode takes the first candidate at every step and keeps nothing
    to go back to.  Exhaustive mode keeps, for every peel on the current
    path, the candidates not yet tried, and backtracks through them in
    depth-first order.  Returns the trace, or None and the last reason a
    branch failed.
    """
    reason = ("no pendant split edge isolates a component of order "
              f"{n2} at the first step")
    steps: list[PeelStep] = []
    frames = []  # (reference, untried candidates) per peel on the path
    peeled = bytearray(x.order)  # 1 marks a vertex of a peeled fiber
    reference: Optional[Graph] = None
    while True:
        if x.order - n2 * len(steps) == n2:
            final = tuple(v for v in range(x.order) if not peeled[v])
            if reference is None or tree_isomorphic(x.induced(final),
                                                    reference):
                return PeelTrace(x, tuple(steps), final), "ok"
            reason = "last remaining component does not match the fiber"
            cands: Iterator = iter(())
        else:
            cands = _split_candidates(x, peeled, n2)
            first = next(cands, None)
            if first is None:
                reason = (f"after {len(steps)} peels no pendant split edge "
                          f"isolates a component of order {n2}")
            else:
                cands = chain((first,), cands if exhaustive else ())
        while True:
            cand = next(cands, None)
            if cand is None:
                if not frames:
                    return None, reason
                reference, cands = frames.pop()
                for v in steps.pop().component:
                    peeled[v] = 0
                continue
            (near, far), side = cand
            comp = tuple(sorted(side))
            sub = x.induced(comp)
            if reference is not None and not tree_isomorphic(sub, reference):
                reason = (f"peeled component at step {len(steps)} is not "
                          "isomorphic to the first fiber")
                continue
            if exhaustive:
                frames.append((reference, cands))
            steps.append(PeelStep(len(steps), (near, far), comp))
            for v in comp:
                peeled[v] = 1
            if reference is None:
                reference = sub
            break


def _try_split(x: Graph, n1: int, n2: int, exhaustive: bool
               ) -> tuple[Optional[Factorization], str]:
    """Peel n1 - 1 fibers of order n2 off x, then rebuild and certify."""
    trace, reason = _peel(x, n2, exhaustive)
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
