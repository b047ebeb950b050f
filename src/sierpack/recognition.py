"""Recognition of products whose two factors are trees.

The residue lemma.  Let x = T1 ⊗_f T2 with |T1| = n1 and |T2| = n2.
Cutting an edge inside the fiber gT2 splits that fiber into parts P and Q;
the side holding P is P together with whole fibers hanging off it, of order
|P| + n2·k with 0 < |P| < n2, so neither side's order is a multiple of n2.
Cutting a connecting edge leaves whole fibers on both sides.  So the
connecting edges of x are exactly the edges with a side of order ≡ 0
(mod n2): they are fixed by x and n2 alone, and cutting them leaves the
fibers.  Rooted once, x gives this cut for every split as the edges
(v, parent[v]) with size[v] % n2 == 0.  A split (n1, n2) goes on only when
there are n1 - 1 of them, which the counts of subtree sizes tell in O(n1);
each of the n1 components left then has order ≡ 0 (mod n2), so all have
order exactly n2.  Contracting the components gives the quotient tree, the
candidate base.

Peel order.  The component holding vertex 0 is base vertex n1 - 1; every
other component, taken in preorder of its top vertex v (the end of its
cut edge inside it), is numbered n1 - 2, n1 - 3, ... down to 0, and its
link is (v, parent[v]).  The components below fiber i in the rooting come after it
in preorder, so fiber i is a leaf of the quotient on fibers i..n1 - 1 and
its link goes up to a higher-numbered fiber: the numbering is a peel order,
and the fiber is component 0.

Map reconstruction works backwards through the peel record.  Each
component gets an isomorphism φ onto the fiber H; the far endpoint of a
peel edge pins the peeled base vertex's map value, and the near endpoint
pins the neighbor's value.  When the neighbor's value is already fixed,
the peeled component's isomorphism is chosen to respect it (a rooted
isomorphism sending the near endpoint to the fixed value).  The result is
certified explicitly: ψ(v) = owner(v)·n2 + φ_owner(v)(v) must be a
bijection onto the vertices of G ⊗_f H sending every edge of x to an edge
of it, and x must have as many edges as the product.  So a "factored"
answer is sound unconditionally.

Completeness.  If x is a product with fiber order n2, the cut gives its
fibers and the quotient is T1.  Every component with its near endpoint,
rooted there, is a copy of T2 rooted at f of the neighbor, and the value
fixed for that neighbor came from a sibling copy rooted the same way, so
every rooted isomorphism asked for exists and ψ is an isomorphism.  On a
split for which x is not a product no ψ certifies, whatever was chosen.

Cost.  One rooting per input.  A split costs O(n1) when it is rejected by
the size counts, and otherwise O(n) for the cut and O(n log n2) for
sorting children: no depth term.
Each component is labelled once, rooted at a center or at its near
endpoint, in one AHU table per split (Aho, Hopcroft and Ullman 1974); the
fiber's labellings are cached per root.  The certificate is one pass over
the edges of x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InconsistentTraceError
from .graphs import (Graph, Labelled, _ahu_labels, _centers, _pair_rooted,
                     is_tree, tree_preorder)
from .product import VertexMap


# ---------------------------------------------------------------------------
# peel traces and map reconstruction

@dataclass(frozen=True)
class PeelTrace:
    """The cut of one split.  owner[v] is the base vertex whose fiber holds
    v, base vertices numbered in peel order; links[i] = (near, far) is the
    edge that peeled base vertex i < n1 - 1, with near in its fiber."""

    source: Graph
    owner: tuple[int, ...]
    links: tuple[tuple[int, int], ...]


def reconstruct_map(trace: PeelTrace, base: Graph, fiber: Graph) -> VertexMap:
    """Rebuild the connecting function from a completed peel, and certify it.

    The peel links are replayed newest-first.  Each link's far endpoint
    fixes f at the peeled base vertex through the already-chosen
    isomorphism of the neighbor component, and its near endpoint either
    fixes f at the neighbor or constrains the peeled component's
    isomorphism to honor the value fixed earlier.  An unconstrained
    isomorphism roots the component at its least center and the fiber at
    its first matching center.  Raises InconsistentTraceError when no
    isomorphism honors a constraint or when the explicit isomorphism ψ of
    the module docstring fails on some vertex or edge.
    """
    x, owner, n2 = trace.source, trace.owner, fiber.order
    k = len(trace.links) + 1
    if base.order != k:
        raise InconsistentTraceError("base order does not match the trace")
    if len(owner) != x.order or min(owner) < 0 or max(owner) >= k:
        raise InconsistentTraceError("the owners do not number the input's "
                                     "vertices by base vertex")
    if not all(0 <= v < x.order for link in trace.links for v in link):
        raise InconsistentTraceError("a link endpoint is not a vertex of "
                                     "the input")
    comps: list[list[int]] = [[] for _ in range(k)]
    for v, i in enumerate(owner):  # sorted, for free's least center
        comps[i].append(v)
    if any(len(comp) != n2 for comp in comps):
        raise InconsistentTraceError("components do not all have the "
                                     "fiber's order")
    table: dict = {}
    zeros = bytes(n2)
    fiber_at: dict[int, Labelled] = {}  # the fiber rooted at each key

    def rooted_fiber(r: int) -> Labelled:
        if r not in fiber_at:
            fiber_at[r] = _ahu_labels(fiber.adj, r, table, zeros, 0)
        return fiber_at[r]

    img = [-1] * x.order  # φ_owner(v)(v), -1 until φ_owner(v) is chosen
    centers = _centers(fiber.adj)

    def free(i: int) -> bool:
        # φ_i unconstrained: component i rooted at its least center, the
        # fiber at its first center that matches
        comp = comps[i]
        r = comp[_centers(_local_adj(x.adj, comp, owner, i))[0]]
        t = _ahu_labels(x.adj, r, table, owner, i)
        return any(_pair_rooted(t, r, rooted_fiber(c), c, img)
                   for c in centers)

    fval: list[Optional[int]] = [None] * k
    if not free(k - 1):
        raise InconsistentTraceError("final component is not a copy of the "
                                     "fiber")
    for i in range(k - 2, -1, -1):
        near, far = trace.links[i]
        j = owner[far]
        if img[far] < 0 or owner[near] != i:
            raise InconsistentTraceError(
                "peel edge points into a fiber peeled earlier")
        if fval[j] is None:
            if not free(i):
                raise InconsistentTraceError(
                    f"component of base vertex {i} is not a copy of the "
                    "fiber")
            fval[j] = img[near]
        elif not _pair_rooted(_ahu_labels(x.adj, near, table, owner, i), near,
                              rooted_fiber(fval[j]), fval[j], img):
            raise InconsistentTraceError(
                f"no fiber isomorphism sends the near endpoint of base "
                f"vertex {i} to the already fixed value {fval[j]}")
        fval[i] = img[far]

    if None in fval:
        raise InconsistentTraceError("some base vertex received no map value")
    _certify(x, owner, img, base, fiber, fval)
    return VertexMap(k, n2, tuple(fval))


def _certify(x: Graph, owner: list[int], img: list[int], base: Graph,
             fiber: Graph, fval: list[int]) -> None:
    """Check that ψ(v) = owner[v]·n2 + img[v] is an isomorphism from x onto
    base ⊗_fval fiber: a bijection on vertices that sends every edge of x
    to an edge of the product, which has as many edges as x."""
    n2 = fiber.order
    if x.size != base.order * fiber.size + base.size:
        raise InconsistentTraceError("the product's size differs from the "
                                     "input's")
    hit = bytearray(x.order)
    for v, a in enumerate(img):
        p = owner[v] * n2 + a
        if a < 0 or hit[p]:
            raise InconsistentTraceError(f"ψ is not a bijection at vertex {v}")
        hit[p] = 1
    fadj = [set(nbrs) for nbrs in fiber.adj]
    badj = [set(nbrs) for nbrs in base.adj]
    for u, nbrs in enumerate(x.adj):
        i, a = owner[u], img[u]
        for w in nbrs:
            if w < u:
                continue
            j = owner[w]
            if i == j:
                ok = img[w] in fadj[a]
            else:
                ok = j in badj[i] and a == fval[j] and img[w] == fval[i]
            if not ok:
                raise InconsistentTraceError(
                    f"ψ sends the edge {u}-{w} to a non-edge of the product")


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
    returning one certified factorization per split (n1, n2) that factors.

    Every factorization returned has been certified by an explicit
    isomorphism onto the rebuilt product; failures are reported per order
    split in diagnostics.
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
    rooting = _rooting(x)
    for n1, n2 in splits:
        fact, reason = _try_split(x, n1, n2, rooting)
        if fact is None:
            diagnostics[f"{n1}x{n2}"] = reason
        else:
            found.append(fact)
    status = "factored" if found else "not_a_product"
    return RecognitionOutcome(status, found, diagnostics)


# preorder from vertex 0, parents, subtree sizes, and count[s], the number
# of vertices other than 0 whose subtree has order s
_Rooting = tuple[list[int], list[int], list[int], list[int]]


def _rooting(x: Graph) -> _Rooting:
    """The tree x rooted at vertex 0 by one preorder, shared by every
    split."""
    order, parent = tree_preorder(x.adj, 0)
    size = [1] * x.order
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    count = [0] * (x.order + 1)
    for s in size[1:]:
        count[s] += 1
    return order, parent, size, count


def _peel_trace(x: Graph, n1: int, n2: int, rooting: _Rooting
                ) -> tuple[Optional[PeelTrace], str]:
    """Cut the edges with a side of order ≡ 0 (mod n2), numbering the
    components in the same preorder pass (module docstring, "Peel order").
    Returns the trace, or None and the reason the split has none."""
    order, parent, size, count = rooting
    cuts = sum(count[n2 * k] for k in range(1, n1))
    if cuts != n1 - 1:
        return None, (f"{cuts} edges have a side of order divisible by "
                      f"{n2}, not n1 - 1 = {n1 - 1}")
    owner = [n1 - 1] * x.order
    links = [(0, 0)] * (n1 - 1)
    k = n1 - 1
    for v in order[1:]:
        if size[v] % n2:
            owner[v] = owner[parent[v]]
        else:
            k -= 1
            owner[v] = k
            links[k] = (v, parent[v])
    return PeelTrace(x, tuple(owner), tuple(links)), "ok"


def _try_split(x: Graph, n1: int, n2: int, rooting: _Rooting
               ) -> tuple[Optional[Factorization], str]:
    """Cut x into n1 fibers of order n2, then rebuild and certify."""
    trace, reason = _peel_trace(x, n1, n2, rooting)
    if trace is None:
        return None, reason
    owner = trace.owner
    base = Graph.from_edges(n1, [(i, owner[far])
                                 for i, (_, far) in enumerate(trace.links)])
    comp = [v for v, i in enumerate(owner) if i == 0]
    fiber = Graph._trusted(len(comp), tuple(map(tuple, _local_adj(
        x.adj, comp, owner, 0))))
    try:
        vmap = reconstruct_map(trace, base, fiber)
    except InconsistentTraceError as exc:
        return None, f"map reconstruction failed: {exc}"
    return Factorization(base, fiber, vmap, trace), "ok"


def _local_adj(adj, comp: list[int], owner, i: int) -> list[list[int]]:
    """Neighbor lists of the sorted vertices comp, all with owner i, among
    themselves, relabelled 0..len(comp)-1 in order.  They come out sorted,
    as adj's are and the relabelling increases."""
    index = {v: k for k, v in enumerate(comp)}
    return [[index[w] for w in adj[v] if owner[w] == i] for v in comp]
