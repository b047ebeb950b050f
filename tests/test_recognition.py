import random
import sys
from contextlib import contextmanager

import pytest

from sierpack.errors import InconsistentTraceError
from sierpack.families import path_path_min_map
from sierpack.graphs import (Graph, _centers, free_trees, path, random_tree,
                             star, tree_canonical_form, tree_iso_map,
                             tree_isomorphic, tree_preorder)
from sierpack.product import VertexMap, sierpinski_product
from sierpack.recognition import (PeelTrace, _certify, _peel_trace, _rooting,
                                  _try_split, recognize_tree_product,
                                  reconstruct_map)


def _components(trace):
    """The fibers of a trace, by base vertex, each in vertex order."""
    comps = [[] for _ in range(len(trace.links) + 1)]
    for v, i in enumerate(trace.owner):
        comps[i].append(v)
    return comps


def test_recognize_p4():
    out = recognize_tree_product(path(4))
    assert out.status == "factored"
    fact = out.factorizations[0]
    assert fact.base.order == 2 and fact.fiber.order == 2
    rebuilt = sierpinski_product(fact.base, fact.fiber, fact.vmap)
    assert tree_isomorphic(rebuilt.graph, path(4))


def test_recognize_rejections():
    out = recognize_tree_product(star(11))  # order 12, no valid peel
    assert out.status == "not_a_product"
    assert len(out.diagnostics) == 4
    assert recognize_tree_product(path(7)).status == "not_a_product"
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert recognize_tree_product(c4).status == "not_a_product"


def test_roundtrip_random_products():
    rng = random.Random(41)
    for _ in range(40):
        n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
        t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
        f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
        prod = sierpinski_product(t1, t2, f)
        out = recognize_tree_product(prod.graph)
        assert out.status == "factored"
        for fact in out.factorizations:
            rebuilt = sierpinski_product(fact.base, fact.fiber, fact.vmap)
            assert tree_isomorphic(rebuilt.graph, prod.graph)


def test_reconstruct_map_roundtrips():
    cases = [
        (path(2), path(2), VertexMap(2, 2, (1, 0))),
        (path(4), path(3), VertexMap.constant(4, 3, 1)),
        (star(3), path(2), VertexMap(4, 2, (0, 1, 1, 0))),
    ]
    for t1, t2, f in cases:
        prod = sierpinski_product(t1, t2, f)
        out = recognize_tree_product(prod.graph)
        assert out.status == "factored"
        fact = out.factorizations[0]
        # reconstruct_map is what produced fact.vmap; replay it and rebuild
        vmap = reconstruct_map(fact.peel_trace, fact.base, fact.fiber)
        rebuilt = sierpinski_product(fact.base, fact.fiber, vmap)
        assert tree_isomorphic(rebuilt.graph, prod.graph)


def test_pendant_connecting_edge_characterization():
    # the completeness lemma: in a product in any vertex order, the edges
    # with a side of order divisible by the fiber's are exactly the
    # connecting edges, and every peel of the greedy order removes a whole
    # fiber
    rng = random.Random(42)
    for _ in range(100):
        n1, n2 = rng.randint(2, 7), rng.randint(2, 7)
        t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
        f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
        prod = sierpinski_product(t1, t2, f)
        perm = list(range(prod.graph.order))
        rng.shuffle(perm)
        x = prod.graph.relabel(perm)
        fibers = [frozenset(perm[prod.vertex_of(g, h)] for h in range(n2))
                  for g in range(n1)]
        rooting = _rooting(x)
        _, parent, size, _ = rooting
        assert {frozenset((c, parent[c])) for c in range(1, x.order)
                if size[c] % n2 == 0} == \
            {frozenset((perm[u], perm[v])) for (u, v), _ in prod.connecting}
        trace, _ = _peel_trace(x, n1, n2, rooting)
        assert all(frozenset(comp) in fibers for comp in _components(trace))


def _random_factor(n, rng):
    return rng.choice([random_tree(n, rng), path(n), star(n - 1)])


def test_base_is_numbered_in_a_peel_order():
    # the fiber holding vertex 0 is base vertex n1 - 1, and every fiber i
    # below it is a leaf of the quotient on fibers i..n1 - 1: its link
    # leaves it for a higher-numbered fiber, and it is its only cut edge
    # into those fibers
    rng = random.Random(7)
    checked = 0
    for trial in range(200):
        n1, n2 = rng.randint(2, 9), rng.randint(2, 9)
        t1, t2 = _random_factor(n1, rng), _random_factor(n2, rng)
        f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
        x = sierpinski_product(t1, t2, f).graph
        if trial % 2:
            perm = list(range(x.order))
            rng.shuffle(perm)
            x = x.relabel(perm)
        for fact in recognize_tree_product(x).factorizations:
            owner, links = fact.peel_trace.owner, fact.peel_trace.links
            k = fact.base.order
            assert owner[0] == k - 1
            for i, (near, far) in enumerate(links):
                assert owner[near] == i < owner[far]
                assert sum(1 for v in range(x.order) if owner[v] == i
                           for w in x.adj[v] if owner[w] > i) == 1
            checked += 1
    assert checked > 200


def test_completeness_small_trees():
    from itertools import product as iproduct
    for n in (4, 6, 8):
        for x in free_trees(n):
            brute = False
            for n2 in range(2, n // 2 + 1):
                if n % n2:
                    continue
                n1 = n // n2
                for t1 in free_trees(n1):
                    for t2 in free_trees(n2):
                        for img in iproduct(range(n2), repeat=n1):
                            prod = sierpinski_product(
                                t1, t2, VertexMap(n1, n2, img))
                            if tree_isomorphic(prod.graph, x):
                                brute = True
                                break
                        if brute:
                            break
                    if brute:
                        break
                if brute:
                    break
            assert (recognize_tree_product(x).status == "factored") == brute


def test_factorizations_deduplicated_by_shape():
    prod = sierpinski_product(path(2), path(4), VertexMap.constant(2, 4, 0))
    out = recognize_tree_product(prod.graph)
    shapes = [(tree_canonical_form(f.base), tree_canonical_form(f.fiber))
              for f in out.factorizations]
    assert len(shapes) == len(set(shapes))


def test_recognize_long_path_product():
    vmap, _ = path_path_min_map(40, 30)
    prod = sierpinski_product(path(40), path(30), vmap)
    out = recognize_tree_product(prod.graph)
    assert out.status == "factored"
    for fact in out.factorizations:
        rebuilt = sierpinski_product(fact.base, fact.fiber, fact.vmap)
        assert tree_isomorphic(rebuilt.graph, prod.graph)


@contextmanager
def _shallow_stack(headroom=100):
    """Allow only `headroom` frames beyond the current stack depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_tree_layer_depth_does_not_grow_with_input():
    long_path = path(1000)
    perm = list(range(1000))
    random.Random(43).shuffle(perm)
    rng = random.Random(44)
    base, fiber = random_tree(120, rng), random_tree(3, rng)
    f = VertexMap(120, 3, tuple(rng.randrange(3) for _ in range(120)))
    prod = sierpinski_product(base, fiber, f).graph
    with _shallow_stack():
        # rooted at a center: two chains, of 500 and 499 vertices
        assert tree_canonical_form(long_path) == \
            "(" + "(" * 500 + ")" * 500 + "(" * 499 + ")" * 499 + ")"
        assert tree_iso_map(long_path, long_path.relabel(perm)) is not None
        out = recognize_tree_product(prod)
    assert out.status == "factored"
    assert any(fact.base.order == 120 for fact in out.factorizations)


def test_relabelled_long_path_product():
    # a path of order 2,000 in random vertex order: deep rootings, and every
    # divisor pair of 2,000 is a factorization
    vmap, _ = path_path_min_map(40, 50)
    prod = sierpinski_product(path(40), path(50), vmap).graph
    perm = list(range(prod.order))
    random.Random(46).shuffle(perm)
    out = recognize_tree_product(prod.relabel(perm))
    assert out.status == "factored"
    assert sorted((f.base.order, f.fiber.order)
                  for f in out.factorizations) == \
        sorted((2000 // d, d) for d in range(2, 1001) if 2000 % d == 0)


def test_large_tree_product_under_a_shallow_stack():
    rng = random.Random(47)
    base, fiber = random_tree(60, rng), random_tree(60, rng)
    f = VertexMap(60, 60, tuple(rng.randrange(60) for _ in range(60)))
    prod = sierpinski_product(base, fiber, f).graph
    with _shallow_stack():
        out = recognize_tree_product(prod)
    assert out.status == "factored"
    fact = next(f for f in out.factorizations if f.base.order == 60)
    assert tree_isomorphic(fact.base, base)
    assert tree_isomorphic(fact.fiber, fiber)


def test_relabelled_path_product_of_order_ten_thousand():
    vmap, _ = path_path_min_map(200, 50)
    prod = sierpinski_product(path(200), path(50), vmap).graph
    perm = list(range(prod.order))
    random.Random(48).shuffle(perm)
    out = recognize_tree_product(prod.relabel(perm))
    assert out.status == "factored"
    assert len(out.factorizations) == 23


# the eager candidate list of an earlier version, kept as the oracle for the
# candidates the residue cut predicts

def _old_subtree_sizes(adj, vertices, root):
    alive = set(vertices)
    parent = {root: -1}
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if w in alive and w not in parent:
                parent[w] = v
                stack.append(w)
    sizes = {v: 1 for v in order}
    for v in reversed(order):
        if parent[v] != -1:
            sizes[parent[v]] += sizes[v]
    return sizes


def _old_component_without_edge_sub(adj, alive, start, removed):
    ru, rv = removed
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in alive or {v, w} == {ru, rv} or w in seen:
                continue
            seen.add(w)
            stack.append(w)
    return seen


def _old_split_candidates(x, remaining, n2):
    root = min(remaining)
    sizes = _old_subtree_sizes(x.adj, remaining, root)
    total = len(remaining)
    out = []
    for u in sorted(remaining):
        for v in x.adj[u]:
            if u < v and v in sizes:
                child = v if sizes[v] < sizes[u] else u
                other = u if child == v else v
                if sizes[child] == n2:
                    side = frozenset(_old_component_without_edge_sub(
                        x.adj, remaining, child, (u, v)))
                    out.append(((child, other), side))
                if total - sizes[child] == n2 and total - sizes[child] != sizes[child]:
                    side = frozenset(remaining - _old_component_without_edge_sub(
                        x.adj, remaining, child, (u, v)))
                    out.append(((other, child), side))
    return out


def _quotient_candidates(x, owner, left):
    """The candidates the residue cut predicts for the union of the
    components in ``left``: the cut edge of each leaf of the quotient on
    ``left`` as (near, far), near in the leaf, with the leaf as its side;
    when two components are left, the side without the lowest vertex."""
    cut = {i: [] for i in left}
    for u in range(x.order):
        for v in x.adj[u]:
            if owner[u] != owner[v] and owner[u] in left and owner[v] in left:
                cut[owner[u]].append((u, v))
    low = min(v for v in range(x.order) if owner[v] in left)
    out = []
    for i, edges in cut.items():
        if len(edges) == 1 and not (len(left) == 2 and owner[low] == i):
            side = frozenset(v for v in range(x.order) if owner[v] == i)
            out.append((edges[0], side))
    return sorted(out, key=lambda c: sorted(c[0]))


def test_split_candidates_match_eager_oracle():
    rng = random.Random(45)
    compared = 0
    for _ in range(60):
        n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
        t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
        f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
        x = sierpinski_product(t1, t2, f).graph
        perm = list(range(x.order))
        rng.shuffle(perm)
        x = x.relabel(perm)
        trace, _ = _peel_trace(x, n1, n2, _rooting(x))
        owner = trace.owner
        remaining = frozenset(range(x.order))
        left = set(range(n1))
        # walk one random peel path: at every step the eager candidates,
        # recomputed from scratch, are the quotient's leaf edges
        while len(remaining) > n2:
            old = _old_split_candidates(x, remaining, n2)
            assert old == _quotient_candidates(x, owner, left)
            compared += 1
            edge, side = old[rng.randrange(len(old))]
            remaining = remaining - side
            left.discard(owner[edge[0]])
    assert compared > 100


def _random_inputs(rng, count):
    """Random tree products in shuffled vertex order, and random trees of
    composite order (mostly not products)."""
    for i in range(count):
        if i % 3 == 2:
            x = random_tree(rng.choice([12, 16, 18, 24, 30, 36]), rng)
        else:
            n1, n2 = rng.randint(2, 9), rng.randint(2, 9)
            t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
            f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
            x = sierpinski_product(t1, t2, f).graph
        perm = list(range(x.order))
        rng.shuffle(perm)
        yield x.relabel(perm)


# the per-peel rebuild, map reconstruction and final check of an earlier
# version, kept as the oracle for the residue cut and the certificate

def _preorder_avoiding(adj, root, blocked):
    # iterative DFS preorder from root that never enters a vertex marked in
    # blocked, with the parent of each vertex reached
    parent = [-1] * len(adj)
    seen = bytearray(blocked)
    seen[root] = 1
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                stack.append(w)
    return order, parent


def _rebuilt_candidates(x, peeled, n2):
    order, parent = _preorder_avoiding(x.adj, peeled.index(0), peeled)
    size = [1] * x.order
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    total = len(order)
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


def _rebuilt_peel(x, n2):
    steps = []
    peeled = bytearray(x.order)
    reference = None
    while x.order - n2 * len(steps) > n2:
        cand = next(_rebuilt_candidates(x, peeled, n2), None)
        if cand is None:
            return None, (f"after {len(steps)} peels no pendant split edge "
                          f"isolates a component of order {n2}")
        (near, far), side = cand
        comp = tuple(sorted(side))
        sub = x.induced(comp)
        if reference is None:
            reference = sub
        elif not _same_tree(sub, reference):
            return None, (f"peeled component at step {len(steps)} is not "
                          "isomorphic to the first fiber")
        steps.append((len(steps), (near, far), comp))
        for v in comp:
            peeled[v] = 1
    final = tuple(v for v in range(x.order) if not peeled[v])
    if not _same_tree(x.induced(final), reference):
        return None, "last remaining component does not match the fiber"
    return (steps, final), "ok"


def _same_tree(t1, t2):
    # string canonical forms: independent of the AHU labels under test
    return tree_canonical_form(t1) == tree_canonical_form(t2)


def _old_ahu_labels(adj, root, table):
    order, parent = tree_preorder(adj, root)
    label = [0] * len(adj)
    for v in reversed(order):
        key = tuple(sorted(label[w] for w in adj[v] if parent[w] == v))
        label[v] = table.setdefault(key, len(table))
    return label, parent


def _old_pair_rooted(t1, r1, lab1, t2, r2, lab2):
    (l1, p1), (l2, p2) = lab1, lab2
    if l1[r1] != l2[r2]:
        return None
    mapping = {}
    stack = [(r1, r2)]
    while stack:
        v1, v2 = stack.pop()
        mapping[v1] = v2
        c1 = sorted((l1[c], c) for c in t1.adj[v1] if p1[c] == v1)
        c2 = sorted((l2[c], c) for c in t2.adj[v2] if p2[c] == v2)
        stack.extend((a, b) for (_, a), (_, b) in zip(c1, c2))
    return mapping


def _old_tree_iso_map(t1, t2):
    c1, c2 = _centers(t1.adj), _centers(t2.adj)
    if t1.order != t2.order or len(c1) != len(c2):
        return None
    table = {}
    lab1 = _old_ahu_labels(t1.adj, c1[0], table)
    for r2 in c2:
        m = _old_pair_rooted(t1, c1[0], lab1,
                             t2, r2, _old_ahu_labels(t2.adj, r2, table))
        if m is not None:
            return m
    return None


def _old_rooted_tree_iso_map(t1, r1, t2, r2):
    table = {}
    return _old_pair_rooted(t1, r1, _old_ahu_labels(t1.adj, r1, table),
                            t2, r2, _old_ahu_labels(t2.adj, r2, table))


def _old_owner(steps, final):
    owner = {}
    for i, comp in enumerate([comp for _, _, comp in steps] + [final]):
        for v in comp:
            owner[v] = i
    return owner


def _old_reconstruct_map(x, steps, final, base, fiber):
    comps = [comp for _, _, comp in steps] + [final]
    if base.order != len(comps):
        raise InconsistentTraceError("base order does not match the trace")
    owner = _old_owner(steps, final)
    locals_ = [{v: j for j, v in enumerate(comp)} for comp in comps]
    subtrees = [x.induced(comp) for comp in comps]
    phi = [None] * len(comps)
    fval = {i: None for i in range(len(comps))}

    last = len(comps) - 1
    m = _old_tree_iso_map(subtrees[last], fiber)
    if m is None:
        raise InconsistentTraceError("final component is not a copy of the fiber")
    phi[last] = {v: m[locals_[last][v]] for v in comps[last]}

    for i, (near, far), _ in reversed(steps):
        j = owner[far]
        if phi[j] is None:
            raise InconsistentTraceError(
                "peel edge points into a fiber peeled earlier")
        if fval[j] is None:
            m = _old_tree_iso_map(subtrees[i], fiber)
            if m is None:
                raise InconsistentTraceError(
                    f"component of base vertex {i} is not a copy of the fiber")
            phi[i] = {v: m[locals_[i][v]] for v in comps[i]}
            fval[j] = phi[i][near]
        else:
            root_local = locals_[i][near]
            m = _old_rooted_tree_iso_map(subtrees[i], root_local, fiber,
                                         fval[j])
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


def _oracle_split(x, n1, n2):
    peel, _ = _rebuilt_peel(x, n2)
    if peel is None:
        return None
    steps, final = peel
    owner = _old_owner(steps, final)
    base = Graph.from_edges(n1, [(i, owner[far]) for i, (_, far), _ in steps])
    fiber = x.induced(steps[0][2])
    try:
        vmap = _old_reconstruct_map(x, steps, final, base, fiber)
    except InconsistentTraceError:
        return None
    if not _same_tree(sierpinski_product(base, fiber, vmap).graph, x):
        return None
    return base, fiber


def _matches_oracle(x, fact, oracle):
    """The oracle numbers the base in its greedy peel order and the
    recognizer in preorder of the cut, so a split is compared by status,
    by base and fiber up to isomorphism, and by the rebuilt product."""
    if fact is None or oracle is None:
        return fact is None and oracle is None
    base, fiber = oracle
    return (_same_tree(fact.base, base) and _same_tree(fact.fiber, fiber)
            and _same_tree(sierpinski_product(fact.base, fact.fiber,
                                              fact.vmap).graph, x))


def test_peel_matches_per_peel_rebuild():
    # the oracle's base and fiber on every split, a product that rebuilds
    # the input, and no factorization where the oracle finds none
    rng = random.Random(49)
    splits = factored = 0
    for x in _random_inputs(rng, 150):
        rooting = _rooting(x)
        for n2 in range(2, x.order // 2 + 1):
            if x.order % n2:
                continue
            fact, _ = _try_split(x, x.order // n2, n2, rooting)
            assert _matches_oracle(x, fact, _oracle_split(x, x.order // n2,
                                                          n2))
            splits += 1
            factored += fact is not None
    assert splits > 400 and factored > 100


def _moved_connecting_edge(rng):
    """A product of random trees with one connecting edge moved to another
    vertex of the same fiber, in shuffled vertex order: the edges with a
    side of order divisible by n2 still cut out the fibers, but the cut
    edges need not fit one map."""
    n1, n2 = rng.randint(3, 7), rng.randint(3, 7)
    t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
    f = VertexMap(n1, n2, tuple(rng.randrange(n2) for _ in range(n1)))
    prod = sierpinski_product(t1, t2, f)
    (u, v), (g, _) = prod.connecting[rng.randrange(len(prod.connecting))]
    if prod.base_of(u) != g:
        u, v = v, u
    moved = prod.vertex_of(g, rng.choice([h for h in range(n2) if h != f(g)]))
    edges = [e for e in prod.graph.edges() if set(e) != {u, v}]
    x = Graph.from_edges(prod.graph.order, edges + [(moved, v)])
    perm = list(range(x.order))
    rng.shuffle(perm)
    return n1, n2, x.relabel(perm)


def test_isomorphic_components_that_fit_no_map_are_rejected():
    rng = random.Random(50)
    rejected = 0
    for _ in range(150):
        n1, n2, x = _moved_connecting_edge(rng)
        rooting = _rooting(x)
        trace, _ = _peel_trace(x, n1, n2, rooting)
        comps = _components(trace)
        fiber = x.induced(comps[0])
        assert all(tree_isomorphic(x.induced(comp), fiber) for comp in comps)
        fact, _ = _try_split(x, n1, n2, rooting)
        assert _matches_oracle(x, fact, _oracle_split(x, n1, n2))
        rejected += fact is None
    assert rejected > 0


def test_certificate_fails_on_one_changed_value():
    rng = random.Random(51)
    for _ in range(30):
        n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
        t1, t2 = random_tree(n1, rng), random_tree(n2, rng)
        fval = [rng.randrange(n2) for _ in range(n1)]
        x = sierpinski_product(t1, t2, VertexMap(n1, n2, tuple(fval))).graph
        owner = [v // n2 for v in range(x.order)]
        img = [v % n2 for v in range(x.order)]
        _certify(x, owner, img, t1, t2, fval)  # the identity certifies
        for g in range(n1):
            for h in range(n2):
                if h != fval[g]:
                    changed = fval[:g] + [h] + fval[g + 1:]
                    with pytest.raises(InconsistentTraceError):
                        _certify(x, owner, img, t1, t2, changed)
        for v in range(x.order):
            for h in range(n2):
                if h != img[v]:
                    changed = img[:v] + [h] + img[v + 1:]
                    with pytest.raises(InconsistentTraceError):
                        _certify(x, owner, changed, t1, t2, fval)
        # two φ values swapped inside a fiber, where the swap is not an
        # automorphism of the fiber: ψ stays a bijection but breaks an edge
        for v in range(x.order):
            for w in range(v + 1, (owner[v] + 1) * n2):
                a, b = img[v], img[w]
                if set(t2.adj[a]) - {b} != set(t2.adj[b]) - {a}:
                    swapped = img[:]
                    swapped[v], swapped[w] = b, a
                    with pytest.raises(InconsistentTraceError):
                        _certify(x, owner, swapped, t1, t2, fval)


def test_reconstruct_map_rejects_a_trace_with_a_wrong_map_edge():
    # a product's trace with one peel edge moved inside its fiber: the
    # components stay copies of the fiber, but no map fits the edges
    prod = sierpinski_product(path(3), path(3), VertexMap.constant(3, 3, 0))
    out = recognize_tree_product(prod.graph)
    fact = next(f for f in out.factorizations if f.base.order == 3)
    trace = fact.peel_trace
    near, far = trace.links[0]
    other = next(v for v in _components(trace)[0] if v != near)
    bad = PeelTrace(trace.source, trace.owner,
                    ((other, far),) + trace.links[1:])
    with pytest.raises(InconsistentTraceError):
        reconstruct_map(bad, fact.base, fact.fiber)


def test_reconstruct_map_rejects_a_base_or_fiber_that_does_not_fit():
    # with an extra edge every edge of the input still maps to an edge of
    # the product, but the product has one edge more, so ψ is no isomorphism
    prod = sierpinski_product(path(3), path(3), VertexMap.constant(3, 3, 0))
    fact = next(f for f in recognize_tree_product(prod.graph).factorizations
                if f.base.order == 3)
    cycle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InconsistentTraceError):
        reconstruct_map(fact.peel_trace, cycle, fact.fiber)
    # a base tree of the right order and size, but not the trace's
    other = next(t for t in (path(3), star(2))
                 if set(t.edges()) != set(fact.base.edges()))
    with pytest.raises(InconsistentTraceError):
        reconstruct_map(fact.peel_trace, other, fact.fiber)
    with pytest.raises(InconsistentTraceError):
        reconstruct_map(fact.peel_trace, fact.base, cycle)


def test_reconstruct_map_rejects_components_that_are_not_trees():
    # every second vertex of a path: each component is edgeless
    x = path(6)
    trace = PeelTrace(x, (0, 1, 0, 1, 0, 1), ((4, 5),))
    with pytest.raises(InconsistentTraceError):
        reconstruct_map(trace, path(2), path(3))
    # a source with a cycle, cut into two triangles
    x = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (2, 3)])
    trace = PeelTrace(x, (1, 1, 1, 0, 0, 0), ((3, 2),))
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InconsistentTraceError):
        reconstruct_map(trace, path(2), path(3))
    # the certificate itself holds beyond trees: this is K2 ⊗ K3
    assert reconstruct_map(trace, path(2), triangle).base_order == 2


def test_reconstruct_map_rejects_owners_that_do_not_number_the_input():
    # an owner array of the wrong length, or with a value outside
    # 0..len(links), is an inconsistent trace, not an IndexError
    prod = sierpinski_product(path(3), path(3), VertexMap.constant(3, 3, 0))
    fact = next(f for f in recognize_tree_product(prod.graph).factorizations
                if f.base.order == 3)
    trace = fact.peel_trace
    for owner in (trace.owner[:-1], trace.owner + (0,),
                  trace.owner[:-1] + (3,), (-1,) + trace.owner[1:]):
        bad = PeelTrace(trace.source, owner, trace.links)
        with pytest.raises(InconsistentTraceError):
            reconstruct_map(bad, fact.base, fact.fiber)


@pytest.mark.parametrize("link", [(1, 99), (-3, 2)])
def test_reconstruct_map_rejects_link_endpoints_outside_the_input(link):
    # an endpoint past the input, or a negative one that would index
    # owner from the end, is an inconsistent trace
    bad = PeelTrace(path(4), (0, 0, 1, 1), (link,))
    with pytest.raises(InconsistentTraceError):
        reconstruct_map(bad, path(2), path(2))


def test_reconstruct_map_rejects_components_of_the_wrong_order():
    bad = PeelTrace(path(4), (0, 0, 0, 1), ((2, 3),))
    with pytest.raises(InconsistentTraceError,
                       match="components do not all have the fiber's order"):
        reconstruct_map(bad, path(2), path(2))


def test_reconstruct_map_rejects_a_link_into_a_fiber_peeled_earlier():
    # link 1 leaves fiber 0 for fiber 0's own vertex 1, whose image is not
    # chosen yet: the peel order runs the wrong way
    bad = PeelTrace(path(6), (0, 0, 1, 1, 2, 2), ((1, 2), (0, 1)))
    with pytest.raises(InconsistentTraceError,
                       match="peel edge points into a fiber peeled earlier"):
        reconstruct_map(bad, path(3), path(2))
