import itertools
import random
import re

import pytest

from sierpack import families
from sierpack.coloring import verify_packing_coloring
from sierpack.errors import ConstructionError, ConstructionOutOfRange
from sierpack.families import (FAMILIES, SpineDecomposition,
                               _hub_path_colors, color_class_T,
                               complete_pair_value, corona_table_value,
                               path_path_min_map, spine_decompose)
from sierpack.graphs import (Graph, complete, corona, is_tree, path, star,
                             tree_isomorphic)
from sierpack.product import VertexMap, sierpinski_chi, sierpinski_product


def test_complete_pair_values():
    assert complete_pair_value(3, 3, "min").value == 5
    assert complete_pair_value(4, 3, "max").value == 7
    assert complete_pair_value(3, 4, "max").value == 8
    # parameters of 2 route to the special cases
    assert complete_pair_value(2, 4, "min").value == 7
    assert complete_pair_value(4, 2, "min").value == 5
    with pytest.raises(ValueError):
        complete_pair_value(3, 3, "between")


def test_complete_by_k2_values():
    complete_k2 = FAMILIES["complete-k2"]
    for mode in ("min", "max"):
        for (m, m1, m2), value in (((8, 5, 3), 10), ((4, 2, 2), 5),
                                   ((3, 3, 0), 4), ((8, 3, 5), 10)):
            got = complete_k2.value({"m": m, "m1": m1, "m2": m2}, mode)
            assert got.value == value, (m, m1, m2, mode)
        with pytest.raises(ValueError, match="need m1 \\+ m2 = m >= 3"):
            complete_k2.value({"m": 8, "m1": 5, "m2": 2}, mode)


def test_k2_special_values():
    k2_complete, complete_k2 = FAMILIES["k2-complete"], FAMILIES["complete-k2"]
    assert k2_complete.value({"n": 2}, "min").value == 3
    assert k2_complete.value({"n": 2}, "max").value == 3
    assert complete_k2.value({"m": 4}, "min").value == 5
    assert complete_k2.value({"m": 4}, "max").value == 5
    with pytest.raises(ValueError, match="fiber_K2 needs base order m >= 3"):
        complete_k2.value({"m": 2}, "min")
    with pytest.raises(ValueError, match="base_K2 needs fiber order n >= 2"):
        k2_complete.value({"n": 1}, "min")


def test_corona_table():
    assert corona_table_value(5, 2).value == 5
    assert corona_table_value(9, 3).value == 6
    assert corona_table_value(35, 4).value == 7
    assert [corona_table_value(n, 2).value for n in range(1, 8)] == \
        [2, 3, 4, 4, 5, 5, 5]
    with pytest.raises(ValueError):
        corona_table_value(3, 1)


def test_path_path_min_map():
    vm, col = path_path_min_map(3, 3)
    prod = sierpinski_product(path(3), path(3), vm)
    assert prod.graph.order == 9 and col.k == 3
    assert verify_packing_coloring(prod.graph, col).ok

    vm, col = path_path_min_map(4, 5)
    g = sierpinski_product(path(4), path(5), vm).graph
    assert g.order == 20 and is_tree(g)
    assert max(g.degree(v) for v in range(20)) == 2

    vm, col = path_path_min_map(2, 2)
    g = sierpinski_product(path(2), path(2), vm).graph
    assert tree_isomorphic(g, path(4)) and col.k == 3


def test_spine_decompose_small_cases():
    prod = sierpinski_product(path(2), path(3), VertexMap.constant(2, 3, 0))
    dec = spine_decompose(prod)
    assert dec.spine == (prod.vertex_of(0, 0), prod.vertex_of(1, 0))
    u, v = dec.spine
    assert prod.graph.has_edge(u, v) and prod.base_of(u) != prod.base_of(v)
    assert set(dec.branches) == set(dec.spine)

    # under the endpoint-alternating map the walk runs through the middle
    # fiber whole, and each end fiber dangles its leftover stub
    vm, _ = path_path_min_map(3, 3)
    prod = sierpinski_product(path(3), path(3), vm)
    dec = spine_decompose(prod)
    assert dec.spine == (0, 3, 4, 5, 6)
    assert dec.branches == {0: ((1, 2),), 6: ((7, 8),)}


def test_spine_partition_property():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(2, 8)
        n = rng.randint(1, 8)
        f = VertexMap(m, n, tuple(rng.randrange(n) for _ in range(m)))
        prod = sierpinski_product(path(m), path(n), f)
        dec = spine_decompose(prod)
        covered = set(dec.spine)
        for paths in dec.branches.values():
            assert len(paths) <= 2
            for branch in paths:
                covered.update(branch)
        assert covered == set(range(prod.graph.order))
        assert max(prod.graph.degree(v) for v in range(prod.graph.order)) <= 4


def test_spine_rejects_non_path_factors():
    prod = sierpinski_product(star(3), path(3), VertexMap.constant(4, 3, 0))
    with pytest.raises(ValueError):
        spine_decompose(prod)


def test_color_class_t_spine_only():
    g = path(16)
    dec = SpineDecomposition(g, tuple(range(16)), {})
    col = color_class_T(dec)
    assert list(col.colors) == [1, 4, 1, 5, 1, 6, 1, 7] * 2
    assert verify_packing_coloring(g, col).ok


def test_color_class_t_two_branches():
    # one spine vertex with two length-5 pendant paths
    edges = [(0, i) for i in (1, 6)]
    edges += [(i, i + 1) for i in range(1, 5)]
    edges += [(i, i + 1) for i in range(6, 10)]
    g = Graph.from_edges(11, edges)
    dec = SpineDecomposition(g, (0,), {0: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))})
    col = color_class_T(dec)
    assert col.k <= 7
    assert verify_packing_coloring(g, col).ok


def test_color_class_t_on_products():
    rng = random.Random(32)
    for _ in range(50):
        f = VertexMap(12, 5, tuple(rng.randrange(5) for _ in range(12)))
        prod = sierpinski_product(path(12), path(5), f)
        col = color_class_T(spine_decompose(prod))
        assert col.k <= 7
        assert verify_packing_coloring(prod.graph, col).ok


def test_color_class_t_validates_input():
    g = path(6)
    with pytest.raises(ValueError):
        color_class_T(SpineDecomposition(g, (0, 2), {}))  # spine break
    with pytest.raises(ValueError):
        color_class_T(SpineDecomposition(g, (0, 1), {}))  # not covering


def _construct(name, m, n, mode, f=None, cyclic=False):
    """The verified coloring of FAMILIES[name]'s construction."""
    return FAMILIES[name].construct({"m": m, "n": n}, mode, f, cyclic)[1]


# the families with a min construction, at their smallest allowed sizes
MIN_ROWS = pytest.mark.parametrize("name, m_lo, n_lo", [
    ("path-path", 2, 2), ("star-path", 3, 2), ("path-star", 2, 3),
    ("star-star", 3, 3)])


@MIN_ROWS
def test_min_construction_colors_its_rows_min_map(name, m_lo, n_lo):
    # the row's min_map is the one map its min construction colors, and
    # the product is the row's factors joined by it
    family = FAMILIES[name]
    for m in range(m_lo, m_lo + 4):
        for n in range(n_lo, n_lo + 4):
            f = family.min_map(m, n)
            prod = family.construct({"m": m, "n": n}, "min")[0]
            assert prod.vmap == f, (m, n)
            assert prod == sierpinski_product(*family.factors(m, n), f)


@MIN_ROWS
def test_min_construction_value_and_search_agree(name, m_lo, n_lo):
    # at the smallest allowed sizes and one step above, the min
    # construction's colors, the family's exact min and the exhaustive
    # minimum over all maps are one number
    family = FAMILIES[name]
    for m, n in ((m_lo - 1, n_lo), (m_lo, n_lo - 1)):
        with pytest.raises(ValueError):
            family.value({"m": m, "n": n}, "min")
    for m, n in ((m_lo, n_lo), (m_lo + 1, n_lo), (m_lo, n_lo + 1)):
        params = {"m": m, "n": n}
        value = family.value(params, "min")
        assert value.kind == "exact"
        col = family.construct(params, "min")[1]
        searched = sierpinski_chi(*family.factors(m, n), "min")
        assert searched.complete
        assert col.k == value.value == searched.value, (m, n)


def test_star_path_min():
    col = _construct("star-path", 3, 4, "min", VertexMap.constant(4, 4, 0))
    prod = sierpinski_product(star(3), path(4), VertexMap.constant(4, 4, 0))
    assert set(col.colors) == {1, 2, 3}
    assert verify_packing_coloring(prod.graph, col).ok
    with pytest.raises(ValueError):
        _construct("star-path", 3, 4, "min", VertexMap.constant(4, 4, 1))


def test_star_path_max_random():
    rng = random.Random(33)
    for _ in range(40):
        m = rng.randint(3, 10)
        n = rng.randint(2, 10)
        f = VertexMap(m + 1, n, tuple(rng.randrange(n) for _ in range(m + 1)))
        col = _construct("star-path", m, n, "max", f)
        prod = sierpinski_product(star(m), path(n), f)
        assert col.k <= 7
        assert verify_packing_coloring(prod.graph, col).ok


def _recursive_hub_path_colors(n, heavy):
    """The recursive search _hub_path_colors replaced, kept as an oracle."""
    for phase in (0, 1):
        if all(h % 2 == phase for h in heavy):
            bigs = itertools.cycle((4, 5, 6, 7))
            return [next(bigs) if h % 2 == phase else 1 for h in range(n)]
    out = [0] * n
    last = {4: -100, 5: -100, 6: -100, 7: -100}
    steps = 0

    def dfs(i):
        nonlocal steps
        steps += 1
        if steps > 200_000:
            raise ConstructionOutOfRange(
                "no {1,4,5,6,7} hub coloring found within the search cap")
        if i == n:
            return True
        if i not in heavy and (i == 0 or out[i - 1] != 1):
            out[i] = 1
            if dfs(i + 1):
                return True
        for c in (4, 5, 6, 7):
            if i - last[c] > c:
                out[i] = c
                prev = last[c]
                last[c] = i
                if dfs(i + 1):
                    return True
                last[c] = prev
        out[i] = 0
        return False

    if not dfs(0):
        raise ConstructionOutOfRange(
            "attachments too dense for the {1,4,5,6,7} hub palette")
    return out


def _outcome(search, n, heavy):
    try:
        return search(n, heavy)
    except ConstructionOutOfRange as exc:
        return str(exc)


def test_hub_path_colors_match_the_recursive_search():
    # the same colors, and the same ConstructionOutOfRange (too dense, or
    # past the 200,000-step cap) wherever the recursive search raised one
    rng = random.Random(37)
    seen = set()
    for _ in range(40):
        n = rng.randint(1, 200)
        density = rng.choice((0.05, 0.2, 0.5))
        heavy = {h for h in range(n) if rng.random() < density}
        want = _outcome(_recursive_hub_path_colors, n, heavy)
        assert _outcome(_hub_path_colors, n, heavy) == want
        seen.add(want[:2] if isinstance(want, str) else "colors")
    assert seen == {"colors", "at", "no"}


def test_star_path_contains_induced_corona():
    # the map pairing two star leaves onto each path vertex plants the
    # 2-pendant corona of P_12 inside the product as an induced subtree
    m, n = 25, 12
    image = [0] * (m + 1)
    for i in range(1, n + 1):
        image[2 * i] = i - 1
        image[2 * i + 1] = i - 1
    f = VertexMap(m + 1, n, tuple(image))
    prod = sierpinski_product(star(m), path(n), f)
    vertices = [prod.vertex_of(0, h) for h in range(n)]
    for i in range(1, n + 1):
        vertices.append(prod.vertex_of(2 * i, 0))
        vertices.append(prod.vertex_of(2 * i + 1, 0))
    induced = prod.graph.induced(vertices)
    assert tree_isomorphic(induced, corona(path(12), 2))
    assert corona_table_value(12, 2).value == 6


def test_path_star_min_reproduces_printed_figure():
    col = _construct("path-star", 14, 3, "min")
    expected = []
    for i in range(1, 15):
        expected.extend([3 if i % 4 == 1 else 2, 1, 1, 1])
    for base, leaf in ((3, 1), (7, 2), (11, 1)):
        expected[(base - 1) * 4 + leaf] = 3
    assert list(col.colors) == expected
    prod = sierpinski_product(path(14), star(3),
                              FAMILIES["path-star"].min_map(14, 3))
    assert verify_packing_coloring(prod.graph, col).ok


def test_path_star_min_various_lengths():
    for m in (2, 3, 7, 11, 15, 19):
        col = _construct("path-star", m, 4, "min")
        assert col.k == 3


def test_path_star_max():
    rng = random.Random(34)
    for _ in range(30):
        m = rng.randint(2, 20)
        n = rng.randint(3, 6)
        f = VertexMap(m, n + 1, tuple(rng.randrange(n + 1) for _ in range(m)))
        col = _construct("path-star", m, n, "max", f)
        prod = sierpinski_product(path(m), star(n), f)
        assert col.k <= 9
        assert verify_packing_coloring(prod.graph, col).ok
    f = VertexMap(2, 4, (1, 3))
    assert _construct("path-star", 2, 3, "max", f).k <= 9


def test_path_star_pattern_range():
    rng = random.Random(35)
    f = VertexMap(40, 4, tuple(rng.randrange(4) for _ in range(40)))
    with pytest.raises(ConstructionOutOfRange):
        _construct("path-star", 40, 3, "max", f)
    col = _construct("path-star", 40, 3, "max", f, cyclic=True)
    prod = sierpinski_product(path(40), star(3), f)
    assert verify_packing_coloring(prod.graph, col).ok


def test_path_star_pattern_failure_past_its_length_is_out_of_range(
        monkeypatch):
    # a pattern with two 7s at distance 7: on a spine path within its
    # length that is an internal bug, past it the input is out of range
    monkeypatch.setattr(families, "PATH_STAR_SPINE_PATTERN",
                        (3, 4, 5, 6, 7, 8, 9) * 9 + (3,))
    rng = random.Random(36)
    for m, error in ((10, ConstructionError), (70, ConstructionOutOfRange)):
        f = VertexMap(m, 4, tuple(rng.randrange(4) for _ in range(m)))
        with pytest.raises(error) as exc:
            _construct("path-star", m, 3, "max", f, cyclic=True)
    assert re.fullmatch(r"cyclic extension of the pattern fails at "
                        r"\(\d+, \d+, \d+\)", str(exc.value))


def test_star_star_min():
    value = FAMILIES["star-star"].value({"m": 3, "n": 3}, "min")
    col = _construct("star-star", 3, 3, "min")
    assert value.value == 3 and set(col.colors) == {1, 2, 3}
    prod = sierpinski_product(star(3), star(3), VertexMap.constant(4, 4, 3))
    assert verify_packing_coloring(prod.graph, col).ok


def test_star_star_proof_cases():
    # base center onto fiber center: distinct colors on the m+1 centers
    star_star = FAMILIES["star-star"]
    f = VertexMap(5, 4, (0, 1, 0, 2, 3))
    value = star_star.value({"m": 4, "n": 3}, "max")
    col = _construct("star-star", 4, 3, "max", f)
    assert (value.lo, value.hi) == (5, 6)
    assert col.k <= 6
    # base center off the fiber center, not surjective
    f = VertexMap(4, 5, (2, 1, 1, 3))
    value = star_star.value({"m": 3, "n": 4}, "max")
    col = _construct("star-star", 3, 4, "max", f)
    assert (value.lo, value.hi) == (5, 6)
    assert col.k <= 6
    rng = random.Random(36)
    for _ in range(30):
        m, n = rng.randint(3, 5), rng.randint(3, 5)
        f = VertexMap(m + 1, n + 1,
                      tuple(rng.randrange(n + 1) for _ in range(m + 1)))
        col = _construct("star-star", m, n, "max", f)
        prod = sierpinski_product(star(m), star(n), f)
        assert col.k <= max(m, n) + 2
        assert verify_packing_coloring(prod.graph, col).ok
