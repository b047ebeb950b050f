"""Every construction's colors, pinned.

construction_golden.json holds seeded inputs to the family constructions
(each family's min construction, the star-path, path-star and star-star max
constructions, and color_class_T on path-by-path spine decompositions), each
with the 16-hex sha256 prefix of its colors as JSON, or the name of the
exception it raises.  A rewrite of a construction must leave every entry as
it is.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sierpack.errors import SierpackError
from sierpack.families import FAMILIES, color_class_T, spine_decompose
from sierpack.graphs import path
from sierpack.product import VertexMap, sierpinski_product

GOLDEN = json.loads(
    Path(__file__).with_name("construction_golden.json").read_text())


def outcome(case: dict) -> str:
    """The digest of case's colors, or the class name of what it raised."""
    f = VertexMap.parse(case["map"]) if case["map"] else None
    try:
        if case["family"] == "class-T":
            prod = sierpinski_product(path(f.base_order), path(f.fiber_order), f)
            colors = color_class_T(spine_decompose(prod)).colors
        else:
            colors = FAMILIES[case["family"]].construct(
                {"m": case["m"], "n": case["n"]}, case["mode"], f,
                case["cyclic"])[1].colors
    except (SierpackError, ValueError) as exc:
        return type(exc).__name__
    text = json.dumps(list(colors))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _group(case: dict) -> str:
    return f"{case['family']}-{case['mode']}"


@pytest.mark.parametrize("group", sorted({_group(c) for c in GOLDEN}))
def test_construction_colors_are_pinned(group):
    cases = [c for c in GOLDEN if _group(c) == group]
    wrong = [(c["family"], c["m"], c["n"], c["map"], c["cyclic"])
             for c in cases if outcome(c) != c["outcome"]]
    assert not wrong, f"{len(wrong)} of {len(cases)} changed, first {wrong[:3]}"


def test_golden_covers_the_construction_cases():
    kinds = {_group(c) for c in GOLDEN}
    assert kinds == {"class-T-max", "path-path-min", "path-star-max",
                     "path-star-min", "star-path-max", "star-path-min",
                     "star-star-max", "star-star-min"}
    star_path = [VertexMap.parse(c["map"]) for c in GOLDEN
                 if _group(c) == "star-path-max"]
    # the endpoint rule, the interior rule, and hub vertices under >= 3 fibers
    assert any(f.image[0] in (0, f.fiber_order - 1) for f in star_path)
    assert any(0 < f.image[0] < f.fiber_order - 1 for f in star_path)
    assert any(max(f.image[1:].count(h) for h in f.image[1:]) >= 3
               and 0 < f.image[0] < f.fiber_order - 1 for f in star_path)
    long_path_star = {(c["m"], c["cyclic"]) for c in GOLDEN
                      if _group(c) == "path-star-max" and c["m"] > 64}
    assert {m for m, _ in long_path_star} == {65, 70, 90}
    assert {cyc for _, cyc in long_path_star} == {False, True}
