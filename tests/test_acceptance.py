"""Acceptance gate: one test per criterion, run at full scale.

Each test prints a single pass/fail line (visible with -s or in the
captured output of a failing run).  Criteria 3 and 4 are expected to end in
"discrepancy": the computation succeeds and contradicts a published closed
form, and the computed values asserted here are the repo's ground truth.

Every criterion's name, status and details must also equal
verify_paper_golden.json, the `verify-paper --scale full` report with the
timings (`elapsed_s`, `order_144_seconds`) left out.
"""

import json
from pathlib import Path

from sierpack.checks import run_check

GOLDEN = {r["criterion"]: r for r in json.loads(
    Path(__file__).with_name("verify_paper_golden.json").read_text())["results"]}

PASS = ("pass",)
PASS_OR_DISCREPANCY = ("pass", "discrepancy")


def _report(result, allowed):
    line = (f"criterion {result.criterion}: "
            f"{'PASS' if result.status in allowed else 'FAIL'} "
            f"[{result.status}] {result.name} ({result.elapsed:.1f}s)")
    print(line)
    assert result.status in allowed, result.details
    details = json.loads(json.dumps(result.details))
    details.pop("order_144_seconds", None)
    want = GOLDEN[result.criterion]
    assert (result.name, result.status, details) == \
        (want["name"], want["status"], want["details"])
    return result


def test_criterion_01_complete_by_complete_min_max():
    r = _report(run_check(1, "full"), PASS)
    rows = {(row["m"], row["n"]): row for row in r.details["rows"]}
    assert [rows[p]["min"] for p in [(3, 3), (3, 4), (4, 3), (4, 4)]] == \
        [5, 8, 6, 10]
    assert [rows[p]["max"] for p in [(3, 3), (3, 4), (4, 3), (4, 4)]] == \
        [5, 8, 7, 10]
    assert rows[(4, 4)]["maps"] == 256
    assert r.elapsed < 300


def test_criterion_02_diameter_and_two_packing():
    r = _report(run_check(2, "full"), PASS)
    for row in r.details["rows"]:
        assert row["diameters"] == [3]
        if row["n"] >= row["m"]:
            assert row["alpha2"] == [row["m"]]


def test_criterion_03_k2_fiber_piecewise_and_max():
    r = _report(run_check(3, "full"), PASS_OR_DISCREPANCY)
    rows = {row["m"]: row for row in r.details["rows"]}
    for m in (3, 4, 5):
        assert rows[m]["per_map_piecewise_match"]
        assert rows[m]["multiset_match"]
    # the known mismatch: computed max 4 at m = 3, closed formula says 3
    assert r.status == "discrepancy"
    assert rows[3]["observed_max"] == 4 and rows[3]["max_formula"] == 3
    assert rows[4]["observed_max"] == rows[4]["max_formula"] == 5
    assert rows[5]["observed_max"] == rows[5]["max_formula"] == 6
    assert r.elapsed < 60


def test_criterion_04_k2_base_two_solver_paths():
    r = _report(run_check(4, "full"), PASS_OR_DISCREPANCY)
    rows = {row["n"]: row for row in r.details["rows"]}
    for n in (2, 3, 4, 5):
        assert rows[n]["solver_paths_agree"]
        assert rows[n]["diameters"] == [3]
    assert rows[2]["computed"] == 3 and rows[2]["agrees_with_claim"]
    # computed ground truth 2n-2 disagrees with the claimed 2n-1 for n >= 3
    assert r.status == "discrepancy"
    for n in (3, 4, 5):
        assert rows[n]["computed"] == 2 * n - 2
        assert not rows[n]["agrees_with_claim"]
    assert r.elapsed < 60


def test_criterion_05_path_by_path_value_three():
    r = _report(run_check(5, "full"), PASS)
    for row in r.details["rows"]:
        assert row["is_path"] and row["chi"] == 3
        assert row["order"] == row["m"] * row["n"]
    assert len(r.details["rows"]) == 10
    assert r.elapsed < 60


def test_criterion_06_spine_and_seven_colors():
    r = _report(run_check(6, "full"), PASS)
    assert r.details["trials"] == 50
    assert r.details["max_colors_seen"] <= 7
    assert r.elapsed < 60


def test_criterion_07_corona_tables():
    r = _report(run_check(7, "full"), PASS)
    rows = {row["p"]: row for row in r.details["rows"]}
    assert rows[2]["computed"] == [2, 3, 4, 4, 5, 5, 5]
    assert rows[3]["computed"] == [2, 3, 4, 4, 5, 5]
    assert rows[4]["computed"] == [2, 3, 4, 4, 5, 5]
    for row in rows.values():
        assert row["computed"] == row["table"]


def test_criterion_08_star_by_path_constructions():
    r = _report(run_check(8, "full"), PASS)
    assert r.details["random_trials"] == 100
    assert r.details["max_colors_seen"] <= 7


def test_criterion_09_path_by_star_constructions():
    r = _report(run_check(9, "full"), PASS)
    assert r.details["figure_instance_reproduced"]
    assert r.details["random_trials"] == 100
    assert r.details["max_colors_seen"] <= 9


def test_criterion_10_star_by_star_bounds():
    r = _report(run_check(10, "full"), PASS)
    rows = {(row["m"], row["n"]): row for row in r.details["rows"]}
    for pair, exact_max in [((3, 3), 5), ((3, 4), 5), ((4, 3), 6)]:
        row = rows[pair]
        assert row["exact_min"] == 3
        assert row["interval"][0] <= row["exact_max"] <= row["interval"][1]
        assert row["exact_max"] == exact_max
        assert row["constructions_verify"]
    assert r.elapsed < 600


def test_criterion_11_recognition():
    r = _report(run_check(11, "full"), PASS)
    assert r.details["roundtrips"] == 200
    assert r.details["completeness_mismatches"] == 0
    assert r.details["free_trees_checked_to"] == 9
    assert r.details["order_144_seconds"] < 10


def test_criterion_12_solver_oracle_equivalence():
    r = _report(run_check(12, "full"), PASS)
    assert r.details["trials"] == 100
    assert r.elapsed < 120
