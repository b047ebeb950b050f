import json
from pathlib import Path

import pytest

from sierpack.cli import main
from sierpack.families import FAMILIES
from sierpack.formats import emit_graph_text, parse_graph_text
from sierpack.graphs import path


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_product_figure_instance(capsys, tmp_path):
    out = tmp_path / "prod.txt"
    dot = tmp_path / "prod.dot"
    code, payload = _run(capsys, "product", "--base", "K5", "--fiber", "K4",
                         "--map", "5 4: 1 3 3 0 2",
                         "--out", str(out), "--dot", str(dot))
    assert code == 0
    assert payload["order"] == 20 and payload["size"] == 40
    assert payload["connecting_edges"] == 10
    g = parse_graph_text(out.read_text())
    assert g.order == 20 and g.size == 40
    assert "--" in dot.read_text()


def test_product_needs_a_map(capsys):
    code = main(["product", "--base", "K3", "--fiber", "K3"])
    assert code == 2


def test_product_map_of_wrong_sizes_is_malformed_input(capsys):
    assert main(["product", "--base", "K4", "--fiber", "K3",
                 "--map", "3 3: 0 0 0"]) == 2
    assert "map is 3->3" in capsys.readouterr().err


def test_product_constant_outside_the_fiber_is_malformed_input(capsys):
    # the same exit code as the equivalent --map "3 3: 5 5 5"
    for value in ("5", "3", "-1"):
        assert main(["product", "--base", "K3", "--fiber", "K3",
                     "--map-constant", value]) == 2
        assert "not a vertex of the 3-vertex fiber" in capsys.readouterr().err
    assert main(["product", "--base", "K3", "--fiber", "K3",
                 "--map", "3 3: 5 5 5"]) == 2
    code, payload = _run(capsys, "product", "--base", "K3", "--fiber", "K3",
                         "--map-constant", "2")
    assert code == 0 and payload["map"] == "3 3: 2 2 2"


def test_chirho_exact_and_decision(capsys, tmp_path):
    gfile = tmp_path / "p4.txt"
    gfile.write_text(emit_graph_text(path(4)))
    code, payload = _run(capsys, "chirho", str(gfile))
    assert code == 0
    assert payload["value"] == 3 and payload["verified"] is True
    assert len(payload["colors"]) == 4

    code, payload = _run(capsys, "chirho", str(gfile), "--decision", "2")
    assert code == 0 and payload["status"] == "UNSAT"
    code, payload = _run(capsys, "chirho", str(gfile), "--decision", "3")
    assert code == 0 and payload["status"] == "SAT" and payload["verified"]


def test_chirho_parse_error_exit_code(capsys, tmp_path):
    gfile = tmp_path / "bad.txt"
    gfile.write_text("3 1\n0 3\n")
    assert main(["chirho", str(gfile)]) == 2


def test_chirho_budget_exit_code(capsys, tmp_path):
    gfile = tmp_path / "c62.txt"
    from sierpack.graphs import corona
    gfile.write_text(emit_graph_text(corona(path(6), 2)))
    assert main(["chirho", str(gfile), "--budget", "5"]) == 3


def test_chirho_domain_rejection(capsys, tmp_path):
    gfile = tmp_path / "p41.txt"
    gfile.write_text(emit_graph_text(path(41)))
    assert main(["chirho", str(gfile)]) == 1


def test_schirho_reduce_on_a_path_past_the_recursion_limit(capsys):
    # the symmetry reduction finds the path's two automorphisms without
    # recursing per vertex; the product is then too large for the solver
    assert main(["schirho", "--base", "P1050", "--fiber", "P1",
                 "--reduce"]) == 1
    assert "order 1050 exceeds exact-search bound 40" in \
        capsys.readouterr().err


def test_schirho(capsys):
    code, payload = _run(capsys, "schirho", "--base", "K3", "--fiber", "K3",
                         "--mode", "min")
    assert code == 0
    assert payload["value"] == 5 and payload["complete"] is True
    assert payload["witness_coloring"]["verified"] is True

    code, payload = _run(capsys, "schirho", "--base", "K4", "--fiber", "K3",
                         "--mode", "max", "--reduce")
    assert code == 0 and payload["value"] == 7


def test_family_values(capsys):
    code, payload = _run(capsys, "family", "complete-complete",
                         "--params", "m=3,n=4", "--mode", "max")
    assert code == 0 and payload["value"] == 8
    code, payload = _run(capsys, "family", "corona", "--params", "n=5,p=2")
    assert code == 0 and payload["value"] == 5
    code, payload = _run(capsys, "family", "k2-complete", "--params", "n=2")
    assert code == 0 and payload["value"] == 3


def test_family_construction_with_coloring(capsys, tmp_path):
    witness = tmp_path / "col.json"
    code, payload = _run(capsys, "family", "star-path",
                         "--params", "m=4,n=5", "--mode", "min",
                         "--emit-coloring", str(witness))
    assert code == 0
    assert payload["coloring_verified"] is True
    data = json.loads(witness.read_text())
    assert data["verified"] is True and data["k"] == 3
    assert data["order"] == 25


# `family` outputs recorded before the registry replaced the command's
# per-family code: every family in both modes, with and without a map of
# the right sizes (not the default one), plus each min construction given
# its own default map
GOLDEN = json.loads(Path(__file__).with_name("family_golden.json").read_text())

# the recorded outputs that change on purpose: the value never needs a map,
# a coloring is built only in a mode with a construction, and a min
# construction colors its own default map only
_MN = {"params": {"m": 3, "n": 4}}
CHANGED = {
    "path-path-max": (1, None),
    "path-path-max-map": (1, None),
    "path-path-min-map": (1, None),
    "star-star-min-map": (1, None),
    "star-star-max": (0, dict(_MN, family="star-star", kind="interval",
                              lo=5, hi=6, source="star-star-max-interval")),
    "star-star-min-default-map": (0, dict(
        _MN, family="star-star", kind="exact", value=3,
        source="star-star-min", coloring_k=3, coloring_verified=True)),
    "star-path-max": (0, {"family": "star-path", "params": {"m": 4, "n": 5},
                          "kind": "upper_bound", "value": 7,
                          "source": "star-path-max-bound"}),
    "path-star-max": (0, {"family": "path-star", "params": {"m": 6, "n": 3},
                          "kind": "upper_bound", "value": 9,
                          "source": "path-star-max-bound"}),
}


def test_family_golden_covers_every_family():
    for name in FAMILIES:
        for case in ("min", "min-map", "max", "max-map"):
            assert f"{name}-{case}" in GOLDEN


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_family_golden(capsys, case):
    recorded = GOLDEN[case]
    want = CHANGED.get(case, (recorded["code"], recorded["payload"]))
    assert _run(capsys, *recorded["argv"]) == want


def test_family_star_path_max_on_a_long_hub_path(capsys):
    # three fibers on hub vertices 1 and 12 force the searched hub palette
    # over 1100 positions, more than the recursion limit
    code, payload = _run(capsys, "family", "star-path", "--params",
                         "m=6,n=1100", "--mode", "max", "--map",
                         "7 1100: 550 1 1 1 12 12 12")
    assert code == 0
    assert payload["coloring_k"] == 7 and payload["coloring_verified"]


def test_family_rejects_unknown_params(capsys):
    assert main(["family", "corona", "--params", "n=3,p=1"]) == 1


def test_family_unknown_param_key_is_malformed_input(capsys):
    argvs = (["family", "corona", "--params", "n=5,p=2,q=9", "--mode", "max"],
             ["family", "complete-k2", "--params", "m=4,m_1=3"])
    for argv in argvs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "takes no --params" in captured.err


def test_family_complete_k2_split_in_either_order(capsys):
    for split in ("m1=1,m2=3", "m1=3,m2=1"):
        code, payload = _run(capsys, "family", "complete-k2",
                             "--params", f"m=4,{split}")
        assert code == 0 and payload["value"] == 5
        assert payload["params"] == {"m": 4, "m1": 3, "m2": 1}


def test_family_missing_param_is_malformed_input(capsys):
    assert main(["family", "corona", "--params", "n=3"]) == 2
    assert "lacks p" in capsys.readouterr().err


def test_family_complete_k2_needs_both_part_sizes(capsys):
    for given, lacks in (("m1=3", "m2"), ("m2=3", "m1")):
        assert main(["family", "complete-k2", "--params", f"m=4,{given}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--params lacks {lacks}" in captured.err


def test_family_non_integer_param_is_malformed_input(capsys):
    assert main(["family", "corona", "--params", "n=x,p=2"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_family_param_without_value_is_malformed_input(capsys):
    assert main(["family", "complete-complete", "--params", "m"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_non_integer_budget_environment_is_malformed_input(
        capsys, tmp_path, monkeypatch):
    gfile = tmp_path / "p3.txt"
    gfile.write_text(emit_graph_text(path(3)))
    monkeypatch.setenv("SIERPACK_NODE_BUDGET", "abc")
    assert main(["chirho", str(gfile)]) == 2
    assert "SIERPACK_NODE_BUDGET" in capsys.readouterr().err


def test_recognize_cli(capsys, tmp_path):
    from sierpack.product import VertexMap, sierpinski_product
    from sierpack.graphs import star
    prod = sierpinski_product(path(3), star(3), VertexMap.constant(3, 4, 2))
    gfile = tmp_path / "prod.txt"
    gfile.write_text(emit_graph_text(prod.graph))
    code, payload = _run(capsys, "recognize", str(gfile))
    assert code == 0 and payload["status"] == "factored"
    fact = payload["factorizations"][0]
    assert fact["n1"] * fact["n2"] == 12
    assert "map" in fact and "base_edges" in fact

    gfile2 = tmp_path / "star.txt"
    gfile2.write_text(emit_graph_text(star(11)))
    code, payload = _run(capsys, "recognize", str(gfile2))
    assert code == 0 and payload["status"] == "not_a_product"
    assert payload["diagnostics"]


def test_recognize_has_one_mode(tmp_path):
    gfile = tmp_path / "p4.txt"
    gfile.write_text(emit_graph_text(path(4)))
    with pytest.raises(SystemExit) as exc:
        main(["recognize", str(gfile), "--exhaustive"])
    assert exc.value.code == 2


def test_verify_paper_desk(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, payload = _run(capsys, "verify-paper", "--scale", "desk",
                         "--json", str(report))
    assert code == 0
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] + payload["summary"]["discrepancy"] == 12
    stored = json.loads(report.read_text())
    assert len(stored["results"]) == 12
    statuses = {r["criterion"]: r["status"] for r in stored["results"]}
    assert statuses[3] == "discrepancy" and statuses[4] == "discrepancy"


def test_graph6_input_accepted(capsys, tmp_path):
    gfile = tmp_path / "g6.txt"
    gfile.write_text("D?{\n")
    code, payload = _run(capsys, "chirho", str(gfile))
    assert code == 0 and payload["value"] == 2  # the 4-leaf star


def test_default_budget_from_environment(capsys, tmp_path, monkeypatch):
    from sierpack.graphs import corona
    gfile = tmp_path / "c62.txt"
    gfile.write_text(emit_graph_text(corona(path(6), 2)))
    monkeypatch.setenv("SIERPACK_NODE_BUDGET", "5")
    assert main(["chirho", str(gfile)]) == 3
    monkeypatch.delenv("SIERPACK_NODE_BUDGET")
    capsys.readouterr()


def test_verify_paper_worker_pool(capsys):
    code, payload = _run(capsys, "verify-paper", "--scale", "desk",
                         "--jobs", "2")
    assert code == 0
    criteria = [r["criterion"] for r in payload["results"]]
    assert criteria == list(range(1, 13))  # input order, not completion order


def test_verify_paper_pool_has_no_more_workers_than_checks(monkeypatch):
    # the executor is a stand-in that records its size, so no large pool
    # is ever started
    import concurrent.futures

    from sierpack import checks

    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return [checks.CheckResult(num, "", "pass", 0.0)
                    for num, _ in args]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    for jobs in (2, 12, 13, 1000):
        results = checks.run_all("desk", jobs=jobs)
        assert [r.criterion for r in results] == list(range(1, 13))
    assert sizes == [2, 12, 12, 12]


def test_commands_are_deterministic(capsys, tmp_path):
    gfile = tmp_path / "p7.txt"
    from sierpack.graphs import corona
    gfile.write_text(emit_graph_text(corona(path(3), 2)))
    _, first = _run(capsys, "chirho", str(gfile))
    _, second = _run(capsys, "chirho", str(gfile))
    assert first == second
    _, r1 = _run(capsys, "recognize", str(gfile))
    _, r2 = _run(capsys, "recognize", str(gfile))
    assert r1 == r2


def test_missing_graph_file_is_malformed_input(tmp_path):
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    missing = str(tmp_path / "missing.txt")
    for command in ("recognize", "chirho"):
        proc = subprocess.run(
            [sys.executable, "-m", "sierpack.cli", command, missing],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "cannot read graph" in proc.stderr


# recognize inputs whose JSON is pinned in recognize_golden.json: status,
# order and factorizations must match exactly, diagnostics by key only (the
# text of a failed split's reason may change)

def _recognize_inputs():
    import random
    from sierpack.families import path_path_min_map
    from sierpack.graphs import random_tree, star
    from sierpack.product import VertexMap, sierpinski_product

    def shuffled(g, seed):
        perm = list(range(g.order))
        random.Random(seed).shuffle(perm)
        return g.relabel(perm)

    rng = random.Random(11)
    t8, t9 = random_tree(8, rng), random_tree(9, rng)
    f = VertexMap(8, 9, tuple(rng.randrange(9) for _ in range(8)))
    return {
        "P12xP16": sierpinski_product(path(12), path(16),
                                      path_path_min_map(12, 16)[0]).graph,
        "S3xP4": sierpinski_product(star(3), path(4),
                                    VertexMap(4, 4, (1, 0, 3, 2))).graph,
        "T36": random_tree(36, random.Random(36)),
        "T60": random_tree(60, random.Random(60)),
        "T8xT9-shuffled": shuffled(sierpinski_product(t8, t9, f).graph, 12),
        "P40xP50-relabelled": shuffled(sierpinski_product(
            path(40), path(50), path_path_min_map(40, 50)[0]).graph, 46),
    }


RECOGNIZE_GOLDEN = json.loads(
    Path(__file__).with_name("recognize_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(RECOGNIZE_GOLDEN))
def test_recognize_golden(capsys, tmp_path, case):
    gfile = tmp_path / "g.txt"
    gfile.write_text(emit_graph_text(_recognize_inputs()[case]))
    code, payload = _run(capsys, "recognize", str(gfile))
    recorded = RECOGNIZE_GOLDEN[case]
    assert code == recorded["code"]
    for key in ("status", "order", "factorizations"):
        assert payload[key] == recorded["payload"][key]
    assert sorted(payload["diagnostics"]) == \
        sorted(recorded["payload"]["diagnostics"])


# product outputs pinned byte for byte in product_golden.json: stdout with
# the graph inline, and stdout, --out and --dot of a run writing both files
PRODUCT_GOLDEN = json.loads(
    Path(__file__).with_name("product_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(PRODUCT_GOLDEN))
def test_product_golden(capsys, tmp_path, case):
    recorded = PRODUCT_GOLDEN[case]
    assert main(["product", *recorded["argv"]]) == 0
    assert capsys.readouterr().out == recorded["stdout"]
    out, dot = tmp_path / "p.txt", tmp_path / "p.dot"
    assert main(["product", *recorded["argv"],
                 "--out", str(out), "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == recorded["stdout_with_out"]
    assert out.read_text() == recorded["out"]
    assert dot.read_text() == recorded["dot"]
