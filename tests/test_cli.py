import json
from pathlib import Path

import pytest

from sierpack import cli
from sierpack.cli import main
from sierpack.families import FAMILIES
from sierpack.formats import emit_graph_text, parse_graph_text
from sierpack.graphs import Graph, path


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


def _rejected_alone(capsys, code):
    captured = capsys.readouterr()
    return code == 1 and captured.out == "" and \
        captured.err.startswith("rejected: ") and \
        captured.err.count("\n") == 1


def test_chirho_rejects_a_disconnected_graph_in_its_own_words(capsys,
                                                              tmp_path):
    gfile = tmp_path / "two-edges.txt"
    gfile.write_text(emit_graph_text(Graph.from_edges(4, [(0, 1), (2, 3)])))
    code = main(["chirho", str(gfile)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("rejected: ")
    assert "connected" in err and "chi_rho_decision" not in err


def test_chirho_path_is_bounded_by_max_order_alone(capsys, tmp_path):
    # the tree greedy gives the lower bound and the decision search keeps
    # its path on an explicit stack, so 1500 vertices need no recursion
    gfile = tmp_path / "p1500.txt"
    gfile.write_text(emit_graph_text(path(1500)))
    code, payload = _run(capsys, "chirho", str(gfile), "--max-order", "2000")
    assert code == 0 and payload["value"] == 3
    assert _rejected_alone(capsys, main(["chirho", str(gfile)]))


def test_chirho_cycle_is_bounded_by_max_order_alone(capsys, tmp_path):
    # alpha of a cycle comes from the clique-cover search, 1200 vertices
    # deep here, on an explicit stack
    n = 2400
    gfile = tmp_path / "c2400.txt"
    gfile.write_text(emit_graph_text(
        Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])))
    code, payload = _run(capsys, "chirho", str(gfile), "--max-order", "3000")
    assert code == 0 and payload["value"] == 3


def test_schirho_reduce_on_a_path_past_the_recursion_limit(capsys):
    # the single map is solved before any automorphism group is built, and
    # its product is too large for the solver (the group search's own depth
    # is covered by test_automorphism_groups)
    assert main(["schirho", "--base", "P1050", "--fiber", "P1",
                 "--reduce"]) == 1
    assert "order 1050 exceeds exact-search bound 40" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["recognize", "P99999999999"],
    ["product", "--base", "P99999999999", "--fiber", "K2",
     "--map-constant", "0"],
])
def test_out_of_memory_is_one_rejected_line(argv):
    # neither command bounds the order of a shorthand; under a 300 MB
    # address space, set in the child only, building one ends in a
    # MemoryError, which exits 1 like any other input out of reach
    import os
    import resource
    import subprocess
    import sys

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (300_000 * 1024,) * 2)

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "sierpack.cli", *argv], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap,
        timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "rejected: out of memory\n"


def test_a_bad_edge_line_is_reported_whatever_order_the_header_gives(
        tmp_path):
    # the parser allocates no neighbor list for a vertex no line has named
    # yet, so under the same 300 MB cap a header of 10^11 vertices still
    # ends at its malformed edge line, exit 2
    import os
    import resource
    import subprocess
    import sys

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (300_000 * 1024,) * 2)

    gfile = tmp_path / "huge.txt"
    gfile.write_text("99999999999 2\n0 1\n0 x\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "sierpack.cli", "recognize", str(gfile)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: malformed edge line '0 x'\n"


def test_schirho(capsys):
    code, payload = _run(capsys, "schirho", "--base", "K3", "--fiber", "K3",
                         "--mode", "min")
    assert code == 0
    assert payload["value"] == 5 and payload["complete"] is True
    assert payload["witness_coloring"]["verified"] is True

    code, payload = _run(capsys, "schirho", "--base", "K4", "--fiber", "K3",
                         "--mode", "max", "--reduce")
    assert code == 0 and payload["value"] == 7


def test_chirho_and_recognize_take_graph_shorthands(capsys):
    code, payload = _run(capsys, "chirho", "P8")
    assert code == 0 and payload["value"] == 3 and payload["verified"]
    code, payload = _run(capsys, "recognize", "P12")
    assert code == 0 and payload["status"] == "factored"


def test_shorthands_past_the_bounds_are_never_built(capsys, monkeypatch):
    # P99999999999 would exhaust memory, and 2^99999999999 maps too
    def no_path(n):
        raise AssertionError(f"path({n}) built")
    monkeypatch.setattr(cli, "path", no_path)
    code, payload = _run(capsys, "schirho", "--base", "P99999999999",
                         "--fiber", "K2")
    assert code == 3
    assert payload == {"mode": "min", "value": None, "explored_maps": 0,
                       "complete": False}
    for argv in (["chirho", "P99999999999"],
                 ["schirho", "--base", "P99999999999", "--fiber", "K1"]):
        assert main(argv) == 1
        assert "order 99999999999 exceeds exact-search bound 40" in \
            capsys.readouterr().err


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
    # K_{1,m} (x) P_1 is the star itself, with chi_rho 2, not 3
    assert main(["family", "star-path", "--params", "m=3,n=1"]) == 1


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
    assert [r["criterion"] for r in payload["results"]] == list(range(1, 13))
    statuses = {r["criterion"]: r["status"] for r in stored["results"]}
    assert statuses[3] == "discrepancy" and statuses[4] == "discrepancy"


def test_graph6_input_accepted(capsys, tmp_path):
    gfile = tmp_path / "g6.txt"
    gfile.write_text("D?{\n")
    code, payload = _run(capsys, "chirho", str(gfile))
    assert code == 0 and payload["value"] == 2  # the 4-leaf star


def test_graph6_with_extra_characters_exits_2(capsys, tmp_path):
    gfile = tmp_path / "g6.txt"
    gfile.write_text("Bw??????\n")  # K3 and six characters too many
    assert main(["chirho", str(gfile)]) == 2


@pytest.mark.parametrize("text, message", [
    ("~??~\n", "graph6 orders above 62 are not supported"),
    ("?\n", "graph6 graph must have at least one vertex"),
])
def test_graph6_order_out_of_range_exits_2(capsys, tmp_path, text, message):
    gfile = tmp_path / "g6.txt"
    gfile.write_text(text)
    assert main(["chirho", str(gfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_default_budget_from_environment(capsys, tmp_path, monkeypatch):
    from sierpack.graphs import corona
    gfile = tmp_path / "c62.txt"
    gfile.write_text(emit_graph_text(corona(path(6), 2)))
    monkeypatch.setenv("SIERPACK_NODE_BUDGET", "5")
    assert main(["chirho", str(gfile)]) == 3
    monkeypatch.delenv("SIERPACK_NODE_BUDGET")
    capsys.readouterr()


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


@pytest.mark.parametrize("argv", [
    ["schirho", "--base", "K3", "--fiber", "K3", "--json"],
    ["chirho", "GRAPH", "--json"],
    ["product", "--base", "K2", "--fiber", "K2", "--map-constant", "0",
     "--out"],
    ["product", "--base", "K2", "--fiber", "K2", "--map-constant", "0",
     "--dot"],
    ["family", "star-path", "--params", "m=4,n=5", "--emit-coloring"],
    ["family", "corona", "--params", "n=5,p=2", "--json"],
    ["recognize", "GRAPH", "--json"],
    ["verify-paper", "--json"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_unwritable_output_path_is_malformed_input(capsys, tmp_path, argv):
    gfile = tmp_path / "p4.txt"
    gfile.write_text(emit_graph_text(path(4)))
    target = tmp_path / "no-such-dir" / "out"
    argv = [str(gfile) if a == "GRAPH" else a for a in argv] + [str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {str(target)!r}" in captured.err
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ["schirho", "--base", "P5", "--fiber", "P5", "--mode", "max", "--json"],
    ["verify-paper", "--json"],
    ["family", "star-path", "--params", "m=4,n=5", "--json", "OK",
     "--emit-coloring"],
], ids=["schirho", "verify-paper", "family-second-target"])
def test_unwritable_output_path_fails_before_any_work(capsys, tmp_path,
                                                      monkeypatch, argv):
    # the search, the checks and the family command would fail if reached,
    # and no output file is created, not even a writable one
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the output paths were "
                             "checked")

    monkeypatch.setattr(cli, "sierpinski_chi", unreachable)
    monkeypatch.setattr(cli.checks, "run_all", unreachable)
    monkeypatch.setattr(cli, "_cmd_family", unreachable)
    ok = tmp_path / "ok.json"
    argv = [str(ok) if a == "OK" else a for a in argv] \
        + [str(tmp_path / "no-such-dir" / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: cannot write" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_output_path_naming_a_directory_fails_before_any_work(
        capsys, tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the output paths were "
                             "checked")

    monkeypatch.setattr(cli, "chi_rho_exact", unreachable)
    assert main(["chirho", "P4", "--json", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write {str(tmp_path)!r}" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_graph_argument_naming_a_directory_is_malformed_input(capsys,
                                                             tmp_path):
    for command in ("chirho", "recognize"):
        assert main([command, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot read graph {str(tmp_path)!r}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["schirho", "--enum-bound", "0"], "--enum-bound must be positive"),
    (["schirho", "--enum-bound", "-5"], "--enum-bound must be positive"),
    (["schirho", "--budget", "0"], "budgets must be positive"),
    (["chirho", "--budget", "0"], "budgets must be positive"),
    (["schirho", "--budget", "-3"], "budgets must be positive"),
    (["schirho", "--max-order", "0"], "--max-order must be positive"),
    (["schirho", "--max-order", "-5"], "--max-order must be positive"),
    (["chirho", "--max-order", "0"], "--max-order must be positive"),
    (["chirho", "--max-order", "-5"], "--max-order must be positive"),
])
def test_non_positive_bound_is_malformed_input(capsys, tmp_path, argv,
                                               message):
    if argv[0] == "schirho":
        argv = argv + ["--base", "K3", "--fiber", "K3"]
    elif argv[0] == "chirho":
        graph = tmp_path / "k3.txt"
        graph.write_text("3 3\n0 1\n0 2\n1 2\n", encoding="utf-8")
        argv = argv + [str(graph)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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
    rng = random.Random(20)
    t20, t40 = random_tree(20, rng), random_tree(40, rng)
    f2 = VertexMap(20, 40, tuple(rng.randrange(40) for _ in range(20)))
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
        # order 800 with many distinct map values, so many fiber roots
        "T20xT40-shuffled": shuffled(sierpinski_product(t20, t40, f2).graph,
                                     21),
        # every split of order 144 factors
        "P12xP12": sierpinski_product(path(12), path(12),
                                      path_path_min_map(12, 12)[0]).graph,
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


@pytest.mark.parametrize("case", ["P12xP16", "T8xT9-shuffled"])
def test_recognize_computes_no_canonical_form(capsys, tmp_path, monkeypatch,
                                              case):
    # every split has its own fiber order, so no two factorizations can
    # share a shape and no canonical form is needed to tell them apart
    import sierpack.graphs

    def refuse(*args):
        raise AssertionError("recognize computed a tree canonical form")

    monkeypatch.setattr(sierpack.graphs, "_rooted_canon", refuse)
    gfile = tmp_path / "g.txt"
    gfile.write_text(emit_graph_text(_recognize_inputs()[case]))
    code, payload = _run(capsys, "recognize", str(gfile))
    assert code == 0 and payload["status"] == "factored"
    assert payload["factorizations"] == \
        RECOGNIZE_GOLDEN[case]["payload"]["factorizations"]


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
