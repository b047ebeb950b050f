"""Malformed input reaches a documented exit code, never a traceback.

Generated inputs are kept small (orders up to 14, parameters below 10, a
solver budget on every chirho call) so each example runs in milliseconds.
"""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sierpack.cli import main  # noqa: E402

EXIT_CODES = {0, 1, 2, 3}
PROPERTY = settings(max_examples=60, deadline=None)


def _exit_code(argv, env=None):
    """main's exit code and stderr; argparse's own exits count too."""
    err = io.StringIO()
    saved = {k: os.environ.get(k) for k in (env or {})}
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, err.getvalue()


def _assert_documented(argv, env=None):
    code, err = _exit_code(argv, env)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


_token = st.one_of(st.integers(-2, 14).map(str),
                   st.sampled_from(["", "x", "-", "1.5", "0x3"]))
_edge_list = st.builds(
    lambda head, lines: "\n".join([" ".join(head)]
                                  + [" ".join(ln) for ln in lines]) + "\n",
    st.lists(_token, min_size=0, max_size=3),
    st.lists(st.lists(_token, min_size=0, max_size=3), max_size=8))
# no digits, so sniff_parse reads it as graph6 (orders up to 62)
_graph6 = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                                         blacklist_characters="0123456789"),
                  max_size=20)


@PROPERTY
@given(text=st.one_of(_edge_list, _graph6),
       command=st.sampled_from([["chirho", "--budget", "200",
                                 "--max-order", "12"],
                                ["chirho", "--decision", "3", "--budget",
                                 "200", "--max-order", "12"],
                                ["recognize"]]))
def test_malformed_graph_text(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        gfile = os.path.join(tmp, "g.txt")
        with open(gfile, "w", encoding="utf-8") as fh:
            fh.write(text)
        _assert_documented([command[0], gfile] + command[1:])


_param = st.builds(
    lambda key, sep, val: key + sep + val,
    st.sampled_from(["m", "n", "p", "m1", "m2", "q", "", " m"]),
    st.sampled_from(["=", "", "=="]),
    st.one_of(st.integers(-3, 9).map(str), st.sampled_from(["", "x", "2.0"])))


@PROPERTY
@given(name=st.sampled_from(["complete-complete", "complete-k2",
                             "k2-complete", "corona", "path-path",
                             "star-path", "path-star", "star-star"]),
       params=st.lists(_param, max_size=4).map(",".join),
       mode=st.sampled_from(["min", "max"]))
def test_malformed_family_params(name, params, mode):
    _assert_documented(["family", name, "--params", params, "--mode", mode])


@PROPERTY
@given(vmap=st.text(alphabet="0123456789 :-x", max_size=16))
def test_malformed_vertex_map(vmap):
    _assert_documented(["product", "--base", "K3", "--fiber", "P3",
                        "--map", vmap])


_budget = st.text(alphabet="-0123456789ax ", max_size=6)


@PROPERTY
@given(budget=_budget, in_env=st.booleans())
def test_malformed_budget(budget, in_env):
    with tempfile.TemporaryDirectory() as tmp:
        gfile = os.path.join(tmp, "k3.txt")
        with open(gfile, "w", encoding="utf-8") as fh:
            fh.write("3 3\n0 1\n0 2\n1 2\n")
        if in_env:
            _assert_documented(["chirho", gfile],
                               {"SIERPACK_NODE_BUDGET": budget})
        else:
            _assert_documented(["chirho", gfile, "--budget", budget])
