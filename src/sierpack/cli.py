"""Command-line interface.

Commands: product, chirho, schirho, family, recognize, verify-paper.
Results are JSON on stdout; graphs are written in the canonical edge-list
format.  Exit codes: 0 success (a not_a_product answer is still success),
1 domain rejection, 2 malformed input, 3 budget exhaustion (with partial
JSON on stdout).  SIERPACK_NODE_BUDGET sets the default solver budget.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from typing import Callable, Optional

from . import checks
from .coloring import (DEFAULT_SOLVER_BOUND, chi_rho_decision,
                       chi_rho_exact, verify_packing_coloring)
from .errors import (EnumerationBudgetExceeded, FactorMismatchError,
                     InputFormatError, SearchBudgetExceeded, SierpackError)
from .families import FAMILIES
from .formats import emit_dot, emit_graph_text, sniff_parse
from .graphs import Graph, check_exact_order, complete, path, star
from .product import (DEFAULT_ENUM_BOUND, SierpinskiChiResult, VertexMap,
                      map_count, sierpinski_chi, sierpinski_product)
from .recognition import recognize_tree_product

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3

# the options that name an output file, checked before any command runs
_OUTPUTS = ("out", "dot", "emit_coloring", "json")

_FAMILY_SPEC = re.compile(r"^([KPS])(\d+)$|^K1,(\d+)$")


def _graph_arg(spec: str) -> tuple[int, Callable[[], Graph]]:
    """The order of a graph argument and a function that returns it.  A
    file (edge list or graph6) is read at once; a K5 / P4 / S3 / K1,3
    shorthand is built only when asked for, so its bounds come first."""
    m = _FAMILY_SPEC.match(spec)
    if m is None:
        g = _read_graph(spec)
        return g.order, lambda: g
    kind, num = ("S", m.group(3)) if m.group(3) else m.group(1, 2)
    num = int(num)
    build = {"K": complete, "P": path, "S": star}[kind]
    if num < 1:
        build(num)  # raises the builder's own ValueError
    return num + (kind == "S"), lambda: build(num)


def _graph_from_spec(spec: str) -> Graph:
    """A graph argument: a graph file or a K5 / P4 / S3 / K1,3 shorthand."""
    return _graph_arg(spec)[1]()


def _read_graph(filename: str) -> Graph:
    """Parse a graph file; an unreadable file is malformed input."""
    try:
        with open(filename, "r", encoding="utf-8") as fh:
            return sniff_parse(fh.read())
    except OSError as exc:
        raise InputFormatError(f"cannot read graph {filename!r}: {exc}") from None


def _write(filename: str, text: str) -> None:
    """Write an output file; an unwritable path is malformed input."""
    try:
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {filename!r}: {exc}") from None


def _check_writable(filename: str) -> None:
    """Fail as _write would on filename, before any work is done, and
    without creating or changing a file."""
    parent = os.path.dirname(filename) or os.curdir
    if os.path.isdir(filename):
        code = errno.EISDIR
    elif os.path.exists(filename):
        code = 0 if os.access(filename, os.W_OK) else errno.EACCES
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        exc = OSError(code, os.strerror(code), filename)
        raise InputFormatError(f"cannot write {filename!r}: {exc}")


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        _write(out, text + "\n")
    print(text)


def _witness_dict(g: Graph, coloring, verified=None) -> dict:
    """The witness as JSON, verified here unless ``verified`` is given."""
    return {"order": g.order, "k": coloring.k, "colors": list(coloring.colors),
            "verified": verify_packing_coloring(g, coloring).ok
            if verified is None else verified}


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputFormatError(f"{what} {text!r} is not an integer") from None


def _positive(value: int, what: str) -> int:
    if value < 1:
        raise InputFormatError(f"{what} must be positive")
    return value


def _checked_budget(budget: Optional[int]) -> Optional[int]:
    if budget is None:
        raw = os.environ.get("SIERPACK_NODE_BUDGET")
        budget = _integer(raw, "SIERPACK_NODE_BUDGET") if raw else None
    return budget if budget is None else _positive(budget, "budgets")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_product(args) -> int:
    base = _graph_from_spec(args.base)
    fiber = _graph_from_spec(args.fiber)
    if args.map:
        vmap = VertexMap.parse(args.map)
    elif args.map_constant is not None:
        if not 0 <= args.map_constant < fiber.order:
            raise InputFormatError(f"--map-constant {args.map_constant} is "
                                   f"not a vertex of the {fiber.order}-vertex "
                                   "fiber")
        vmap = VertexMap.constant(base.order, fiber.order, args.map_constant)
    else:
        raise InputFormatError("product needs --map or --map-constant")
    prod = sierpinski_product(base, fiber, vmap)
    if args.out:
        _write(args.out, emit_graph_text(prod.graph))
    if args.dot:
        _write(args.dot, emit_dot(prod.graph, "product", [
            f"({prod.base_of(v)},{prod.fiber_of(v)})"
            for v in range(prod.graph.order)]))
    _emit({"order": prod.graph.order, "size": prod.graph.size,
           "connecting_edges": len(prod.connecting),
           "map": vmap.to_text(),
           "graph": None if args.out else emit_graph_text(prod.graph)},
          None)
    return EXIT_OK


def _cmd_chirho(args) -> int:
    order, build = _graph_arg(args.graph)
    budget = _checked_budget(args.budget)
    max_order = _positive(args.max_order, "--max-order")
    check_exact_order(order, max_order)  # before a shorthand is built
    g = build()
    if args.decision is not None:
        witness = chi_rho_decision(g, args.decision, node_budget=budget,
                                   max_order=max_order)
        if witness is None:
            _emit({"order": g.order, "decision": args.decision,
                   "status": "UNSAT"}, args.json)
        else:
            payload = {"decision": args.decision, "status": "SAT"}
            payload.update(_witness_dict(g, witness))
            _emit(payload, args.json)
        return EXIT_OK
    value, witness = chi_rho_exact(g, node_budget=budget,
                                   max_order=max_order)
    payload = {"value": value}
    payload.update(_witness_dict(g, witness))
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_schirho(args) -> int:
    (m, build_base), (n, build_fiber) = map(_graph_arg,
                                            (args.base, args.fiber))
    budget = _checked_budget(args.budget)
    enum_bound = _positive(args.enum_bound, "--enum-bound")
    max_order = _positive(args.max_order, "--max-order")
    # sierpinski_chi's first two checks, made before a shorthand is built
    if map_count(m, n, enum_bound) is None:
        result = SierpinskiChiResult(None, None, None, 0, False)
    else:
        check_exact_order(m * n, max_order)
        base, fiber = build_base(), build_fiber()
        result = sierpinski_chi(base, fiber, args.mode,
                                reduce_symmetry=args.reduce,
                                enum_bound=enum_bound, node_budget=budget,
                                max_order=max_order)
    payload = {"mode": args.mode, "value": result.value,
               "explored_maps": result.explored, "complete": result.complete}
    if result.witness_map is not None:
        payload["witness_map"] = result.witness_map.to_text()
        prod = sierpinski_product(base, fiber, result.witness_map)
        payload["witness_coloring"] = _witness_dict(prod.graph,
                                                    result.witness_coloring)
    _emit(payload, args.json)
    return EXIT_OK if result.complete else EXIT_BUDGET


class _Params(dict):
    """The --params of a family; a missing one is malformed input."""

    def __missing__(self, key):
        raise InputFormatError(f"--params lacks {key}")


def _cmd_family(args) -> int:
    params = _Params()
    for item in (args.params.split(",") if args.params else []):
        key, _, val = item.partition("=")
        params[key.strip()] = _integer(val, f"--params {key.strip()}")
    family = FAMILIES[args.name]
    unknown = sorted(set(params) - set(family.params))
    if unknown:
        raise InputFormatError(f"{args.name} takes no --params "
                               f"{', '.join(unknown)}")
    vmap = VertexMap.parse(args.map) if args.map else None
    payload = family.value(params, args.mode).to_json_dict()
    built = family.construct(params, args.mode, vmap, args.cyclic)
    if built is not None:
        prod, coloring = built
        if family.names_map:
            payload["map"] = prod.vmap.to_text()
        # Family.construct verified the coloring, or raised
        witness = _witness_dict(prod.graph, coloring, True)
        payload["coloring_k"] = witness["k"]
        payload["coloring_verified"] = witness["verified"]
        if args.emit_coloring:
            _write(args.emit_coloring, json.dumps(witness, indent=2) + "\n")
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_recognize(args) -> int:
    g = _graph_from_spec(args.graph)
    outcome = recognize_tree_product(g)
    factorizations = [{"n1": fact.base.order, "n2": fact.fiber.order,
                       "base_edges": emit_graph_text(fact.base),
                       "fiber_edges": emit_graph_text(fact.fiber),
                       "map": fact.vmap.to_text()}
                      for fact in outcome.factorizations]
    _emit({"status": outcome.status, "order": g.order,
           "factorizations": factorizations,
           "diagnostics": outcome.diagnostics}, args.json)
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
    results = checks.run_all(args.scale)
    payload = checks.report_json(results, args.scale)
    _emit(payload, args.json)
    return EXIT_OK if payload["summary"]["fail"] == 0 else EXIT_DOMAIN


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sierpack",
        description="Sierpinski products of graphs: construction, exact "
                    "packing chromatic numbers, constructive colorings, and "
                    "tree-product recognition.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="build a product graph")
    p.add_argument("--base", required=True,
                   help="graph file or K5 / P4 / S3 / K1,3 shorthand")
    p.add_argument("--fiber", required=True)
    p.add_argument("--map", help="vertex map, e.g. '5 4: 1 3 3 0 2'")
    p.add_argument("--map-constant", type=int, default=None,
                   help="constant map with this fiber vertex")
    p.add_argument("--out", help="write the product graph here")
    p.add_argument("--dot", help="write a DOT rendering here")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("chirho", help="exact packing chromatic number")
    p.add_argument("graph", help="graph file (edge list or graph6) or "
                                 "K5 / P4 / S3 / K1,3 shorthand")
    p.add_argument("--decision", type=int, default=None,
                   help="ask SAT/UNSAT for this many colors instead")
    p.add_argument("--budget", type=int, default=None,
                   help="solver node budget (default unlimited)")
    p.add_argument("--max-order", type=int, default=DEFAULT_SOLVER_BOUND)
    p.add_argument("--json", help="also write the result JSON here")
    p.set_defaults(fn=_cmd_chirho)

    p = sub.add_parser("schirho",
                       help="optimize chi_rho over all connecting maps")
    p.add_argument("--base", required=True)
    p.add_argument("--fiber", required=True)
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--reduce", action="store_true",
                   help="leave maps skipped for their symmetry orbit out "
                        "of explored_maps; the maps solved and the answer "
                        "are the same without it")
    p.add_argument("--enum-bound", type=int, default=DEFAULT_ENUM_BOUND)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--max-order", type=int, default=DEFAULT_SOLVER_BOUND)
    p.add_argument("--json", help="also write the result JSON here")
    p.set_defaults(fn=_cmd_schirho)

    p = sub.add_parser("family", help="closed-form family values and "
                                      "constructive colorings")
    p.add_argument("name", choices=tuple(FAMILIES))
    p.add_argument("--params", required=True, help="e.g. m=3,n=4")
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--map", help="vertex map for the construction modes")
    p.add_argument("--cyclic", action="store_true",
                   help="allow cyclic extension of the 64-entry pattern; "
                        "only the path-star --mode max construction reads it")
    p.add_argument("--emit-coloring", help="write the witness coloring here")
    p.add_argument("--json", help="also write the result JSON here")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("recognize",
                       help="factor a graph as a product of two trees")
    p.add_argument("graph", help="graph file (edge list or graph6) or "
                                 "K5 / P4 / S3 / K1,3 shorthand")
    p.add_argument("--json", help="also write the result JSON here")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("verify-paper",
                       help="recompute every published value and report "
                            "pass/fail/discrepancy per criterion")
    p.add_argument("--scale", choices=checks.SCALES, default="desk")
    p.add_argument("--json", help="also write the report here")
    p.set_defaults(fn=_cmd_verify_paper)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for dest in _OUTPUTS:
            target = getattr(args, dest, None)
            if target:
                _check_writable(target)
        return args.fn(args)
    except (InputFormatError, FactorMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SearchBudgetExceeded, EnumerationBudgetExceeded) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SierpackError, ValueError, KeyError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        # an input too large for this process, such as a shorthand of
        # 10^11 vertices; what it had allocated is freed by now
        print("rejected: out of memory", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
