"""Text formats: the canonical edge-list format, graph6 input, and DOT output.

Canonical format, byte-exact: first line ``"n m"``, then m lines ``"u v"``
with 0 <= u < v < n, edges in lexicographic order, every line terminated by
a single newline.  parse and emit are mutually inverse on canonical files.

parse_graph_text takes the edges in any order.  It checks the header, then
each edge line in turn, appending it straight into per-vertex neighbor
lists, and reports the first bad line; a duplicate edge is looked for per
vertex only after the last line.  The lists it returns are sorted,
symmetric and in range, so the graph skips re-validation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InputFormatError
from .graphs import Graph


def emit_graph_text(g: Graph) -> str:
    lines = [f"{g.order} {g.size}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputFormatError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise InputFormatError(f"malformed header {lines[0]!r}, want 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputFormatError(f"malformed header {lines[0]!r}") from None
    if n < 1 or m < 0:
        raise InputFormatError(f"bad counts in header {lines[0]!r}")
    if len(lines) - 1 != m:
        raise InputFormatError(f"header promises {m} edges, found {len(lines) - 1}")
    # grown to the largest vertex named so far and padded to n at the end,
    # so a header n far past the edges costs nothing before a bad line
    nbrs: list[list[int]] = []
    for ln in lines[1:]:
        try:
            a, b = ln.split()
            u, v = int(a), int(b)
        except ValueError:  # not two fields, or not integers
            raise InputFormatError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < v < n):
            raise InputFormatError(f"edge {u} {v} violates 0 <= u < v < {n}")
        if v >= len(nbrs):
            nbrs += ([] for _ in range(v + 1 - len(nbrs)))
        nbrs[u].append(v)
        nbrs[v].append(u)
    for vs in nbrs:
        vs.sort()
    if sum(map(len, map(set, nbrs))) != 2 * m:
        raise InputFormatError("duplicate edge in graph text")
    nbrs += ([] for _ in range(n - len(nbrs)))
    return Graph._trusted(n, tuple(map(tuple, nbrs)))


def parse_graph6(line: str) -> Graph:
    """Decode a graph6 string (orders up to 62 suffice here).  The string
    must hold exactly ceil(n(n-1)/12) data characters after the order, and
    the padding bits of the last one must be zero."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InputFormatError("empty graph6 string")
    data = [ord(ch) - 63 for ch in s]
    if any(b < 0 or b > 63 for b in data):
        raise InputFormatError(f"invalid graph6 character in {line!r}")
    if data[0] == 63:
        raise InputFormatError("graph6 orders above 62 are not supported")
    n = data[0]
    if n < 1:
        raise InputFormatError("graph6 graph must have at least one vertex")
    need = n * (n - 1) // 2
    if len(data) - 1 != -(-need // 6):
        raise InputFormatError(f"graph6 length does not fit order {n}")
    bits = [(b >> shift) & 1 for b in data[1:] for shift in range(5, -1, -1)]
    if any(bits[need:]):
        raise InputFormatError("graph6 padding bits must be zero")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


def sniff_parse(text: str) -> Graph:
    """Parse either the canonical edge-list format or a graph6 string."""
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    parts = first.split()
    if len(parts) == 2 and all(p.isdigit() for p in parts):
        return parse_graph_text(text)
    return parse_graph6(first)


def emit_dot(g: Graph, name: str = "g",
             labels: Optional[Sequence[str]] = None) -> str:
    """DOT text of g; vertex v is labelled labels[v], or v without them."""
    lines = [f"graph {name} {{"]
    for v in range(g.order):
        label = labels[v] if labels is not None else str(v)
        lines.append(f'  {v} [label="{label}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
