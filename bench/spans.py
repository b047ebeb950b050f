"""Spans around calls into each layer's public functions, for the traced run.

A span records (name, start, end, parent span, query id, outcome).  Spans
stay in memory and are reduced to per-layer metrics when the batch ends.
Each wrapper is installed under every module name its function is reached
through: ``coloring`` and ``recognition`` import ``distances``, ``is_tree``
and ``sierpinski_product`` by name, so patching ``sierpack.graphs`` alone
would miss their calls.  A function missing at some commit is reported as
absent.  ``DistanceMatrix.__call__`` (about 2 M lookups a run) is not
wrapped; its cost shows in the self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# functions whose spans are reported, by layer (= module of sierpack)
SPANNED = {
    "graphs": ("distances", "is_tree", "tree_isomorphic",
               "tree_canonical_form", "tree_iso_map"),
    "coloring": ("chi_rho_exact", "chi_rho_lower_bound", "packing_capacity",
                 "chi_rho_decision"),
    "product": ("sierpinski_product", "enumerate_maps"),
    "recognition": ("recognize_tree_product", "reconstruct_map"),
    "formats": ("sniff_parse",),
}
# spanned only to derive the ratios below
HELPERS = {"graphs": ("max_packing",), "product": ("sierpinski_chi",)}

_DECISION = "coloring.chi_rho_decision"
_CAPACITY = "coloring.packing_capacity"
_ENUM = "product.enumerate_maps"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in SPANNED.items():
        for fn in names:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.s"] = "s"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update({
        "graphs.distances.hit_ratio": "ratio",
        f"{_DECISION}.sat_calls": "count",
        f"{_DECISION}.unsat_calls": "count",
        f"{_DECISION}.sat_s": "s",
        f"{_DECISION}.unsat_s": "s",
        f"{_DECISION}.sat_ratio": "ratio",
        f"{_CAPACITY}.hit_ratio": "ratio",
        f"{_ENUM}.maps": "count",
        "product.sierpinski_chi.solves_per_map": "ratio",
    })
    return units


def _ratio(num: float, den: float) -> float:
    """num / den, read as 0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self, spanned=SPANNED, helpers=HELPERS):
        self.spans: list[list] = []   # [name, start, end, parent, query, outcome]
        self.query = -1
        self.absent: list[str] = []
        self._spanned = spanned
        self._wanted = {layer: tuple(spanned.get(layer, ()))
                        + tuple(helpers.get(layer, ()))
                        for layer in set(spanned) | set(helpers)}
        self._calls: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []   # (module, attribute, original)
        self._distances = None
        self._cache_start = None

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every wanted function wherever it is bound: in each loaded
        ``sierpack`` module and in ``extra_modules`` (callers that imported
        it by name)."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sierpack" or n.startswith("sierpack.")]
        modules.extend(extra_modules)
        for layer, names in sorted(self._wanted.items()):
            try:
                home = importlib.import_module(f"sierpack.{layer}")
            except ImportError:
                home = None
            for fn in names:
                orig = getattr(home, fn, None)
                if orig is None:
                    self.absent.append(f"{layer}.{fn}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn}", orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, orig))
                if f"{layer}.{fn}" == "graphs.distances":
                    self._distances = orig
        if self._distances is not None and hasattr(self._distances, "cache_info"):
            self._cache_start = self._distances.cache_info()

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.query, None])
        self._stack.append(i)
        return i

    def _close(self, i: int, outcome: str) -> None:
        span = self.spans[i]
        span[2] = time.perf_counter()
        span[5] = outcome
        self._stack.pop()

    def _wrap(self, name: str, fn):
        calls = self._calls
        if inspect.isgeneratorfunction(fn):
            # time spent inside the generator: one span per item it yields
            def gen(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        i = self._open(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            self._close(i, "end")
                            return
                        except BaseException:
                            self._close(i, "error")
                            raise
                        self._close(i, "item")
                        yield item
                finally:
                    it.close()
            return functools.wraps(fn)(gen)

        def call(*args, **kwargs):
            calls[name] += 1
            i = self._open(name)
            outcome = "error"
            try:
                result = fn(*args, **kwargs)
                outcome = "none" if result is None else "value"
                return result
            finally:
                self._close(i, outcome)
        return functools.wraps(fn)(call)

    # -- reduction ---------------------------------------------------------

    def metrics(self, scale=None) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.  ``scale[q]``
        multiplies the span times of query q.  A metric that needs an absent
        function (or a cache without statistics) is left out, so the caller
        can report it as absent."""
        spans = self.spans
        dur = [(s[2] - s[1]) * (1.0 if scale is None else scale[s[4]])
               for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        total: Counter = Counter()
        own: Counter = Counter()
        for i, s in enumerate(spans):
            total[s[0]] += dur[i]
            own[s[0]] += dur[i] - child[i]

        out: dict[str, float] = {}
        for layer, names in self._spanned.items():
            for fn in names:
                name = f"{layer}.{fn}"
                if name in self.absent:
                    continue
                out[f"{name}.calls"] = self._calls[name]
                out[f"{name}.s"] = total[name]
                out[f"{name}.self_s"] = own[name]

        if _DECISION not in self.absent:
            sat = [dur[i] for i, s in enumerate(spans)
                   if s[0] == _DECISION and s[5] == "value"]
            unsat = [dur[i] for i, s in enumerate(spans)
                     if s[0] == _DECISION and s[5] == "none"]
            out[f"{_DECISION}.sat_calls"] = len(sat)
            out[f"{_DECISION}.unsat_calls"] = len(unsat)
            out[f"{_DECISION}.sat_s"] = sum(sat)
            out[f"{_DECISION}.unsat_s"] = sum(unsat)
            out[f"{_DECISION}.sat_ratio"] = _ratio(len(sat),
                                                   self._calls[_DECISION])

        if self._cache_start is not None:
            now = self._distances.cache_info()
            hits = now.hits - self._cache_start.hits
            misses = now.misses - self._cache_start.misses
            out["graphs.distances.hit_ratio"] = _ratio(hits, hits + misses)

        if not {_CAPACITY, "graphs.max_packing"} & set(self.absent):
            # alpha_c values actually computed, against values asked for
            solved = sum(1 for s in spans if s[0] == "graphs.max_packing"
                         and s[3] >= 0 and spans[s[3]][0] == _CAPACITY)
            asked = self._calls[_CAPACITY]
            out[f"{_CAPACITY}.hit_ratio"] = _ratio(asked - solved, asked)

        if _ENUM not in self.absent:
            maps = sum(1 for s in spans if s[0] == _ENUM and s[5] == "item")
            out[f"{_ENUM}.maps"] = maps
            if "product.sierpinski_chi" not in self.absent \
                    and "coloring.chi_rho_exact" not in self.absent:
                solves = sum(1 for s in spans
                             if s[0] == "coloring.chi_rho_exact"
                             and self._inside(s, "product.sierpinski_chi"))
                out["product.sierpinski_chi.solves_per_map"] = \
                    _ratio(solves, maps)
        return out

    def _inside(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
