"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import measure, use_checkout_source  # noqa: E402

use_checkout_source()

import sierpack  # noqa: E402
from sierpack import complete, sniff_parse  # noqa: E402
from sierpack.coloring import DEFAULT_SOLVER_BOUND  # noqa: E402
from sierpack.product import DEFAULT_ENUM_BOUND  # noqa: E402

import run  # noqa: E402
from spans import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, batch_rng  # noqa: E402


def batch(name: str, seed: int = 1, index: int = 0):
    return WORKLOADS[name].make(batch_rng(name, seed, index))


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(batch(name, 1), batch(name, 1))
                self.assertNotEqual(batch(name, 1), batch(name, 2))
                self.assertNotEqual(batch(name, 1, 0), batch(name, 1, 1))

    def test_no_input_repeats_within_a_batch(self):
        pairs = [q.args[:2] for q in batch("map-opt")]
        self.assertEqual(len(pairs), len(set(pairs)))
        for name in ("exact", "recognize"):
            texts = [q.args[0] for q in batch(name)]
            self.assertEqual(len(texts), len(set(texts)), name)

    def test_inputs_within_solver_and_enumeration_bounds(self):
        for q in batch("exact"):
            order = sniff_parse(q.args[0]).order
            self.assertTrue(16 <= order <= DEFAULT_SOLVER_BOUND, q.label)
        for q in batch("map-opt"):
            base, fiber = q.args[:2]
            self.assertTrue(3 <= base.order <= 4 and 3 <= fiber.order <= 4)
            self.assertLessEqual(fiber.order ** base.order, DEFAULT_ENUM_BOUND)
        for q in batch("recognize"):
            self.assertTrue(100 <= sniff_parse(q.args[0]).order <= 800)

    def test_tail_percentile_keeps_ten_queries_beyond(self):
        for name in WORKLOADS:
            n = run.MIN_BATCHES * len(batch(name))
            pct = run.tail_percentile(len(batch(name)))
            self.assertGreaterEqual(n - math.ceil(pct / 100 * n),
                                    run.TAIL_BEYOND, name)
            self.assertGreater(pct, 50)


def _corrupted(answer, name: str):
    if name == "map-opt":
        return dataclasses.replace(answer, value=answer.value + 1)
    if name == "exact":
        g, value, witness = answer
        return g, value + 1, witness
    g, outcome = answer
    return g, dataclasses.replace(outcome, status="not_a_product",
                                  factorizations=[])


class CheckTests(unittest.TestCase):
    # cheap queries of each workload: (slot indices)
    CHEAP = {"map-opt": (7, 8), "exact": (0, 1), "recognize": (0, 1)}

    def test_correct_answers_pass(self):
        for name, picks in self.CHEAP.items():
            queries = [batch(name)[i] for i in picks]
            result = measure(WORKLOADS[name], queries)
            self.assertEqual((result["attempted"], result["failed"]), (2, 0),
                             result["failures"])

    def test_corrupted_answer_counts_as_failed(self):
        for name, picks in self.CHEAP.items():
            with self.subTest(workload=name):
                queries = [batch(name)[i] for i in picks]
                good = WORKLOADS[name]
                bad = dataclasses.replace(
                    good, run=lambda q, good=good, first=queries[0], n=name:
                    _corrupted(good.run(q), n) if q is first else good.run(q))
                result = measure(bad, queries)
                self.assertEqual(result["failed"], 1, result["failures"])
                self.assertNotEqual(result["digest"],
                                    measure(good, queries)["digest"])

    def test_tree_code_separates_free_trees(self):
        # the recognize check compares trees through this code
        from sierpack import free_trees
        from workloads import _tree_code
        for n in range(1, 9):
            trees = free_trees(n)
            self.assertEqual(len({_tree_code(t) for t in trees}), len(trees))
            perm = list(range(n))[::-1]
            for t in trees:
                self.assertEqual(_tree_code(t.relabel(perm)), _tree_code(t))
        self.assertIsNone(_tree_code(complete(3)))

    def test_raising_query_counts_as_failed(self):
        def boom(q):
            raise RuntimeError("boom")
        wl = dataclasses.replace(WORKLOADS["exact"], run=boom)
        result = measure(wl, batch("exact")[:1])
        self.assertEqual(result["failed"], 1)


class TracerTests(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        original = sierpack.graphs.distances
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(sierpack.graphs.distances, original)
            self.assertIs(sierpack.coloring.distances,
                          sierpack.graphs.distances)
            sierpack.chi_rho_exact(complete(3))
        finally:
            tracer.uninstall()
        self.assertIs(sierpack.graphs.distances, original)
        self.assertIs(sierpack.coloring.distances, original)
        m = tracer.metrics()
        self.assertEqual(tracer.absent, [])
        self.assertEqual(m["coloring.chi_rho_exact.calls"], 1)
        self.assertGreater(m["graphs.distances.calls"], 0)
        self.assertLessEqual(m["coloring.chi_rho_exact.self_s"],
                             m["coloring.chi_rho_exact.s"])

    def test_missing_function_is_absent_not_fatal(self):
        tracer = Tracer(spanned={"graphs": ("no_such_function",)}, helpers={})
        tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["graphs.no_such_function"])
        self.assertNotIn("graphs.no_such_function.calls", tracer.metrics())


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(run.WORKLOADS, tuple(WORKLOADS))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.E2E_UNITS)
        layers = dict(metric_units(), trace_overhead_s="s")
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         layers)


if __name__ == "__main__":
    unittest.main()
