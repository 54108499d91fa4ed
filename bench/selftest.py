"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks the self-time arithmetic of the tracer on a synthetic nested trace,
that the correctness gate rejects a basis with one flipped coefficient and
an atlas with one changed row, that the cold-state guard rejects a warm
cache, and that traced and untraced passes give identical digests on a
small subset of every workload.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT, HOT, SPAN, Tracer  # noqa: E402

from cuspgaps import cache as cache_mod  # noqa: E402
from cuspgaps import invariants as inv_mod  # noqa: E402
from cuspgaps.msengine import basis as basis_mod  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SelfTimeArithmetic(unittest.TestCase):
    """outer (span, layer a) runs 5 s, calls inner (span, layer b), leaf
    (hot, layer c) and a counted call, then runs 1 s more; inner runs 1 s,
    calls leaf, runs 3 s; leaf runs 2 s; the counted call runs 0.5 s."""

    def setUp(self):
        clock = self.clock = FakeClock()
        ns = self.ns = types.SimpleNamespace()

        def leaf():
            clock.advance(2)

        def inner():
            clock.advance(1)
            ns.leaf()
            clock.advance(3)

        def counted():
            clock.advance(0.5)

        def failing():
            clock.advance(7)
            raise ValueError("boom")

        def outer():
            clock.advance(5)
            ns.inner()
            ns.leaf()
            ns.counted()
            clock.advance(1)

        ns.leaf, ns.inner, ns.counted, ns.failing, ns.outer = leaf, inner, counted, failing, outer
        self.originals = dict(vars(ns))
        self.tracer = Tracer(clock)
        self.tracer.patch(ns, "leaf", "c.leaf", "c", HOT)
        self.tracer.patch(ns, "inner", "b.inner", "b", SPAN)
        self.tracer.patch(ns, "counted", "a.counted", "a", COUNT)
        self.tracer.patch(ns, "failing", "b.failing", "b", SPAN)
        self.tracer.patch(ns, "outer", "a.outer", "a", SPAN)

    def test_self_times_partition_the_outer_span(self):
        self.tracer.op = "op-1"
        self.ns.outer()
        t = self.tracer
        self.assertEqual(t.busy("a.outer"), 14.5)
        self.assertEqual(t.layer_self("a"), 6.5)  # 14.5 - 6 (inner) - 2 (leaf)
        self.assertEqual(t.layer_self("b"), 4.0)  # 6 - 2 (leaf)
        self.assertEqual(t.layer_self("c"), 4.0)  # two leaf calls
        self.assertEqual(sum(t.layer_self(x) for x in "abc"), t.busy("a.outer"))
        self.assertEqual((t.calls("c.leaf"), t.calls("a.counted")), (2, 1))
        self.assertEqual(t.busy("a.counted"), 0.0)  # counted calls keep no time

    def test_spans_record_parent_operation_and_self_time(self):
        self.tracer.op = "op-1"
        self.ns.outer()
        spans = {s[3]: s for s in self.tracer.spans}
        self.assertEqual(set(spans), {"a.outer", "b.inner"})  # hot and counted calls leave no span
        outer, inner = spans["a.outer"], spans["b.inner"]
        self.assertEqual((outer[0], outer[1], outer[2]), (0, None, "op-1"))
        self.assertEqual((inner[0], inner[1], inner[2]), (1, 0, "op-1"))
        self.assertEqual((inner[5], inner[6], inner[7]), (5.0, 11.0, 4.0))
        self.assertEqual(outer[7], 6.5)

    def test_a_raising_call_closes_its_frame(self):
        with self.assertRaises(ValueError):
            self.ns.failing()
        self.assertEqual(self.tracer.stack, [])
        self.assertEqual(self.tracer.open_spans, [])
        self.assertEqual(self.tracer.layer_self("b"), 7.0)
        self.ns.outer()
        self.assertEqual(self.tracer.layer_self("a"), 6.5)

    def test_unpatch_restores_the_originals(self):
        self.tracer.unpatch()
        self.assertEqual(dict(vars(self.ns)), self.originals)


class GateRejectsWrongOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.basis = basis_mod.qexpansion_basis(19, 16, inv_mod.sturm_bound(19, 16) + 10)
        cls.want = workloads.EXPECTED["stack"]["19-16"]

    def test_basis_with_one_flipped_coefficient(self):
        workloads.check_basis(self.basis, self.want)
        rows = list(self.basis.rows)
        coeffs = list(rows[3].coeffs)
        coeffs[30] = -coeffs[30] if coeffs[30] else 1
        rows[3] = type(rows[3])(tuple(coeffs), rows[3].weight, rows[3].level)
        flipped = dataclasses.replace(self.basis, rows=tuple(rows))
        with self.assertRaises(workloads.GateError):
            workloads.check_basis(flipped, self.want)

    def test_cache_file_with_one_flipped_coefficient(self):
        scratch = BENCH.parent / ".bench_tmp" / "selftest"
        path = cache_mod.write_basis(self.basis, scratch)
        try:
            lines = path.read_text().splitlines()
            row = lines[5].split()
            row[-1] = str(int(row[-1]) + 1)
            lines[5] = " ".join(row)
            path.write_text("\n".join(lines) + "\n")
            read = cache_mod.find_cached(scratch, 19, 16, self.basis.precision)
            with self.assertRaises(workloads.GateError):
                workloads.same_basis("tampered read", read, self.basis)
        finally:
            for p in scratch.iterdir():
                p.unlink()
            scratch.rmdir()

    def test_atlas_with_one_changed_row(self):
        reports = list(inv_mod.scan_triples(inv_mod.ScanConfig(kmin=24, kmax=24)))
        want = workloads.EXPECTED["atlas"]["by_weight"]["24"]
        workloads.check_atlas_rows(reports, want)
        changed = list(reports)
        changed[100] = dataclasses.replace(changed[100], dim_upper=changed[100].dim_upper + 1)
        with self.assertRaises(workloads.GateError):
            workloads.check_atlas_rows(changed, want)


class ColdStateGuard(unittest.TestCase):
    def test_a_warm_cache_is_rejected(self):
        names = [name for name, _ in child.lru_caches()]
        for required in ("msengine.basis.qexpansion_basis", "msengine.presentation.build_presentation",
                         "msengine.p1.p1_space", "msengine.basis._cuspidal_solver",
                         "heckeops.build_operator_stack"):
            self.assertIn(f"cuspgaps.{required}", names)
        for _, fn in child.lru_caches():
            fn.cache_clear()
        child.assert_cold()
        inv_mod.index(5)
        with self.assertRaisesRegex(RuntimeError, "cuspgaps.invariants.index"):
            child.assert_cold()


class TracingChangesNoResult(unittest.TestCase):
    SUBSETS = {
        "atlas": ["scan k=24"],
        "stack": ["verify_order_bound 1-12-5", "verify_order_bound 2-4-7", "gap_data 19-16", "cache 19-16"],
    }

    def test_traced_and_untraced_digests_are_identical(self):
        deadline = time.perf_counter() + run.RUN_LIMIT_S
        for name, ops in self.SUBSETS.items():
            with self.subTest(workload=name):
                base = ["--workload", name, "--seed", "7", "--only", *ops]
                plain = run.run_child(base, deadline)
                traced = run.run_child(base + ["--trace"], deadline)
                digests = [{op["name"]: (op["ok"], op.get("digest")) for op in p["ops"]} for p in (plain, traced)]
                self.assertEqual(sorted(digests[0]), sorted(ops))
                self.assertTrue(all(ok for ok, _ in digests[0].values()), plain["ops"])
                self.assertEqual(digests[0], digests[1])
                # every traced second of the stack is attributed to some layer
                self.assertLessEqual(traced["attributed_s"], traced["wall_s"] + 1e-9)
                if name == "stack":
                    self.assertLess(traced["wall_s"] - traced["attributed_s"], 0.01 * traced["wall_s"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
