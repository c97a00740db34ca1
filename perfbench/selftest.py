"""Self-tests of the benchmark's own code (tracer, seeded generators,
correctness gate).  Kept out of the repository's test suite on purpose.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import io
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hqcf  # noqa: E402
import hqcf.cli  # noqa: E402
from hqcf.fields import GF  # noqa: E402
from hqcf.perfect import ExpansionSpec  # noqa: E402
from hqcf.rootcf import RootState, dominance_holds, expand_root  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_cases, quartic_text, random_perfect_spec, random_quartic  # noqa: E402

SEEDS = range(50)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_self_time(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)

        def inner():
            clock.now += 5

        inner_w = tr.wrap(inner, "m.inner")

        def outer():
            clock.now += 1
            inner_w()
            clock.now += 2
            inner_w()
            clock.now += 3

        tr.wrap(outer, "m.outer")()
        s = tr.summary(("m.outer", "m.inner"))["spans"]
        self.assertEqual(s["m.outer"], {"calls": 1, "self_s": 6.0, "total_s": 16.0})
        self.assertEqual(s["m.inner"], {"calls": 2, "self_s": 10.0, "total_s": 10.0})

    def test_recursion_counts_total_once(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)

        def rec(n):
            clock.now += 1
            if n:
                rec_w(n - 1)

        rec_w = tr.wrap(rec, "m.rec")
        rec_w(3)
        s = tr.summary(("m.rec",))["spans"]["m.rec"]
        self.assertEqual(s, {"calls": 4, "self_s": 4.0, "total_s": 4.0})


class ReferenceSpeedTest(unittest.TestCase):
    @staticmethod
    def fake_pass(setup, cases, refs):
        return {"setup_s": setup, "cases": [{"seconds": c} for c in cases], "ref_s": refs}

    def test_intervals_are_scaled_by_the_references_around_them(self):
        r = run.REF_LOOP_S
        res = self.fake_pass(0.3, [1.0, 4.0], [r, 2 * r, 2 * r, 4 * r])
        self.assertAlmostEqual(run.setup_time(res), 0.2)
        for got, want in zip(run.case_times(res), [0.5, 4.0 / 3]):
            self.assertAlmostEqual(got, want)

    def test_wall_sums_per_case_medians(self):
        r = run.REF_LOOP_S
        passes = [self.fake_pass(0.1, cases, [r] * 4)
                  for cases in ([1.0, 9.0], [2.0, 3.0], [3.0, 2.0])]
        self.assertAlmostEqual(run.workload_wall(passes), 2.0 + 3.0)

    def test_reference_loop_is_timed(self):
        self.assertGreater(worker.reference_s(), 0)


class GeneratorTest(unittest.TestCase):
    def test_random_quartic_is_dominance_normalized(self):
        field = GF(13)
        for seed in SEEDS:
            coeffs = random_quartic(random.Random(seed), 13)
            state = RootState(hqcf.cli.parse_polynomial(quartic_text(coeffs), field))
            self.assertTrue(dominance_holds(state), coeffs)
            self.assertEqual(len(expand_root(state, 5)), 5)

    def test_random_perfect_spec_is_valid(self):
        for p, l, k in ((7, 3, 2), (5, 2, 1)):
            for seed in SEEDS:
                s = random_perfect_spec(random.Random(seed), p, l, k)
                self.assertNotEqual(s["eps1"], 0)
                spec = ExpansionSpec(GF(p), l, k, s["eps1"], s["eps2"], s["lambdas"])
                self.assertEqual(len(spec.validate()), l)  # raises when invalid

    def test_cases_parse_for_every_seed(self):
        parser = hqcf.cli.build_parser()
        for workload in WORKLOADS:
            ids = None
            for seed in SEEDS:
                cases = build_cases(workload, seed)
                for case in cases:
                    parser.parse_args(case["argv"])
                self.assertEqual(ids or [c["id"] for c in cases], [c["id"] for c in cases])
                ids = [c["id"] for c in cases]


class RebindingTest(unittest.TestCase):
    def test_no_module_keeps_an_unwrapped_original(self):
        tr = Tracer()
        tr.install()
        try:
            originals = {id(f) for f in tr.wrapped}
            self.assertIn("rootcf.expand_root", tr.names)
            for mod in tr._hqcf_modules():
                for attr, value in vars(mod).items():
                    self.assertNotIn(id(value), originals, f"{mod.__name__}.{attr}")
                    if isinstance(value, dict):
                        for key, item in value.items():
                            self.assertNotIn(id(item), originals, f"{mod.__name__}.{attr}[{key!r}]")
            self.assertIs(hqcf.quartic.expand_root, hqcf.rootcf.expand_root)
            self.assertIs(hqcf.expand_root, hqcf.rootcf.expand_root)
            self.assertNotIn(id(hqcf.polynomials.Polynomial.__add__), originals)
        finally:
            tr.uninstall()
        self.assertIn(id(hqcf.quartic.expand_root), originals)
        self.assertIn(id(hqcf.polynomials.Polynomial.__add__), originals)

    def test_traced_output_is_unchanged(self):
        argv = ["verify", "conj1", "--p", "7", "--n", "40"]
        plain = io.StringIO()
        hqcf.cli.main(argv, plain)
        tr = Tracer()
        tr.install()
        try:
            traced = io.StringIO()
            hqcf.cli.main(argv, traced)
        finally:
            tr.uninstall()
        self.assertEqual(plain.getvalue(), traced.getvalue())
        s = tr.summary()
        self.assertGreater(s["spans"]["quartic.derive_frobenius_relation"]["calls"], 0)
        self.assertGreater(s["counters"]["polynomials.mul.coeffs_in"], 0)
        roots = sum(e - b for _, parent, b, e in tr.spans if parent < 0)
        self.assertAlmostEqual(sum(tr.self_times()), roots, places=9)


class CrossCheckTest(unittest.TestCase):
    def run_case(self, argv):
        out = io.StringIO()
        self.assertEqual(hqcf.cli.main(argv, out), 0)
        return out.getvalue()

    def test_root_check_accepts_and_rejects(self):
        coeffs = random_quartic(random.Random(1), 13)
        check = {"kind": "root", "p": 13, "n": 40, "coeffs": coeffs}
        text = self.run_case(["expand", "--poly", quartic_text(coeffs), "--p", "13", "--n", "40"])
        self.assertIsNone(worker.check_root(text, check))
        lines = text.splitlines(keepends=True)
        lines[20] = "a_21 = 2*T\n" if lines[20] == "a_21 = T\n" else "a_21 = T\n"
        self.assertIsNotNone(worker.check_root("".join(lines), check))
        self.assertIsNotNone(worker.check_root("".join(lines[:-1]), check))

    def test_perfect_check_accepts_and_rejects(self):
        case = next(c for c in build_cases("generate", 2) if c["id"] == "generate-p7-text")
        spec = case["check"]["spec"]
        argv = list(case["argv"])
        argv[argv.index("--n") + 1] = "300"
        check = {"kind": "perfect", "n": 300, "spec": spec}
        text = self.run_case(argv)
        self.assertIsNone(worker.check_perfect(text, check))
        lines = text.splitlines(keepends=True)
        lines[4] = "a_5 = T^3 + T\n"
        bad = "".join(lines)
        self.assertIsNotNone(worker.check_perfect(bad, check))
        as_json = self.run_case(argv + ["--json"])
        self.assertIsNone(worker.check_perfect(as_json, check))


if __name__ == "__main__":
    unittest.main()
