"""Tests of perfbench/compare.py against hand-computed values.

    python3 -m unittest discover perfbench     (or: perfbench/run.py --selftest)
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

ENV = {"cpu_model": "X", "nproc": 4, "simd_isa": "avx512",
       "compiler": "gcc 12", "build_type": "Release",
       "git_sha": "aaa", "source_sha256": "111"}


def record(value, env=None, workload="uplink_sparse"):
    return {"workload": workload, "env": dict(env or ENV),
            "detail": {"lat_p50_us.lo": {"value": value, "unit": "us"}}}


class QuartileTest(unittest.TestCase):
    def test_exclusive_quartiles_of_one_to_ten(self):
        # Positions (n + 1) p = 2.75, 5.5, 8.25 over 1..10.
        self.assertEqual(compare.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))

    def test_quartiles_of_four(self):
        # 10, 20, 30, 40: positions 1.25, 2.5, 3.75.
        self.assertEqual(compare.quartiles([40, 10, 30, 20]), (12.5, 25.0, 37.5))

    def test_single_run(self):
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))


class CompareTest(unittest.TestCase):
    def test_change_of_median(self):
        base = [record(v) for v in (100, 110, 90)]
        new = [record(v, dict(ENV, git_sha="bbb", source_sha256="222"))
               for v in (120, 130, 110)]
        (row,) = compare.compare(base, new)
        self.assertEqual(row[:3], ("uplink_sparse", "lat_p50_us.lo", "us"))
        self.assertEqual(row[4][1], 100)
        self.assertEqual(row[6][1], 120)
        self.assertAlmostEqual(row[7], 0.2)

    def test_refuses_other_host(self):
        base = [record(100)]
        new = [record(100, dict(ENV, cpu_model="Y"))]
        with self.assertRaisesRegex(compare.EnvMismatch, "cpu_model"):
            compare.compare(base, new)

    def test_refuses_other_build(self):
        base = [record(100)]
        new = [record(100, dict(ENV, build_type="Debug"))]
        with self.assertRaisesRegex(compare.EnvMismatch, "build_type"):
            compare.compare(base, new)

    def test_refuses_mixed_set(self):
        base = [record(100), record(100, dict(ENV, nproc=8))]
        with self.assertRaisesRegex(compare.EnvMismatch, "base set mixes"):
            compare.compare(base, [record(100)])

    def test_refuses_mixed_sources_within_a_set(self):
        base = [record(100), record(100, dict(ENV, git_sha="bbb"))]
        with self.assertRaisesRegex(compare.EnvMismatch, "git_sha"):
            compare.compare(base, [record(100)])


if __name__ == "__main__":
    unittest.main()
