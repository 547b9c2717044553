#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The two tests that need perfbench_e2e skip until run.py has built it.
"""

import argparse
import json
import math
import os
import subprocess
import tempfile
import unittest

import run


def built_binary():
    path = os.path.join(run.build_dir(), "perfbench_e2e")
    return path if os.path.exists(path) else None


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n in range(20, 3000):
            pct = run.tail_percentile(n)
            beyond = n - run.rank(pct, n)
            self.assertGreaterEqual(beyond, 10, n)
            self.assertEqual(run.rank(pct, n), math.ceil(pct * n / 100 - 1e-9))
            higher = [p for p in run.TAIL_LADDER if p > pct]
            if higher:
                self.assertLess(n - run.rank(higher[0], n), 10, n)

    def test_band_edges(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(39), 50.0)
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(99), 75.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(9999), 90.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_value_sample_count_and_too_few(self):
        self.assertEqual(run.tail(list(range(1, 101))), (90.0, 90, 10))
        self.assertIsNone(run.tail(list(range(19))))

    def test_grouped_quantile_interpolates_within_the_millisecond(self):
        self.assertEqual(run.grouped_quantile([1, 2, 2, 3], 0.5), 2.0)
        self.assertAlmostEqual(run.grouped_quantile([1, 2, 2, 2], 0.5), 1.8333,
                               places=3)
        self.assertEqual(run.grouped_quantile([5] * 10, 0.5), 5.0)


class GeometricMean(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(run.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(run.geomean([4.0]), 4.0)
        with self.assertRaises(ValueError):
            run.geomean([1, 0])
        with self.assertRaises(ValueError):
            run.geomean([])

    def test_over_programs_weights_each_program_once(self):
        samples = ([{"program": "a", "t": 1.0}] * 99 +
                   [{"program": "b", "t": x} for x in (90.0, 100.0, 110.0)])
        self.assertAlmostEqual(run.per_program_p50(samples, "t"), 10.0)

    def test_program_tail_scales_the_pooled_ratio(self):
        samples = []
        for prog, scale in (("a", 1.0), ("b", 100.0)):
            samples += [{"program": prog, "t": scale * (1 + i / 1000.0)}
                        for i in range(100)]
        pct, value, n, beyond = run.per_program_tail(samples, "t")
        self.assertEqual((pct, n, beyond), (90.0, 200, 20))
        self.assertGreater(value, run.per_program_p50(samples, "t"))


class Names(unittest.TestCase):
    def test_metric_name_validation(self):
        for good in ("job_ms.p50", "setup_s", "exec.ns_per_op", "a-1"):
            self.assertEqual(run.check_metric_name(good), good)
        for bad in ("", "job ms", "a/b", "x" * 65, "p50%"):
            with self.assertRaises(ValueError):
                run.check_metric_name(bad)

    def test_benchmark_json_matches_spec(self):
        spec = run.load_spec()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(w["name"], w["why"]) for w in bench["workloads"]],
            [(w["name"], w["why"]) for w in spec["workloads"]])
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in bench[kind]],
                [(m["name"], m["unit"]) for m in spec[kind]])
            for m in bench[kind]:
                run.check_metric_name(m["name"])
        for m in spec["per_layer"]:
            self.assertTrue(m["name"].startswith(m["layer"] + "."), m)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class Determinism(unittest.TestCase):
    def test_drift_at_one_seed_is_a_failure(self):
        with tempfile.TemporaryDirectory() as d:
            counts = {"exec.ops": 12.0, "per_program": [{"sim_cycles": 3}]}
            check = lambda c, seed=1: run.check_determinism(
                d, "digest", "golden", seed, 0, c)
            self.assertEqual(check(counts), [])
            self.assertEqual(check(dict(counts)), [])
            drift = check({"exec.ops": 13.0, "per_program": [{"sim_cycles": 3}]})
            self.assertEqual(len(drift), 1)
            self.assertIn("exec.ops", drift[0])
            # Another seed, or another program digest, starts afresh.
            self.assertEqual(check({"exec.ops": 13.0}, seed=2), [])


class Workers(unittest.TestCase):
    def test_refuses_more_workers_than_nproc(self):
        with self.assertRaises(ValueError):
            run.check_workers(5, 4)
        with self.assertRaises(ValueError):
            run.check_workers(0, 4)
        self.assertEqual(run.check_workers(4, 4), 4)
        self.assertEqual(run.batch_workers(2), 2)
        self.assertEqual(run.batch_workers(64), run.BATCH_WORKERS)

    @unittest.skipUnless(built_binary(), "perfbench_e2e not built yet")
    def test_binary_refuses_more_workers_than_nproc(self):
        p = subprocess.run(
            [built_binary(), "--workload", "shape-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--workdir", run.build_dir(),
             "--workers", str((os.cpu_count() or 1) + 1)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        self.assertEqual(p.returncode, 2)
        self.assertIn(b"refusing", p.stderr)


class Environment(unittest.TestCase):
    def args(self):
        return argparse.Namespace(workload="golden", seed=1, trace=0,
                                  seconds=1.0)

    def test_record_requires_environment(self):
        raw = {"env": {"nproc": 4}, "attempted": 1, "pool_exhausted": False}
        with self.assertRaises(ValueError):
            run.make_record(self.args(), raw, {}, {}, [])

    @unittest.skipUnless(built_binary(), "perfbench_e2e not built yet")
    def test_every_result_records_environment(self):
        p = subprocess.run(
            [built_binary(), "--workload", "golden", "--seed", "1",
             "--seconds", "0.05", "--trace", "0", "--workdir",
             run.build_dir(), "--workers", "1"],
            stdout=subprocess.PIPE, timeout=120, check=True)
        raw = json.loads(p.stdout)
        rec = run.make_record(self.args(), raw, {}, {}, [])
        env = rec["env"]
        self.assertEqual(env["nproc"], os.cpu_count())
        self.assertTrue(env["compiler"])
        # The repository default: RelWithDebInfo with assertions on.
        self.assertEqual(env["build_type"], "RelWithDebInfo")
        self.assertTrue(env["asserts"])


if __name__ == "__main__":
    unittest.main()
