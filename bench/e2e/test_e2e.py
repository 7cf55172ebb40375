#!/usr/bin/env python3
"""The end-to-end benchmark's own tests.

    python3 bench/e2e/test_e2e.py

Runs every workload at a tiny scale through run.py, which builds the driver
into .bench_build/e2e first, so the whole file takes well under a minute
once the build exists.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Small enough for a test, large enough that every layer a workload
# exercises does some work: 200 bwdrop iterations, two 20-iteration fleets.
TINY = "0.02"


def bench(workload, *extra, trace=0, seed=1):
    """Run one workload through run.py. Returns the result line, the values
    the driver reported, stdout and stderr."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", TINY, *extra],
        capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n"
                             f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    report = next(json.loads(line) for line in lines if '"values"' in line)
    return json.loads(lines[-1]), report["values"], done.stdout, done.stderr


def digest_of(stdout):
    for token in stdout.split():
        if token.startswith("digest="):
            return token
    raise AssertionError("no digest in output")


class EveryMetricWithUnit(unittest.TestCase):
    def check(self, workload, trace, key):
        result, reported, _, stderr = bench(workload, trace=trace)
        self.assertTrue(result["correct"], stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        return values, set(reported)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                values, _ = self.check(workload, 0, "end_to_end")
                for name, value in values.items():
                    self.assertGreater(value, 0.0, name)

    def test_per_layer_metrics_where_their_layer_works(self):
        layers, reported = {}, set()
        for workload in WORKLOADS:
            layers[workload], names = self.check(workload, 1, "per_layer")
            reported |= names
        # A name the driver never reports would read 0 everywhere.
        self.assertEqual({m["name"] for m in SPEC["per_layer"]} - reported,
                         set())
        artifacts = layers["bwdrop-artifacts"]
        self.assertGreater(artifacts["common.trace.events"], 0)
        self.assertGreater(artifacts["analysis.parse_s"], 0)
        for name, value in layers["bwdrop"].items():
            if name.startswith(("common.", "analysis.", "cluster.")):
                self.assertEqual(value, 0.0, name)
        for workload in WORKLOADS:
            cluster = layers[workload]["cluster.claim_rounds"]
            if workload == "fleet-faults":
                self.assertGreater(cluster, 0)
                self.assertGreater(layers[workload]["faults.events"], 0)
            else:
                self.assertEqual(cluster, 0.0, workload)
        self.assertGreater(layers["static-grid"]["sweep.scenarios"], 0)
        self.assertGreater(layers["static-grid"]["autopipe_vs_pipedream"], 0)


class StaticGridThreads(unittest.TestCase):
    def test_simulated_results_identical_at_one_and_four_threads(self):
        (one, _, out_one, _), (four, _, out_four, _) = [
            bench("static-grid", "--threads", n, trace=1) for n in ("1", "4")]
        self.assertEqual(digest_of(out_one), digest_of(out_four))
        for name in ("autopipe_vs_pipedream", "dp_vs_even", "iter_p99_ms",
                     "sim.events", "sim.delivered_gb", "autopipe.decisions",
                     "pipeline.idle_frac"):
            self.assertEqual(one["metrics"][name]["value"],
                             four["metrics"][name]["value"], name)


class Checks(unittest.TestCase):
    def test_wrong_digest_counts_as_failed(self):
        result, _, _, stderr = bench("bwdrop", "--inject-digest-mismatch")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertIn("FAILED workload=bwdrop scenario=", stderr)
        self.assertIn("check=digest", stderr)

    def test_distinct_seeds_give_distinct_fleets(self):
        _, _, first, _ = bench("fleet-faults", seed=1)
        _, _, second, _ = bench("fleet-faults", seed=2)
        self.assertNotEqual(digest_of(first), digest_of(second))

    def test_refuses_to_run_without_the_library_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(RUN.parent, bare / "bench" / "e2e")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "bench/e2e/run.py", "--workload", "bwdrop",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("{", done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
