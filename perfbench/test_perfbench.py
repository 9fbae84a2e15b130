#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_perfbench.py

Builds the harness like run.py does, then checks, on short runs:
  * every workload passes its ground-truth checks and prints exactly the
    metrics, with the units, that BENCHMARK.json declares for its mode;
  * the deterministic counts repeat exactly across two runs at one seed,
    for two seeds, in both the untraced and the traced mode;
  * the self-test mode (ghostware hooks stripped before scanning) makes
    the checker fire and the run exit non-zero.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step shared with the benchmark)

WORKLOADS = ["inside-cold", "rescan-churn", "outside-carve", "fleet-daemon"]
# Short runs: 12 ops each (48 fleet jobs), at least one per epoch.
SHORT_SECONDS = {"inside-cold": "0.4", "rescan-churn": "0.48",
                 "outside-carve": "0.86", "fleet-daemon": "0.16"}
# Work counts that depend only on the seed: never on timing, worker
# interleaving or the host.
DETERMINISTIC = [
    "sim_scan_s", "core.report_bytes", "core.report_fnv48", "core.findings",
    "disk.bytes_read",
    "disk.journal_records", "core.session.records_reparsed",
    "core.session.records_spliced", "core.session.fallbacks",
    "ntfs.records_parsed", "ntfs.records_quarantined", "hive.keys",
    "kernel.dump_bytes", "kernel.carve_candidates",
    "kernel.carve_recovered_ratio", "daemon.journal_bytes_per_job",
    "daemon.wire_bytes_per_job",
]
SEEDS = [3, 17]
with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_harness(binary, workdir, workload, seed, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", SHORT_SECONDS[workload], "--trace", str(trace),
           "--workdir", workdir, *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    result_file = os.path.join(
        workdir, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(result_file) as f:
        return out, json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_counts_repeat_across_runs_at_two_seeds(self):
        for workload in WORKLOADS:
            for seed in SEEDS:
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        runs = [run_harness(self.binary, self.tmp.name,
                                            workload, seed, trace)
                                for _ in range(2)]
                        for out, doc in runs:
                            self.assertEqual(out.returncode, 0, out.stdout)
                            self.assertTrue(doc["correct"], doc["failures"])
                            self.assertEqual(doc["metrics"]["failed_ratio"], 0)
                        printed = json.loads(
                            runs[0][0].stdout.strip().splitlines()[-1])["metrics"]
                        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
                        self.assertEqual(
                            {k: v["unit"] for k, v in printed.items()},
                            {m["name"]: m["unit"] for m in declared})
                        first, second = (doc["metrics"] for _, doc in runs)
                        for key in DETERMINISTIC:
                            if key in first:
                                self.assertEqual(first[key], second[key], key)

    def test_self_test_makes_the_checker_fire(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out, doc = run_harness(self.binary, self.tmp.name, workload,
                                       SEEDS[0], 0, "--self-test")
                self.assertEqual(out.returncode, 1, out.stdout)
                self.assertFalse(doc["correct"])
                self.assertGreater(doc["failed"], 0)
                last = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertFalse(last["correct"])


if __name__ == "__main__":
    unittest.main()
