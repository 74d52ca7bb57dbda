#!/usr/bin/env python3
"""The benchmark's own test: short runs of every workload through run.py.

    python3 perfbench/test_bench.py          (from the repository root)

Checks, at 12 s per run (enough for 20 DNA readouts):
  * every run is correct with ok_frac 1.0;
  * peak_rss_mb is each process's own VmHWM: dna_autorange peaks below
    neuro_dense;
  * each workload's traced run confirms its dominant layer with
    trace.coverage_frac >= 0.95;
  * held-out seed: the traced layer shares of a second seed stay within
    SHARE_TOLERANCE (absolute) of the first seed's, so a claim tuned on one
    seed can be checked on another.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "12"
SEEDS = (101, 202)  # the second one is the held-out seed
SHARE_TOLERANCE = 0.10

# Per workload: the layer shares compared across seeds, and the floors the
# dominant layers met when the benchmark was added.
SHARES = {
    "neuro_dense": ("neurochip.capture_share", "core.wire_share"),
    "neuro_sparse": ("neurochip.capture_share", "core.wire_share"),
    "dna_autorange": ("dnachip.rung13_share",),
    "fleet_mixed": ("host.poll_share",),
}
FLOORS = {
    "neuro_dense": {"neurochip.capture_share": 0.35, "core.wire_share": 0.35},
    "neuro_sparse": {"core.wire_share": 0.80},
    "dna_autorange": {"dnachip.rung13_share": 0.90},
    "fleet_mixed": {"host.poll_share": 0.60,
                    "host.p99_record_poll_frac": 0.5},
}


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: "
                             f"exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, result


class BenchmarkTest(unittest.TestCase):
    def test_peak_rss_is_per_process(self):
        dna, r1 = run("dna_autorange", SEEDS[0], 0)
        dense, r2 = run("neuro_dense", SEEDS[0], 0)
        for r in (r1, r2):
            self.assertTrue(r["correct"])
            self.assertEqual(r["metrics"]["ok_frac"]["value"], 1.0)
        self.assertLess(dna["peak_rss_mb"], dense["peak_rss_mb"])

    def test_traced_layers_and_held_out_seed(self):
        for workload, shares in SHARES.items():
            with self.subTest(workload=workload):
                first, r1 = run(workload, SEEDS[0], 1)
                held_out, r2 = run(workload, SEEDS[1], 1)
                for r in (r1, r2):
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                for m in (first, held_out):
                    self.assertGreaterEqual(m["trace.coverage_frac"], 0.95)
                    for name, floor in FLOORS[workload].items():
                        self.assertGreaterEqual(m[name], floor, name)
                for name in shares:
                    self.assertAlmostEqual(first[name], held_out[name],
                                           delta=SHARE_TOLERANCE, msg=name)


if __name__ == "__main__":
    unittest.main()
