#!/usr/bin/env python3
"""Bench-regression gate: diff fresh bench artifacts against committed
baselines.

Baselines live in bench/baselines/ and are committed copies of the JSON
artifacts the benches write into results/ (claim reports, run manifests,
and the parallel-scaling summary). CI reruns the benches into a scratch
directory and calls this script; any regression fails the build.

Comparison rules, per artifact kind:

  * Claim reports (``bench_*.json``, a JSON array of report objects):
      - every baseline report/check must still exist (matched by title and
        quantity);
      - a check that passed in the baseline must still pass;
      - numeric measured values must agree within --tol relative tolerance
        (the leading number is compared; the non-numeric remainder, e.g.
        an SI unit, must match exactly so a silent 1000x scale change
        cannot hide inside the tolerance).
  * Run manifests (``*.manifest.json``):
      - every baseline phase name must still be present, in order;
      - wall times are machine-dependent and only checked with
        --check-time, which enforces ``wall_s <= baseline * (1 + tol)``.
  * Scaling summaries (objects with an ``all_identical`` key):
      - ``all_identical`` must be true (the determinism contract);
      - the thread counts covered must not shrink;
      - the single-thread frames/s must not drop below half the baseline's
        (the no-regress floor for the SoA capture kernel);
      - with >= 4 hardware threads the best multi-thread speedup must
        exceed 1.0 (negative scaling is a bug, not a machine property);
        on smaller machines oversubscription must still keep >= 0.5x;
      - when the baseline has a ``sparse`` section (the event-driven
        quiescent-pixel leg), the fresh run must too, its cross-thread
        digests must match, and its single-thread frames/s obeys the same
        half-of-baseline floor.
  * Soak-replay reports (objects with a ``shard_merge_identical`` key):
      - ``segmented_identical``, ``resume_identical`` and
        ``shard_merge_identical`` must all be true in the fresh run —
        checkpoint/resume bit-exactness is an absolute contract, not a
        diffed quantity;
      - ``steady_allocs_per_frame`` must be exactly zero (a resumed
        session keeps the pooled pipeline's alloc-free steady state);
      - the shard count and frame count must not shrink below the
        baseline's, so the soak cannot quietly degenerate into a single
        unsharded run.
  * Fleet-server load reports (objects with a ``latency`` key):
      - ``deterministic`` and ``pass`` must be true, ``errors`` and
        ``steady_allocs_per_command`` must be zero in the fresh run
        (the hard contracts — these are absolute, not diffed);
      - per worker entry the closed- and open-loop percentiles must be
        ordered (p50 <= p95 <= p99);
      - the worker counts covered must not shrink, and the fresh run must
        not cover fewer sessions or commands than the baseline did;
      - the ``telemetry`` section must show digests unchanged with flight
        recorders on (``telemetry_deterministic``), a throughput tax of at
        most 5% (the median over the bench's alternating off/on chunk
        pairs, with ``tax_pairs`` showing at least three pairs for every
        worker count covered), zero server flight-ring drops and zero
        monitor errors at baseline load, zero allocations per warm health
        probe, and ordered health/metrics latency percentiles.
      Raw latency magnitudes are machine-dependent and deliberately not
      gated here; ordering + scale + determinism are the invariants.

Usage:
  tools/bench_check.py [--baseline-dir DIR] [--results-dir DIR]
                       [--tol REL] [--check-time] [names...]

With no names, every ``*.json`` in the baseline dir is checked. Exit code
0 = no regressions, 1 = regression or missing artifact, 2 = usage error.
"""

import argparse
import json
import os
import re
import sys

_NUM = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")


def split_measured(text):
    """'560 nA' -> (560.0, 'nA'); 'OK' -> (None, 'OK')."""
    text = str(text).strip()
    m = _NUM.search(text)
    if not m:
        return None, text
    rest = (text[: m.start()] + text[m.end():]).strip()
    return float(m.group(0)), rest


def rel_diff(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


class Gate:
    def __init__(self, tol, check_time):
        self.tol = tol
        self.check_time = check_time
        self.failures = []

    def fail(self, artifact, message):
        self.failures.append(f"{artifact}: {message}")

    # -- claim reports -------------------------------------------------------

    def check_claims(self, name, baseline, current):
        current_by_title = {r["title"]: r for r in current}
        for base_report in baseline:
            title = base_report["title"]
            cur_report = current_by_title.get(title)
            if cur_report is None:
                self.fail(name, f"report '{title}' disappeared")
                continue
            cur_checks = {c["quantity"]: c for c in cur_report["checks"]}
            for base_check in base_report["checks"]:
                quantity = base_check["quantity"]
                cur = cur_checks.get(quantity)
                where = f"'{title}' / '{quantity}'"
                if cur is None:
                    self.fail(name, f"check {where} disappeared")
                    continue
                if base_check["pass"] and not cur["pass"]:
                    self.fail(
                        name,
                        f"{where} regressed: was OK, now DEVIATES "
                        f"(measured {cur['measured']!r}, "
                        f"paper {cur['paper']!r})",
                    )
                base_num, base_rest = split_measured(base_check["measured"])
                cur_num, cur_rest = split_measured(cur["measured"])
                if base_num is None or cur_num is None:
                    continue  # non-numeric measured values: pass flag rules
                if base_rest != cur_rest:
                    self.fail(
                        name,
                        f"{where} changed scale/unit: "
                        f"{base_check['measured']!r} -> {cur['measured']!r}",
                    )
                elif rel_diff(base_num, cur_num) > self.tol:
                    self.fail(
                        name,
                        f"{where} moved beyond tol={self.tol:g}: "
                        f"{base_check['measured']!r} -> {cur['measured']!r}",
                    )

    # -- run manifests -------------------------------------------------------

    def check_manifest(self, name, baseline, current):
        base_phases = [p["name"] for p in baseline.get("phases", [])]
        cur_phases = [p["name"] for p in current.get("phases", [])]
        missing = [p for p in base_phases if p not in cur_phases]
        if missing:
            self.fail(name, f"manifest lost phases: {', '.join(missing)}")
        # Order of the surviving baseline phases must be preserved.
        survivors = [p for p in base_phases if p in cur_phases]
        positions = [cur_phases.index(p) for p in survivors]
        if positions != sorted(positions):
            self.fail(name, "manifest phase order changed")
        if self.check_time:
            cur_wall = {p["name"]: p["wall_s"] for p in current.get("phases", [])}
            for p in baseline.get("phases", []):
                limit = p["wall_s"] * (1.0 + self.tol)
                actual = cur_wall.get(p["name"])
                if actual is not None and actual > limit and actual > 0.01:
                    self.fail(
                        name,
                        f"phase '{p['name']}' slowed: {p['wall_s']:.4f}s -> "
                        f"{actual:.4f}s (limit {limit:.4f}s)",
                    )

    # -- scaling summaries ---------------------------------------------------

    FPS_FLOOR_FRACTION = 0.5

    @staticmethod
    def _fps_at(summary, threads):
        for r in summary.get("results", []):
            if r.get("threads") == threads:
                return r.get("frames_per_s")
        return None

    def check_scaling(self, name, baseline, current):
        if not current.get("all_identical", False):
            self.fail(name, "parallel capture is no longer bitwise identical")
        base_threads = {r["threads"] for r in baseline.get("results", [])}
        cur_threads = {r["threads"] for r in current.get("results", [])}
        lost = sorted(base_threads - cur_threads)
        if lost:
            self.fail(name, f"thread counts no longer covered: {lost}")

        # frames/s no-regress floor on the single-thread dense leg: the SoA
        # kernel's throughput trajectory must never quietly fall back toward
        # the per-pixel object model's. Half the committed baseline is the
        # floor so slower CI machines don't trip it; an AoS regression costs
        # far more than 2x.
        base_t1 = self._fps_at(baseline, 1)
        cur_t1 = self._fps_at(current, 1)
        if base_t1 and cur_t1 is not None:
            floor = base_t1 * self.FPS_FLOOR_FRACTION
            if cur_t1 < floor:
                self.fail(name, f"single-thread frames/s regressed: "
                                f"{base_t1:.1f} -> {cur_t1:.1f} "
                                f"(floor {floor:.1f})")

        # Multi-thread scaling gate. With real cores available, the top
        # thread count must beat single-thread (speedup > 1); negative
        # scaling means false sharing or chunking bugs crept back in. On
        # boxes with < 4 hardware threads a speedup is physically
        # unavailable, so only guard against oversubscription collapse.
        hw = current.get("hardware_threads", 0)
        multi = [r for r in current.get("results", [])
                 if r.get("threads", 1) > 1 and "speedup" in r]
        if multi:
            best = max(r["speedup"] for r in multi)
            if hw >= 4 and best <= 1.0:
                self.fail(name, f"negative multi-thread scaling: best "
                                f"speedup {best:.3f} <= 1.0 with "
                                f"{hw} hardware threads")
            elif hw < 4 and best < 0.5:
                self.fail(name, f"oversubscription collapse: best speedup "
                                f"{best:.3f} < 0.5 on a {hw}-thread machine")

        # Event-driven sparse leg: once the baseline records it, it can
        # neither disappear nor lose its cross-thread bitwise identity, and
        # its single-thread frames/s obeys the same half-of-baseline floor.
        base_sparse = baseline.get("sparse")
        if base_sparse:
            cur_sparse = current.get("sparse")
            if not isinstance(cur_sparse, dict):
                self.fail(name, "sparse (event-driven) leg disappeared")
                return
            if not cur_sparse.get("identical", False):
                self.fail(name, "sparse capture is no longer bitwise "
                                "identical across thread counts")
            base_s1 = self._fps_at(base_sparse, 1)
            cur_s1 = self._fps_at(cur_sparse, 1)
            if base_s1 and cur_s1 is not None:
                floor = base_s1 * self.FPS_FLOOR_FRACTION
                if cur_s1 < floor:
                    self.fail(name, f"sparse single-thread frames/s "
                                    f"regressed: {base_s1:.1f} -> "
                                    f"{cur_s1:.1f} (floor {floor:.1f})")

    # -- soak-replay reports -------------------------------------------------

    def check_soak(self, name, baseline, current):
        for key in ("segmented_identical", "resume_identical",
                    "shard_merge_identical"):
            if not current.get(key, False):
                self.fail(name, f"{key} is no longer true: checkpoint/resume "
                                "lost bit-exactness")
        allocs = current.get("steady_allocs_per_frame", None)
        if allocs != 0:
            self.fail(name, "resumed session allocates in steady state: "
                            f"{allocs} per frame (contract is 0)")
        for scale_key in ("shards", "frames"):
            base_n = baseline.get(scale_key, 0)
            cur_n = current.get(scale_key, 0)
            if cur_n < base_n:
                self.fail(name, f"{scale_key} shrank: {base_n} -> {cur_n}")
        for shard in current.get("shard_results", []):
            if not shard.get("identical", False):
                self.fail(name, f"shard {shard.get('shard', '?')} replay "
                                "diverged from its reference range")

    # -- fleet-server load reports -------------------------------------------

    def check_fleet(self, name, baseline, current):
        if not current.get("deterministic", False):
            self.fail(name, "per-session output is no longer bitwise "
                            "deterministic across worker counts")
        if not current.get("pass", False):
            self.fail(name, "bench self-check failed (pass=false)")
        if current.get("errors", 1) != 0:
            self.fail(name, f"command errors in fresh run: "
                            f"{current.get('errors')}")
        allocs = current.get("steady_allocs_per_command", None)
        if allocs != 0:
            self.fail(name, f"steady-state dispatch allocations crept in: "
                            f"{allocs} per command (contract is 0)")
        for entry in current.get("latency", []):
            workers = entry.get("workers", "?")
            for loop in ("closed", "open"):
                pcts = entry.get(loop, {})
                p50 = pcts.get("p50_us")
                p95 = pcts.get("p95_us")
                p99 = pcts.get("p99_us")
                if p50 is None or p95 is None or p99 is None:
                    self.fail(name, f"workers={workers} {loop}-loop entry "
                                    "is missing a percentile")
                elif not p50 <= p95 <= p99:
                    self.fail(
                        name,
                        f"workers={workers} {loop}-loop percentiles are "
                        f"unordered: p50={p50} p95={p95} p99={p99}",
                    )
        for scale_key in ("sessions", "commands_total"):
            base_n = baseline.get(scale_key, 0)
            cur_n = current.get(scale_key, 0)
            if cur_n < base_n:
                self.fail(name, f"{scale_key} shrank: {base_n} -> {cur_n}")
        base_workers = {e["workers"] for e in baseline.get("latency", [])}
        cur_workers = {e["workers"] for e in current.get("latency", [])}
        lost = sorted(base_workers - cur_workers)
        if lost:
            self.fail(name, f"worker counts no longer covered: {lost}")
        if "telemetry" in baseline:
            self.check_fleet_telemetry(name, current.get("telemetry"),
                                       sorted(cur_workers))

    # -- fleet telemetry contract (PR 9) -------------------------------------

    TELEMETRY_TAX_LIMIT = 0.05
    TAX_PAIRS_PER_WORKER_COUNT = 3

    def check_fleet_telemetry(self, name, tel, worker_counts):
        if not isinstance(tel, dict):
            self.fail(name, "telemetry section missing from fresh run")
            return
        # One off/on comparison is noisier than the budget; the tax only
        # means something as a median over repeated pairs.
        pairs = tel.get("tax_pairs")
        if not isinstance(pairs, dict):
            pairs = {}
        for workers in worker_counts:
            n = pairs.get(str(workers), 0)
            if n < self.TAX_PAIRS_PER_WORKER_COUNT:
                self.fail(name, f"workers={workers}: telemetry tax read from "
                                f"{n} off/on pairs, need >= "
                                f"{self.TAX_PAIRS_PER_WORKER_COUNT}")
        if not tel.get("telemetry_deterministic", False):
            self.fail(name, "session digests change when flight recorders "
                            "are enabled (telemetry must be invisible to "
                            "the data plane)")
        tax = tel.get("tax", None)
        if tax is None:
            self.fail(name, "telemetry tax missing")
        elif tax > self.TELEMETRY_TAX_LIMIT:
            self.fail(name, f"telemetry tax {tax:.1%} exceeds the "
                            f"{self.TELEMETRY_TAX_LIMIT:.0%} budget")
        if tel.get("flight_dropped", 1) != 0:
            self.fail(name, "server flight ring dropped "
                            f"{tel.get('flight_dropped')} events at "
                            "baseline load (contract is 0)")
        if tel.get("monitor_errors", 1) != 0:
            self.fail(name, f"monitor hit {tel.get('monitor_errors')} "
                            "unexpected statuses")
        if tel.get("health_allocs_per_probe", 1) != 0:
            self.fail(name, "warm health probes allocate: "
                            f"{tel.get('health_allocs_per_probe')} per "
                            "probe (contract is 0)")
        for probe in ("health", "metrics"):
            pcts = tel.get(probe, {})
            p50 = pcts.get("p50_us")
            p95 = pcts.get("p95_us")
            p99 = pcts.get("p99_us")
            if p50 is None or p95 is None or p99 is None:
                self.fail(name, f"telemetry {probe} latency entry is "
                                "missing a percentile")
            elif not p50 <= p95 <= p99:
                self.fail(name, f"telemetry {probe} percentiles are "
                                f"unordered: p50={p50} p95={p95} p99={p99}")

    # -- dispatch ------------------------------------------------------------

    def check_artifact(self, name, baseline_path, results_dir):
        current_path = os.path.join(results_dir, name)
        if not os.path.exists(current_path):
            self.fail(name, f"artifact missing from {results_dir}/ "
                            "(bench not run or write failed)")
            return
        with open(baseline_path) as f:
            baseline = json.load(f)
        try:
            with open(current_path) as f:
                current = json.load(f)
        except json.JSONDecodeError as err:
            self.fail(name, f"artifact is not valid JSON: {err}")
            return
        if isinstance(baseline, list):
            self.check_claims(name, baseline, current)
        elif "shard_merge_identical" in baseline:
            self.check_soak(name, baseline, current)
        elif "all_identical" in baseline:
            self.check_scaling(name, baseline, current)
        elif "latency" in baseline:
            self.check_fleet(name, baseline, current)
        elif "phases" in baseline:
            self.check_manifest(name, baseline, current)
        else:
            self.fail(name, "unrecognised baseline shape")


def main():
    parser = argparse.ArgumentParser(
        description="diff bench artifacts against committed baselines")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--tol", type=float, default=0.05,
                        help="relative tolerance for numeric drift "
                             "(default 0.05)")
    parser.add_argument("--check-time", action="store_true",
                        help="also gate manifest phase wall times")
    parser.add_argument("names", nargs="*",
                        help="baseline file names to check "
                             "(default: all *.json in the baseline dir)")
    args = parser.parse_args()

    if not os.path.isdir(args.baseline_dir):
        print(f"bench_check: baseline dir {args.baseline_dir}/ not found",
              file=sys.stderr)
        return 2
    names = args.names or sorted(
        f for f in os.listdir(args.baseline_dir) if f.endswith(".json"))
    if not names:
        print("bench_check: no baselines to check", file=sys.stderr)
        return 2

    gate = Gate(args.tol, args.check_time)
    for name in names:
        baseline_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(baseline_path):
            gate.fail(name, "no such baseline")
            continue
        gate.check_artifact(name, baseline_path, args.results_dir)

    if gate.failures:
        print(f"bench_check: {len(gate.failures)} regression(s):")
        for f in gate.failures:
            print(f"  FAIL {f}")
        return 1
    print(f"bench_check: {len(names)} artifact(s) match baselines "
          f"(tol={args.tol:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
