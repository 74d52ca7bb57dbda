#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. Builds perfbench_driver (Release,
BIOSENSE_OBS=OFF) from the library sources into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs one workload on one thread and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end-to-end metrics; with --trace 1 the run records spans around each call
into a layer and the metrics are the per-layer ones (trace_report.py).
Workloads, metrics and their meaning: perfbench/NOTES.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import trace_report  # noqa: E402

WORKLOADS = ("neuro_dense", "neuro_sparse", "dna_autorange", "fleet_mixed")
BUILD_TIMEOUT_S = 840
# A run measures for --seconds, plus set-up, warm-up and the last window.
RUN_SLACK_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        driver = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(
            build_dir, "traces", f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-file", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"driver exited with {proc.returncode}")
        return 1
    record = json.loads(lines[-1])
    print(json.dumps(record, sort_keys=True))

    if args.trace:
        values = trace_report.layer_metrics(trace_path)
    else:
        values = record["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"metrics missing from the run: {', '.join(missing)}")
        return 1
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
