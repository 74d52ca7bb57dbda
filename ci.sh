#!/usr/bin/env bash
# Tier-1 CI: build + test in the default configuration, then again under
# AddressSanitizer, ThreadSanitizer and UndefinedBehaviorSanitizer
# (BIOSENSE_SANITIZE hooks the whole tree; the TSan pass exercises the
# deterministic parallel capture paths, and the UBSan pass is built with
# -fno-sanitize-recover=all so any report is a hard test failure).
#
# All configurations build with BIOSENSE_WERROR=ON: a warning anywhere in
# the tree fails CI. After the sanitizer matrix five gates run: the golden
# frames rebuilt for the host ISA, a run of every example, the
# bench-regression gate (reruns the key benches and
# diffs their JSON artifacts against bench/baselines/ via
# tools/bench_check.py), clang-tidy (if installed — skipped with a note
# otherwise) and the repo-invariant analyzer (biosense-analyze, DESIGN.md
# §14). Each configuration also builds biosense-analyze first and runs it
# before the full build, so an invariant break fails fast instead of after
# a long sanitizer compile.
#
# Usage: ./ci.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local name="$1" sanitize="$2" obs="$3"
  shift 3
  local dir="build-ci-${name}"
  echo "=== [${name}] configure (BIOSENSE_SANITIZE='${sanitize}'" \
       "BIOSENSE_OBS=${obs}) ==="
  cmake -B "${dir}" -S . -DBIOSENSE_SANITIZE="${sanitize}" \
        -DBIOSENSE_OBS="${obs}" -DBIOSENSE_WERROR=ON >/dev/null
  echo "=== [${name}] analyze (repo invariants, before the full build) ==="
  cmake --build "${dir}" -j "${JOBS}" --target biosense-analyze
  "${dir}/tools/analyze/biosense-analyze" --root .
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" "$@"
}

# The asan and tsan passes build with the observability instrumentation
# compiled in: the TSan pass then races the lock-free metrics and per-thread
# trace buffers against the parallel capture engine, which is exactly where
# an instrumentation bug would hide. The default and ubsan passes keep
# OBS=OFF so the shipped (instrumentation-free) configuration is what the
# bench gate below times.
run_config default "" OFF "$@"
run_config asan address ON "$@"
run_config tsan thread ON "$@"
run_config ubsan undefined OFF "$@"

# The golden contract across instruction sets: test_neuro_golden rebuilt
# for the host's own ISA (AVX2 / AVX-512 / FMA where present) must match
# its object model bitwise and reproduce the pinned digest of the baseline
# x86-64 build (the src/ libraries compile with -ffp-contract=off).
echo "=== [golden-native] test_neuro_golden built with -march=native ==="
cmake -B build-ci-native -S . -DCMAKE_CXX_FLAGS=-march=native \
      -DBIOSENSE_WERROR=ON >/dev/null
cmake --build build-ci-native -j "${JOBS}" --target test_neuro_golden
build-ci-native/tests/test_neuro_golden

# The examples are the user-facing API surface: each must run to completion
# (a non-zero exit fails CI). They write no artifacts.
echo "=== [examples] every example runs end to end ==="
for example in quickstart dna_assay drug_screening neural_recording \
               neural_stimulation network_activity tissue_wave; do
  "build-ci-default/examples/${example}" >/dev/null
done

echo "=== [bench-gate] bench artifacts vs committed baselines ==="
if command -v python3 >/dev/null 2>&1; then
  BENCH_SCRATCH="$(mktemp -d)"
  trap 'rm -rf "${BENCH_SCRATCH}"' EXIT
  for bench in bench_fig3_i2f bench_fig4_dnachip bench_fig6_neurochip \
               bench_robust_readout; do
    BIOSENSE_RESULTS_DIR="${BENCH_SCRATCH}" \
      "build-ci-default/bench/${bench}" --benchmark_filter='^$' >/dev/null
  done
  BIOSENSE_RESULTS_DIR="${BENCH_SCRATCH}" \
    build-ci-default/bench/bench_parallel_scaling \
    --frames 32 --rows 32 --cols 32 >/dev/null
  BIOSENSE_RESULTS_DIR="${BENCH_SCRATCH}" \
    build-ci-default/bench/bench_streaming_pipeline \
    --frames 48 --rows 32 --cols 32 >/dev/null
  # Full-scale fleet load: >=1M commands over 256 mixed sessions at 1/2/8
  # workers, with the bitwise-determinism and zero-steady-alloc contracts
  # checked both in-process (the bench exits nonzero itself) and again by
  # bench_check.py against the committed baseline.
  BIOSENSE_RESULTS_DIR="${BENCH_SCRATCH}" \
    build-ci-default/bench/bench_fleet_server >/dev/null
  # Sharded soak replay: every shard checkpoints through the crash-safe
  # store and resumes independently; the merged digest must equal the
  # unsharded reference and a resumed session must stay alloc-free —
  # enforced in-process (nonzero exit) and re-checked by bench_check.py.
  BIOSENSE_RESULTS_DIR="${BENCH_SCRATCH}" \
    build-ci-default/bench/bench_soak_replay >/dev/null
  python3 tools/bench_check.py --results-dir "${BENCH_SCRATCH}"
  # Smoke the first-party report tool over the fresh artifacts: run
  # manifests plus the wire-decoded metrics snapshot the fleet bench
  # fetched via the kGetMetrics command.
  python3 tools/obs_report.py --results-dir "${BENCH_SCRATCH}" \
    --metrics "${BENCH_SCRATCH}/bench_fleet_server.metrics.json" >/dev/null
else
  echo "python3 not installed; skipping bench gate (tools/bench_check.py)"
fi

echo "=== [clang-tidy] static analysis ==="
if command -v clang-tidy >/dev/null 2>&1; then
  # Reuse the default config's compile commands; .clang-tidy at the repo
  # root selects the checks.
  cmake -B build-ci-default -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p build-ci-default --quiet --warnings-as-errors='*'
else
  echo "clang-tidy not installed; skipping (checks are configured in"
  echo ".clang-tidy and run automatically where the tool is available)"
fi

echo "=== [lint] repo invariants ==="
build-ci-default/tools/analyze/biosense-analyze --root .

echo "=== CI: all four sanitizer configurations + static gates passed ==="
