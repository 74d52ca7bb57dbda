#!/usr/bin/env bash
# Tier-1 CI: build + test in the default configuration, then again under
# AddressSanitizer, ThreadSanitizer and UndefinedBehaviorSanitizer
# (BIOSENSE_SANITIZE hooks the whole tree; the TSan pass exercises the
# deterministic parallel capture paths, and the UBSan pass is built with
# -fno-sanitize-recover=all so any report is a hard test failure).
#
# All configurations build with BIOSENSE_WERROR=ON: a warning anywhere in
# the tree fails CI. After the sanitizer matrix come the golden frames
# rebuilt for the host ISA, GCC's vectorizer report on the neural kernels'
# hot loops, a run of every example, the bench-regression gates (each key
# bench, then tools/bench_check.py diffing their JSON artifacts against
# bench/baselines/, then tools/obs_report.py), clang-tidy (if installed —
# skipped with a note otherwise) and the repo-invariant analyzer
# (biosense-analyze, DESIGN.md §14). Each configuration also builds
# biosense-analyze first and runs it before the full build, so an
# invariant break fails fast instead of after a long sanitizer compile.
#
# Every one of these is a gate: it stops at its own first failing command,
# its exit status is recorded, and the gates after it still run. The script
# exits non-zero at the end and names every gate that failed.
#
# Usage: ./ci.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"
FAILED_GATES=()

# gate <name> <command...>: runs the command in a subshell that stops at its
# first failing command (set -e holds there, since the subshell is not in a
# conditional), and records <name> if it exited non-zero.
gate() {
  local name="$1"
  shift
  set +e
  (set -e; "$@")
  local status=$?
  set -e
  if [ "${status}" -ne 0 ]; then
    echo "!!! [${name}] failed (exit ${status})" >&2
    FAILED_GATES+=("${name}")
  fi
}

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
gate default run_config default "" OFF "$@"
gate asan run_config asan address ON "$@"
gate tsan run_config tsan thread ON "$@"
gate ubsan run_config ubsan undefined OFF "$@"

# The golden contract across instruction sets: test_neuro_golden rebuilt
# for the host's own ISA (AVX2 / AVX-512 / FMA where present) must match
# its object model bitwise and reproduce the pinned digest of the baseline
# x86-64 build (the src/ libraries compile with -ffp-contract=off). The
# other bitwise-exactness tests ride along: test_mosfet (the EKV lanes and
# the reverse-term skip against the scalar model) and test_neurochip
# (prepare against the per-pixel scan), since the lanes' vector width is
# what changes at native ISA.
golden_native() {
  echo "=== [golden-native] exactness tests built with -march=native ==="
  cmake -B build-ci-native -S . -DCMAKE_CXX_FLAGS=-march=native \
        -DBIOSENSE_WERROR=ON >/dev/null
  cmake --build build-ci-native -j "${JOBS}" --target test_neuro_golden \
        test_mosfet test_neurochip
  build-ci-native/tests/test_neuro_golden
  build-ci-native/tests/test_mosfet
  build-ci-native/tests/test_neurochip
}
gate golden-native golden_native

# The loops whose speed rests on GCC's vectorizer: the loop after each
# BIOSENSE_LANE_LOOP in neurochip/array.cpp (the gain lanes) and in
# circuit/mosfet.cpp (the EKV front end's and the balance-voltage solve's
# lanes), and the batched Box-Muller loop in neurochip/pixel_bank.cpp (it
# vectorizes only with that file's -fno-math-errno). Each file compiles
# alone with the library's flags plus -fopt-info-vec-optimized, and the
# gate fails unless GCC reports "loop vectorized" at every such loop's
# line. The lines are found
# in the source, so moving a loop needs no edit here. Other compilers word
# their reports differently, so the gate skips on them with a note.
vectorized() {
  echo "=== [vectorized] lane and Box-Muller loops vectorize ==="
  local cxx="${CXX:-c++}" macros
  macros="$("${cxx}" -dM -E -x c++ /dev/null)"
  if [[ "${macros}" != *__GNUC__* || "${macros}" == *__clang__* ]]; then
    echo "${cxx} is not GCC; skipping (the gate reads GCC's -fopt-info report)"
    return 0
  fi
  # expect_vectorized <source> <extra flags> <loop line>...
  expect_vectorized() {
    local src="$1" extra="$2" report line
    shift 2
    if [ "$#" -eq 0 ]; then
      echo "${src}: no loop found to check" >&2
      return 1
    fi
    report="$("${cxx}" -std=c++20 -O3 -ffp-contract=off ${extra} -Isrc \
              -fopt-info-vec-optimized -c "${src}" -o /dev/null 2>&1)"
    for line in "$@"; do
      if ! grep -q "^${src}:${line}:[0-9]*: optimized: loop vectorized" \
           <<<"${report}"; then
        echo "${src}:${line}: loop not vectorized" >&2
        return 1
      fi
      echo "${src}:${line}: loop vectorized"
    done
  }
  local lanes
  for lanes in src/neurochip/array.cpp src/circuit/mosfet.cpp; do
    expect_vectorized "${lanes}" "" $(awk '
      $1 == "BIOSENSE_LANE_LOOP" { want = 1; next }
      want && /^[[:space:]]*for[[:space:]]*\(/ { print NR; want = 0 }
    ' "${lanes}")
  done
  expect_vectorized src/neurochip/pixel_bank.cpp -fno-math-errno $(awk '
    /^[[:space:]]*for[[:space:]]*\(/ { loop = NR }
    /noise::box_muller\(/ { print loop; exit }
  ' src/neurochip/pixel_bank.cpp)
}
gate vectorized vectorized

# The examples are the user-facing API surface: each must run to completion
# (a non-zero exit fails CI). They write no artifacts.
run_examples() {
  echo "=== [examples] every example runs end to end ==="
  for example in quickstart dna_assay drug_screening neural_recording \
                 neural_stimulation network_activity tissue_wave; do
    "build-ci-default/examples/${example}" >/dev/null
  done
}
gate examples run_examples

# bench <name> [args...]: one bench run writing its artifacts to the
# scratch results directory.
bench() {
  local name="$1"
  shift
  echo "=== [bench-gate] ${name} ==="
  BIOSENSE_RESULTS_DIR="${BENCH_SCRATCH}" "build-ci-default/bench/${name}" \
    "$@" >/dev/null
}

if command -v python3 >/dev/null 2>&1; then
  BENCH_SCRATCH="$(mktemp -d)"
  trap 'rm -rf "${BENCH_SCRATCH}"' EXIT
  for name in bench_fig3_i2f bench_fig4_dnachip bench_fig6_neurochip \
              bench_robust_readout; do
    gate "${name}" bench "${name}" --benchmark_filter='^$'
  done
  gate bench_parallel_scaling bench bench_parallel_scaling \
    --frames 32 --rows 32 --cols 32
  gate bench_streaming_pipeline bench bench_streaming_pipeline \
    --frames 48 --rows 32 --cols 32
  # Full-scale fleet load: >=1M commands over 256 mixed sessions at 1/2/8
  # workers, with the bitwise-determinism and zero-steady-alloc contracts
  # checked both in-process (the bench exits nonzero itself) and again by
  # bench_check.py against the committed baseline.
  gate bench_fleet_server bench bench_fleet_server
  # Sharded soak replay: every shard checkpoints through the crash-safe
  # store and resumes independently; the merged digest must equal the
  # unsharded reference and a resumed session must stay alloc-free —
  # enforced in-process (nonzero exit) and re-checked by bench_check.py.
  gate bench_soak_replay bench bench_soak_replay
  echo "=== [bench-gate] bench artifacts vs committed baselines ==="
  gate bench_check python3 tools/bench_check.py --results-dir "${BENCH_SCRATCH}"
  # Smoke the first-party report tool over the fresh artifacts: run
  # manifests plus the wire-decoded metrics snapshot the fleet bench
  # fetched via the kGetMetrics command.
  gate obs_report python3 tools/obs_report.py --results-dir "${BENCH_SCRATCH}" \
    --metrics "${BENCH_SCRATCH}/bench_fleet_server.metrics.json" >/dev/null
else
  echo "python3 not installed; skipping bench gate (tools/bench_check.py)"
fi

clang_tidy() {
  echo "=== [clang-tidy] static analysis ==="
  if command -v clang-tidy >/dev/null 2>&1; then
    # Reuse the default config's compile commands; .clang-tidy at the repo
    # root selects the checks.
    cmake -B build-ci-default -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      >/dev/null
    find src -name '*.cpp' -print0 |
      xargs -0 clang-tidy -p build-ci-default --quiet --warnings-as-errors='*'
  else
    echo "clang-tidy not installed; skipping (checks are configured in"
    echo ".clang-tidy and run automatically where the tool is available)"
  fi
}
gate clang-tidy clang_tidy

echo "=== [lint] repo invariants ==="
gate lint build-ci-default/tools/analyze/biosense-analyze --root .

if [ "${#FAILED_GATES[@]}" -ne 0 ]; then
  echo "=== CI: ${#FAILED_GATES[@]} gate(s) failed: ${FAILED_GATES[*]} ==="
  exit 1
fi
echo "=== CI: all four sanitizer configurations + static gates passed ==="
