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

# The loops whose speed rests on GCC's vectorizer. The neural frame
# kernel's phase-2 work item (neurochip/array.cpp) is compiled once per
# x86-64 level: a baseline entry and [[gnu::target]] x86-64-v3 and
# x86-64-v4 entries, each [[gnu::flatten]] so that every kernel it calls
# inlines into it. In every entry, the loop after each BIOSENSE_LANE_LOOP
# in neurochip/array.cpp (the gain lanes) and circuit/mosfet.hpp (the EKV
# front-end lanes), and the batched Box-Muller loop in
# neurochip/pixel_bank.hpp, must carry GCC's "loop vectorized" report, with
# 32-byte vectors or wider in the v3 and v4 entries, and no entry may call
# a biosense function: an entry that fell back to calling an out-of-line
# kernel would run it at baseline width, so the call, and the missing
# report for the kernel's loops, fail. circuit/mosfet.cpp (the set-up's
# balance-voltage solve, baseline only) must vectorize its own lane loops
# and mosfet.hpp's. Each source compiles with the command CMake gives it
# (read from a configure-only tree's compile_commands.json, so flags such
# as array.cpp's -fno-math-errno come along) plus GCC's per-function
# vectorizer dump. The loop lines and the entries are found in the source,
# so moving a loop needs no edit here. Other compilers word their reports
# differently, so the gate skips on them with a note.
vectorized() {
  echo "=== [vectorized] lane and Box-Muller loops vectorize in every entry ==="
  local cxx="${CXX:-c++}" macros
  macros="$("${cxx}" -dM -E -x c++ /dev/null)"
  if [[ "${macros}" != *__GNUC__* || "${macros}" == *__clang__* ]]; then
    echo "${cxx} is not GCC; skipping (the gate reads GCC's vectorizer dump)"
    return 0
  fi
  local dir=build-ci-vectorized
  cmake -B "${dir}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # lane_loops <file>...: file:line of the loop after each BIOSENSE_LANE_LOOP.
  lane_loops() {
    awk '
      FNR == 1 { want = 0 }
      $1 == "BIOSENSE_LANE_LOOP" { want = 1; next }
      want && /^[[:space:]]*for[[:space:]]*\(/ { print FILENAME ":" FNR; want = 0 }
    ' "$@"
  }
  # vect_report <source>: compiles <source> as the build does and prints
  # "loop <function> <file>:<line> <bytes>" per "loop vectorized" report and
  # "call <function> <callee>" per call of a biosense function.
  vect_report() {
    local src="$1" cmd dump="${dir}/vect-dump"
    cmd="$(awk -v want="\"${PWD}/${src}\"" '
      /^  "command": / { cmd = $0 }
      /^  "file": / && index($0, want) { print cmd; exit }
    ' "${dir}/compile_commands.json" |
      sed -e 's/^  "command": "//' -e 's/",\{0,1\}$//' -e 's/\\"/"/g')"
    if [ -z "${cmd}" ]; then
      echo "${src}: no compile command in ${dir}" >&2
      return 1
    fi
    eval "${cmd/ -o * -c / -c } -o /dev/null -fdump-tree-vect-optimized=${dump}"
    awk -v root="${PWD}/" '
      /^;; Function / { fn = $3; next }
      / optimized: loop vectorized using [0-9]+ byte vectors/ {
        split($1, loc, ":")
        file = loc[1]
        if (index(file, root) == 1) file = substr(file, length(root) + 1)
        print "loop", fn, file ":" loc[2], $(NF - 2)
        next
      }
      match($0, /(^ *|= )biosense::[^ (]* \(/) {
        callee = substr($0, RSTART, RLENGTH - 2)
        sub(/^.*biosense::/, "biosense::", callee)
        print "call", fn, callee
      }
    ' "${dump}"
    rm -f "${dump}"
  }
  # records <report> <kind> <function>: the report's <kind> records of
  # <function> ("*" for any), without their first two fields.
  records() {
    awk -v kind="$2" -v fn="$3" '
      $1 == kind && (fn == "*" || $2 == fn ||
                     substr($2, length($2) - length(fn) - 1) == "::" fn) {
        $1 = ""; $2 = ""; print substr($0, 3)
      }
    ' <<<"$1"
  }
  # expect_loops <report> <function> <min bytes> <file:line>...: each loop
  # has a report in <function> ("*" for any) at <min bytes> or wider.
  expect_loops() {
    local report="$1" fn="$2" min="$3" where="$2" loop widest
    shift 3
    [ "${fn}" != "*" ] || where="any function"
    if [ "$#" -eq 0 ]; then
      echo "${where}: no loop found to check" >&2
      return 1
    fi
    for loop in "$@"; do
      widest="$(records "${report}" loop "${fn}" | awk -v loop="${loop}" '
        $1 == loop && $2 + 0 > widest { widest = $2 + 0 }
        END { print widest + 0 }
      ')"
      if [ "${widest}" -lt "${min}" ]; then
        echo "${loop}: not vectorized in ${where} at ${min}-byte vectors" \
             "(widest: ${widest})" >&2
        return 1
      fi
      echo "${where}: ${loop}: loop vectorized using ${widest} byte vectors"
    done
  }
  local kernel=src/neurochip/array.cpp report entry min loops box_muller calls
  box_muller="$(awk '
    /^[[:space:]]*for[[:space:]]*\(/ { loop = FNR }
    /noise::box_muller\(/ { print FILENAME ":" loop; exit }
  ' src/neurochip/pixel_bank.hpp)"
  if [ -z "${box_muller}" ]; then
    echo "src/neurochip/pixel_bank.hpp: no Box-Muller loop for the kernel" \
         "to inline" >&2
    return 1
  fi
  loops="$(lane_loops "${kernel}" src/circuit/mosfet.hpp) ${box_muller}"
  report="$(vect_report "${kernel}")"
  # The entries: "<name> <min bytes>" for each [[gnu::flatten]] function.
  local entries
  entries="$(awk '
    /gnu::flatten/ && match($0, /void [A-Za-z_0-9]+\(/) {
      print substr($0, RSTART + 5, RLENGTH - 6), ($0 ~ /arch=x86-64-v[34]/ ? 32 : 16)
    }
  ' "${kernel}")"
  if [ "$(wc -l <<<"${entries}")" -ne 3 ]; then
    echo "${kernel}: expected three [[gnu::flatten]] entries, found:" \
         "${entries}" >&2
    return 1
  fi
  while read -r entry min; do
    if [ "${min}" -gt 16 ] && [[ "${macros}" != *__x86_64__* ]]; then
      echo "${entry}: not built on this target; skipping"
      continue
    fi
    calls="$(records "${report}" call "${entry}" | sort -u)"
    if [ -n "${calls}" ]; then
      echo "${entry} calls out of line, at the callee's width:" ${calls} >&2
      return 1
    fi
    # shellcheck disable=SC2086  # one argument per loop
    expect_loops "${report}" "${entry}" "${min}" ${loops}
  done <<<"${entries}"
  # shellcheck disable=SC2046  # one argument per loop
  expect_loops "$(vect_report src/circuit/mosfet.cpp)" "*" 16 \
    $(lane_loops src/circuit/mosfet.cpp src/circuit/mosfet.hpp)
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
