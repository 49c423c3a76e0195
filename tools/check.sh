#!/usr/bin/env bash
# Builds and tests every supported configuration: the default RelWithDebInfo
# preset, the asan-ubsan preset (AddressSanitizer + UBSan), and the tsan
# preset (ThreadSanitizer, which races the parallel level executor), running
# the full ctest suite under each. The suite includes the product and g3
# fuzz tests against from-scratch references (product_test,
# error_measures_test), so the probe-table label, scatter and counting loops
# run under both sanitizers on every invocation. Usage:
# tools/check.sh [preset ...]; with no arguments all three presets run.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan-ubsan tsan)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

# Static analysis gates, cheapest failures first: the regex-tier project
# lint (plus clang-tidy and the Clang thread-safety `analysis` preset,
# which self-skip when the tools are absent), then the semantic tier —
# tools/tane_analyzer's lock-free protocol, signal-safety, determinism,
# and handle-discipline contracts. The analyzer runs as its own step so
# its per-rule counts and runtime land in the check log; lint.sh is told
# to skip its copy.
echo "==> lint: tools/lint.sh"
tools/lint.sh --skip-analyzer
echo "==> analyze: tools/tane_analyzer (semantic contracts)"
python3 tools/tane_analyzer

for preset in "${presets[@]}"; do
  echo "==> configure: ${preset}"
  cmake --preset "${preset}"
  echo "==> build: ${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "==> test: ${preset}"
  ctest --preset "${preset}" -j "${jobs}"
done

echo "All presets green: ${presets[*]}"

# Perf smoke: build the release preset's partition microbenchmark, run the
# JSON measurement once, and check the artifact is valid JSON. Catches both
# a broken release build and a malformed BENCH_micro_partition.json early.
# The same artifact carries the baseline-vs-instrumented measurement, so
# the obs checker also asserts instrumentation overhead stays within 2% —
# and holds products/sec to the hard per-dataset throughput floors in
# check_obs.py (1.5x the pre-kernel-rewrite baseline), so a regression in
# the product hot path fails the gate outright.
echo "==> perf smoke: release micro_partition"
cmake --preset release
cmake --build --preset release -j "${jobs}" --target micro_partition
smoke_json="build-release/BENCH_micro_partition.json"
build-release/bench/micro_partition \
  --benchmark_filter='^$' --json="${smoke_json}"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "${smoke_json}" >/dev/null
  python3 tools/check_obs.py micro "${smoke_json}"
else
  # No python3: settle for the file being non-empty.
  [ -s "${smoke_json}" ]
fi
echo "perf smoke OK: ${smoke_json}"

# Scaling gate: run the thread-scaling sweeps (a planted synthetic relation
# and the Lymphography stand-in) at quick scale and hard-fail on
# regressions — any thread count whose output differs from serial, any
# allocation-count drift, and (on machines with the cores to measure it)
# speedups below the floors in check_obs.py. On single-core CI boxes the
# floors self-skip but the determinism and allocation checks still bind.
echo "==> scaling gate: release parallel_scaling"
cmake --build --preset release -j "${jobs}" --target parallel_scaling
scaling_json="build-release/BENCH_parallel_scaling.json"
build-release/bench/parallel_scaling --scale=quick --json="${scaling_json}"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_obs.py scaling "${scaling_json}"
else
  [ -s "${scaling_json}" ]
fi
echo "scaling gate OK: ${scaling_json}"

# Observability smoke: one release discovery with tracing, progress, and the
# run report enabled; the checker validates the trace is loadable trace-event
# JSON and that the report's counters and per-level table agree with the
# --stats output of the same run.
echo "==> obs smoke: release discover with --trace/--report/--progress"
cmake --build --preset release -j "${jobs}" --target tane_cli
obs_dir="build-release/obs-smoke"
mkdir -p "${obs_dir}"
build-release/tools/tane generate hepatitis --rows=3000 \
  > "${obs_dir}/hepatitis.csv"
build-release/tools/tane discover "${obs_dir}/hepatitis.csv" \
  --threads=2 --epsilon=0.05 --max-lhs=4 --stats --progress=1 \
  --trace="${obs_dir}/trace.json" --report="${obs_dir}/report.json" \
  > "${obs_dir}/discover.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_obs.py trace "${obs_dir}/trace.json"
  python3 tools/check_obs.py report "${obs_dir}/report.json" \
    "${obs_dir}/discover.txt"
else
  [ -s "${obs_dir}/trace.json" ] && [ -s "${obs_dir}/report.json" ]
fi
echo "obs smoke OK: ${obs_dir}"

# Profiler overhead gate: the same discovery twice without and twice with
# the 97 Hz sampler; check_obs.py validates the folded-stack artifact and
# holds min-profiled/min-baseline to the 1.05x budget.
echo "==> profile gate: release discover with --profile"
base_flags=(--threads=2 --epsilon=0.05 --max-lhs=4 --stats)
for i in 1 2; do
  build-release/tools/tane discover "${obs_dir}/hepatitis.csv" \
    "${base_flags[@]}" > "${obs_dir}/base${i}.txt"
  build-release/tools/tane discover "${obs_dir}/hepatitis.csv" \
    "${base_flags[@]}" --profile \
    --profile-out="${obs_dir}/profile${i}.folded" > "${obs_dir}/prof${i}.txt"
done
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_obs.py profile "${obs_dir}/profile1.folded" \
    --base "${obs_dir}/base1.txt" "${obs_dir}/base2.txt" \
    --prof "${obs_dir}/prof1.txt" "${obs_dir}/prof2.txt"
else
  [ -s "${obs_dir}/profile1.folded" ]
fi
echo "profile gate OK: ${obs_dir}/profile1.folded"

# Report drift (soft gate): a second identical instrumented run must agree
# with the first — deterministic fields exactly, measurements within the
# band. A nonzero exit here warns instead of failing: wall-clock bands on
# a loaded box are judgement, not law.
echo "==> insight diff (soft): back-to-back run reports"
build-release/tools/tane discover "${obs_dir}/hepatitis.csv" \
  --threads=2 --epsilon=0.05 --max-lhs=4 --stats --progress=1 \
  --trace="${obs_dir}/trace2.json" --report="${obs_dir}/report2.json" \
  > "${obs_dir}/discover2.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/tane_insight.py diff \
    "${obs_dir}/report.json" "${obs_dir}/report2.json" \
    || echo "WARNING: run reports drifted (soft gate, not failing)"
fi

# Checkpoint chaos smoke: SIGKILL a discovery run at every checkpoint-I/O
# failpoint, resume, and require byte-identical output — under the
# sanitizer build when it was part of this invocation, so torn-write
# recovery runs with ASan/UBSan watching.
chaos_bin="build/tools/tane"
for preset in "${presets[@]}"; do
  if [ "${preset}" = "asan-ubsan" ]; then
    chaos_bin="build-asan-ubsan/tools/tane"
  fi
done
echo "==> chaos smoke: kill-and-resume via ${chaos_bin}"
tools/chaos_checkpoint.sh "${chaos_bin}" "$(mktemp -d)"
