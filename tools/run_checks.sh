#!/usr/bin/env bash
# Check runner (DESIGN.md "Testing & fault model"): a metric-name lint,
# the committed aging-curve gate, plus four build tiers:
#
#   0. tools/check_metric_names.py — metric_names.h <-> instrumentation
#      <-> DESIGN.md table consistency — and the BENCH_7.json aging gate
#      (DESIGN.md §12): the committed bench_aging curve must show churn
#      provoking >= 1.5x read-cost drift with the defragmenter off,
#      recovery to <= 1.25x the §4 cost model with it on (the PR-6
#      fresh-volume bar), and foreground read p99 within 20% of the
#      defrag-off run (no build needed); plus the BENCH_9.json cache gate
#      (DESIGN.md §14): hot-set speedup >= 3x with the extent cache on,
#      hit rate >= 80% at Zipf(0.99), cold-set regression <= 10%, p99
#      flat; plus the BENCH_10.json volume gate (DESIGN.md §15):
#      parallel per-volume scrub >= 1.3x serial and degraded-mode reads
#      (1 of 3 members offline) >= 0.5x healthy throughput;
#   1. fast + sanitizer-, obs-, mvcc-, cache- and volume-labelled tests
#      under ASan/UBSan (the `asan` preset);
#   2. the `tsan`-, obs-, mvcc-, cache- and volume-labelled concurrency suites
#      (concurrent scrub + readers, parallel allocator use, concurrent
#      journal writers, snapshot readers racing writers, cache torture)
#      under ThreadSanitizer (the `tsan` preset);
#   3. the full suite, including the `torture` crash-recovery, bit-rot and
#      stress tests, in the default RelWithDebInfo build;
#   4. the seed sweep: every `aging`-, `mvcc`-, `cache`- or
#      `volume`-labelled suite
#      re-run under an EOS_TEST_SEED matrix, so single-seed latent bugs
#      (like the pinned 4242 recovery case) cannot hide behind the
#      default seed; then VolumeTortureTest.ConcurrentScrubWithVolumeFailure
#      50 times in a row (snapshot reads racing volume outages: a rare
#      interleaving one run seldom hits).
#
# The `exhaustion` label (resource-exhaustion/deadline suites, DESIGN.md
# §11) rides in tiers 1 and 2 via its sanitizer/tsan labels and can be
# run alone with `ctest --test-dir build -L exhaustion`.
#
# Torture tiers run with EOS_JOURNAL_DIR pointed at build/postmortems so
# any flight-recorder post-mortem dumps (DESIGN.md §6) survive the run;
# retained dumps are listed at the end.
#
# Usage: tools/run_checks.sh [-j N]
#        tools/run_checks.sh perf-smoke [-j N]
#
# perf-smoke builds the default preset, runs the micro and throughput
# benches, and prints each throughput metric against the committed
# BENCH_4.json baseline (the throughput bench runs twice: once with the
# dispatched CRC32C kernel, once forced to software via EOS_CRC32C).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=checks
if [[ "${1:-}" == "perf-smoke" ]]; then
  MODE=perf
  shift
fi

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [perf-smoke] [-j N]" >&2; exit 2 ;;
  esac
done

if [[ "$MODE" == "perf" ]]; then
  echo "== perf-smoke: default build =="
  cmake --preset default
  cmake --build build -j "$JOBS" --target bench_micro bench_throughput

  echo "== perf-smoke: bench_micro (smoke pass) =="
  ./build/bench/bench_micro --benchmark_min_time=0.05

  echo "== perf-smoke: bench_throughput (dispatched + forced-software CRC) =="
  OUT=build/bench_throughput.jsonl
  ./build/bench/bench_throughput | tee /dev/stderr | grep '^{"bench"' > "$OUT"
  EOS_CRC32C=software ./build/bench/bench_throughput | grep '^{"bench"' >> "$OUT"

  echo "== perf-smoke: deltas vs BENCH_4.json =="
  python3 - "$OUT" BENCH_4.json <<'PY'
import json, sys

def load(path):
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "metric" in rec:
                out[rec["metric"]] = rec["value"]
    return out

now, base = load(sys.argv[1]), load(sys.argv[2])
width = max(len(m) for m in now)
regressed = []
for metric in sorted(now):
    cur = now[metric]
    ref = base.get(metric)
    if ref is None or ref == 0:
        print(f"  {metric:<{width}}  {cur:12.1f}  (no baseline)")
        continue
    delta = (cur - ref) / ref * 100.0
    print(f"  {metric:<{width}}  {cur:12.1f}  vs {ref:12.1f}  {delta:+7.1f}%")
    if metric.endswith("_mbps") and delta < -30.0:
        regressed.append((metric, delta))
if regressed:
    print("perf-smoke: regressions beyond the 30% noise floor:")
    for metric, delta in regressed:
        print(f"  {metric}: {delta:+.1f}%")
    sys.exit(1)
print("perf-smoke: within noise floor of baseline")
PY
  exit 0
fi

echo "== [0/4] metric-name lint =="
python3 tools/check_metric_names.py

echo "== [0/4] aging-curve gate (committed BENCH_7.json, DESIGN.md §12) =="
python3 - BENCH_7.json <<'PY'
import json, sys

vals = {}
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if "metric" in rec:
            vals[rec["metric"]] = rec["value"]

def need(metric):
    if metric not in vals:
        print(f"aging gate: BENCH_7.json is missing '{metric}'")
        sys.exit(1)
    return vals[metric]

failures = []
drift_off = need("drift_off_final")
drift_on = need("drift_on_final")
migrated = need("objects_migrated")
p99_ratio = need("read_p99_ratio")
if drift_off < 1.5:
    failures.append(f"churn no longer provokes aging: drift_off_final "
                    f"{drift_off:.3f} < 1.5x")
if drift_on > 1.25:
    failures.append(f"post-defrag read cost above the cost model bar: "
                    f"drift_on_final {drift_on:.3f} > 1.25x")
if migrated <= 0:
    failures.append("the defragmenter migrated nothing")
if p99_ratio > 1.2:
    failures.append(f"foreground read p99 with defrag on is "
                    f"{p99_ratio:.2f}x the defrag-off run (> 1.2x)")
if failures:
    for f in failures:
        print(f"aging gate: {f}")
    sys.exit(1)
print(f"aging gate: drift {need('drift_off_first'):.2f}x -> "
      f"{drift_off:.2f}x (defrag off), recovered to {drift_on:.2f}x "
      f"(defrag on, {int(migrated)} migrations, p99 {p99_ratio:.2f}x)")
PY

echo "== [0/4] cache gate (committed BENCH_9.json, DESIGN.md §14) =="
python3 - BENCH_9.json <<'PY'
import json, sys

vals = {}
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if "metric" in rec:
            vals[rec["metric"]] = rec["value"]

def need(metric):
    if metric not in vals:
        print(f"cache gate: BENCH_9.json is missing '{metric}'")
        sys.exit(1)
    return vals[metric]

failures = []
speedup = need("zipf_hot_speedup")
hit_rate = need("zipf_hit_rate")
cold_ratio = need("zipf_cold_ratio")
p99_ratio = need("zipf_hot_p99_ratio")
if speedup < 3.0:
    failures.append(f"hot-set speedup with the cache on is only "
                    f"{speedup:.2f}x (< 3x)")
if hit_rate < 80.0:
    failures.append(f"hot-phase hit rate {hit_rate:.1f}% < 80% at "
                    f"Zipf(0.99)")
if cold_ratio < 0.9:
    failures.append(f"uniform cold-set throughput with the cache on is "
                    f"{cold_ratio:.2f}x cache-off (> 10% regression)")
if p99_ratio > 1.2:
    failures.append(f"hot-phase foreground p99 with the cache on is "
                    f"{p99_ratio:.2f}x cache-off (> 1.2x)")
if failures:
    for f in failures:
        print(f"cache gate: {f}")
    sys.exit(1)
print(f"cache gate: hot {speedup:.2f}x (hit {hit_rate:.1f}%), cold "
      f"{cold_ratio:.2f}x, p99 {p99_ratio:.2f}x")
PY

echo "== [0/4] volume gate (committed BENCH_10.json, DESIGN.md §15) =="
python3 - BENCH_10.json <<'PY'
import json, sys

vals = {}
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if "metric" in rec:
            vals[rec["metric"]] = rec["value"]

def need(metric):
    if metric not in vals:
        print(f"volume gate: BENCH_10.json is missing '{metric}'")
        sys.exit(1)
    return vals[metric]

failures = []
speedup = need("scrub_parallel_speedup")
ratio = need("degraded_read_ratio")
failovers = need("failover_reads")
if speedup < 1.3:
    failures.append(f"parallel per-volume scrub is only {speedup:.2f}x "
                    f"serial (< 1.3x) on an IO-bound 3-member set")
if ratio < 0.5:
    failures.append(f"degraded-mode read throughput (1 of 3 members "
                    f"offline) is {ratio:.2f}x healthy (> 50% collapse)")
if failovers <= 0:
    failures.append("the degraded pass never failed over to a replica")
if failures:
    for f in failures:
        print(f"volume gate: {f}")
    sys.exit(1)
print(f"volume gate: scrub {speedup:.2f}x parallel, degraded reads "
      f"{ratio:.2f}x healthy ({int(failovers)} failovers)")
PY

POSTMORTEM_DIR="$PWD/build/postmortems"
mkdir -p "$POSTMORTEM_DIR"

echo "== [1/4] sanitizer tier (ASan/UBSan, labels: sanitizer|obs|mvcc|cache|volume) =="
cmake --preset asan
cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1 \
EOS_JOURNAL_DIR="$POSTMORTEM_DIR" \
  ctest --test-dir build-asan -L 'sanitizer|obs|mvcc|cache|volume' --output-on-failure \
  -j "$JOBS"

echo "== [2/4] concurrency tier (TSan, labels: tsan|obs|mvcc|cache|volume) =="
cmake --preset tsan
cmake --build build-tsan -j "$JOBS"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
EOS_JOURNAL_DIR="$POSTMORTEM_DIR" \
  ctest --test-dir build-tsan -L 'tsan|obs|mvcc|cache|volume' --output-on-failure \
  -j "$JOBS"

echo "== [3/4] full suite incl. torture (default build) =="
cmake --preset default
cmake --build build -j "$JOBS"
EOS_JOURNAL_DIR="$POSTMORTEM_DIR" \
  ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== [4/4] seed sweep (labels: aging|mvcc|cache|volume, EOS_TEST_SEED matrix) =="
for SEED in 4242 31337 99991; do
  echo "-- seed $SEED --"
  EOS_TEST_SEED="$SEED" EOS_JOURNAL_DIR="$POSTMORTEM_DIR" \
    ctest --test-dir build -L 'aging|mvcc|cache|volume' --output-on-failure -j "$JOBS"
done
echo "-- VolumeTortureTest.ConcurrentScrubWithVolumeFailure x50 --"
EOS_JOURNAL_DIR="$POSTMORTEM_DIR" ./build/tests/volume_torture_test \
  --gtest_filter='VolumeTortureTest.ConcurrentScrubWithVolumeFailure' \
  --gtest_repeat=50 --gtest_brief=1

if compgen -G "$POSTMORTEM_DIR/eos_postmortem.*.json" > /dev/null; then
  echo "retained post-mortem journals (flight recorder, DESIGN.md §6):"
  ls -1 "$POSTMORTEM_DIR"/eos_postmortem.*.json | sed 's/^/  /'
fi
echo "all checks passed"
