#!/usr/bin/env bash
# Runs the microbenchmark suites and records the results as JSON at the repo
# root (BENCH_core.json, BENCH_eval.json), so performance changes land with
# numbers. micro_eval also runs its built-in equivalence gate first: the
# legacy and engine evaluation pipelines must agree bit-for-bit before any
# timing is recorded. Each suite additionally drops a telemetry snapshot
# (BENCH_<suite>_metrics.json) next to its timings via PIPERISK_METRICS_OUT.
#
#   tools/run_benchmarks.sh            # default: build/ tree, full filter
#   BUILD_DIR=out tools/run_benchmarks.sh
#   BENCH_SUITES=eval tools/run_benchmarks.sh
#   BENCH_SUITES=serve tools/run_benchmarks.sh   # serving-layer load test
#   BENCH_FILTER='BM_Dpmhbp.*' BENCH_MIN_TIME=0.05 tools/run_benchmarks.sh
#
# The "serve" suite is not a google-benchmark binary: it drives bench/
# bench_serve (client/server load generator) and records BENCH_serve.json.
# Its scale is tuned with SERVE_PIPES / SERVE_THREADS / SERVE_SECONDS.
#
# The "shards" suite likewise drives bench/bench_shards (sharded columnar
# generate/load/fit-score pipeline + peak-RSS curve) and records
# BENCH_shards.json. Scale is tuned with SHARDS_REGIONS / SHARDS_PIPES /
# SHARDS_WINDOW. The gate fails on any shard checksum failure or if peak
# RSS grew more than 1.5x between streaming a quarter of the regions and
# all of them (the out-of-core claim).
#
# Environment:
#   BUILD_DIR       CMake build tree containing bench/micro_* (default: build)
#   BENCH_SUITES    space-separated subset of "core eval serve shards"
#                   (default: "core eval")
#   BENCH_FILTER    --benchmark_filter regex (default: all benchmarks)
#   BENCH_MIN_TIME  --benchmark_min_time seconds per benchmark (default: 0.2)
#   SERVE_PIPES     serve suite index size (default: 1000000)
#   SERVE_THREADS   serve suite client threads (default: 2)
#   SERVE_SECONDS   serve suite duration (default: 5)
#   SERVE_OVERHEAD_SECONDS
#                   measured seconds per condition in the scrape-overhead
#                   phase, alternated in 1 s slices (default: 12; raise on
#                   noisy machines to tighten the measurement)
#   SHARDS_REGIONS  shards suite region count (default: 48)
#   SHARDS_PIPES    shards suite pipes per region (default: 25000)
#   SHARDS_WINDOW   shards suite shard window (default: 4)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
BENCH_SUITES="${BENCH_SUITES:-core eval}"
BENCH_FILTER="${BENCH_FILTER:-.*}"
BENCH_MIN_TIME="${BENCH_MIN_TIME:-0.2}"

# Committed BENCH_*.json files are performance claims; numbers from a Debug
# (or default, unoptimised) tree are meaningless and once burned us by
# landing in the repo. Refuse anything but an explicit Release tree.
# CI asserts the recorded context.library_build_type stays "release".
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$build_type" != "Release" ]]; then
  echo "error: $BUILD_DIR is configured as '${build_type:-unknown}', not Release." >&2
  echo "Benchmarks must come from an optimised build:" >&2
  echo "  cmake -B \"$BUILD_DIR\" -S \"$REPO_ROOT\" -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

run_suite() {
  local suite="$1"
  local bench_bin="$BUILD_DIR/bench/micro_$suite"
  local bench_out="$REPO_ROOT/BENCH_$suite.json"
  if [[ ! -x "$bench_bin" ]]; then
    echo "error: $bench_bin not found or not executable." >&2
    echo "Build it first: cmake --build \"$BUILD_DIR\" --target micro_$suite" >&2
    exit 1
  fi
  local metrics_out="$REPO_ROOT/BENCH_${suite}_metrics.json"
  echo "== micro_$suite -> $bench_out (filter='$BENCH_FILTER', min_time=${BENCH_MIN_TIME}s)"
  PIPERISK_METRICS_OUT="$metrics_out" "$bench_bin" \
    --benchmark_filter="$BENCH_FILTER" \
    --benchmark_min_time="$BENCH_MIN_TIME" \
    --benchmark_format=json \
    --benchmark_out="$bench_out" \
    --benchmark_out_format=json \
    >/dev/null

  # Sanity-check both JSON documents and print a compact summary.
  python3 - "$bench_out" "$metrics_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("context", {}).get("piperisk_build_type") != "Release":
    sys.exit("error: recorded piperisk_build_type is not Release in " + sys.argv[1])
benchmarks = doc.get("benchmarks", [])
if not benchmarks:
    sys.exit("error: no benchmarks recorded")
for b in benchmarks:
    print(f"  {b['name']:<36} {b['real_time']:>12.1f} {b['time_unit']}")
print(f"{len(benchmarks)} benchmarks written to {sys.argv[1]}")
with open(sys.argv[2]) as f:
    metrics = json.load(f)
if metrics.get("schema_version") != 1:
    sys.exit("error: bad metrics schema in " + sys.argv[2])
print(f"{len(metrics['counters'])} counters, {len(metrics['gauges'])} gauges, "
      f"{len(metrics['histograms'])} histograms written to {sys.argv[2]}")
EOF
}

run_serve_suite() {
  local bench_bin="$BUILD_DIR/bench/bench_serve"
  local bench_out="$REPO_ROOT/BENCH_serve.json"
  if [[ ! -x "$bench_bin" ]]; then
    echo "error: $bench_bin not found or not executable." >&2
    echo "Build it first: cmake --build \"$BUILD_DIR\" --target bench_serve" >&2
    exit 1
  fi
  echo "== bench_serve -> $bench_out (pipes=${SERVE_PIPES:-1000000}," \
       "threads=${SERVE_THREADS:-2}, seconds=${SERVE_SECONDS:-5})"
  "$bench_bin" \
    --pipes "${SERVE_PIPES:-1000000}" \
    --threads "${SERVE_THREADS:-2}" \
    --seconds "${SERVE_SECONDS:-5}" \
    --overhead-seconds "${SERVE_OVERHEAD_SECONDS:-12}" \
    --out "$bench_out"
  python3 - "$bench_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["errors"] == 0, doc
assert doc["requests"] > 0, doc
lat = doc["latency"]["all"]
print(f"  qps {doc['qps']:.0f}, p50 {lat['p50_us']:.0f}us, "
      f"p99 {lat['p99_us']:.0f}us over {doc['requests']} requests, "
      f"{doc['reloads']} reloads")
# Observability must be near-free: a 1 Hz /metrics scraper may not cost the
# request path more than 2% of its throughput.
so = doc["scrape_overhead"]
assert so["scrapes"] > 0, so
if so["overhead_pct"] >= 2.0:
    sys.exit(f"error: scrape endpoint overhead {so['overhead_pct']:.2f}% "
             f"(detached {so['qps_detached']:.0f} vs attached "
             f"{so['qps_attached']:.0f} req/s) exceeds the 2% budget")
print(f"  scrape overhead {so['overhead_pct']:+.2f}% "
      f"({so['scrapes']} scrapes at 1 Hz)")
EOF
}

run_shards_suite() {
  local bench_bin="$BUILD_DIR/bench/bench_shards"
  local bench_out="$REPO_ROOT/BENCH_shards.json"
  if [[ ! -x "$bench_bin" ]]; then
    echo "error: $bench_bin not found or not executable." >&2
    echo "Build it first: cmake --build \"$BUILD_DIR\" --target bench_shards" >&2
    exit 1
  fi
  local metrics_out="$REPO_ROOT/BENCH_shards_metrics.json"
  echo "== bench_shards -> $bench_out (regions=${SHARDS_REGIONS:-48}," \
       "pipes=${SHARDS_PIPES:-25000}, window=${SHARDS_WINDOW:-4})"
  PIPERISK_METRICS_OUT="$metrics_out" "$bench_bin" \
    --regions "${SHARDS_REGIONS:-48}" \
    --pipes "${SHARDS_PIPES:-25000}" \
    --window "${SHARDS_WINDOW:-4}" \
    --out "$bench_out"
  python3 - "$bench_out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("piperisk_build_type") != "Release":
    sys.exit("error: recorded piperisk_build_type is not Release in " + sys.argv[1])
if doc["checksum_failures"] != 0:
    sys.exit(f"error: {doc['checksum_failures']} shard checksum failures")
growth = doc["rss"]["full_over_quarter"]
if growth > 1.5:
    sys.exit(f"error: peak RSS grew {growth:.2f}x from quarter to full "
             "streaming pass -- the shard window is not bounding memory")
print(f"  gen {doc['generate']['pipes_per_s']:.0f} pipes/s, "
      f"load {doc['load']['mb_per_s']:.0f} MB/s, "
      f"score {doc['fit_score']['scored_pipes_per_s']:.0f} pipes/s, "
      f"peak RSS {doc['rss']['peak_rss_mb']:.0f} MB (x{growth:.2f})")
EOF
}

for suite in $BENCH_SUITES; do
  if [[ "$suite" == "serve" ]]; then
    run_serve_suite
  elif [[ "$suite" == "shards" ]]; then
    run_shards_suite
  else
    run_suite "$suite"
  fi
done
