// e2e_bench — the end-to-end, layer-attributed benchmark of piperisk.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--git-sha SHA]
//
// Normally driven by run.py, which builds this binary and checks the result
// line against BENCHMARK.json. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the metrics are the
// end-to-end ones with --trace 0 and the per-layer ones with --trace 1. A
// host stamp line precedes it. Every correctness gate runs before a number
// is printed; a broken gate exits 1 with no result line.
//
// Who waits for what. The product is a ranked list of pipes to inspect
// under a budget. Asset engineers wait for that list and judge it by its
// detection AUC at 100 % and at a 1 % budget; tools query the served
// ranking and wait for each reply. Every workload therefore ends in an
// evaluated ranking that is published to an in-process risk service.
//
// Workloads (inputs are made from --seed alone):
//   compare-A  The paper's comparison protocol on region A (3 793 critical
//              mains): CSV bundle -> LoadRegionDataset -> RunRegionExperiment
//              (one DPMHBP chain, threads = sweep threads = nproc) ->
//              PairedAucTest of DPMHBP against the best other headline
//              model. It is the latency of one full analysis, and the
//              sampler and the baselines do almost all of its work. Region
//              A is the fixed calibrated region; the seed drives every
//              random choice of the analysis (samplers, forests, bootstrap).
//   stream-1M  The out-of-core path on 1 M generated pipes in 40 shards:
//              ShardedDataset::Open -> FitStreamingHbp -> ScoreStreamingHbp
//              -> BuildStreamedScoredPipes -> RankedScores::Build -> Auc /
//              DetectedAtBudget / TopK. The sampler is nearly idle (about
//              five groups); shard decode and the join dominate, and scores
//              are heavily tied.
//   serve-1M   A closed loop of 2 callers against a 1 M-pipe snapshot with
//              all-distinct scores (the opposite tie structure), mix 80/15/5
//              score/top-100/what-if, while a reloader rebuilds and
//              publishes a new generation every second
//              (ScoreSnapshot::Build -> RankedScores::Build).
//
// End-to-end metrics (--trace 0), printed for every workload:
//   setup_s         median of several set-ups: input generation (and, for
//                   serve-1M, the snapshot build) before timing.
//   wall_s          median time from input to evaluated ranking: one
//                   analysis (compare-A), one streaming pass (stream-1M),
//                   one snapshot rebuild inside a reload (serve-1M).
//   peak_rss_mb     peak RSS of the timed part.
//   auc_full        detection AUC at a 100 % pipe budget of the published
//                   ranking: DPMHBP, HBP, and the served synthetic ranking.
//   auc_1pct        normalised detection AUC at a 1 % pipe budget.
//   suite_auc_full  mean auc_full over the headline models (compare-A); the
//                   other workloads rank with one model, so it is theirs.
//   qps, p50_us, p99_us
//                   closed-loop requests per second and latency over all
//                   verbs: against the last published ranking for the batch
//                   workloads (a quarter of the run), against the 1 M index
//                   while reloads run beside the reads for serve-1M.
//   reload_ms       median reload round trip seen by the reloader: one
//                   every second beside the reads in serve-1M; back to back
//                   for 0.3 s after every publish, with no callers, in the
//                   batch workloads (serve_load.h says why).
// attempted/failed count operations: model runs, chains and tests
// (compare-A); shard loads and the fit, score, join and publish calls
// (stream-1M); requests and reloads (all). A failed request is recorded as
// infinitely slow, so it misses every latency limit.
//
// Per-layer metrics (--trace 1) and the end-to-end metric each should move.
// Spans are recorded only by this benchmark, around calls into each
// module's public functions; counters are before/after deltas of
// telemetry::Registry::Global(). A layer a workload never calls reads 0.
//   data       data.csv_load_ms -> wall_s on compare-A (under 2 %).
//              data.shard_scan_ms, data.shard_mb_per_s (a load-only
//              ForEachShard pass) -> wall_s on stream-1M;
//              data.shard_bytes_mapped, data.shard_loads are counts;
//              data.checksum_failures -> failed. data.generate_s -> setup_s.
//   core       core.input_build_ms, core.dpmhbp_fit_ms, core.sweeps,
//              core.sweep_ms (the library's own dpmhbp.sweep spans) ->
//              wall_s on compare-A; halving core.sweep_ms saves at most
//              ~25 % there and should leave stream-1M and serve-1M alone.
//              core.parallel_sweep_share shows whether the within-chain
//              path ran. core.accept_ratio (-> auc_full), core.cache_hit_ratio
//              and core.dedup_ratio are useful-over-attempted ratios of the
//              DPMHBP fit. core.hbp_fit_ms, core.score_ms -> compare-A.
//              core.stream_fit_ms, core.stream_score_ms -> wall_s on
//              stream-1M. core.chain_retries, core.chains_failed -> failed.
//   baselines  baselines.{weibull,rsf,gbt,cox,svm}_fit_ms (Fit + ScorePipes
//              on the same ModelInput and configs) -> wall_s on compare-A,
//              chiefly Weibull then RSF; nothing on the other workloads.
//   eval       eval.rank_build_ms -> wall_s on stream-1M and reload_ms on
//              serve-1M (there: per reload). eval.metrics_ms,
//              eval.significance_ms -> compare-A. eval.stream_join_ms ->
//              stream-1M; eval.join_fallback_rows / join_missing_rows are
//              the join's waste and failures.
//   serve      serve.{score,topk,whatif}_{p50,p99}_us -> p50_us / p99_us.
//              serve.snapshot_build_ms -> reload_ms. serve.tail_us is the
//              highest percentile with >= 10 samples beyond it
//              (serve.tail_pct, out of serve.latency_samples); reported,
//              not gated. serve.protocol_errors, serve.request_errors,
//              serve.reload_failures -> failed.
//   common     common.pool_tasks, common.pool_queue_wait_p50_us,
//              common.pool_caller_block_share -> wall_s on compare-A and
//              stream-1M. process.cpu_s and process.cpu_per_wall (CPU-s per
//              wall-s: the parallel efficiency).
//   layer.<layer>.self_ms / .share   self time of each layer's spans in the
//              traced pass and its share of that pass's wall time;
//              layer.unattributed_share is the wall not covered by
//              top-level layer spans; trace.overhead_s is the traced wall
//              minus the untraced median wall_s of the same run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace piperisk {
namespace e2e {
namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

/// JSON string literal with the characters a CPU name or sha can hold.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload compare-A|stream-1M|serve-1M "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--git-sha SHA]\n");
  return 2;
}

int Run(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      options.seconds <= 0.0) {
    return Usage();
  }
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "e2e_bench: refusing a %s build; build Release\n",
                 E2E_BUILD_TYPE);
    return 3;
  }
  options.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  Outcome outcome;
  try {
    if (options.workload == "compare-A") {
      outcome = RunCompareA(options);
    } else if (options.workload == "stream-1M") {
      outcome = RunStream1M(options);
    } else if (options.workload == "serve-1M") {
      outcome = RunServe1M(options);
    } else {
      return Usage();
    }
  } catch (const GateFailure& failure) {
    std::fprintf(stderr, "e2e_bench: correctness gate FAILED: %s\n",
                 failure.what());
    return 1;
  }

  std::string metrics;
  for (const auto& [name, value_unit] : outcome.metrics.entries()) {
    const auto& [value, unit] = value_unit;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "e2e_bench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value,
                  unit.c_str());
    metrics += buffer;
  }
  std::printf(
      "host {\"nproc\": %d, \"cpu_model\": %s, \"piperisk_build_type\": "
      "%s, \"git_sha\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      options.nproc, Quote(CpuModel()).c_str(), Quote(E2E_BUILD_TYPE).c_str(),
      Quote(git_sha).c_str(), Quote(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  std::printf(
      "{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      outcome.attempted, outcome.failed, metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace piperisk

int main(int argc, char** argv) { return piperisk::e2e::Run(argc, argv); }
