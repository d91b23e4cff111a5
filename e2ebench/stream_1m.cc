// stream-1M: the out-of-core path over about a million generated pipes in
// columnar shards, from the shards on disk to the evaluated ranking, then
// published to the risk service. See main.cc for why this workload exists.

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/streaming_hbp.h"
#include "data/columnar.h"
#include "data/sharded_dataset.h"
#include "eval/ranking_metrics.h"
#include "eval/streaming_eval.h"
#include "serve_load.h"
#include "stats.h"

namespace piperisk {
namespace e2e {

namespace {

constexpr int kRegions = 40;
constexpr int kPipesPerRegion = 25'000;

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// What one pipeline pass evaluates to; every pass must agree.
struct Evaluated {
  double auc_full = 0.0;
  double auc_1pct = 0.0;
  double detected_1pct_length = 0.0;
  std::vector<std::uint32_t> top100;
};

bool operator==(const Evaluated& a, const Evaluated& b) {
  return SameBits(a.auc_full, b.auc_full) &&
         SameBits(a.auc_1pct, b.auc_1pct) &&
         SameBits(a.detected_1pct_length, b.detected_1pct_length) &&
         a.top100 == b.top100;
}

}  // namespace

Outcome RunStream1M(const Options& options) {
  Outcome outcome;
  if (options.trace) SetPerLayerDefaults(&outcome.metrics);
  const std::string dir = options.work_dir + "/shards";
  const std::string scores_path = options.work_dir + "/scores.csv";

  // --- set-up: generate the sharded dataset, twice -------------------------
  data::ShardedGenerateOptions generate;
  generate.regions = kRegions;
  generate.pipes_per_region = kPipesPerRegion;
  generate.seed = options.seed;
  generate.threads = options.nproc;
  generate.out_dir = dir;
  std::vector<double> setup_s;
  for (int i = 0; i < 2; ++i) {
    std::filesystem::remove_all(dir);
    const Clock::time_point start = Clock::now();
    auto summary = data::GenerateShardedDataset(generate);
    Gate(summary.ok(), "generate the sharded dataset");
    setup_s.push_back(SecondsSince(start));
  }

  // --- gate: a shard survives load -> rewrite byte for byte ----------------
  {
    const std::string shard = dir + "/" + data::ShardFileName(0);
    auto loaded = data::LoadShard(shard);
    Gate(loaded.ok(), "load shard 0");
    const std::string copy = options.work_dir + "/shard0.rewrite";
    Gate(data::WriteShard(*loaded, copy).ok(), "rewrite shard 0");
    Gate(ReadBytes(shard) == ReadBytes(copy),
         "shard load -> rewrite is byte-identical");
    std::filesystem::remove(copy);
  }

  core::StreamingHbpOptions fit_options;
  fit_options.hierarchy.seed = options.seed;
  fit_options.shard_window = options.nproc;
  eval::RankOptions rank_options;
  rank_options.num_threads = options.nproc;

  std::vector<double> walls;
  std::vector<double> peaks;
  Evaluated first;
  RankingPublisher publisher;
  std::atomic<int> passes_done{0};

  // One pass from the shards on disk to the evaluated ranking. `tree` is
  // null for untimed passes of an untraced run.
  auto pass = [&](SpanTree* tree, eval::StreamedScoredPipes* joined) {
    SpanTree::Scope root(tree, "pipeline", "pipeline");
    std::unique_ptr<data::ShardedDataset> shards;
    {
      SpanTree::Scope s(tree, "data.ShardedDataset::Open", "data");
      auto opened = data::ShardedDataset::Open(dir);
      Gate(opened.ok(), "open the sharded dataset");
      shards = std::make_unique<data::ShardedDataset>(std::move(*opened));
    }
    std::unique_ptr<core::StreamingHbpFit> fit;
    {
      SpanTree::Scope s(tree, "core.FitStreamingHbp", "core");
      auto fitted = core::FitStreamingHbp(*shards, fit_options);
      outcome.attempted += 1;
      outcome.failed += fitted.ok() ? 0 : 1;
      Gate(fitted.ok(), "streaming HBP fit");
      fit = std::make_unique<core::StreamingHbpFit>(std::move(*fitted));
    }
    {
      SpanTree::Scope s(tree, "core.ScoreStreamingHbp", "core");
      const bool ok =
          core::ScoreStreamingHbp(*shards, *fit, fit_options, scores_path)
              .ok();
      outcome.attempted += 1;
      outcome.failed += ok ? 0 : 1;
      Gate(ok, "streaming HBP scores");
    }
    {
      SpanTree::Scope s(tree, "eval.BuildStreamedScoredPipes", "eval");
      auto streamed = eval::BuildStreamedScoredPipes(
          *shards, fit_options.category, scores_path, fit_options.shard_window);
      outcome.attempted += 1;
      outcome.failed += streamed.ok() ? 0 : 1;
      Gate(streamed.ok(), "join scores to the shards");
      *joined = std::move(*streamed);
    }
    std::unique_ptr<eval::RankedScores> ranked;
    {
      SpanTree::Scope s(tree, "eval.RankedScores::Build", "eval");
      auto pipes = eval::ZipScores(joined->scores, joined->test_failures,
                                   joined->lengths_m);
      Gate(pipes.ok(), "zip the joined arrays");
      ranked = std::make_unique<eval::RankedScores>(
          eval::RankedScores::Build(*pipes, rank_options));
    }
    SpanTree::Scope s(tree, "eval.metrics", "eval");
    auto full = ranked->Auc(eval::BudgetMode::kPipeCount, 1.0);
    auto one = ranked->Auc(eval::BudgetMode::kPipeCount, 0.01);
    auto det = ranked->DetectedAtBudget(eval::BudgetMode::kLength, 0.01);
    auto top = ranked->TopK(100);
    Gate(full.ok() && one.ok() && det.ok() && top.ok(), "ranking metrics");
    return Evaluated{full->normalised, one->normalised, *det,
                     std::move(*top)};
  };

  auto check_and_publish = [&](const Evaluated& evaluated,
                               eval::StreamedScoredPipes& joined, int rep) {
    Gate(joined.missing == 0, "every pipe found its score row");
    Gate(evaluated.top100.size() == 100, "top-100 has 100 pipes");
    if (rep == 0) first = evaluated;
    Gate(evaluated == first, "every pass evaluates to the same ranking");
    outcome.attempted += 1;
    publisher.Publish(std::move(joined.ids), std::move(joined.scores),
                      std::move(joined.lengths_m));
  };

  const double serve_seconds = std::max(1.0, 0.25 * options.seconds);
  const double pipeline_budget =
      (options.seconds - serve_seconds) * (options.trace ? 0.5 : 1.0);
  RegistryDelta run_delta;
  {
    Ticker ticker("stream-1M", [&](double) {
      return std::to_string(passes_done.load()) + " passes done";
    });
    RepeatFor(pipeline_budget, 1, [&](int rep) {
      ResetPeakRss();
      eval::StreamedScoredPipes joined;
      const Clock::time_point start = Clock::now();
      const Evaluated evaluated = pass(nullptr, &joined);
      walls.push_back(SecondsSince(start));
      peaks.push_back(PeakRssMb());
      check_and_publish(evaluated, joined, rep);
      passes_done.fetch_add(1);
    });
  }
  run_delta.Finish();
  outcome.attempted += run_delta.Counter("data.shard.loads");
  outcome.failed += run_delta.Counter("data.shard.load_failures") +
                    run_delta.Counter("data.shard.checksum_failures");
  Gate(run_delta.Counter("data.shard.checksum_failures") == 0,
       "zero shard checksum failures");
  LogSpread("stream-1M wall_s", walls);
  const double wall_median = Median(walls);

  if (!options.trace) {
    Metrics& m = outcome.metrics;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("wall_s", wall_median, "s");
    m.Set("peak_rss_mb", Median(peaks), "MB");
    m.Set("auc_full", 100.0 * first.auc_full, "%");
    m.Set("auc_1pct", 100.0 * first.auc_1pct, "%");
    // One model streams, so the suite is HBP alone.
    m.Set("suite_auc_full", 100.0 * first.auc_full, "%");
    publisher.ServeAndReport(options, serve_seconds, &outcome);
    return outcome;
  }

  // --- traced pass ---------------------------------------------------------
  Metrics& m = outcome.metrics;
  SpanTree tree;
  eval::StreamedScoredPipes joined;
  RegistryDelta pass_delta;
  const double cpu_start = ProcessCpuSeconds();
  const Evaluated evaluated = pass(&tree, &joined);
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  pass_delta.Finish();
  const double fallback = static_cast<double>(joined.fallback);
  const double missing = static_cast<double>(joined.missing);
  check_and_publish(evaluated, joined, 1);

  // A load-only pass: what shard decode alone costs.
  std::uint64_t scanned_pipes = 0;
  RegistryDelta scan_delta;
  const Clock::time_point scan_start = Clock::now();
  {
    auto shards = data::ShardedDataset::Open(dir);
    Gate(shards.ok(), "open the sharded dataset");
    std::vector<std::uint64_t> per_shard(shards->shards().size(), 0);
    Gate(shards
             ->ForEachShard(options.nproc,
                            [&](size_t shard, const data::RegionDataset& d) {
                              per_shard[shard] = d.network.num_pipes();
                              return Status::OK();
                            })
             .ok(),
         "load-only shard pass");
    for (std::uint64_t n : per_shard) scanned_pipes += n;
    Gate(scanned_pipes == shards->total_pipes(),
         "the load-only pass sees every pipe");
  }
  const double scan_s = SecondsSince(scan_start);
  scan_delta.Finish();

  m.Set("data.generate_s", Median(setup_s), "s");
  m.Set("data.shard_scan_ms", scan_s * 1000.0, "ms");
  m.Set("data.shard_mb_per_s",
        static_cast<double>(scan_delta.Counter("data.shard.bytes_mapped")) /
            1e6 / scan_s,
        "MB/s");
  m.Set("data.shard_bytes_mapped",
        static_cast<double>(pass_delta.Counter("data.shard.bytes_mapped")),
        "count");
  m.Set("data.shard_loads",
        static_cast<double>(pass_delta.Counter("data.shard.loads")), "count");
  m.Set("data.checksum_failures",
        static_cast<double>(
            pass_delta.Counter("data.shard.checksum_failures") +
            scan_delta.Counter("data.shard.checksum_failures")),
        "count");
  m.Set("core.stream_fit_ms", tree.TotalMs("core.FitStreamingHbp"), "ms");
  m.Set("core.stream_score_ms", tree.TotalMs("core.ScoreStreamingHbp"),
        "ms");
  m.Set("eval.stream_join_ms", tree.TotalMs("eval.BuildStreamedScoredPipes"),
        "ms");
  m.Set("eval.rank_build_ms", tree.TotalMs("eval.RankedScores::Build"), "ms");
  m.Set("eval.metrics_ms", tree.TotalMs("eval.metrics"), "ms");
  m.Set("eval.join_fallback_rows", fallback, "count");
  m.Set("eval.join_missing_rows", missing, "count");
  SetPoolMetrics(pass_delta, &m);
  m.Set("process.cpu_s", cpu_s, "s");
  m.Set("process.cpu_per_wall", Ratio(cpu_s, tree.RootMs() / 1000.0),
        "ratio");
  ReportLayers(tree, wall_median, &m);
  publisher.ServeAndReport(options, serve_seconds, &outcome);
  return outcome;
}

}  // namespace e2e
}  // namespace piperisk
