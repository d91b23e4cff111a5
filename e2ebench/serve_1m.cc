// serve-1M: a closed loop of risk-service callers against a one-million-pipe
// snapshot with all-distinct scores, while a reloader rebuilds and
// publishes a new generation every second. See main.cc for why this
// workload exists.

#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "eval/planning.h"
#include "eval/ranking_metrics.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve_load.h"
#include "stats.h"
#include "stats/rng.h"

namespace piperisk {
namespace e2e {

namespace {

constexpr std::uint32_t kPipes = 1'000'000;
constexpr int kReloadEveryMs = 1000;

/// The served ranking's inputs: pipe ids, all-distinct scores, lengths, and
/// test-year failures drawn from a latent risk the score only partly sees,
/// so the ranking's detection AUC is well defined and below 100 %.
struct Index {
  std::vector<std::uint64_t> ids;
  std::vector<double> scores;
  std::vector<double> lengths_m;
  std::vector<int> failures;
};

Index MakeIndex(std::uint64_t seed) {
  stats::Rng rng(seed);
  Index index;
  index.ids.resize(kPipes);
  index.scores.resize(kPipes);
  index.lengths_m.resize(kPipes);
  index.failures.resize(kPipes);
  for (std::uint32_t i = 0; i < kPipes; ++i) {
    const double risk = rng.NextDouble();
    index.ids[i] = i;
    index.scores[i] = 0.7 * risk + 0.3 * rng.NextDouble();
    index.lengths_m[i] = 20.0 + 180.0 * rng.NextDouble();
    index.failures[i] =
        rng.NextDouble() < 0.002 + 0.3 * std::pow(risk, 20.0) ? 1 : 0;
  }
  return index;
}

Result<std::shared_ptr<const serve::ScoreSnapshot>> BuildSnapshot(
    const Index& index, std::uint64_t generation) {
  return serve::ScoreSnapshot::Build(index.ids, index.scores,
                                     index.lengths_m, generation,
                                     eval::PlanningConfig().inspection_cost_per_m);
}

}  // namespace

Outcome RunServe1M(const Options& options) {
  Outcome outcome;
  if (options.trace) SetPerLayerDefaults(&outcome.metrics);

  // --- set-up: make the index and build its snapshot, three times ---------
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<Index> index;
  std::shared_ptr<const serve::ScoreSnapshot> initial;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    index = std::make_unique<Index>(MakeIndex(options.seed));
    generate_s.push_back(SecondsSince(start));
    auto snapshot = BuildSnapshot(*index, 1);
    Gate(snapshot.ok(), "build the initial snapshot");
    initial = *snapshot;
    setup_s.push_back(SecondsSince(start));
  }

  // The served ranking's detection quality (untimed).
  double auc_full = 0.0;
  double auc_1pct = 0.0;
  {
    auto pipes =
        eval::ZipScores(index->scores, index->failures, index->lengths_m);
    Gate(pipes.ok(), "zip the index arrays");
    const eval::RankedScores ranked = eval::RankedScores::Build(*pipes);
    auto full = ranked.Auc(eval::BudgetMode::kPipeCount, 1.0);
    auto one = ranked.Auc(eval::BudgetMode::kPipeCount, 0.01);
    Gate(full.ok() && one.ok(), "served ranking AUC");
    auc_full = full->normalised;
    auc_1pct = one->normalised;
  }

  // Each reload rebuilds the snapshot from the index: the serving artefact
  // to a published, evaluated ranking.
  std::mutex reload_mu;
  std::vector<double> reload_build_s;  // guarded by reload_mu
  serve::ServerOptions server_options;
  server_options.seed = options.seed;
  server_options.reload_fn = [&](std::uint64_t generation)
      -> Result<std::shared_ptr<const serve::ScoreSnapshot>> {
    const Clock::time_point start = Clock::now();
    auto snapshot = BuildSnapshot(*index, generation);
    const double took = SecondsSince(start);
    std::lock_guard<std::mutex> lock(reload_mu);
    reload_build_s.push_back(took);
    return snapshot;
  };
  auto server = serve::Server::Start(server_options, initial);
  Gate(server.ok(), "start the in-process server");
  CheckWireAnswers((*server)->port(), *initial, options.seed, 500);

  LoadConfig config;
  config.port = (*server)->port();
  config.seconds = options.seconds * (options.trace ? 0.8 : 1.0);
  config.pipe_ids = initial->pipe_ids();
  config.seed = options.seed;
  config.reload_every_ms = kReloadEveryMs;
  initial.reset();  // the server owns the index from here on

  std::atomic<long long> done{0};
  RegistryDelta delta;
  ResetPeakRss();
  const double cpu_start = ProcessCpuSeconds();
  LoadResult result;
  {
    Ticker ticker("serve-1M", [&](double elapsed) {
      return std::to_string(done.load()) + " requests, " +
             std::to_string(static_cast<long long>(done.load() / elapsed)) +
             " req/s";
    });
    result = RunClosedLoop(config, &done);
  }
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  const double peak_rss_mb = PeakRssMb();
  delta.Finish();
  (*server)->Stop();

  outcome.attempted += result.requests + result.reloads;
  outcome.failed += result.request_errors + result.reload_failures;
  Gate(!result.reload_ms.empty(), "at least one reload completed");
  std::vector<double> builds;
  {
    std::lock_guard<std::mutex> lock(reload_mu);
    builds = reload_build_s;
  }
  const double build_median_s = Median(builds);
  LogSpread("serve-1M reload_ms", result.reload_ms);

  Metrics& m = outcome.metrics;
  if (!options.trace) {
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("wall_s", build_median_s, "s");
    m.Set("peak_rss_mb", peak_rss_mb, "MB");
    m.Set("auc_full", 100.0 * auc_full, "%");
    m.Set("auc_1pct", 100.0 * auc_1pct, "%");
    // One ranking is served, so the suite is that ranking alone.
    m.Set("suite_auc_full", 100.0 * auc_full, "%");
    ReportServeEndToEnd(result, &m);
    m.Set("reload_ms", Median(result.reload_ms), "ms");
    return outcome;
  }

  // --- traced pass: one rebuild, with the ranking build attributed --------
  SpanTree tree;
  {
    SpanTree::Scope root(&tree, "pipeline", "pipeline");
    SpanTree::Scope s(&tree, "serve.ScoreSnapshot::Build", "serve");
    RegistryDelta rank;
    auto snapshot = BuildSnapshot(*index, 2);
    rank.Finish();
    Gate(snapshot.ok(), "traced snapshot build");
    tree.AttributeChild("eval", rank.HistogramSum("eval.rank_build_us") / 1e3);
  }
  m.Set("data.generate_s", Median(generate_s), "s");
  m.Set("eval.rank_build_ms", delta.HistogramSum("eval.rank_build_us") / 1e3 /
                                  std::max<double>(1.0, builds.size()),
        "ms");
  m.Set("serve.snapshot_build_ms", 1000.0 * build_median_s, "ms");
  ReportServeLayers(result, delta, &m);
  SetPoolMetrics(delta, &m);
  m.Set("process.cpu_s", cpu_s, "s");
  m.Set("process.cpu_per_wall", cpu_s / result.elapsed_s, "ratio");
  ReportLayers(tree, build_median_s, &m);
  return outcome;
}

}  // namespace e2e
}  // namespace piperisk
