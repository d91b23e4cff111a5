#include "core/streaming_hbp.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "common/strings.h"
#include "core/beta_bernoulli.h"
#include "core/mcmc.h"
#include "data/split.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace piperisk {
namespace core {

namespace {

// Same clamp as the in-memory samplers (hbp.cc).
constexpr double kRateFloor = 1e-7;
constexpr double kRateCeil = 1.0 - 1e-7;

// PCG stream of the streaming sampler's chain c (stream base + c). A
// dedicated base keeps these chains independent of HbpModel's kHbpStream
// draws without any coordination.
constexpr std::uint64_t kStreamingHbpStream = 0x53484250ULL;  // "SHBP"

double Clamp01(double q) { return std::clamp(q, kRateFloor, kRateCeil); }

net::FeatureConfig FeaturesFor(net::PipeCategory category) {
  return category == net::PipeCategory::kWasteWater
             ? net::FeatureConfig::WasteWater()
             : net::FeatureConfig::DrinkingWater();
}

/// One merged sufficient-statistic class: weight pipes sharing (k, n)
/// within one raw group.
struct SuffClass {
  int k = 0;
  int n = 0;
  long long weight = 0;
};

/// (raw group, k, n) -> weight. std::map so iteration (and therefore every
/// downstream float summation) follows a canonical order, independent of
/// shard processing interleaving.
using SuffHistogram = std::map<std::tuple<int, int, int>, long long>;

Result<ModelInput> BuildShardInput(const data::RegionDataset& dataset,
                                   const StreamingHbpOptions& options) {
  return ModelInput::Build(dataset, data::TemporalSplit::Paper(),
                           options.category, FeaturesFor(options.category));
}

}  // namespace

Result<StreamingHbpFit> FitStreamingHbp(const data::ShardedDataset& shards,
                                        const StreamingHbpOptions& options) {
  const HierarchyConfig& h = options.hierarchy;
  PIPERISK_RETURN_IF_ERROR(ValidateHierarchy(h));

  // Live progress (observational only; the writer thread never touches the
  // chain RNG streams, so heartbeat-enabled fits stay bit-reproducible).
  HeartbeatConfig hb_config = h.heartbeat;
  if (hb_config.label.empty()) hb_config.label = "fit streaming-hbp";
  HeartbeatMonitor heartbeat(hb_config, h.num_chains,
                             h.burn_in + h.samples);
  heartbeat.SetPhase("stream-shards");
  heartbeat.Start();

  // --- pass 1: stream shards into per-shard histograms ----------------------
  const size_t num_shards = shards.shards().size();
  std::vector<SuffHistogram> partials(num_shards);
  std::vector<std::uint64_t> shard_pipes(num_shards, 0);
  std::atomic<int> shards_done{0};
  heartbeat.ReportShards(0, static_cast<int>(num_shards));
  PIPERISK_RETURN_IF_ERROR(shards.ForEachShard(
      options.shard_window,
      [&](size_t shard, const data::RegionDataset& dataset) -> Status {
        PIPERISK_ASSIGN_OR_RETURN(ModelInput input,
                                  BuildShardInput(dataset, options));
        const std::vector<PipeCounts> counts = BuildPipeCounts(input);
        SuffHistogram& local = partials[shard];
        for (size_t i = 0; i < input.num_pipes(); ++i) {
          const int raw = RawFixedPipeGroupKey(input, i, options.scheme);
          local[{raw, counts[i].k, counts[i].n}] += 1;
        }
        shard_pipes[shard] = input.num_pipes();
        heartbeat.ReportShards(
            shards_done.fetch_add(1, std::memory_order_relaxed) + 1,
            static_cast<int>(num_shards));
        return Status::OK();
      }));

  // Merge in shard order. Weights are integers, so the merged histogram is
  // exactly what a single-pass in-memory build would produce.
  SuffHistogram merged;
  for (const SuffHistogram& partial : partials) {
    for (const auto& [key, weight] : partial) merged[key] += weight;
  }
  partials.clear();
  if (merged.empty()) {
    return Status::InvalidArgument(
        "no pipes of the requested category in any shard");
  }

  StreamingHbpFit fit;
  fit.c = h.c;
  for (std::uint64_t p : shard_pipes) fit.total_pipes += p;

  // Dense group space: sorted raw keys (canonical, shard-order-free).
  for (const auto& [key, weight] : merged) {
    const int raw = std::get<0>(key);
    if (fit.raw_keys.empty() || fit.raw_keys.back() != raw) {
      fit.raw_keys.push_back(raw);
    }
    fit.total_k +=
        static_cast<std::uint64_t>(std::get<1>(key)) *
        static_cast<std::uint64_t>(weight);
    fit.total_n +=
        static_cast<std::uint64_t>(std::get<2>(key)) *
        static_cast<std::uint64_t>(weight);
  }
  const int num_groups = static_cast<int>(fit.raw_keys.size());
  std::vector<std::vector<SuffClass>> classes(
      static_cast<size_t>(num_groups));
  for (const auto& [key, weight] : merged) {
    const auto it = std::lower_bound(fit.raw_keys.begin(), fit.raw_keys.end(),
                                     std::get<0>(key));
    const size_t g = static_cast<size_t>(it - fit.raw_keys.begin());
    classes[g].push_back(
        SuffClass{std::get<1>(key), std::get<2>(key), weight});
  }

  // Prior mean: the empirical pipe-year failure rate, exactly HbpModel's
  // formula over the pooled totals.
  double q0 = h.q0;
  if (q0 <= 0.0) {
    q0 = std::clamp(
        (static_cast<double>(fit.total_k) + 0.5) /
            std::max(static_cast<double>(fit.total_n), 1.0),
        1e-6, 0.5);
  }
  fit.q0 = q0;
  const double a0 = h.c0 * q0;
  const double b0 = h.c0 * (1.0 - q0);

  std::vector<double> init_q(static_cast<size_t>(num_groups), q0);
  for (int g = 0; g < num_groups; ++g) {
    double k_sum = 0.0, n_sum = 0.0;
    for (const SuffClass& cls : classes[static_cast<size_t>(g)]) {
      k_sum += static_cast<double>(cls.weight) * cls.k;
      n_sum += static_cast<double>(cls.weight) * cls.n;
    }
    init_q[static_cast<size_t>(g)] =
        std::clamp((k_sum + h.c0 * q0) / (n_sum + h.c0), 1e-6, 0.5);
  }

  auto group_loglik = [&](int g, double qg) {
    double ll = stats::LogPdfBeta(qg, a0, b0);
    const double mean = Clamp01(qg);
    const double a = h.c * mean;
    const double b = h.c * (1.0 - mean);
    for (const SuffClass& cls : classes[static_cast<size_t>(g)]) {
      ll += static_cast<double>(cls.weight) *
            LogMarginalNoBinom(cls.k, cls.n, a, b);
    }
    return ll;
  };

  // --- sampler: num_chains independent Metropolis-within-Gibbs chains ------
  // over the merged table. The table is tiny (groups x distinct (k, n)
  // pairs), so chains run serially; determinism needs only the fixed
  // per-chain streams.
  std::vector<double> rate_sum(static_cast<size_t>(num_groups), 0.0);
  std::vector<double> tilted_sum(static_cast<size_t>(num_groups), 0.0);
  long long collected = 0;
  const int total_sweeps = h.burn_in + h.samples;
  heartbeat.SetPhase("sweep");
  for (int chain = 0; chain < h.num_chains; ++chain) {
    stats::Rng rng(h.seed,
                   kStreamingHbpStream + static_cast<std::uint64_t>(chain));
    std::vector<double> q = init_q;
    std::vector<double> current_ll(static_cast<size_t>(num_groups));
    std::vector<StepSizeAdapter> adapters(static_cast<size_t>(num_groups));
    std::int64_t proposals = 0, accepts = 0;
    for (int g = 0; g < num_groups; ++g) {
      current_ll[static_cast<size_t>(g)] = group_loglik(g, q[static_cast<size_t>(g)]);
    }
    for (int iter = 0; iter < total_sweeps; ++iter) {
      for (int g = 0; g < num_groups; ++g) {
        const size_t gi = static_cast<size_t>(g);
        const LogitProposal prop =
            DrawLogitProposal(q[gi], adapters[gi].step(), &rng);
        const bool accepted = AcceptLogitProposal(
            prop, q[gi], prop.in_support ? group_loglik(g, prop.proposal) : 0.0,
            &current_ll[gi]);
        if (accepted) q[gi] = prop.proposal;
        if (iter < h.burn_in) adapters[gi].Update(accepted);
        ++proposals;
        accepts += accepted ? 1 : 0;
      }
      if (iter >= h.burn_in) {
        ++collected;
        double q_max = 0.0;
        for (int g = 0; g < num_groups; ++g) {
          const size_t gi = static_cast<size_t>(g);
          rate_sum[gi] += q[gi];
          tilted_sum[gi] += Clamp01(q[gi]);
          q_max = std::max(q_max, q[gi]);
        }
        heartbeat.ReportDraw(chain, q_max);
      }
      heartbeat.ReportSweep(chain, iter + 1);
      heartbeat.ReportAcceptance(chain, proposals, accepts);
    }
  }
  heartbeat.SetPhase("done");
  heartbeat.Stop();

  fit.group_rate_means.resize(static_cast<size_t>(num_groups));
  fit.group_tilted_means.resize(static_cast<size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    const size_t gi = static_cast<size_t>(g);
    fit.group_rate_means[gi] = rate_sum[gi] / static_cast<double>(collected);
    fit.group_tilted_means[gi] =
        tilted_sum[gi] / static_cast<double>(collected);
  }
  return fit;
}

Status ScoreStreamingHbp(const data::ShardedDataset& shards,
                         const StreamingHbpFit& fit,
                         const StreamingHbpOptions& options,
                         const std::string& out_path) {
  // Score-pass heartbeat: shard progress only (no chains, no sweeps).
  HeartbeatConfig hb_config = options.hierarchy.heartbeat;
  if (hb_config.label.empty()) hb_config.label = "score streaming-hbp";
  HeartbeatMonitor heartbeat(hb_config, /*num_chains=*/1, /*total_sweeps=*/0);
  heartbeat.SetPhase("score");
  heartbeat.Start();

  const size_t num_shards = shards.shards().size();
  std::vector<std::vector<std::pair<net::PipeId, double>>> rows(num_shards);
  std::atomic<int> shards_done{0};
  heartbeat.ReportShards(0, static_cast<int>(num_shards));
  PIPERISK_RETURN_IF_ERROR(shards.ForEachShard(
      options.shard_window,
      [&](size_t shard, const data::RegionDataset& dataset) -> Status {
        PIPERISK_ASSIGN_OR_RETURN(ModelInput input,
                                  BuildShardInput(dataset, options));
        const std::vector<PipeCounts> counts = BuildPipeCounts(input);
        auto& out = rows[shard];
        out.reserve(input.num_pipes());
        for (size_t i = 0; i < input.num_pipes(); ++i) {
          const int raw = RawFixedPipeGroupKey(input, i, options.scheme);
          const auto it = std::lower_bound(fit.raw_keys.begin(),
                                           fit.raw_keys.end(), raw);
          // Groups unseen at fit time (possible when scoring a different
          // dataset) fall back to the prior mean.
          const double q_mean =
              (it != fit.raw_keys.end() && *it == raw)
                  ? fit.group_tilted_means[static_cast<size_t>(
                        it - fit.raw_keys.begin())]
                  : Clamp01(fit.q0);
          const double score = PosteriorMeanRate(
              BetaParams{q_mean, fit.c}, counts[i].k, counts[i].n);
          out.emplace_back(input.pipes[i]->id, score);
        }
        heartbeat.ReportShards(
            shards_done.fetch_add(1, std::memory_order_relaxed) + 1,
            static_cast<int>(num_shards));
        return Status::OK();
      }));
  heartbeat.SetPhase("done");
  heartbeat.Stop();

  // Serial write in shard order: the scores artefact lists pipes exactly as
  // a streaming reader walks them. Row-at-a-time fprintf, never a whole
  // CSV document in memory.
  const std::string tmp = out_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open scores file for writing: " + tmp);
  }
  std::fputs("pipe_id,score\n", f);
  for (const auto& shard_rows : rows) {
    for (const auto& [id, score] : shard_rows) {
      std::fprintf(f, "%lld,%.10g\n", static_cast<long long>(id), score);
    }
  }
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) return Status::IoError("scores write failed: " + tmp);
  if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
    return Status::IoError("cannot rename scores into place: " + out_path);
  }
  return Status::OK();
}

}  // namespace core
}  // namespace piperisk
