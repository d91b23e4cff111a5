#include "core/hbp.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/strings.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/beta_bernoulli.h"
#include "core/chain_runner.h"
#include "core/covariates.h"
#include "core/mcmc.h"
#include "core/suffstats.h"
#include "core/sweep_parallel.h"
#include "stats/distributions.h"

namespace piperisk {
namespace core {

namespace {

constexpr double kRateFloor = 1e-7;
constexpr double kRateCeil = 1.0 - 1e-7;

/// Chain 0's PCG stream; kept from the single-chain era so `num_chains = 1`
/// reproduces historical fits bit-for-bit.
constexpr std::uint64_t kHbpStream = 0xC0FFEE;

/// Clamped covariate-scaled prior mean.
double TiltedMean(double q, double multiplier) {
  return std::clamp(q * multiplier, kRateFloor, kRateCeil);
}

/// Densifies arbitrary integer labels to [0, K).
std::vector<int> Densify(const std::vector<int>& raw) {
  std::unordered_map<int, int> remap;
  std::vector<int> labels(raw.size(), 0);
  for (size_t i = 0; i < raw.size(); ++i) {
    auto [it, inserted] = remap.emplace(raw[i], static_cast<int>(remap.size()));
    (void)inserted;
    labels[i] = it->second;
  }
  return labels;
}

/// Index of the (single) length column in the encoder layout, or -1.
int LengthColumnIndex(const ModelInput& input) {
  for (size_t c = 0; c < input.feature_names.size(); ++c) {
    if (input.feature_names[c] == "log_length_m") return static_cast<int>(c);
  }
  return -1;
}

}  // namespace

std::string_view ToString(GroupingScheme scheme) {
  switch (scheme) {
    case GroupingScheme::kMaterial:
      return "material";
    case GroupingScheme::kDiameterBand:
      return "diameter";
    case GroupingScheme::kLaidDecade:
      return "laid_decade";
    case GroupingScheme::kCoating:
      return "coating";
    case GroupingScheme::kSoilCorrosiveness:
      return "soil_corrosiveness";
    case GroupingScheme::kSingle:
      return "single";
  }
  return "?";
}

int RawFixedPipeGroupKey(const net::Network& network, const net::Pipe& p,
                         GroupingScheme scheme) {
  switch (scheme) {
    case GroupingScheme::kMaterial:
      return static_cast<int>(p.material);
    case GroupingScheme::kDiameterBand:
      return p.diameter_mm < 150    ? 0
             : p.diameter_mm < 250  ? 1
             : p.diameter_mm < 375  ? 2
             : p.diameter_mm < 500  ? 3
             : p.diameter_mm < 750  ? 4
                                    : 5;
    case GroupingScheme::kLaidDecade:
      return p.laid_year / 10;
    case GroupingScheme::kCoating:
      return static_cast<int>(p.coating);
    case GroupingScheme::kSoilCorrosiveness: {
      if (!p.segments.empty()) {
        auto segment = network.FindSegment(p.segments[0]);
        if (segment.ok()) {
          return static_cast<int>((*segment)->soil.corrosiveness);
        }
      }
      return 0;
    }
    case GroupingScheme::kSingle:
      return 0;
  }
  return 0;
}

int RawFixedPipeGroupKey(const ModelInput& input, size_t i,
                         GroupingScheme scheme) {
  return RawFixedPipeGroupKey(input.dataset->network, *input.pipes[i], scheme);
}

std::vector<int> AssignFixedPipeGroups(const ModelInput& input,
                                       GroupingScheme scheme) {
  std::vector<int> raw(input.num_pipes(), 0);
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    raw[i] = RawFixedPipeGroupKey(input, i, scheme);
  }
  return Densify(raw);
}

std::vector<double> FitSegmentMultipliers(const ModelInput& input,
                                          const HierarchyConfig& config) {
  std::vector<double> ones(input.num_segments(), 1.0);
  if (!config.use_covariates || input.num_segments() == 0 ||
      input.feature_dim() == 0) {
    return ones;
  }
  // The multiplicative covariate effect is estimated at *pipe* level —
  // counts pooled across a pipe's segments give a far better-conditioned
  // Poisson regression than the nearly-all-zero segment rows — with pipe
  // length as *exposure* (offset), not as a feature: the DPMHBP handles
  // length structurally through segment decomposition. The fitted weights
  // are then evaluated on each segment's own features (soil, traffic, ...
  // vary along the pipe).
  const int len_col = LengthColumnIndex(input);
  std::vector<std::vector<double>> rows;
  std::vector<double> counts, exposures;
  rows.reserve(input.num_pipes());
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    std::vector<double> row = input.pipe_features[i];
    if (len_col >= 0) row[static_cast<size_t>(len_col)] = 0.0;
    rows.push_back(std::move(row));
    // Counts are segment failure-years, not raw failure records: repeat
    // failures are escalation/cohort noise with respect to the covariates
    // and would contaminate the regression toward history-heavy pipes.
    double failure_years = 0.0;
    double years = 1.0;
    for (size_t seg_row : input.pipe_segment_rows[i]) {
      failure_years += input.segment_counts[seg_row].k;
      years = std::max(years,
                       static_cast<double>(input.segment_counts[seg_row].n));
    }
    counts.push_back(failure_years);
    double len_km = std::max(input.outcomes[i].length_m / 1000.0, 0.01);
    exposures.push_back(years * len_km);
  }
  PoissonRegressionConfig prc;
  prc.ridge = config.ridge;
  auto fit = PoissonRegression::Fit(rows, counts, exposures, prc);
  if (!fit.ok()) return ones;

  // Evaluate the fitted weights on segment features (length zeroed there
  // too) and normalise to mean 1.
  std::vector<std::vector<double>> seg_rows;
  seg_rows.reserve(input.num_segments());
  for (size_t row = 0; row < input.num_segments(); ++row) {
    std::vector<double> r = input.segment_features[row];
    if (len_col >= 0) r[static_cast<size_t>(len_col)] = 0.0;
    seg_rows.push_back(std::move(r));
  }
  return NormalisedMultipliers(*fit, seg_rows, config.min_multiplier,
                               config.max_multiplier);
}

std::vector<double> AggregatePipeRisk(const ModelInput& input,
                                      const std::vector<double>& segment_probs) {
  // One aggregation kernel for serial and parallel callers: the blocked
  // engine at a single thread is the historical loop, bit for bit.
  if (input.segment_index.num_pipes() == input.num_pipes()) {
    return AggregateSegmentRisk(input.segment_index, segment_probs,
                                ScoreOptions());
  }
  return AggregateSegmentRisk(
      PipeSegmentIndex::FromRows(input.pipe_segment_rows), segment_probs,
      ScoreOptions());
}

PipeCounts CountPipeYears(const data::RegionDataset& dataset,
                          const data::TemporalSplit& split,
                          const net::Pipe& p) {
  PipeCounts counts;
  for (net::Year y = split.train_first; y <= split.train_last; ++y) {
    if (p.laid_year > y) continue;
    counts.n += 1;
    if (dataset.failures.CountForPipe(p.id, y, y) > 0) counts.k += 1;
  }
  return counts;
}

std::vector<PipeCounts> BuildPipeCounts(const ModelInput& input) {
  std::vector<PipeCounts> counts(input.num_pipes());
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    counts[i] = CountPipeYears(*input.dataset, input.split, *input.pipes[i]);
  }
  return counts;
}

HbpModel::HbpModel(GroupingScheme scheme, HierarchyConfig config)
    : scheme_(scheme), config_(config) {}

std::string HbpModel::name() const {
  return "HBP(" + std::string(ToString(scheme_)) + ")";
}

Status ValidateHierarchy(const HierarchyConfig& config) {
  if (config.burn_in < 0) {
    return Status::InvalidArgument(
        StrFormat("burn_in must be >= 0 (got %d)", config.burn_in));
  }
  if (config.samples <= 0) {
    return Status::InvalidArgument("samples must be > 0");
  }
  if (config.num_chains < 1) {
    return Status::InvalidArgument("num_chains must be >= 1");
  }
  for (double c : {config.c, config.c0}) {
    if (!std::isfinite(c) || c <= 0.0) {
      return Status::InvalidArgument(StrFormat(
          "concentrations must be finite and > 0 (c=%g, c0=%g)", config.c,
          config.c0));
    }
  }
  return Status::OK();
}

Status HbpModel::Fit(const ModelInput& input) {
  const size_t n = input.num_pipes();
  if (n == 0) return Status::InvalidArgument("no pipes to fit");
  PIPERISK_RETURN_IF_ERROR(ValidateHierarchy(config_));
  // Within-chain partitioning: HBP groups are fixed, so the whole sweep is
  // an independent per-group Metropolis scan, run as a pre-draw /
  // parallel-eval / ordered-merge split; draws never depend on
  // sweep_threads. Scheduling is capped at real capacity: output is
  // scheduling-independent, so a 1-core machine evaluates inline.
  const int exec_threads =
      std::min(ResolveSweepThreads(config_.sweep_threads),
               ThreadPool::Shared().num_workers() + 1);
  labels_ = AssignFixedPipeGroups(input, scheme_);
  const int num_groups = 1 + *std::max_element(labels_.begin(), labels_.end());
  std::vector<PipeCounts> counts = BuildPipeCounts(input);

  // Covariate multipliers from pipe features, with the length column
  // removed: the HBP baseline is length-blind by construction.
  std::vector<double> multipliers(n, 1.0);
  if (config_.use_covariates && input.feature_dim() > 0) {
    int len_col = LengthColumnIndex(input);
    std::vector<std::vector<double>> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> row = input.pipe_features[i];
      if (len_col >= 0) row[static_cast<size_t>(len_col)] = 0.0;
      rows.push_back(std::move(row));
    }
    std::vector<double> ks(n), ns(n);
    for (size_t i = 0; i < n; ++i) {
      ks[i] = static_cast<double>(counts[i].k);
      ns[i] = std::max(1.0, static_cast<double>(counts[i].n));
    }
    PoissonRegressionConfig prc;
    prc.ridge = config_.ridge;
    auto fit = PoissonRegression::Fit(rows, ks, ns, prc);
    if (fit.ok()) {
      multipliers = NormalisedMultipliers(*fit, rows, config_.min_multiplier,
                                          config_.max_multiplier);
    }
  }

  // Empirical prior mean when unset (pipe-year failure rate).
  double total_k = 0.0, total_n = 0.0;
  for (const auto& c : counts) {
    total_k += c.k;
    total_n += c.n;
  }
  double q0 = config_.q0;
  if (q0 <= 0.0) {
    q0 = std::clamp((total_k + 0.5) / std::max(total_n, 1.0), 1e-6, 0.5);
  }
  const double a0 = config_.c0 * q0;
  const double b0 = config_.c0 * (1.0 - q0);

  std::vector<double> k_sum(static_cast<size_t>(num_groups), 0.0);
  std::vector<double> n_sum(static_cast<size_t>(num_groups), 0.0);
  for (size_t i = 0; i < n; ++i) {
    k_sum[static_cast<size_t>(labels_[i])] += counts[i].k;
    n_sum[static_cast<size_t>(labels_[i])] += counts[i].n;
  }
  std::vector<double> init_q(static_cast<size_t>(num_groups));
  for (size_t g = 0; g < init_q.size(); ++g) {
    init_q[g] = std::clamp(
        (k_sum[g] + config_.c0 * q0) / (n_sum[g] + config_.c0), 1e-6, 0.5);
  }

  // Sufficient-statistic deduplication: pipes with identical
  // (k, n, multiplier) triples contribute identical collapsed likelihoods,
  // so a group's member sum collapses to sum_cls hist[cls] * loglik(cls).
  // Groupings are fixed for the HBP, so the class histograms are built once.
  std::vector<double> pipe_k(n), pipe_n(n);
  for (size_t i = 0; i < n; ++i) {
    pipe_k[i] = counts[i].k;
    pipe_n[i] = counts[i].n;
  }
  const SuffStatClasses classes = SuffStatClasses::Build(
      pipe_k, pipe_n, multipliers, config_.c, kRateFloor, kRateCeil);
  const size_t num_classes = classes.num_classes();
  std::vector<double> hist(static_cast<size_t>(num_groups) * num_classes,
                           0.0);
  for (size_t i = 0; i < n; ++i) {
    hist[static_cast<size_t>(labels_[i]) * num_classes +
         classes.row_class(i)] += 1.0;
  }
  auto group_loglik = [&](int g, double qg) {
    double ll = stats::LogPdfBeta(qg, a0, b0);
    const double* hist_g = hist.data() + static_cast<size_t>(g) * num_classes;
    for (size_t cls = 0; cls < num_classes; ++cls) {
      if (hist_g[cls] != 0.0) ll += hist_g[cls] * classes.ClassLogLik(cls, qg);
    }
    return ll;
  };

  // Per-chain accumulators; each chain owns exactly one slot so the parallel
  // runner needs no locking.
  struct ChainDraws {
    std::vector<double> prob_sum;
    std::vector<double> rate_sum;
    std::vector<std::vector<double>> traces;  // [group][draw]
    int collected = 0;
    /// Chain-confined telemetry tallies (flushed after pooling).
    std::uint64_t proposals = 0;
    std::uint64_t accepts = 0;
  };
  const int num_chains = config_.num_chains;
  std::vector<ChainDraws> draws(static_cast<size_t>(num_chains));

  // Mutable sampler state of one chain, separated from the accumulated
  // draws so the checkpoint runner can re-initialise or restore a chain
  // wholesale. `current_ll` caches each group's log target at its current
  // rate; it is recomputed (bit-identically — same deterministic function at
  // the same rates) rather than checkpointed.
  struct ChainState {
    std::vector<double> q;
    std::vector<StepSizeAdapter> adapters;
    std::vector<double> current_ll;
    telemetry::Counter* sweep_counter = nullptr;
    // Per-sweep proposal scratch (allocation reuse only; never checkpointed).
    std::vector<LogitProposal> props;
    std::vector<double> prop_ll;
  };
  std::vector<ChainState> states(static_cast<size_t>(num_chains));
  for (int c = 0; c < num_chains; ++c) {
    states[static_cast<size_t>(c)].sweep_counter = ChainSweepCounter(c);
  }

  auto refresh_current_ll = [&](ChainState& s) {
    s.current_ll.assign(static_cast<size_t>(num_groups), 0.0);
    for (int g = 0; g < num_groups; ++g) {
      s.current_ll[static_cast<size_t>(g)] = group_loglik(g, s.q[g]);
    }
  };

  auto init_chain = [&](int chain) {
    ChainState& s = states[static_cast<size_t>(chain)];
    ChainDraws& out = draws[static_cast<size_t>(chain)];
    out = ChainDraws();
    out.prob_sum.assign(n, 0.0);
    out.rate_sum.assign(static_cast<size_t>(num_groups), 0.0);
    out.traces.assign(static_cast<size_t>(num_groups), {});
    s.q = init_q;
    s.adapters.assign(static_cast<size_t>(num_groups), StepSizeAdapter());
    refresh_current_ll(s);
  };

  auto sweep_chain = [&](int chain, int iter, stats::Rng* rng) {
    ChainState& s = states[static_cast<size_t>(chain)];
    ChainDraws& out = draws[static_cast<size_t>(chain)];
    telemetry::ScopedSpan sweep_span("hbp.sweep");
    (exec_threads > 1 ? SweepMetrics::Get().parallel_sweeps
                      : SweepMetrics::Get().serial_sweeps)
        ->Increment();
    // Proposals pre-drawn in canonical group order (the fused step's exact
    // RNG consumption), pure log targets evaluated over the pool, decisions
    // merged back in group order.
    s.props.clear();
    for (int g = 0; g < num_groups; ++g) {
      s.props.push_back(DrawLogitProposal(
          s.q[static_cast<size_t>(g)],
          s.adapters[static_cast<size_t>(g)].step(), rng));
    }
    s.prop_ll.assign(static_cast<size_t>(num_groups), 0.0);
    const int blocks = std::min(num_groups, exec_threads);
    ThreadPool::Shared().ParallelFor(blocks, exec_threads, [&](int b) {
      auto [lo, hi] = BlockRange(static_cast<size_t>(num_groups), blocks, b);
      for (size_t g = lo; g < hi; ++g) {
        if (s.props[g].in_support) {
          s.prop_ll[g] =
              group_loglik(static_cast<int>(g), s.props[g].proposal);
        }
      }
    });
    for (int g = 0; g < num_groups; ++g) {
      const size_t gi = static_cast<size_t>(g);
      const bool accepted = AcceptLogitProposal(
          s.props[gi], s.q[gi], s.prop_ll[gi], &s.current_ll[gi]);
      if (accepted) s.q[gi] = s.props[gi].proposal;
      if (iter < config_.burn_in) s.adapters[gi].Update(accepted);
      ++out.proposals;
      out.accepts += accepted ? 1 : 0;
    }
    if (iter >= config_.burn_in) {
      ++out.collected;
      for (int g = 0; g < num_groups; ++g) {
        out.rate_sum[static_cast<size_t>(g)] += s.q[g];
        out.traces[static_cast<size_t>(g)].push_back(s.q[g]);
      }
      for (size_t i = 0; i < n; ++i) {
        double mean =
            TiltedMean(s.q[static_cast<size_t>(labels_[i])], multipliers[i]);
        BetaParams prior{mean, config_.c};
        out.prob_sum[i] += PosteriorMeanRate(prior, counts[i].k,
                                             counts[i].n);
      }
    }
    s.sweep_counter->Increment();
  };

  auto capture_chain = [&](int chain, ChainCheckpoint* ckpt) {
    const ChainState& s = states[static_cast<size_t>(chain)];
    const ChainDraws& out = draws[static_cast<size_t>(chain)];
    ckpt->group_q = s.q;
    ckpt->adapters.reserve(s.adapters.size());
    for (const StepSizeAdapter& a : s.adapters) {
      const StepSizeAdapter::State st = a.SaveState();
      ckpt->adapters.push_back(
          AdapterCheckpoint{st.step, st.proposals, st.accepts});
    }
    ckpt->prob_sum = out.prob_sum;
    ckpt->rate_sum = out.rate_sum;
    ckpt->group_traces = out.traces;
    ckpt->collected = out.collected;
    ckpt->proposals = out.proposals;
    ckpt->accepts = out.accepts;
  };

  auto restore_chain = [&](int chain, const ChainCheckpoint& ckpt) -> Status {
    if (ckpt.group_q.size() != static_cast<size_t>(num_groups) ||
        ckpt.adapters.size() != static_cast<size_t>(num_groups) ||
        ckpt.rate_sum.size() != static_cast<size_t>(num_groups) ||
        ckpt.group_traces.size() != static_cast<size_t>(num_groups) ||
        ckpt.prob_sum.size() != n) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint for chain %d does not match the current grouping "
          "(%zu groups over %zu pipes)",
          chain, static_cast<size_t>(num_groups), n));
    }
    ChainState& s = states[static_cast<size_t>(chain)];
    ChainDraws& out = draws[static_cast<size_t>(chain)];
    out = ChainDraws();
    out.prob_sum = ckpt.prob_sum;
    out.rate_sum = ckpt.rate_sum;
    out.traces = ckpt.group_traces;
    out.collected = static_cast<int>(ckpt.collected);
    out.proposals = ckpt.proposals;
    out.accepts = ckpt.accepts;
    s.q = ckpt.group_q;
    s.adapters.assign(static_cast<size_t>(num_groups), StepSizeAdapter());
    for (size_t g = 0; g < ckpt.adapters.size(); ++g) {
      s.adapters[g].RestoreState(StepSizeAdapter::State{
          ckpt.adapters[g].step, ckpt.adapters[g].proposals,
          ckpt.adapters[g].accepts});
    }
    refresh_current_ll(s);
    return Status::OK();
  };

  Fingerprint fp;
  fp.Add("hbp")
      .Add(ToString(scheme_))
      .Add(static_cast<std::uint64_t>(n))
      .Add(num_groups)
      .Add(config_.seed)
      .Add(config_.num_chains)
      .Add(config_.burn_in)
      .Add(config_.samples)
      .Add(q0)
      .Add(config_.c0)
      .Add(config_.c)
      .Add(config_.use_covariates)
      .Add(config_.ridge)
      .Add(config_.min_multiplier)
      .Add(config_.max_multiplier)
      .Add(total_k)
      .Add(total_n);

  ChainRunnerOptions run_options;
  run_options.num_chains = num_chains;
  run_options.num_threads = config_.num_threads;
  run_options.seed = config_.seed;
  run_options.stream = kHbpStream;
  run_options.total_sweeps = config_.burn_in + config_.samples;
  run_options.fingerprint = fp.digest();
  run_options.checkpoint = config_.checkpoint;
  if (run_options.checkpoint.tag.empty()) {
    run_options.checkpoint.tag = "hbp_" + std::string(ToString(scheme_));
  }
  run_options.heartbeat = config_.heartbeat;
  if (run_options.heartbeat.label.empty()) {
    run_options.heartbeat.label =
        "fit hbp_" + std::string(ToString(scheme_));
  }

  ChainProgram program;
  program.init = init_chain;
  program.sweep = sweep_chain;
  program.capture = capture_chain;
  program.restore = restore_chain;
  // Heartbeat feeds: the max group rate of the latest retained draw (the
  // grouping is fixed, so the max is stable and comparable across chains).
  program.monitor = [&](int chain, int iter, double* value) {
    if (iter < config_.burn_in) return false;
    const ChainDraws& d = draws[static_cast<size_t>(chain)];
    double max_rate = 0.0;
    bool have = false;
    for (const std::vector<double>& trace : d.traces) {
      if (trace.empty()) return false;
      max_rate = have ? std::max(max_rate, trace.back()) : trace.back();
      have = true;
    }
    if (!have) return false;
    *value = max_rate;
    return true;
  };
  program.acceptance = [&](int chain, std::int64_t* proposals,
                           std::int64_t* accepted) {
    const ChainDraws& d = draws[static_cast<size_t>(chain)];
    *proposals = static_cast<std::int64_t>(d.proposals);
    *accepted = static_cast<std::int64_t>(d.accepts);
  };

  PIPERISK_ASSIGN_OR_RETURN(const ChainRunReport report,
                            RunCheckpointedChains(run_options, program));
  std::vector<char> chain_failed(static_cast<size_t>(num_chains), 0);
  for (int c : report.failed_chains) {
    chain_failed[static_cast<size_t>(c)] = 1;
  }

  // Pool the surviving chains in deterministic chain order: posterior means
  // over every chain's draws, concatenated per-group traces, and the
  // per-chain traces for R̂.
  pipe_probs_.assign(n, 0.0);
  group_rate_means_.assign(static_cast<size_t>(num_groups), 0.0);
  traces_.assign(static_cast<size_t>(num_groups), {});
  chain_traces_.clear();
  long long collected = 0;
  for (int c = 0; c < num_chains; ++c) {
    if (chain_failed[static_cast<size_t>(c)]) continue;
    const ChainDraws& d = draws[static_cast<size_t>(c)];
    collected += d.collected;
    for (size_t i = 0; i < n; ++i) pipe_probs_[i] += d.prob_sum[i];
    for (int g = 0; g < num_groups; ++g) {
      group_rate_means_[static_cast<size_t>(g)] +=
          d.rate_sum[static_cast<size_t>(g)];
      traces_[static_cast<size_t>(g)].insert(
          traces_[static_cast<size_t>(g)].end(),
          d.traces[static_cast<size_t>(g)].begin(),
          d.traces[static_cast<size_t>(g)].end());
    }
    chain_traces_.push_back(d.traces);
  }
  if (collected == 0) {
    return Status::Internal("no post-burn-in draws were collected");
  }
  for (double& p : pipe_probs_) p /= static_cast<double>(collected);
  for (double& g : group_rate_means_) g /= static_cast<double>(collected);

  // Flush the chain-confined telemetry tallies now that pooling is done.
  {
    std::uint64_t proposals = 0;
    std::uint64_t accepts = 0;
    for (int c = 0; c < num_chains; ++c) {
      if (chain_failed[static_cast<size_t>(c)]) continue;
      const ChainDraws& d = draws[static_cast<size_t>(c)];
      proposals += d.proposals;
      accepts += d.accepts;
    }
    auto& registry = telemetry::Registry::Global();
    static telemetry::Counter* const draws_collected =
        registry.GetCounter("mcmc.draws_collected");
    draws_collected->Add(collected);
    registry.GetGauge("mcmc.acceptance_rate")
        ->Set(proposals > 0
                  ? static_cast<double>(accepts) / static_cast<double>(proposals)
                  : 0.0);
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> HbpModel::ScorePipes(const ModelInput& input) {
  if (!fitted_) return Status::FailedPrecondition("HbpModel not fitted");
  if (input.num_pipes() != pipe_probs_.size()) {
    return Status::InvalidArgument("input does not match fitted state");
  }
  return pipe_probs_;
}

}  // namespace core
}  // namespace piperisk
