#include "core/dpmhbp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include <span>

#include "common/strings.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/beta_bernoulli.h"
#include "core/chain_runner.h"
#include "core/crp.h"
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
constexpr std::uint64_t kDpmhbpStream = 0xD1EC1;

/// Rows per chunk of the pipelined CRP pass. Fixed: scheduling only, it
/// never reaches the draws.
constexpr size_t kCrpChunkRows = 1024;

double TiltedMean(double q, double multiplier) {
  return std::clamp(q * multiplier, kRateFloor, kRateCeil);
}

/// Mutable sampler state for one occupied group.
struct Group {
  double q = 0.01;
  int count = 0;
  StepSizeAdapter adapter;
  /// Bumped whenever q changes (Metropolis accept, new table seated); keys
  /// the per-sweep likelihood cache so unchanged groups pay zero lgammas.
  std::uint64_t q_version = 0;
};

/// Everything one chain produces; each chain owns exactly one slot so the
/// parallel runner needs no locking.
struct ChainDraws {
  std::vector<double> prob_sum;  ///< per-segment sum of posterior-mean draws
  std::vector<int> k_trace;
  std::vector<double> alpha_trace;
  std::vector<double> qmax_trace;
  std::vector<int> labels;  ///< final sweep
  int collected = 0;
  /// Chain-confined telemetry tallies (plain increments on the chain's own
  /// slot; flushed into the process-wide registry after pooling).
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

}  // namespace

DpmhbpModel::DpmhbpModel(DpmhbpConfig config) : config_(config) {}

void DpmhbpModel::SetWarmStart(std::vector<ChainCheckpoint> state) {
  warm_in_ = std::move(state);
  has_warm_ = true;
}

double DpmhbpModel::mean_num_groups() const {
  if (k_trace_.empty()) return 0.0;
  double s = std::accumulate(k_trace_.begin(), k_trace_.end(), 0.0);
  return s / static_cast<double>(k_trace_.size());
}

Status DpmhbpModel::Fit(const ModelInput& input) {
  const size_t n = input.num_segments();
  if (n == 0) return Status::InvalidArgument("no segments to fit");
  const HierarchyConfig& h = config_.hierarchy;
  if (h.samples <= 0) return Status::InvalidArgument("samples must be > 0");
  PIPERISK_RETURN_IF_ERROR(ValidateConcentrations(h));
  if (h.num_chains < 1) {
    return Status::InvalidArgument("num_chains must be >= 1");
  }
  if (config_.auxiliary_components < 1) {
    return Status::InvalidArgument("need >= 1 auxiliary component");
  }
  if (h.fast_sweeps && !h.dedup_suffstats) {
    return Status::InvalidArgument("fast_sweeps requires dedup_suffstats");
  }
  SetSimdMode(h.simd);
  // Within-chain partitioning plan: `sweep_threads` resolves once per fit.
  // Deterministic mode is bit-identical at every setting (the serial path is
  // taken verbatim at 1); fast mode's shard layout depends on the resolved
  // count, which the fingerprint then covers.
  const int sweep_threads = ResolveSweepThreads(h.sweep_threads);
  const bool use_fast = h.fast_sweeps;
  // Scheduling width is capped at the machine's real capacity: deterministic
  // output never depends on how the work is scheduled, so oversubscribing a
  // small machine would buy pure queue overhead. Fast mode's SHARD count
  // stays `sweep_threads` regardless (the shard layout is part of the
  // sampler's definition and must reproduce across machines); only its
  // execution width is capped.
  const int exec_threads = std::min(
      sweep_threads, ThreadPool::Shared().num_workers() + 1);
  const bool parallel_sweep = use_fast || exec_threads > 1;

  // Warm start: usable only when the injected state matches this input's
  // chain count and segment count, with internally consistent group
  // sections — otherwise fall back to a cold fit. One-shot: the armed state
  // is consumed whether or not it was usable.
  std::vector<ChainCheckpoint> warm = std::move(warm_in_);
  bool use_warm =
      has_warm_ && warm.size() == static_cast<size_t>(h.num_chains);
  for (const ChainCheckpoint& c : warm) {
    if (!use_warm) break;
    use_warm = c.labels.size() == n &&
               c.group_count.size() == c.group_q.size() &&
               c.adapters.size() == c.group_q.size();
    for (int label : c.labels) {
      if (label < 0 || static_cast<size_t>(label) >= c.group_q.size()) {
        use_warm = false;
        break;
      }
    }
  }
  has_warm_ = false;
  warm_in_.clear();
  const int burn_in =
      use_warm ? (h.warm_burn_in >= 0 ? h.warm_burn_in
                                      : std::max(1, h.burn_in / 4))
               : h.burn_in;

  // Shared read-only inputs, computed once: the covariate multipliers and
  // the empirical top-level prior mean. Every chain sees identical values.
  const std::vector<double> multipliers = FitSegmentMultipliers(input, h);
  double total_k = 0.0, total_n = 0.0;
  for (const auto& c : input.segment_counts) {
    total_k += c.k;
    total_n += c.n;
  }
  double q0 = h.q0;
  if (q0 <= 0.0) {
    q0 = std::clamp((total_k + 0.5) / std::max(total_n, 1.0), 1e-6, 0.5);
  }
  const double a0 = h.c0 * q0;
  const double b0 = h.c0 * (1.0 - q0);

  // Deterministic initial partition: quantile bins of a crude per-segment
  // risk score, so chains start from a reasonable shared partition rather
  // than one giant table.
  const int init_k = std::max(1, config_.initial_groups);
  std::vector<int> init_labels(n, 0);
  {
    std::vector<double> crude(n);
    for (size_t row = 0; row < n; ++row) {
      const auto& c = input.segment_counts[row];
      crude[row] = multipliers[row] * (c.k + 0.3) / std::max(1, c.n);
    }
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return crude[a] < crude[b]; });
    for (size_t pos = 0; pos < n; ++pos) {
      init_labels[order[pos]] =
          static_cast<int>(pos * static_cast<size_t>(init_k) / n);
    }
  }
  std::vector<double> init_q(static_cast<size_t>(init_k));
  {
    std::vector<double> k_sum(init_q.size(), 0.0), n_sum(init_q.size(), 0.0);
    for (size_t row = 0; row < n; ++row) {
      k_sum[static_cast<size_t>(init_labels[row])] +=
          input.segment_counts[row].k;
      n_sum[static_cast<size_t>(init_labels[row])] +=
          input.segment_counts[row].n;
    }
    for (size_t g = 0; g < init_q.size(); ++g) {
      init_q[g] = std::clamp((k_sum[g] + h.c0 * q0) / (n_sum[g] + h.c0), 1e-6,
                             0.5);
    }
  }

  // Collapsed-in-rho log likelihood of segment row under group rate qg.
  // Pure function of read-only state: safe to share across chains.
  auto seg_loglik = [&](size_t row, double qg) {
    const auto& c = input.segment_counts[row];
    double mean = TiltedMean(qg, multipliers[row]);
    return LogMarginalNoBinom(c.k, c.n, h.c * mean, h.c * (1.0 - mean));
  };

  // Sufficient-statistic equivalence classes: segments with identical
  // (k, n, multiplier) triples share every collapsed likelihood value, so
  // the deduplicated hot path evaluates per class instead of per row.
  std::vector<double> seg_k(n), seg_n(n);
  for (size_t row = 0; row < n; ++row) {
    seg_k[row] = input.segment_counts[row].k;
    seg_n[row] = input.segment_counts[row].n;
  }
  const SuffStatClasses classes = SuffStatClasses::Build(
      seg_k, seg_n, multipliers, h.c, kRateFloor, kRateCeil);
  const size_t num_classes = classes.num_classes();
  // log(count) lookup table (counts never exceed n), so the CRP weight loop
  // does no transcendental work per occupied group.
  std::vector<double> log_count(n + 1, 0.0);
  for (size_t cnt = 1; cnt <= n; ++cnt) {
    log_count[cnt] = std::log(static_cast<double>(cnt));
  }

  const int num_chains = h.num_chains;
  std::vector<ChainDraws> draws(static_cast<size_t>(num_chains));

  // Mutable sampler state of one chain, kept apart from the accumulated
  // draws so the checkpoint runner can re-initialise or restore a chain
  // wholesale (retry after failure, resume after crash). The scratch vectors
  // are part of the state only for allocation reuse — their contents never
  // survive a sweep and are not checkpointed.
  struct ChainState {
    std::vector<Group> groups;
    double alpha = 0.0;
    GroupLikelihoodCache cache;
    std::vector<double> log_weights, sample_scratch, aux_q, hist;
    // Pipelined CRP pass: a three-chunk ring of auxiliary rates, their
    // weights and the rows' uniforms, plus the assign stage's column table.
    std::vector<double> pipe_aux_q, pipe_aux_ll, pipe_u;
    std::vector<const double*> cols;
    telemetry::Counter* sweep_counter = nullptr;
    // Within-chain partitioning scratch (allocation reuse only; nothing here
    // survives a sweep or is checkpointed).
    std::vector<SuffStatClasses::ColumnScratch> column_scratch;
    std::vector<size_t> stale;
    std::vector<size_t> prop_groups;
    std::vector<LogitProposal> props;
    std::vector<double> prop_ll;
    std::vector<double> current_ll;
    struct ShardScratch {
      std::vector<double> log_weights, sample_scratch, aux_q;
    };
    std::vector<ShardScratch> fast_scratch;
    std::vector<size_t> fast_choice;
    std::vector<double> fast_new_q;
    explicit ChainState(const SuffStatClasses* cls) : cache(cls) {}
  };
  std::vector<std::unique_ptr<ChainState>> states;
  states.reserve(static_cast<size_t>(num_chains));
  for (int c = 0; c < num_chains; ++c) {
    states.push_back(std::make_unique<ChainState>(&classes));
    states.back()->sweep_counter = ChainSweepCounter(c);
  }

  // Concentration resampling + draw collection, identical for both sampler
  // paths (steps 3 and 4 of a sweep).
  auto finish_sweep = [&](int iter, std::vector<Group>& groups, double* alpha,
                          ChainDraws* out, stats::Rng* rng) {
    // --- (3) Resample the DP concentration ------------------------------
    size_t occupied = 0;
    for (const Group& g : groups) occupied += g.count > 0 ? 1 : 0;
    if (config_.resample_alpha) {
      *alpha = ResampleCrpConcentration(*alpha, occupied, n,
                                        config_.alpha_prior_shape,
                                        config_.alpha_prior_rate, rng);
      *alpha = std::clamp(*alpha, 1e-3, 1e3);
    }

    // --- (4) Collect -----------------------------------------------------
    if (iter >= burn_in) {
      ++out->collected;
      out->k_trace.push_back(static_cast<int>(occupied));
      out->alpha_trace.push_back(*alpha);
      double qmax = 0.0;
      for (const Group& g : groups) {
        if (g.count > 0) qmax = std::max(qmax, g.q);
      }
      out->qmax_trace.push_back(qmax);
      for (size_t row = 0; row < n; ++row) {
        const auto& c = input.segment_counts[row];
        double mean = TiltedMean(
            groups[static_cast<size_t>(out->labels[row])].q,
            multipliers[row]);
        BetaParams prior{mean, h.c};
        out->prob_sum[row] += PosteriorMeanRate(prior, c.k, c.n);
      }
    }
  };

  // Builds a fresh chain: shared deterministic initial partition, empty
  // accumulators. Also the retry-from-scratch path, so it must reset
  // everything a previous attempt may have touched.
  auto init_chain = [&](int chain) {
    ChainState& s = *states[static_cast<size_t>(chain)];
    ChainDraws& out = draws[static_cast<size_t>(chain)];
    out = ChainDraws();
    out.prob_sum.assign(n, 0.0);
    if (use_warm) {
      // Sampler state only (partition, group rates, adapters, alpha);
      // counts are recomputed from the labels, and accumulators, cache and
      // the chain RNG stream start fresh for the new data.
      const ChainCheckpoint& w = warm[static_cast<size_t>(chain)];
      out.labels = w.labels;
      s.groups.assign(w.group_q.size(), Group());
      for (size_t g = 0; g < w.group_q.size(); ++g) {
        s.groups[g].q = w.group_q[g];
        s.groups[g].adapter.RestoreState(StepSizeAdapter::State{
            w.adapters[g].step, w.adapters[g].proposals,
            w.adapters[g].accepts});
      }
      for (size_t row = 0; row < n; ++row) {
        s.groups[static_cast<size_t>(out.labels[row])].count += 1;
      }
      s.alpha = std::clamp(w.alpha, 1e-3, 1e3);
    } else {
      out.labels = init_labels;
      s.groups.assign(init_q.size(), Group());
      for (size_t g = 0; g < s.groups.size(); ++g) s.groups[g].q = init_q[g];
      for (size_t row = 0; row < n; ++row) {
        s.groups[static_cast<size_t>(out.labels[row])].count += 1;
      }
      s.alpha = config_.alpha;
    }
    s.cache = GroupLikelihoodCache(&classes);
    s.aux_q.assign(static_cast<size_t>(config_.auxiliary_components), 0.0);
  };

  // --- Within-chain partitioning helpers (see core/sweep_parallel.h) ----

  // Refreshes every column in s.stale over the shared pool. Distinct groups
  // write disjoint slots; each block owns its own scratch, so the section is
  // race-free and the columns are bit-identical to serial refreshes.
  auto refresh_stale_columns = [&](ChainState& s) {
    if (s.stale.empty()) return;
    const int blocks = static_cast<int>(
        std::min(s.stale.size(), static_cast<size_t>(exec_threads)));
    if (s.column_scratch.size() < static_cast<size_t>(blocks)) {
      s.column_scratch.resize(static_cast<size_t>(blocks));
    }
    ThreadPool::Shared().ParallelFor(blocks, exec_threads, [&](int b) {
      auto [lo, hi] = BlockRange(s.stale.size(), blocks, b);
      for (size_t i = lo; i < hi; ++i) {
        const size_t g = s.stale[i];
        s.cache.RefreshSlot(g, s.groups[g].q_version, s.groups[g].q,
                            &s.column_scratch[static_cast<size_t>(b)]);
      }
    });
    SweepMetrics::Get().column_refreshes->Add(
        static_cast<std::int64_t>(s.stale.size()));
  };

  // Collects the occupied groups whose cached column is stale, then
  // refreshes them in parallel. Returns the number of occupied groups.
  auto prefetch_columns = [&](ChainState& s) {
    s.cache.EnsureSlots(s.groups.size());
    s.stale.clear();
    size_t occupied = 0;
    for (size_t g = 0; g < s.groups.size(); ++g) {
      if (s.groups[g].count == 0) continue;
      ++occupied;
      if (s.cache.NeedsRefresh(g, s.groups[g].q_version)) s.stale.push_back(g);
    }
    refresh_stale_columns(s);
    return occupied;
  };

  // --- (1) CRP reassignment of every segment (Neal's algorithm 8) ---
  // Weight of an occupied group = log(count) + cached class loglik; the
  // cache column is refreshed only when the group's rate version moved.
  //
  // The row loop's only RNG use is `auxiliary_components` SampleBeta(a0, b0)
  // draws then one uniform per row, and a0, b0 are fixed for the fit, so
  // the pass's whole draw sequence depends only on the RNG state at its
  // start. The pass is therefore a three-stage pipeline over fixed chunks
  // of kCrpChunkRows rows: *draw* (serial, owns the RNG) writes each row's
  // auxiliary rates and uniform; *aux* (pure, split over the spare workers)
  // turns the rates into auxiliary-table weights; *assign* (serial, owns
  // the chain state) runs the weight loop and seats the row. Step t runs
  // assign(t-2), aux(t-1) and draw(t) at once on disjoint slots of a
  // three-chunk ring; at one thread the same steps run in the caller. Every
  // weight and uniform is the serial loop's, so the pass is bit-identical
  // at every sweep_threads.
  auto crp_pass = [&](ChainState& s, ChainDraws& out, stats::Rng* rng) {
    std::vector<Group>& groups = s.groups;
    const size_t aux_m = static_cast<size_t>(config_.auxiliary_components);
    const size_t chunks = (n + kCrpChunkRows - 1) / kCrpChunkRows;
    const double log_alpha_share =
        std::log(s.alpha / config_.auxiliary_components);
    s.pipe_aux_q.resize(3 * kCrpChunkRows * aux_m);
    s.pipe_aux_ll.resize(3 * kCrpChunkRows * aux_m);
    s.pipe_u.resize(3 * kCrpChunkRows);
    auto chunk_rows = [&](size_t chunk) {
      const size_t lo = chunk * kCrpChunkRows;
      return std::pair<size_t, size_t>(lo, std::min(n, lo + kCrpChunkRows));
    };
    // Ring offset of a row's first auxiliary entry / its uniform.
    auto ring = [&](size_t row) {
      return (row / kCrpChunkRows % 3) * kCrpChunkRows + row % kCrpChunkRows;
    };

    auto draw = [&](size_t chunk) {
      auto [lo, hi] = chunk_rows(chunk);
      for (size_t row = lo; row < hi; ++row) {
        double* aux_q = s.pipe_aux_q.data() + ring(row) * aux_m;
        for (size_t m = 0; m < aux_m; ++m) {
          aux_q[m] =
              std::clamp(stats::SampleBeta(rng, a0, b0), kRateFloor, 0.999);
        }
        s.pipe_u[ring(row)] = rng->NextDouble();
      }
    };
    auto aux = [&](size_t chunk, int block, int blocks) {
      auto [lo, hi] = chunk_rows(chunk);
      auto [blo, bhi] = BlockRange(hi - lo, blocks, block);
      for (size_t row = lo + blo; row < lo + bhi; ++row) {
        const size_t cls = classes.row_class(row);
        const size_t at = ring(row) * aux_m;
        for (size_t m = 0; m < aux_m; ++m) {
          s.pipe_aux_ll[at + m] =
              log_alpha_share + classes.ClassLogLik(cls, s.pipe_aux_q[at + m]);
        }
      }
    };

    // Assign-stage state. `cols` holds each group's cache column and is
    // rebuilt only after a table is seated — the one event that changes a
    // column mid-pass. The rebuild does the serial loop's Column lookups;
    // every other row's lookups are all hits, tallied in `hits`.
    size_t occupied = 0;
    for (const Group& g : groups) occupied += g.count > 0 ? 1 : 0;
    bool cols_stale = true;
    std::uint64_t hits = 0;
    auto assign = [&](size_t chunk) {
      auto [lo, hi] = chunk_rows(chunk);
      for (size_t row = lo; row < hi; ++row) {
        const size_t old_g = static_cast<size_t>(out.labels[row]);
        const size_t cls = classes.row_class(row);
        const size_t at = ring(row) * aux_m;
        double* aux_q = s.pipe_aux_q.data() + at;
        double* aux_ll = s.pipe_aux_ll.data() + at;
        if (--groups[old_g].count == 0) {
          // The row vacated its table: that table's rate is the first
          // auxiliary (Neal's trick keeps the chain valid and helps mixing).
          --occupied;
          aux_q[0] = groups[old_g].q;
          aux_ll[0] = log_alpha_share + classes.ClassLogLik(cls, aux_q[0]);
        }

        const size_t num_groups = groups.size();
        if (cols_stale) {
          s.cache.EnsureSlots(num_groups);
          s.cols.resize(num_groups);
          for (size_t g = 0; g < num_groups; ++g) {
            if (groups[g].count == 0) continue;
            s.cols[g] =
                s.cache.Column(g, groups[g].q_version, groups[g].q).data();
          }
          cols_stale = false;
        } else {
          hits += occupied;
        }
        if (s.log_weights.size() < num_groups + aux_m) {
          s.log_weights.resize(num_groups + aux_m);
        }
        double* w = s.log_weights.data();
        for (size_t g = 0; g < num_groups; ++g) {
          const int count = groups[g].count;
          w[g] = count == 0 ? -std::numeric_limits<double>::infinity()
                            : log_count[static_cast<size_t>(count)] +
                                  s.cols[g][cls];
        }
        std::copy(aux_ll, aux_ll + aux_m, w + num_groups);

        const size_t choice = stats::SampleDiscreteLogUniform(
            s.pipe_u[ring(row)],
            std::span<const double>(w, num_groups + aux_m),
            &s.sample_scratch);
        if (choice < num_groups) {
          out.labels[row] = static_cast<int>(choice);
          groups[choice].count += 1;
          continue;
        }
        // Seat at a new table carrying the chosen auxiliary rate. Reuse the
        // vacated slot when available to limit growth.
        size_t slot = old_g;
        if (groups[old_g].count != 0) {
          // Find any empty slot, else append.
          slot = num_groups;
          for (size_t g = 0; g < num_groups; ++g) {
            if (groups[g].count == 0) {
              slot = g;
              break;
            }
          }
          if (slot == num_groups) groups.emplace_back();
        }
        groups[slot].q = aux_q[choice - num_groups];
        groups[slot].count = 1;
        groups[slot].adapter = StepSizeAdapter();
        ++groups[slot].q_version;
        out.labels[row] = static_cast<int>(slot);
        ++occupied;
        cols_stale = true;
      }
    };

    const int aux_blocks = std::max(1, exec_threads - 2);
    for (size_t t = 0; t < chunks + 2; ++t) {
      ThreadPool::Shared().ParallelFor(
          2 + aux_blocks, exec_threads, [&](int b) {
            if (b == 0) {
              if (t >= 2) assign(t - 2);
            } else if (b == 1) {
              if (t < chunks) draw(t);
            } else if (t >= 1 && t <= chunks) {
              aux(t - 1, b - 2, aux_blocks);
            }
          });
    }
    s.cache.TallyLookups(hits, 0);
  };

  // Fast-mode CRP: rows are sharded over contiguous blocks, every shard
  // samples against the frozen start-of-sweep groups (columns prefetched,
  // counts fixed, own-table count reduced by one) with its own pre-forked
  // RNG sub-stream, and the assignments are applied serially in row order
  // afterwards. Deterministic for a fixed (seed, sweep_threads) but not
  // bit-identical to the serial pass — the statistical-equivalence tests
  // gate it. Expects the columns prefetched by the sweep.
  auto crp_pass_fast = [&](ChainState& s, ChainDraws& out, stats::Rng* rng) {
    std::vector<Group>& groups = s.groups;
    const size_t num_groups = groups.size();
    const int shards = static_cast<int>(
        std::min(static_cast<size_t>(sweep_threads), n));
    std::vector<stats::Rng> shard_rngs = ForkShardRngs(rng, shards);
    SweepMetrics::Get().fast_shards->Add(shards);
    if (s.fast_scratch.size() < static_cast<size_t>(shards)) {
      s.fast_scratch.resize(static_cast<size_t>(shards));
    }
    s.fast_choice.resize(n);
    s.fast_new_q.resize(n);
    const double log_alpha_share =
        std::log(s.alpha / config_.auxiliary_components);
    ThreadPool::Shared().ParallelFor(shards, exec_threads, [&](int b) {
      ChainState::ShardScratch& sc = s.fast_scratch[static_cast<size_t>(b)];
      stats::Rng& srng = shard_rngs[static_cast<size_t>(b)];
      sc.aux_q.assign(static_cast<size_t>(config_.auxiliary_components), 0.0);
      auto [lo, hi] = BlockRange(n, shards, b);
      for (size_t row = lo; row < hi; ++row) {
        const size_t old_g = static_cast<size_t>(out.labels[row]);
        for (int m = 0; m < config_.auxiliary_components; ++m) {
          sc.aux_q[static_cast<size_t>(m)] =
              std::clamp(stats::SampleBeta(&srng, a0, b0), kRateFloor, 0.999);
        }
        if (groups[old_g].count == 1) sc.aux_q[0] = groups[old_g].q;
        const size_t cls = classes.row_class(row);
        sc.log_weights.clear();
        for (size_t g = 0; g < num_groups; ++g) {
          const int cnt = groups[g].count - (g == old_g ? 1 : 0);
          if (cnt <= 0) {
            sc.log_weights.push_back(
                -std::numeric_limits<double>::infinity());
            continue;
          }
          sc.log_weights.push_back(log_count[static_cast<size_t>(cnt)] +
                                   s.cache.PeekColumn(g)[cls]);
        }
        for (int m = 0; m < config_.auxiliary_components; ++m) {
          sc.log_weights.push_back(
              log_alpha_share +
              classes.ClassLogLik(cls, sc.aux_q[static_cast<size_t>(m)]));
        }
        s.fast_choice[row] = stats::SampleDiscreteLog(
            &srng, std::span<const double>(sc.log_weights),
            &sc.sample_scratch);
        s.fast_new_q[row] = s.fast_choice[row] >= num_groups
                                ? sc.aux_q[s.fast_choice[row] - num_groups]
                                : 0.0;
      }
    });
    // Serial apply in row order against live counts. A chosen table may
    // have emptied (or been reseated with a new rate) by the time a row is
    // applied — that reordering noise is exactly what fast mode trades for
    // shard parallelism.
    for (size_t row = 0; row < n; ++row) {
      const size_t old_g = static_cast<size_t>(out.labels[row]);
      groups[old_g].count -= 1;
      const size_t choice = s.fast_choice[row];
      if (choice < num_groups) {
        out.labels[row] = static_cast<int>(choice);
        groups[choice].count += 1;
      } else {
        const double new_q = s.fast_new_q[row];
        size_t slot;
        if (groups[old_g].count == 0) {
          slot = old_g;
        } else {
          slot = groups.size();
          for (size_t g = 0; g < groups.size(); ++g) {
            if (groups[g].count == 0) {
              slot = g;
              break;
            }
          }
          if (slot == groups.size()) groups.emplace_back();
        }
        groups[slot].q = new_q;
        groups[slot].count = 1;
        groups[slot].adapter = StepSizeAdapter();
        ++groups[slot].q_version;
        out.labels[row] = static_cast<int>(slot);
      }
    }
  };

  // --- (2) Metropolis update of each occupied group's rate ----------
  // A group's member sum collapses to sum_cls hist[cls] * loglik(cls),
  // and the current log target is reassembled from the cache column, so
  // each step evaluates the lgamma ladder only at the proposal.
  auto build_hist = [&](ChainState& s, ChainDraws& out) {
    s.hist.assign(s.groups.size() * num_classes, 0.0);
    for (size_t row = 0; row < n; ++row) {
      s.hist[static_cast<size_t>(out.labels[row]) * num_classes +
             classes.row_class(row)] += 1.0;
    }
  };

  auto metropolis_serial = [&](ChainState& s, ChainDraws& out, int iter,
                               stats::Rng* rng) {
    std::vector<Group>& groups = s.groups;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].count == 0) continue;
      const double* hist_g = s.hist.data() + g * num_classes;
      const std::vector<double>& col =
          s.cache.Column(g, groups[g].q_version, groups[g].q);
      double current_ll = stats::LogPdfBeta(groups[g].q, a0, b0);
      for (size_t cls = 0; cls < num_classes; ++cls) {
        if (hist_g[cls] != 0.0) current_ll += hist_g[cls] * col[cls];
      }
      auto log_target = [&](double qg) {
        double ll = stats::LogPdfBeta(qg, a0, b0);
        for (size_t cls = 0; cls < num_classes; ++cls) {
          if (hist_g[cls] != 0.0) {
            ll += hist_g[cls] * classes.ClassLogLik(cls, qg);
          }
        }
        return ll;
      };
      bool accepted = false;
      groups[g].q = MetropolisLogitStep(groups[g].q, &current_ll, log_target,
                                        groups[g].adapter.step(), rng,
                                        &accepted);
      ++out.proposals;
      out.accepts += accepted ? 1 : 0;
      if (accepted) ++groups[g].q_version;
      if (iter < burn_in) groups[g].adapter.Update(accepted);
    }
  };

  // Parallel Metropolis, bit-identical to metropolis_serial: the serial
  // coordinator pre-draws every proposal in canonical group order (exactly
  // the fused kernel's RNG consumption), workers evaluate the pure log
  // targets over the pool, and the coordinator merges accept decisions back
  // in group order with the identical floating-point association.
  auto metropolis_parallel = [&](ChainState& s, ChainDraws& out, int iter,
                                 stats::Rng* rng) {
    std::vector<Group>& groups = s.groups;
    const size_t occupied = prefetch_columns(s);
    // Serial phase 2 does one cache lookup per occupied group: the stale
    // ones miss, the rest hit. Reproduce that tally exactly.
    s.cache.TallyLookups(occupied - s.stale.size(), s.stale.size());
    s.prop_groups.clear();
    s.props.clear();
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].count == 0) continue;
      s.prop_groups.push_back(g);
      s.props.push_back(
          DrawLogitProposal(groups[g].q, groups[g].adapter.step(), rng));
    }
    SweepMetrics::Get().predrawn_proposals->Add(
        static_cast<std::int64_t>(s.props.size()));
    const size_t work = s.prop_groups.size();
    s.prop_ll.assign(work, 0.0);
    s.current_ll.assign(groups.size(), 0.0);
    const int blocks = static_cast<int>(
        std::min(work, static_cast<size_t>(exec_threads)));
    ThreadPool::Shared().ParallelFor(blocks, exec_threads, [&](int b) {
      auto [lo, hi] = BlockRange(work, blocks, b);
      for (size_t i = lo; i < hi; ++i) {
        const size_t g = s.prop_groups[i];
        const double* hist_g = s.hist.data() + g * num_classes;
        const std::vector<double>& col = s.cache.PeekColumn(g);
        double cur = stats::LogPdfBeta(groups[g].q, a0, b0);
        for (size_t cls = 0; cls < num_classes; ++cls) {
          if (hist_g[cls] != 0.0) cur += hist_g[cls] * col[cls];
        }
        s.current_ll[g] = cur;
        if (s.props[i].in_support) {
          const double qp = s.props[i].proposal;
          double ll = stats::LogPdfBeta(qp, a0, b0);
          for (size_t cls = 0; cls < num_classes; ++cls) {
            if (hist_g[cls] != 0.0) {
              ll += hist_g[cls] * classes.ClassLogLik(cls, qp);
            }
          }
          s.prop_ll[i] = ll;
        }
      }
    });
    for (size_t i = 0; i < work; ++i) {
      const size_t g = s.prop_groups[i];
      const bool accepted = AcceptLogitProposal(
          s.props[i], groups[g].q, s.prop_ll[i], &s.current_ll[g]);
      if (accepted) {
        groups[g].q = s.props[i].proposal;
        ++groups[g].q_version;
      }
      ++out.proposals;
      out.accepts += accepted ? 1 : 0;
      if (iter < burn_in) groups[g].adapter.Update(accepted);
    }
  };

  // One sweep over the deduplicated classes with versioned per-group
  // likelihood caching and allocation-free inner loops; writes only to its
  // chain's slots. Parallel sweeps refresh the stale columns up front and
  // split the Metropolis targets; fast mode additionally shards the CRP pass
  // itself. Each phase is one span per sweep, never per row.
  auto sweep_dedup = [&](int chain, int iter, stats::Rng* rng) {
    ChainState& s = *states[static_cast<size_t>(chain)];
    ChainDraws& out = draws[static_cast<size_t>(chain)];
    telemetry::ScopedSpan sweep_span("dpmhbp.sweep");
    (parallel_sweep ? SweepMetrics::Get().parallel_sweeps
                    : SweepMetrics::Get().serial_sweeps)
        ->Increment();
    {
      // Tallied as misses here, so the CRP pass's first lookups hit. A
      // serial sweep refreshes lazily inside the pass instead.
      telemetry::ScopedSpan span("dpmhbp.prefetch");
      if (parallel_sweep) {
        prefetch_columns(s);
        s.cache.TallyLookups(0, s.stale.size());
      }
    }
    {
      telemetry::ScopedSpan span("dpmhbp.crp");
      if (use_fast) {
        crp_pass_fast(s, out, rng);
      } else {
        crp_pass(s, out, rng);
      }
    }
    {
      telemetry::ScopedSpan span("dpmhbp.metropolis");
      build_hist(s, out);
      if (parallel_sweep) {
        metropolis_parallel(s, out, iter, rng);
      } else {
        metropolis_serial(s, out, iter, rng);
      }
    }
    {
      telemetry::ScopedSpan span("dpmhbp.finish");
      finish_sweep(iter, s.groups, &s.alpha, &out, rng);
    }
    s.sweep_counter->Increment();
  };

  // One sweep of the reference per-row sampler, kept bit-identical to the
  // pre-dedup implementation (legacy goldens pin it) and as the A/B
  // baseline for the dedup benchmarks.
  auto sweep_naive = [&](int chain, int iter, stats::Rng* rng) {
    ChainState& s = *states[static_cast<size_t>(chain)];
    ChainDraws& out = draws[static_cast<size_t>(chain)];
    std::vector<Group>& groups = s.groups;
    telemetry::ScopedSpan sweep_span("dpmhbp.sweep");
    // --- (1) CRP reassignment of every segment (Neal's algorithm 8) ---
    for (size_t row = 0; row < n; ++row) {
      size_t old_g = static_cast<size_t>(out.labels[row]);
      groups[old_g].count -= 1;

      // Fresh prior draws for the auxiliary (empty) tables. If the segment
      // just vacated a table, reuse that table's rate as the first
      // auxiliary (Neal's trick keeps the chain valid and helps mixing).
      for (int m = 0; m < config_.auxiliary_components; ++m) {
        s.aux_q[static_cast<size_t>(m)] =
            std::clamp(stats::SampleBeta(rng, a0, b0), kRateFloor, 0.999);
      }
      if (groups[old_g].count == 0) s.aux_q[0] = groups[old_g].q;

      s.log_weights.clear();
      for (size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].count == 0) {
          s.log_weights.push_back(-std::numeric_limits<double>::infinity());
          continue;
        }
        s.log_weights.push_back(
            std::log(static_cast<double>(groups[g].count)) +
            seg_loglik(row, groups[g].q));
      }
      double log_alpha_share =
          std::log(s.alpha / config_.auxiliary_components);
      for (int m = 0; m < config_.auxiliary_components; ++m) {
        s.log_weights.push_back(
            log_alpha_share +
            seg_loglik(row, s.aux_q[static_cast<size_t>(m)]));
      }

      size_t choice = stats::SampleDiscreteLog(rng, s.log_weights);
      if (choice < groups.size()) {
        out.labels[row] = static_cast<int>(choice);
        groups[choice].count += 1;
      } else {
        // Seat at a new table carrying the chosen auxiliary rate. Reuse
        // the vacated slot when available to limit growth.
        double new_q = s.aux_q[choice - groups.size()];
        size_t slot;
        if (groups[old_g].count == 0) {
          slot = old_g;
        } else {
          // Find any empty slot, else append.
          slot = groups.size();
          for (size_t g = 0; g < groups.size(); ++g) {
            if (groups[g].count == 0) {
              slot = g;
              break;
            }
          }
          if (slot == groups.size()) groups.emplace_back();
        }
        groups[slot].q = new_q;
        groups[slot].count = 1;
        groups[slot].adapter = StepSizeAdapter();
        out.labels[row] = static_cast<int>(slot);
      }
    }

    // --- (2) Metropolis update of each occupied group's rate ----------
    // Precompute member lists once per sweep.
    std::vector<std::vector<size_t>> members(groups.size());
    for (size_t row = 0; row < n; ++row) {
      members[static_cast<size_t>(out.labels[row])].push_back(row);
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].count == 0) continue;
      auto log_target = [&](double qg) {
        double ll = stats::LogPdfBeta(qg, a0, b0);
        for (size_t row : members[g]) ll += seg_loglik(row, qg);
        return ll;
      };
      bool accepted = false;
      groups[g].q = MetropolisLogitStep(groups[g].q, log_target,
                                        groups[g].adapter.step(), rng,
                                        &accepted);
      ++out.proposals;
      out.accepts += accepted ? 1 : 0;
      if (iter < burn_in) groups[g].adapter.Update(accepted);
    }

    finish_sweep(iter, groups, &s.alpha, &out, rng);
    s.sweep_counter->Increment();
  };

  // Snapshot / restore of one chain for the checkpoint runner. The
  // likelihood cache is deliberately NOT captured: it is a pure performance
  // structure whose recomputed columns are bit-identical, so a restored
  // chain starts with a cold cache and still replays the exact draws.
  auto capture_chain = [&](int chain, ChainCheckpoint* ckpt) {
    const ChainState& s = *states[static_cast<size_t>(chain)];
    const ChainDraws& out = draws[static_cast<size_t>(chain)];
    ckpt->alpha = s.alpha;
    ckpt->labels = out.labels;
    ckpt->group_q.reserve(s.groups.size());
    ckpt->group_count.reserve(s.groups.size());
    ckpt->adapters.reserve(s.groups.size());
    for (const Group& g : s.groups) {
      ckpt->group_q.push_back(g.q);
      ckpt->group_count.push_back(g.count);
      const StepSizeAdapter::State a = g.adapter.SaveState();
      ckpt->adapters.push_back(
          AdapterCheckpoint{a.step, a.proposals, a.accepts});
    }
    ckpt->prob_sum = out.prob_sum;
    ckpt->k_trace = out.k_trace;
    ckpt->alpha_trace = out.alpha_trace;
    ckpt->qmax_trace = out.qmax_trace;
    ckpt->collected = out.collected;
    ckpt->proposals = out.proposals;
    ckpt->accepts = out.accepts;
  };

  auto restore_chain = [&](int chain, const ChainCheckpoint& ckpt) -> Status {
    if (ckpt.labels.size() != n || ckpt.prob_sum.size() != n) {
      return Status::FailedPrecondition(StrFormat(
          "checkpoint for chain %d covers %zu segments, current data has %zu",
          chain, ckpt.labels.size(), n));
    }
    const size_t num_slots = ckpt.group_q.size();
    if (ckpt.group_count.size() != num_slots ||
        ckpt.adapters.size() != num_slots) {
      return Status::FailedPrecondition(
          "checkpoint group sections disagree in length");
    }
    for (int label : ckpt.labels) {
      if (label < 0 || static_cast<size_t>(label) >= num_slots) {
        return Status::FailedPrecondition(
            "checkpoint label refers to a group slot it does not contain");
      }
    }
    ChainState& s = *states[static_cast<size_t>(chain)];
    ChainDraws& out = draws[static_cast<size_t>(chain)];
    out = ChainDraws();
    out.prob_sum = ckpt.prob_sum;
    out.labels = ckpt.labels;
    out.k_trace = ckpt.k_trace;
    out.alpha_trace = ckpt.alpha_trace;
    out.qmax_trace = ckpt.qmax_trace;
    out.collected = static_cast<int>(ckpt.collected);
    out.proposals = ckpt.proposals;
    out.accepts = ckpt.accepts;
    s.groups.assign(num_slots, Group());
    for (size_t g = 0; g < num_slots; ++g) {
      s.groups[g].q = ckpt.group_q[g];
      s.groups[g].count = static_cast<int>(ckpt.group_count[g]);
      s.groups[g].adapter.RestoreState(StepSizeAdapter::State{
          ckpt.adapters[g].step, ckpt.adapters[g].proposals,
          ckpt.adapters[g].accepts});
    }
    s.alpha = ckpt.alpha;
    s.cache = GroupLikelihoodCache(&classes);
    s.aux_q.assign(static_cast<size_t>(config_.auxiliary_components), 0.0);
    return Status::OK();
  };

  // Every config field (and data summary) that can influence the draw
  // sequence goes into the fingerprint; resuming against a snapshot from a
  // different configuration is rejected by the runner.
  Fingerprint fp;
  fp.Add("dpmhbp")
      .Add(static_cast<std::uint64_t>(n))
      .Add(h.seed)
      .Add(h.num_chains)
      .Add(burn_in)
      .Add(use_warm)
      .Add(h.samples)
      .Add(q0)
      .Add(h.c0)
      .Add(h.c)
      .Add(h.dedup_suffstats)
      .Add(h.use_covariates)
      .Add(h.ridge)
      .Add(h.min_multiplier)
      .Add(h.max_multiplier)
      .Add(config_.alpha)
      .Add(config_.resample_alpha)
      .Add(config_.alpha_prior_shape)
      .Add(config_.alpha_prior_rate)
      .Add(config_.auxiliary_components)
      .Add(config_.initial_groups)
      .Add(total_k)
      .Add(total_n)
      .Add(h.fast_sweeps);
  // Deterministic sweeps are bit-identical at every sweep_threads setting,
  // so the thread count must NOT poison resume compatibility; fast-mode
  // shard layouts DO depend on it, so there it is fingerprinted.
  if (h.fast_sweeps) fp.Add(sweep_threads);

  ChainRunnerOptions run_options;
  run_options.num_chains = num_chains;
  run_options.num_threads = h.num_threads;
  run_options.seed = h.seed;
  run_options.stream = kDpmhbpStream;
  run_options.total_sweeps = burn_in + h.samples;
  run_options.fingerprint = fp.digest();
  run_options.checkpoint = h.checkpoint;
  if (run_options.checkpoint.tag.empty()) {
    run_options.checkpoint.tag = "dpmhbp";
  }
  run_options.heartbeat = h.heartbeat;
  if (run_options.heartbeat.label.empty()) {
    run_options.heartbeat.label = "fit dpmhbp";
  }

  ChainProgram program;
  program.init = init_chain;
  program.sweep = [&](int chain, int iter, stats::Rng* rng) {
    if (h.dedup_suffstats) {
      sweep_dedup(chain, iter, rng);
    } else {
      sweep_naive(chain, iter, rng);
    }
  };
  program.capture = capture_chain;
  program.restore = restore_chain;
  // Heartbeat feeds (post-sweep observers; no RNG, no chain-state writes):
  // q_max is the label-switching-invariant live-R̂ trace, matching
  // DiagnoseDpmhbp's q_max diagnostic.
  program.monitor = [&](int chain, int iter, double* value) {
    if (iter < burn_in) return false;
    const std::vector<double>& trace =
        draws[static_cast<size_t>(chain)].qmax_trace;
    if (trace.empty()) return false;
    *value = trace.back();
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
  for (int c = 0; c < num_chains; ++c) {
    if (chain_failed[static_cast<size_t>(c)]) continue;
    draws[static_cast<size_t>(c)].cache_hits =
        states[static_cast<size_t>(c)]->cache.hits();
    draws[static_cast<size_t>(c)].cache_misses =
        states[static_cast<size_t>(c)]->cache.misses();
  }

  // Snapshot the end-of-run sampler state for warm-started sequential
  // re-fits (next year's Fit consumes it via SetWarmStart).
  warm_out_.clear();
  if (h.capture_warm_state) {
    warm_out_.resize(static_cast<size_t>(num_chains));
    for (int c = 0; c < num_chains; ++c) {
      capture_chain(c, &warm_out_[static_cast<size_t>(c)]);
    }
  }

  // --- pool the surviving chains (deterministic chain order, so pooled
  // results are independent of the thread count; chains that exhausted their
  // retries are excluded wholesale) ----------------------------------------
  segment_probs_.assign(n, 0.0);
  k_trace_.clear();
  alpha_trace_.clear();
  k_chain_traces_.clear();
  alpha_chain_traces_.clear();
  qmax_chain_traces_.clear();
  long long collected = 0;
  for (int c = 0; c < num_chains; ++c) {
    if (chain_failed[static_cast<size_t>(c)]) continue;
    const ChainDraws& d = draws[static_cast<size_t>(c)];
    for (size_t row = 0; row < n; ++row) segment_probs_[row] += d.prob_sum[row];
    collected += d.collected;
    k_trace_.insert(k_trace_.end(), d.k_trace.begin(), d.k_trace.end());
    alpha_trace_.insert(alpha_trace_.end(), d.alpha_trace.begin(),
                        d.alpha_trace.end());
    k_chain_traces_.push_back(d.k_trace);
    alpha_chain_traces_.push_back(d.alpha_trace);
    qmax_chain_traces_.push_back(d.qmax_trace);
  }
  if (collected == 0) {
    return Status::Internal("no post-burn-in draws were collected");
  }
  for (double& p : segment_probs_) p /= static_cast<double>(collected);

  // Flush the chain-confined tallies into the process-wide registry and
  // derive the headline run-health gauges the metrics export reports.
  {
    std::uint64_t proposals = 0, accepts = 0, hits = 0, misses = 0;
    for (int c = 0; c < num_chains; ++c) {
      if (chain_failed[static_cast<size_t>(c)]) continue;
      const ChainDraws& d = draws[static_cast<size_t>(c)];
      proposals += d.proposals;
      accepts += d.accepts;
      hits += d.cache_hits;
      misses += d.cache_misses;
    }
    auto& registry = telemetry::Registry::Global();
    registry.GetCounter("mcmc.likelihood_cache.hits")
        ->Add(static_cast<std::int64_t>(hits));
    registry.GetCounter("mcmc.likelihood_cache.misses")
        ->Add(static_cast<std::int64_t>(misses));
    registry.GetCounter("mcmc.draws_collected")->Add(collected);
    registry.GetGauge("mcmc.acceptance_rate")
        ->Set(proposals > 0
                  ? static_cast<double>(accepts) / static_cast<double>(proposals)
                  : 0.0);
    registry.GetGauge("mcmc.cache_hit_ratio")
        ->Set(hits + misses > 0
                  ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                  : 0.0);
    registry.GetGauge("mcmc.crp.mean_groups")->Set(mean_num_groups());
    registry.GetGauge("mcmc.crp.final_groups")
        ->Set(k_trace_.empty() ? 0.0
                               : static_cast<double>(k_trace_.back()));
  }

  // Densify the first surviving chain's final labels for external consumers.
  labels_.clear();
  for (int c = 0; c < num_chains; ++c) {
    if (!chain_failed[static_cast<size_t>(c)]) {
      labels_ = draws[static_cast<size_t>(c)].labels;
      break;
    }
  }
  {
    int max_label = 0;
    for (int g : labels_) max_label = std::max(max_label, g);
    std::vector<int> remap(static_cast<size_t>(max_label) + 1, -1);
    int next = 0;
    for (size_t row = 0; row < n; ++row) {
      int g = labels_[row];
      if (remap[static_cast<size_t>(g)] < 0) {
        remap[static_cast<size_t>(g)] = next++;
      }
      labels_[row] = remap[static_cast<size_t>(g)];
    }
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> DpmhbpModel::ScorePipes(const ModelInput& input) {
  return ScorePipes(input, ScoreOptions());
}

Result<std::vector<double>> DpmhbpModel::ScorePipes(const ModelInput& input,
                                                    const ScoreOptions& options) {
  if (!fitted_) return Status::FailedPrecondition("DpmhbpModel not fitted");
  if (input.num_segments() != segment_probs_.size()) {
    return Status::InvalidArgument("input does not match fitted state");
  }
  if (input.segment_index.num_pipes() == input.num_pipes()) {
    return AggregateSegmentRisk(input.segment_index, segment_probs_, options);
  }
  return AggregatePipeRisk(input, segment_probs_);
}

}  // namespace core
}  // namespace piperisk
