#ifndef PIPERISK_CORE_STREAMING_HBP_H_
#define PIPERISK_CORE_STREAMING_HBP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/hbp.h"
#include "data/sharded_dataset.h"
#include "net/feature.h"

namespace piperisk {
namespace core {

/// Out-of-core HBP over a sharded dataset (see data/sharded_dataset.h).
///
/// The pipe-level HBP's collapsed likelihood depends on the data only
/// through the per-group histogram of (k, n) sufficient statistics — k
/// failing training years out of n observed ones — so the fit streams
/// shards through a bounded window, reduces each to that histogram via
/// `ModelInput::Build` + `BuildPipeCounts`, merges (integer weights: the
/// merged histogram is exactly the in-memory one, independent of shard or
/// thread order), and then runs the Metropolis-within-Gibbs group sampler
/// over the tiny merged table. Peak RSS is bounded by the shard window, not
/// the network.
///
/// Two deliberate deviations from the in-memory `HbpModel`:
///   - covariate multipliers are not fitted (the pooled histogram cannot
///     carry per-pipe feature rows); the streaming fit is the
///     covariate-free HBP, exactly the `use_covariates = false` model;
///   - draws come from this sampler's own chains, so fits are
///     statistically equivalent to, but not bit-identical with, HbpModel.
///     Re-fitting the same shards with the same options IS
///     bit-reproducible.
struct StreamingHbpOptions {
  HierarchyConfig hierarchy;  ///< q0/c0/c/burn_in/samples/seed/num_chains
  GroupingScheme scheme = GroupingScheme::kMaterial;
  net::PipeCategory category = net::PipeCategory::kCriticalMain;
  /// Shards materialised concurrently during the streaming passes.
  int shard_window = 4;
};

struct StreamingHbpFit {
  /// Raw (un-densified) group keys seen across all shards, sorted
  /// ascending — the global label space. Dense group g is raw_keys[g].
  std::vector<int> raw_keys;
  /// Posterior mean of each group's rate q_g (pooled over chains).
  std::vector<double> group_rate_means;
  /// Posterior mean of the clamped rate actually used by the likelihood —
  /// what scoring plugs into the Beta prior mean.
  std::vector<double> group_tilted_means;
  double q0 = 0.0;  ///< resolved prior mean (empirical when unset)
  double c = 12.0;  ///< lower-level concentration used
  std::uint64_t total_pipes = 0;
  std::uint64_t total_k = 0;
  std::uint64_t total_n = 0;
};

/// Pass 1 + sampler. Streams every shard once.
Result<StreamingHbpFit> FitStreamingHbp(const data::ShardedDataset& shards,
                                        const StreamingHbpOptions& options);

/// Pass 2: streams every shard again, scoring each pipe as its posterior
/// mean yearly failure rate (linear in the group mean, so plugging the
/// pooled mean in is exactly the mean over draws), and writes one scores
/// CSV (`pipe_id,score`, %.10g — the `piperisk fit` artefact contract) in
/// shard order, matching the order a streaming reader walks pipes in.
Status ScoreStreamingHbp(const data::ShardedDataset& shards,
                         const StreamingHbpFit& fit,
                         const StreamingHbpOptions& options,
                         const std::string& out_path);

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_STREAMING_HBP_H_
