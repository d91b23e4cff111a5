#ifndef PIPERISK_CORE_HBP_H_
#define PIPERISK_CORE_HBP_H_

#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/heartbeat.h"
#include "core/model.h"
#include "core/suffstats.h"
#include "stats/rng.h"

namespace piperisk {
namespace core {

/// Fixed grouping schemes for the HBP baseline (Sect. 18.4.3: "pipes are
/// grouped based on material, diameter and laid year" per domain expert
/// suggestion). kSingle collapses the hierarchy to one group (a plain
/// beta–Bernoulli), which is a useful ablation.
enum class GroupingScheme : int {
  kMaterial = 0,
  kDiameterBand = 1,
  kLaidDecade = 2,
  kCoating = 3,
  kSoilCorrosiveness = 4,
  kSingle = 5,
};
std::string_view ToString(GroupingScheme scheme);

/// Computes the group label of each *pipe* (aligned with input.pipes) under
/// a fixed scheme. Labels are dense in [0, K). Soil grouping uses the
/// pipe's first segment (the HBP baseline is pipe-granular).
std::vector<int> AssignFixedPipeGroups(const ModelInput& input,
                                       GroupingScheme scheme);

/// The raw (un-densified) group key of pipe `i` under `scheme`. Unlike the
/// dense labels above (densified in first-seen order, so only meaningful
/// within one input), raw keys are stable across datasets — the streaming
/// fit uses them as the global label space so every shard agrees on group
/// identity.
int RawFixedPipeGroupKey(const ModelInput& input, size_t i,
                         GroupingScheme scheme);

/// Hyper-parameters shared by the HBP and DPMHBP samplers.
struct HierarchyConfig {
  double q0 = -1.0;  ///< prior mean of group rates; <= 0 -> empirical rate
  double c0 = 4.0;   ///< top-level concentration
  double c = 12.0;   ///< lower-level concentration c_k (shared)
  int burn_in = 60;
  int samples = 120;
  std::uint64_t seed = 42;
  /// Number of independent MCMC chains whose post-burn-in draws are pooled.
  /// Chain 0 reproduces the historical single-chain sampler bit-for-bit;
  /// extra chains get independent Rng::Fork() streams fixed up front, so
  /// results depend only on (seed, num_chains) — never on num_threads.
  int num_chains = 1;
  /// Worker threads for running chains (<= 0: use the hardware; always
  /// clamped to num_chains). Affects wall clock only, never the draws.
  int num_threads = 0;
  /// Sufficient-statistic deduplication + per-sweep likelihood caching in
  /// the samplers (see core/suffstats.h). The reference per-row sampler is
  /// kept behind `false` for A/B benchmarking and the bit-pinned legacy
  /// goldens; the deduplicated path differs from it only in floating-point
  /// summation order, so fits are statistically equivalent but not
  /// bit-identical.
  bool dedup_suffstats = true;
  bool use_covariates = true;  ///< multiplicative feature effects
  double ridge = 1.0;          ///< for the covariate Poisson regression
  double min_multiplier = 0.2;
  double max_multiplier = 5.0;
  /// Worker threads for partitioning work *inside* one sweep (parallel
  /// likelihood-column refreshes, the pipelined DPMHBP CRP pass and
  /// Metropolis target evaluations; see
  /// core/sweep_parallel.h). <= 0 resolves to the hardware, 1 is the serial
  /// sweep. In the default deterministic mode draws are bit-identical at
  /// every setting — the RNG is consumed by a serial coordinator in
  /// canonical order and only pure target evaluations fan out.
  int sweep_threads = 1;
  /// Relaxed-ordering fast sweeps: CRP reassignment runs over row shards
  /// against start-of-sweep state with per-shard RNG sub-streams forked up
  /// front. Still deterministic for a fixed (seed, sweep_threads) pair, but
  /// NOT bit-identical to the serial sweep; gated by statistical-equivalence
  /// tests on ranking metrics. Requires dedup_suffstats.
  bool fast_sweeps = false;
  /// SIMD dispatch policy for the batched column kernels (bit-identical
  /// either way; exposed for benchmarking and triage).
  SimdMode simd = SimdMode::kAuto;
  /// Crash-safe snapshot/resume settings (see core/checkpoint.h). Ignored
  /// unless `checkpoint.every > 0`; persistence additionally needs a
  /// non-empty `checkpoint.dir`.
  CheckpointConfig checkpoint;
  /// Live progress file (see core/heartbeat.h). Observational only: never
  /// fingerprinted, never touches the chain RNG streams, so heartbeat-enabled
  /// fits stay bit-identical.
  HeartbeatConfig heartbeat;
  /// Warm-started sequential re-fits (eval/rolling --warm-start): when true,
  /// Fit snapshots the end-of-run sampler state of every chain so the next
  /// year's fit can start from it via SetWarmStart.
  bool capture_warm_state = false;
  /// Burn-in used when a warm state was injected (< 0: burn_in / 4, at
  /// least 1) — the chains start near the posterior, so most of the cold
  /// burn-in is unnecessary. Warm fits use a different effective burn-in and
  /// starting point, so they are statistically equivalent to cold fits, not
  /// bit-identical.
  int warm_burn_in = -1;
};

/// InvalidArgument unless both concentrations c and c0 are finite and > 0
/// (the collapsed likelihood and the Beta prior are improper otherwise).
Status ValidateConcentrations(const HierarchyConfig& config);

/// The hierarchical beta process baseline of Li et al. (2014) /
/// Sect. 18.3.1.3, exactly as the chapter positions it against the DPMHBP:
/// *pipe-level* failure modelling with a fixed expert grouping (Eq. 18.5):
///
///   q_k  ~ Beta(c0 q0, c0 (1 - q0))
///   pi_i ~ Beta(c q~_i, c (1 - q~_i)),  q~_i = clamp(q_{g(i)} m_i)
///   x_ij ~ Bernoulli(pi_i)              pipe i fails in year j
///
/// It "ignores the impact of the length attribute when estimating failure
/// probabilities" (Sect. 18.3.3), so the covariate multiplier m_i is fitted
/// WITHOUT the length feature; modelling length is the DPMHBP's segment-
/// level innovation. pi_i is collapsed analytically; q_k is sampled by
/// adaptive random-walk Metropolis on the logit scale.
class HbpModel : public FailureModel {
 public:
  explicit HbpModel(GroupingScheme scheme,
                    HierarchyConfig config = HierarchyConfig());

  std::string name() const override;
  Status Fit(const ModelInput& input) override;
  Result<std::vector<double>> ScorePipes(const ModelInput& input) override;

  /// Posterior-mean yearly failure probability per pipe (after Fit).
  const std::vector<double>& pipe_probabilities() const { return pipe_probs_; }
  /// Posterior mean of each group's rate q_k (after Fit).
  const std::vector<double>& group_rates() const { return group_rate_means_; }
  /// Group label per pipe (after Fit).
  const std::vector<int>& group_labels() const { return labels_; }
  /// Trace of q_k posterior draws for diagnostics (group major; draws of
  /// all chains concatenated in chain order).
  const std::vector<std::vector<double>>& group_rate_traces() const {
    return traces_;
  }
  /// Per-chain q_k traces ([chain][group][draw]) for cross-chain R̂.
  const std::vector<std::vector<std::vector<double>>>&
  group_rate_chain_traces() const {
    return chain_traces_;
  }

  /// End-of-run sampler state per chain, captured when
  /// config.capture_warm_state is set (empty otherwise).
  const std::vector<ChainCheckpoint>& warm_state() const { return warm_out_; }
  /// Arms the next Fit to start every chain from `state` (one checkpoint
  /// per chain) and burn in for only warm_burn_in sweeps. A state whose
  /// shape disagrees with the input's grouping is ignored (cold fit).
  void SetWarmStart(std::vector<ChainCheckpoint> state);

 private:
  GroupingScheme scheme_;
  HierarchyConfig config_;
  bool fitted_ = false;
  std::vector<int> labels_;
  std::vector<double> pipe_probs_;
  std::vector<double> group_rate_means_;
  std::vector<std::vector<double>> traces_;
  std::vector<std::vector<std::vector<double>>> chain_traces_;
  bool has_warm_ = false;
  std::vector<ChainCheckpoint> warm_in_;
  std::vector<ChainCheckpoint> warm_out_;
};

/// Scores pipes from per-segment failure probabilities:
/// pi_i = 1 - prod_{l in pipe i} (1 - p_l)   (Eq. 18.7, last line).
/// Used by the segment-level DPMHBP.
std::vector<double> AggregatePipeRisk(const ModelInput& input,
                                      const std::vector<double>& segment_probs);

/// Fits the segment-level covariate multipliers used by the DPMHBP (exp of
/// a ridge Poisson regression linear predictor, normalised to mean 1).
/// Returns all ones when disabled or when the regression fails to fit.
std::vector<double> FitSegmentMultipliers(const ModelInput& input,
                                          const HierarchyConfig& config);

/// Per-pipe training counts for the pipe-level HBP: k = distinct training
/// years with >= 1 failure, n = observed training years. Aligned with
/// input.pipes.
struct PipeCounts {
  int k = 0;
  int n = 0;
};
std::vector<PipeCounts> BuildPipeCounts(const ModelInput& input);

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_HBP_H_
