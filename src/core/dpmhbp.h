#ifndef PIPERISK_CORE_DPMHBP_H_
#define PIPERISK_CORE_DPMHBP_H_

#include <string>
#include <vector>

#include "core/hbp.h"
#include "core/model.h"

namespace piperisk {
namespace core {

/// Configuration of the DPMHBP sampler. Extends the shared hierarchy
/// hyper-parameters with the Dirichlet-process knobs.
struct DpmhbpConfig {
  HierarchyConfig hierarchy;

  double alpha = 1.0;            ///< initial CRP concentration
  bool resample_alpha = true;    ///< Escobar–West resampling of alpha
  double alpha_prior_shape = 2.0;
  double alpha_prior_rate = 0.5;
  int auxiliary_components = 3;  ///< Neal's algorithm-8 empty tables
  int initial_groups = 8;        ///< k-quantile initialisation of labels
};

/// The paper's primary contribution: the Dirichlet process mixture of
/// hierarchical beta processes (Sect. 18.3.3, Eq. 18.7), at pipe-segment
/// level with adaptive grouping:
///
///   q_k   ~ Beta(c0 q0, c0 (1 - q0))        group failure rates
///   z_l   ~ CRP(alpha)                       segment -> group
///   rho_l ~ Beta(c q~_l, c (1 - q~_l))       q~_l = clamp(q_{z_l} m_l)
///   y_lj  ~ Bernoulli(rho_l)
///   pi_i  = 1 - prod_{l in pipe i} (1 - rho_l)
///
/// Inference is Metropolis-within-Gibbs: rho_l is collapsed analytically
/// (Beta–Bernoulli conjugacy); z_l is resampled by collapsed Gibbs with
/// Neal's algorithm 8 (auxiliary empty tables carrying fresh prior draws of
/// q); q_k gets an adaptive random-walk Metropolis step on the logit scale
/// (the extra hierarchy breaks conjugacy, as the chapter notes); alpha is
/// resampled with the Escobar–West auxiliary-variable scheme.
class DpmhbpModel : public FailureModel {
 public:
  explicit DpmhbpModel(DpmhbpConfig config = DpmhbpConfig());

  std::string name() const override { return "DPMHBP"; }
  Status Fit(const ModelInput& input) override;
  Result<std::vector<double>> ScorePipes(const ModelInput& input) override;
  /// Blocked parallel segment-risk aggregation over the CSR index.
  Result<std::vector<double>> ScorePipes(const ModelInput& input,
                                         const ScoreOptions& options) override;

  /// Posterior-mean failure probability per segment row (after Fit; pooled
  /// over every chain's post-burn-in draws).
  const std::vector<double>& segment_probabilities() const {
    return segment_probs_;
  }
  /// Final-sweep group labels of chain 0 (after Fit; dense in [0, K)).
  const std::vector<int>& group_labels() const { return labels_; }
  /// Trace of the number of occupied groups per kept sweep (all chains
  /// concatenated in chain order).
  const std::vector<int>& num_groups_trace() const { return k_trace_; }
  /// Trace of alpha per kept sweep (all chains concatenated in chain order).
  const std::vector<double>& alpha_trace() const { return alpha_trace_; }
  /// Per-chain traces for cross-chain convergence diagnostics.
  const std::vector<std::vector<int>>& num_groups_chain_traces() const {
    return k_chain_traces_;
  }
  const std::vector<std::vector<double>>& alpha_chain_traces() const {
    return alpha_chain_traces_;
  }
  /// Largest occupied group rate max_k q_k per kept sweep — a
  /// label-switching-invariant group-level quantity that is comparable
  /// across chains.
  const std::vector<std::vector<double>>& qmax_chain_traces() const {
    return qmax_chain_traces_;
  }
  /// Posterior mean number of groups.
  double mean_num_groups() const;

 private:
  DpmhbpConfig config_;
  bool fitted_ = false;
  std::vector<double> segment_probs_;
  std::vector<int> labels_;
  std::vector<int> k_trace_;
  std::vector<double> alpha_trace_;
  std::vector<std::vector<int>> k_chain_traces_;
  std::vector<std::vector<double>> alpha_chain_traces_;
  std::vector<std::vector<double>> qmax_chain_traces_;
};

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_DPMHBP_H_
