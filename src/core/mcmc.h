#ifndef PIPERISK_CORE_MCMC_H_
#define PIPERISK_CORE_MCMC_H_

#include <functional>
#include <vector>

#include "stats/rng.h"

namespace piperisk {
namespace core {

/// Metropolis-within-Gibbs building blocks (Sect. 18.3.3: "we choose to
/// utilise a Metropolis-within-Gibbs sampling method for inference" because
/// the extra HBP hierarchy breaks conjugacy for the group means q_k).

/// One random-walk Metropolis step for a parameter living in (0, 1),
/// proposed on the logit scale (symmetric in logit space; the Jacobian
/// log|dx/dlogit| = log(x(1-x)) is accounted for).
///
/// `log_target` evaluates the unnormalised log posterior density of the
/// constrained value. Returns the (possibly unchanged) value and reports
/// acceptance through `accepted`.
double MetropolisLogitStep(double current,
                           const std::function<double(double)>& log_target,
                           double step_size, stats::Rng* rng, bool* accepted);

/// One random-walk Metropolis step for a positive parameter, proposed on
/// the log scale (Jacobian handled analogously).
double MetropolisLogStep(double current,
                         const std::function<double(double)>& log_target,
                         double step_size, stats::Rng* rng, bool* accepted);

/// Split form of MetropolisLogitStep for the group-rate updates of the
/// hierarchical samplers, where the log target at the current rate is
/// already cached, so the target is evaluated only at the proposal. A
/// serial coordinator pre-draws every group's proposal in canonical group
/// order (consuming the RNG exactly as the fused step would: one normal,
/// then one uniform IFF the proposal stayed inside (0, 1)), the pure log
/// targets are evaluated (in parallel, for within-chain parallel sweeps),
/// and the coordinator merges accept/reject decisions back in group order.
struct LogitProposal {
  double proposal = 0.0;
  double log_u = 0.0;        ///< log of the pre-drawn acceptance uniform
  bool in_support = false;   ///< false → auto-reject, no uniform consumed
};

/// Draws the proposal (and, when in support, the acceptance uniform) for one
/// logit-scale step. RNG stream position afterwards matches the fused step.
LogitProposal DrawLogitProposal(double current, double step_size,
                                stats::Rng* rng);

/// Applies the accept/reject decision given the proposal's log target.
/// Pass proposal_ll only for in-support proposals (out-of-support ones are
/// rejected without evaluating the target, mirroring the fused step). On
/// acceptance *current_log_target is replaced and true is returned. Also
/// records the proposal in the Metropolis telemetry counters.
bool AcceptLogitProposal(const LogitProposal& prop, double current,
                         double proposal_ll, double* current_log_target);

/// Robbins–Monro adaptation of a random-walk step size toward a target
/// acceptance rate (0.44 is optimal for one-dimensional walks). Call Update
/// after every proposal during burn-in, then freeze.
class StepSizeAdapter {
 public:
  explicit StepSizeAdapter(double initial_step = 0.5,
                           double target_acceptance = 0.44)
      : step_(initial_step), target_(target_acceptance) {}

  void Update(bool accepted);
  double step() const { return step_; }
  double acceptance_rate() const {
    return proposals_ > 0 ? static_cast<double>(accepts_) / proposals_ : 0.0;
  }

  /// Serialisable adaptation state (the target is config-derived, not
  /// state). RestoreState(SaveState()) continues adaptation bit-for-bit,
  /// which checkpoint/resume relies on.
  struct State {
    double step = 0.0;
    long long proposals = 0;
    long long accepts = 0;
  };
  State SaveState() const { return State{step_, proposals_, accepts_}; }
  void RestoreState(const State& state) {
    step_ = state.step;
    proposals_ = state.proposals;
    accepts_ = state.accepts;
  }

 private:
  double step_;
  double target_;
  long long proposals_ = 0;
  long long accepts_ = 0;
};

/// Effective sample size of a trace via the initial-positive-sequence
/// autocorrelation estimator (Geyer 1992). Returns trace.size() when
/// autocorrelation is negligible.
double EffectiveSampleSize(const std::vector<double>& trace);

/// Geweke convergence z-score comparing the first `first_frac` and last
/// `last_frac` of the trace (|z| >~ 2 suggests non-convergence).
double GewekeZ(const std::vector<double>& trace, double first_frac = 0.1,
               double last_frac = 0.5);

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_MCMC_H_
