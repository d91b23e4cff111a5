#ifndef PIPERISK_CORE_COVARIATES_H_
#define PIPERISK_CORE_COVARIATES_H_

#include <vector>

#include "common/result.h"

namespace piperisk {
namespace core {

/// Multiplicative covariate effects for the Bayesian hierarchy.
///
/// The chapter's protocol applies features "multiplicatively similar to the
/// Cox proportional hazard model" to HBP and DPMHBP. We realise that as a
/// log-linear exposure model fitted by ridge-regularised Poisson regression:
///   k_i ~ Poisson(n_i * r0 * exp(w' z_i)),
/// whose normalised fitted multiplier m_i = exp(w' z_i) scales each
/// segment's prior failure rate inside the hierarchy. Keeping this fit
/// outside the MCMC preserves the Beta–Bernoulli collapsed updates.
struct PoissonRegressionConfig {
  double ridge = 1.0;        ///< L2 penalty on weights (not intercept)
  int max_iterations = 100;  ///< Newton iterations
  double tolerance = 1e-8;   ///< convergence on gradient norm
};

/// Fitted log-linear rate model.
class PoissonRegression {
 public:
  /// Fits on rows `features` with event counts `counts` and exposures
  /// `exposures` (> 0; e.g. observed years). Uses Newton's method with step
  /// halving (stats::NewtonGlm); fails if dimensions are inconsistent, any
  /// input is NaN or infinite, or the fit diverges.
  static Result<PoissonRegression> Fit(
      const std::vector<std::vector<double>>& features,
      const std::vector<double>& counts, const std::vector<double>& exposures,
      const PoissonRegressionConfig& config);

  /// Linear predictor w' z (no intercept, no exposure).
  double LinearPredictor(const std::vector<double>& features) const;

  /// Expected event rate per unit exposure: exp(intercept + w' z).
  double Rate(const std::vector<double>& features) const;

  const std::vector<double>& weights() const { return weights_; }
  double intercept() const { return intercept_; }
  int iterations_used() const { return iterations_used_; }

 private:
  std::vector<double> weights_;
  double intercept_ = 0.0;
  int iterations_used_ = 0;
};

/// Computes per-row multipliers m_i = exp(w' z_i), normalised to mean 1 and
/// clamped to [min_mult, max_mult] — the form consumed by the HBP/DPMHBP
/// hierarchy.
std::vector<double> NormalisedMultipliers(
    const PoissonRegression& model,
    const std::vector<std::vector<double>>& features, double min_mult,
    double max_mult);

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_COVARIATES_H_
