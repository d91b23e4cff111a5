#include "core/covariates.h"

#include <algorithm>
#include <cmath>

#include "stats/newton.h"

namespace piperisk {
namespace core {

Result<PoissonRegression> PoissonRegression::Fit(
    const std::vector<std::vector<double>>& features,
    const std::vector<double>& counts, const std::vector<double>& exposures,
    const PoissonRegressionConfig& config) {
  const std::size_t n = features.size();
  if (counts.size() != n || exposures.size() != n) {
    return Status::InvalidArgument("rows/counts/exposures length mismatch");
  }
  if (n == 0) return Status::InvalidArgument("empty training set");
  auto design = stats::FlattenDesign(features);
  if (!design.ok()) return design.status();
  for (std::size_t i = 0; i < n; ++i) {
    if (!(std::isfinite(exposures[i]) && exposures[i] > 0.0)) {
      return Status::InvalidArgument("exposure must be positive and finite");
    }
    if (!(std::isfinite(counts[i]) && counts[i] >= 0.0)) {
      return Status::InvalidArgument("count must be non-negative and finite");
    }
  }

  PoissonRegression model;
  model.weights_.assign(design->cols, 0.0);
  // Start the intercept at the log of the aggregate rate.
  double total_k = 0.0, total_n = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total_k += counts[i];
    total_n += exposures[i];
  }
  model.intercept_ = std::log(std::max(total_k, 0.5) / total_n);

  // Newton iterations on the penalised log likelihood
  //   sum_i [k_i eta_i - n_i exp(eta_i)] - ridge/2 ||w||^2,
  //   eta_i = b0 + w' z_i,
  // with eta clamped to avoid exp overflow in pathological steps.
  auto row_loglik = [&](std::size_t i, double eta) {
    const double e = std::clamp(eta, -30.0, 30.0);
    return counts[i] * e - exposures[i] * std::exp(e);
  };
  auto row_score = [&](std::size_t i, double eta, double* resid) {
    const double mu = exposures[i] * std::exp(std::clamp(eta, -30.0, 30.0));
    *resid = counts[i] - mu;
    return mu;
  };
  auto iterations = stats::NewtonGlm(
      *design, {config.ridge, config.max_iterations, config.tolerance},
      row_loglik, row_score, &model.intercept_, &model.weights_);
  if (!iterations.ok()) return iterations.status();
  model.iterations_used_ = *iterations;
  return model;
}

double PoissonRegression::LinearPredictor(
    const std::vector<double>& features) const {
  double e = 0.0;
  for (std::size_t c = 0; c < weights_.size() && c < features.size(); ++c) {
    e += weights_[c] * features[c];
  }
  return e;
}

double PoissonRegression::Rate(const std::vector<double>& features) const {
  return std::exp(std::clamp(intercept_ + LinearPredictor(features), -30.0,
                             30.0));
}

std::vector<double> NormalisedMultipliers(
    const PoissonRegression& model,
    const std::vector<std::vector<double>>& features, double min_mult,
    double max_mult) {
  std::vector<double> mult(features.size(), 1.0);
  if (features.empty()) return mult;
  double mean = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    mult[i] = std::exp(std::clamp(model.LinearPredictor(features[i]), -20.0,
                                  20.0));
    mean += mult[i];
  }
  mean /= static_cast<double>(features.size());
  if (mean <= 0.0) return std::vector<double>(features.size(), 1.0);
  for (double& m : mult) {
    m = std::clamp(m / mean, min_mult, max_mult);
  }
  return mult;
}

}  // namespace core
}  // namespace piperisk
