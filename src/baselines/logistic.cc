#include "baselines/logistic.h"

#include <algorithm>
#include <cmath>

#include "stats/newton.h"
#include "stats/special.h"

namespace piperisk {
namespace baselines {

Result<LogisticRegression> LogisticRegression::Fit(
    const std::vector<std::vector<double>>& features,
    const std::vector<int>& labels, const LogisticConfig& config) {
  const size_t n = features.size();
  if (labels.size() != n) {
    return Status::InvalidArgument("features/labels length mismatch");
  }
  if (n == 0) return Status::InvalidArgument("empty training set");
  auto design = stats::FlattenDesign(features);
  if (!design.ok()) return design.status();

  LogisticRegression model;
  model.weights_.assign(design->cols, 0.0);
  double pos = 0.0;
  for (int l : labels) pos += l != 0 ? 1.0 : 0.0;
  double base = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  model.intercept_ = stats::Logit(base);

  auto row_loglik = [&](size_t i, double eta) {
    // log sigmoid forms, stable.
    return labels[i] != 0 ? -std::log1p(std::exp(-eta))
                          : -std::log1p(std::exp(eta));
  };
  auto row_score = [&](size_t i, double eta, double* resid) {
    double p = stats::Sigmoid(eta);
    *resid = (labels[i] != 0 ? 1.0 : 0.0) - p;
    return std::max(p * (1.0 - p), 1e-9);
  };
  auto fit = stats::NewtonGlm(
      *design, {config.ridge, config.max_iterations, config.tolerance},
      row_loglik, row_score, &model.intercept_, &model.weights_);
  if (!fit.ok()) return fit.status();
  return model;
}

double LogisticRegression::Score(const std::vector<double>& features) const {
  return Score(features.data(), features.size());
}

double LogisticRegression::Score(const double* features, std::size_t n) const {
  double eta = intercept_;
  for (size_t c = 0; c < weights_.size() && c < n; ++c) {
    eta += weights_[c] * features[c];
  }
  return eta;
}

double LogisticRegression::Probability(
    const std::vector<double>& features) const {
  return stats::Sigmoid(Score(features));
}

LogisticModel::LogisticModel(LogisticConfig config) : config_(config) {}

Status LogisticModel::Fit(const core::ModelInput& input) {
  std::vector<int> labels(input.num_pipes(), 0);
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    labels[i] = input.outcomes[i].train_failures > 0 ? 1 : 0;
  }
  auto fit = LogisticRegression::Fit(input.pipe_features, labels, config_);
  if (!fit.ok()) return fit.status();
  model_ = std::move(*fit);
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> LogisticModel::ScorePipes(
    const core::ModelInput& input) {
  if (!fitted_) return Status::FailedPrecondition("LogisticModel not fitted");
  std::vector<double> scores(input.num_pipes());
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    scores[i] = model_.Score(input.pipe_features[i]);
  }
  return scores;
}

Result<std::vector<double>> LogisticModel::ScorePipes(
    const core::ModelInput& input, const core::ScoreOptions& options) {
  if (!fitted_) return Status::FailedPrecondition("LogisticModel not fitted");
  const core::FeatureMatrix& fm = input.pipe_feature_matrix;
  if (fm.num_rows() != input.num_pipes()) {
    return ScorePipes(input);  // input without flat views: serial path
  }
  return core::ScoreBlocked(
      input.num_pipes(), options,
      [&](size_t begin, size_t end, double* out) {
        for (size_t i = begin; i < end; ++i) {
          out[i - begin] = model_.Score(fm.row(i), fm.dim);
        }
      });
}

}  // namespace baselines
}  // namespace piperisk
