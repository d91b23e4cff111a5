#ifndef PIPERISK_BASELINES_LOGISTIC_H_
#define PIPERISK_BASELINES_LOGISTIC_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/model.h"

namespace piperisk {
namespace baselines {

/// Ridge-regularised logistic regression, fitted by Newton (IRLS). Included
/// as the standard machine-learning reference point: it predicts the
/// probability that a pipe fails in a single year given its features, with
/// no survival structure and no hierarchy.
struct LogisticConfig {
  double ridge = 1e-2;
  int max_iterations = 60;
  double tolerance = 1e-8;
};

/// Standalone solver, reusable outside the FailureModel interface. Fit
/// rejects ragged or non-finite feature rows with InvalidArgument.
class LogisticRegression {
 public:
  static Result<LogisticRegression> Fit(
      const std::vector<std::vector<double>>& features,
      const std::vector<int>& labels, const LogisticConfig& config);

  /// P(label = 1 | z).
  double Probability(const std::vector<double>& features) const;
  /// Linear predictor including intercept.
  double Score(const std::vector<double>& features) const;
  /// Linear predictor over a raw feature row (batch scoring path; identical
  /// arithmetic to the vector overload).
  double Score(const double* features, std::size_t n) const;

  const std::vector<double>& weights() const { return weights_; }
  double intercept() const { return intercept_; }

 private:
  std::vector<double> weights_;
  double intercept_ = 0.0;
};

/// FailureModel adapter: label = pipe failed during training window.
class LogisticModel : public core::FailureModel {
 public:
  explicit LogisticModel(LogisticConfig config = LogisticConfig());

  std::string name() const override { return "Logistic"; }
  Status Fit(const core::ModelInput& input) override;
  Result<std::vector<double>> ScorePipes(const core::ModelInput& input) override;
  /// Blocked parallel scoring over the flat feature matrix.
  Result<std::vector<double>> ScorePipes(
      const core::ModelInput& input,
      const core::ScoreOptions& options) override;

  const LogisticRegression* fitted() const {
    return fitted_ ? &model_ : nullptr;
  }

 private:
  LogisticConfig config_;
  bool fitted_ = false;
  LogisticRegression model_;
};

}  // namespace baselines
}  // namespace piperisk

#endif  // PIPERISK_BASELINES_LOGISTIC_H_
