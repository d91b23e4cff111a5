#ifndef PIPERISK_BASELINES_GBT_H_
#define PIPERISK_BASELINES_GBT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.h"

namespace piperisk {
namespace baselines {

/// Loss for the boosted ensemble: Poisson deviance on per-pipe training
/// failure counts (the natural choice for count data) or logistic deviance
/// on the any-failure indicator.
enum class GbtLoss {
  kPoisson = 0,
  kLogistic = 1,
};

/// Gradient-boosted regression trees over the pipe feature matrix
/// (histogram-based, second-order splits in the XGBoost style): trees are
/// grown level-wise on quantile-binned features, each round fitting the
/// gradient/Hessian of the chosen deviance at the current prediction.
/// Scores are the predicted failure intensity exp(F(z)) (Poisson) or
/// probability sigmoid(F(z)) (logistic).
struct GbtConfig {
  int num_rounds = 60;
  double learning_rate = 0.1;
  int max_depth = 3;
  int num_bins = 32;
  /// Minimum Hessian mass on each side of a split.
  double min_child_weight = 1.0;
  /// L2 regularisation on leaf values.
  double lambda = 1.0;
  /// Row subsampling fraction per round (1.0 disables).
  double subsample = 0.8;
  std::uint64_t seed = 77;
  /// Worker threads for histogram building / prediction updates. Wall clock
  /// only: per-round subsampling draws from a pre-forked stream and every
  /// parallel unit writes disjoint slots, so the ensemble is bit-identical
  /// for every thread count.
  int num_fit_threads = 1;
  GbtLoss loss = GbtLoss::kPoisson;
};

/// One node of a boosted tree; leaf nodes carry the (learning-rate-scaled)
/// additive value, internal nodes descend by z[feature] <= threshold.
struct GbtNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  bool is_leaf = true;
  double value = 0.0;
};

struct GbtTree {
  std::vector<GbtNode> nodes;
};

class GbtModel : public core::FailureModel {
 public:
  explicit GbtModel(GbtConfig config = GbtConfig());

  std::string name() const override { return "GBT"; }
  Status Fit(const core::ModelInput& input) override;
  Result<std::vector<double>> ScorePipes(const core::ModelInput& input) override;
  /// Blocked parallel scoring over the flat feature matrix.
  Result<std::vector<double>> ScorePipes(
      const core::ModelInput& input,
      const core::ScoreOptions& options) override;

  std::size_t num_trees() const { return trees_.size(); }

 private:
  double PredictMargin(const double* z) const;

  GbtConfig config_;
  bool fitted_ = false;
  std::size_t feature_dim_ = 0;
  double base_score_ = 0.0;
  std::vector<GbtTree> trees_;
};

}  // namespace baselines
}  // namespace piperisk

#endif  // PIPERISK_BASELINES_GBT_H_
