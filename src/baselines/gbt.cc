#include "baselines/gbt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/thread_pool.h"
#include "stats/rng.h"

namespace piperisk {
namespace baselines {

namespace {

// Stream tag for the ensemble's master RNG (one fork per boosting round).
constexpr std::uint64_t kGbtStream = 0x6B7;

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double TreePredict(const GbtTree& tree, const double* z) {
  int node = 0;
  while (!tree.nodes[static_cast<std::size_t>(node)].is_leaf) {
    const GbtNode& nd = tree.nodes[static_cast<std::size_t>(node)];
    node = z[nd.feature] <= nd.threshold ? nd.left : nd.right;
  }
  return tree.nodes[static_cast<std::size_t>(node)].value;
}

/// A node being grown at the current level: its sampled-row list and
/// gradient/Hessian totals.
struct GrowNode {
  int id = -1;
  std::vector<std::uint32_t> rows;
  double g = 0.0;
  double h = 0.0;
  int depth = 0;
};

}  // namespace

GbtModel::GbtModel(GbtConfig config) : config_(config) {}

double GbtModel::PredictMargin(const double* z) const {
  double f = base_score_;
  for (const auto& tree : trees_) f += TreePredict(tree, z);
  return std::clamp(f, -30.0, 30.0);
}

Status GbtModel::Fit(const core::ModelInput& input) {
  const std::size_t n = input.num_pipes();
  if (n == 0) return Status::InvalidArgument("no pipes to fit");
  const std::size_t d = input.feature_dim();
  if (d == 0) return Status::InvalidArgument("no features to split on");
  if (input.pipe_features.size() != n || input.outcomes.size() != n) {
    return Status::InvalidArgument("input feature/outcome table mismatch");
  }
  const bool logistic = config_.loss == GbtLoss::kLogistic;

  std::vector<double> y(n);
  double y_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double cnt = static_cast<double>(input.outcomes[i].train_failures);
    y[i] = logistic ? (cnt > 0.0 ? 1.0 : 0.0) : cnt;
    y_sum += y[i];
  }
  if (y_sum <= 0.0) {
    return Status::FailedPrecondition("no failure events in training window");
  }

  // Quantile bin boundaries per feature (at most num_bins - 1, deduplicated);
  // bin index of value v is #{boundaries < v} via upper_bound, stored as one
  // uint8 per (row, feature).
  const int num_bins = std::clamp(config_.num_bins, 2, 256);
  std::vector<std::vector<double>> boundaries(d);
  {
    std::vector<double> col(n);
    for (std::size_t f = 0; f < d; ++f) {
      for (std::size_t i = 0; i < n; ++i) col[i] = input.pipe_features[i][f];
      std::sort(col.begin(), col.end());
      auto& b = boundaries[f];
      for (int k = 1; k < num_bins; ++k) {
        std::size_t pos = n * static_cast<std::size_t>(k) /
                          static_cast<std::size_t>(num_bins);
        pos = std::min(pos, n - 1);
        double v = col[pos];
        if (b.empty() || v > b.back()) b.push_back(v);
      }
      // A boundary equal to the column maximum would leave the top bin
      // empty and admit an empty right child; drop it.
      while (!b.empty() && b.back() >= col.back()) b.pop_back();
    }
  }
  std::vector<std::uint8_t> bins(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < d; ++f) {
      const auto& b = boundaries[f];
      std::size_t idx = static_cast<std::size_t>(
          std::upper_bound(b.begin(), b.end(), input.pipe_features[i][f]) -
          b.begin());
      bins[i * d + f] = static_cast<std::uint8_t>(idx);
    }
  }

  const int rounds = std::max(config_.num_rounds, 1);
  const double mean = y_sum / static_cast<double>(n);
  base_score_ = logistic
                    ? std::log(std::clamp(mean, 1e-6, 1.0 - 1e-6) /
                               (1.0 - std::clamp(mean, 1e-6, 1.0 - 1e-6)))
                    : std::log(std::max(mean, 1e-6));

  stats::Rng master(config_.seed, kGbtStream);
  std::vector<stats::Rng> round_rngs;
  round_rngs.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) round_rngs.push_back(master.Fork());

  std::vector<double> margin(n, base_score_);

  std::vector<GbtTree> grown;
  grown.reserve(static_cast<std::size_t>(rounds));
  std::vector<double> grad(n), hess(n);
  const int hist_width = num_bins;
  for (int round = 0; round < rounds; ++round) {
    stats::Rng rng = round_rngs[static_cast<std::size_t>(round)];
    // Subsample rows (row order fixed, so the mask is independent of any
    // parallel decomposition), then second-order loss derivatives.
    std::vector<std::uint32_t> sampled;
    sampled.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (config_.subsample >= 1.0 || rng.NextDouble() < config_.subsample) {
        sampled.push_back(static_cast<std::uint32_t>(i));
      }
    }
    if (sampled.empty()) continue;
    for (std::uint32_t i : sampled) {
      double f = std::clamp(margin[i], -30.0, 30.0);
      if (logistic) {
        double p = Sigmoid(f);
        grad[i] = p - y[i];
        hess[i] = std::max(p * (1.0 - p), 1e-12);
      } else {
        double mu = std::exp(f);
        grad[i] = mu - y[i];
        hess[i] = std::max(mu, 1e-12);
      }
    }

    GbtTree tree;
    GrowNode root;
    root.id = 0;
    root.rows = sampled;
    for (std::uint32_t i : root.rows) {
      root.g += grad[i];
      root.h += hess[i];
    }
    tree.nodes.emplace_back();
    std::vector<GrowNode> level;
    level.push_back(std::move(root));

    while (!level.empty()) {
      // Per-node, per-feature gradient/Hessian histograms. Parallel over
      // features: each feature owns a disjoint histogram column across all
      // nodes and walks rows in list order, so the sums are bit-identical
      // for every thread count.
      const std::size_t num_nodes = level.size();
      std::vector<double> hist_g(num_nodes * d * hist_width, 0.0);
      std::vector<double> hist_h(num_nodes * d * hist_width, 0.0);
      ThreadPool::Shared().ParallelFor(
          static_cast<int>(d), config_.num_fit_threads, [&](int fi) {
            std::size_t f = static_cast<std::size_t>(fi);
            for (std::size_t nn = 0; nn < num_nodes; ++nn) {
              double* hg = hist_g.data() + (nn * d + f) * hist_width;
              double* hh = hist_h.data() + (nn * d + f) * hist_width;
              for (std::uint32_t i : level[nn].rows) {
                std::uint8_t b = bins[i * d + f];
                hg[b] += grad[i];
                hh[b] += hess[i];
              }
            }
          });

      std::vector<GrowNode> next;
      for (std::size_t nn = 0; nn < num_nodes; ++nn) {
        GrowNode& node = level[nn];
        double best_gain = 0.0;
        int best_f = -1;
        int best_b = -1;
        double parent_term =
            node.g * node.g / (node.h + config_.lambda);
        if (node.depth < config_.max_depth) {
          for (std::size_t f = 0; f < d; ++f) {
            const double* hg = hist_g.data() + (nn * d + f) * hist_width;
            const double* hh = hist_h.data() + (nn * d + f) * hist_width;
            double gl = 0.0, hl = 0.0;
            int usable = static_cast<int>(boundaries[f].size());
            for (int b = 0; b < usable; ++b) {
              gl += hg[b];
              hl += hh[b];
              double gr = node.g - gl;
              double hr = node.h - hl;
              if (hl < config_.min_child_weight ||
                  hr < config_.min_child_weight) {
                continue;
              }
              double gain = 0.5 * (gl * gl / (hl + config_.lambda) +
                                   gr * gr / (hr + config_.lambda) -
                                   parent_term);
              if (gain > best_gain + 1e-12) {
                best_gain = gain;
                best_f = static_cast<int>(f);
                best_b = b;
              }
            }
          }
        }
        GbtNode& out = tree.nodes[static_cast<std::size_t>(node.id)];
        if (best_f < 0) {
          out.is_leaf = true;
          out.value = -config_.learning_rate * node.g /
                      (node.h + config_.lambda);
          continue;
        }
        out.is_leaf = false;
        out.feature = best_f;
        out.threshold =
            boundaries[static_cast<std::size_t>(best_f)]
                      [static_cast<std::size_t>(best_b)];
        GrowNode left, right;
        left.depth = right.depth = node.depth + 1;
        for (std::uint32_t i : node.rows) {
          if (bins[i * d + static_cast<std::size_t>(best_f)] <=
              static_cast<std::uint8_t>(best_b)) {
            left.rows.push_back(i);
            left.g += grad[i];
            left.h += hess[i];
          } else {
            right.rows.push_back(i);
            right.g += grad[i];
            right.h += hess[i];
          }
        }
        left.id = static_cast<int>(tree.nodes.size());
        tree.nodes.emplace_back();
        right.id = static_cast<int>(tree.nodes.size());
        tree.nodes.emplace_back();
        // emplace_back may have moved the node storage; re-index.
        tree.nodes[static_cast<std::size_t>(node.id)].left = left.id;
        tree.nodes[static_cast<std::size_t>(node.id)].right = right.id;
        next.push_back(std::move(left));
        next.push_back(std::move(right));
      }
      level = std::move(next);
    }

    // Margins advance for every row (not just the sampled ones).
    for (std::size_t i = 0; i < n; ++i) {
      margin[i] += TreePredict(tree, input.pipe_features[i].data());
    }
    grown.push_back(std::move(tree));
  }

  trees_ = std::move(grown);
  feature_dim_ = d;
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> GbtModel::ScorePipes(const core::ModelInput& input) {
  if (!fitted_) return Status::FailedPrecondition("GbtModel not fitted");
  if (input.feature_dim() != feature_dim_) {
    return Status::InvalidArgument(
        "feature dimension mismatch between fit and score inputs");
  }
  const bool logistic = config_.loss == GbtLoss::kLogistic;
  std::vector<double> scores(input.num_pipes(), 0.0);
  for (std::size_t i = 0; i < input.num_pipes(); ++i) {
    double f = PredictMargin(input.pipe_features[i].data());
    scores[i] = logistic ? Sigmoid(f) : std::exp(f);
  }
  return scores;
}

Result<std::vector<double>> GbtModel::ScorePipes(
    const core::ModelInput& input, const core::ScoreOptions& options) {
  if (!fitted_) return Status::FailedPrecondition("GbtModel not fitted");
  if (input.feature_dim() != feature_dim_) {
    return Status::InvalidArgument(
        "feature dimension mismatch between fit and score inputs");
  }
  const core::FeatureMatrix& fm = input.pipe_feature_matrix;
  if (fm.num_rows() != input.num_pipes() || fm.dim != feature_dim_) {
    return ScorePipes(input);  // input without flat views: serial path
  }
  const bool logistic = config_.loss == GbtLoss::kLogistic;
  return core::ScoreBlocked(
      input.num_pipes(), options, [&](std::size_t begin, std::size_t end,
                                      double* out) {
        for (std::size_t i = begin; i < end; ++i) {
          double f = PredictMargin(fm.row(i));
          out[i - begin] = logistic ? Sigmoid(f) : std::exp(f);
        }
      });
}

}  // namespace baselines
}  // namespace piperisk
