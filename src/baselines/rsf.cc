#include "baselines/rsf.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"
#include "stats/rng.h"

namespace piperisk {
namespace baselines {

namespace {

// Stream tag for the forest's master RNG (one fork per tree, ever, across
// the warm-start lineage).
constexpr std::uint64_t kRsfStream = 0xF0153;

struct TreeBuilder {
  const std::vector<SurvivalObservation>& rows;
  const std::vector<std::vector<double>>& z;
  const RsfConfig& cfg;
  int mtry;
  stats::Rng* rng;
  RsfTree* tree;
  // Scratch reused across nodes (a node is done with it before recursing).
  LogRankScan scan;
  std::vector<double> column, vals;

  int MakeLeaf(const std::vector<std::size_t>& members) {
    std::vector<SurvivalObservation> obs;
    obs.reserve(members.size());
    for (std::size_t i : members) obs.push_back(rows[i]);
    StepFunction chf;  // H == 0 when the leaf holds no events
    auto na = NelsonAalen(obs);
    if (na.ok()) chf = std::move(*na);
    int node = static_cast<int>(tree->nodes.size());
    tree->nodes.emplace_back();
    tree->nodes[node].leaf = static_cast<int>(tree->leaf_chf.size());
    tree->leaf_chf.push_back(std::move(chf));
    return node;
  }

  int Build(const std::vector<std::size_t>& members, int depth) {
    int node_events = 0;
    for (std::size_t i : members) node_events += rows[i].event ? 1 : 0;
    if (depth >= cfg.max_depth || node_events == 0 ||
        members.size() < static_cast<std::size_t>(cfg.min_node_obs)) {
      return MakeLeaf(members);
    }

    // mtry candidate features (deterministic partial selection from the
    // tree's own RNG), thresholds at evenly spaced member quantiles.
    std::vector<int> features(z[members[0]].size());
    for (std::size_t f = 0; f < features.size(); ++f) {
      features[f] = static_cast<int>(f);
    }
    rng->Shuffle(&features);
    features.resize(std::min<std::size_t>(features.size(),
                                          static_cast<std::size_t>(mtry)));

    double best_stat = 0.0;
    int best_feature = -1;
    double best_threshold = 0.0;
    scan.Reset(rows, members);
    for (int f : features) {
      column.clear();
      for (std::size_t i : members) column.push_back(z[i][f]);
      vals = column;
      std::sort(vals.begin(), vals.end());
      if (vals.front() == vals.back()) continue;  // constant in this node
      scan.LoadFeature(column);
      for (int k = 1; k <= cfg.num_thresholds; ++k) {
        std::size_t pos = members.size() * static_cast<std::size_t>(k) /
                          (static_cast<std::size_t>(cfg.num_thresholds) + 1);
        pos = std::min(pos, members.size() - 1);
        double thr = vals[pos];
        if (thr >= vals.back()) continue;  // right child would be empty
        std::size_t left_count = 0;
        for (double v : column) left_count += v <= thr ? 1 : 0;
        if (left_count < static_cast<std::size_t>(cfg.min_leaf_obs) ||
            members.size() - left_count <
                static_cast<std::size_t>(cfg.min_leaf_obs)) {
          continue;
        }
        double stat = scan.Stat(thr);
        if (stat > best_stat) {
          best_stat = stat;
          best_feature = f;
          best_threshold = thr;
        }
      }
    }
    if (best_feature < 0) return MakeLeaf(members);

    std::vector<std::size_t> left, right;
    for (std::size_t i : members) {
      (z[i][best_feature] <= best_threshold ? left : right).push_back(i);
    }
    int node = static_cast<int>(tree->nodes.size());
    tree->nodes.emplace_back();
    tree->nodes[node].feature = best_feature;
    tree->nodes[node].threshold = best_threshold;
    int l = Build(left, depth + 1);
    int r = Build(right, depth + 1);
    tree->nodes[node].left = l;
    tree->nodes[node].right = r;
    return node;
  }
};

}  // namespace

void LogRankScan::Reset(const std::vector<SurvivalObservation>& rows,
                        const std::vector<std::size_t>& members) {
  const std::size_t m = members.size();
  auto sort_by = [&](std::vector<std::size_t>* order,
                     double SurvivalObservation::*key) {
    std::sort(order->begin(), order->end(),
              [&](std::size_t a, std::size_t b) {
                return rows[members[a]].*key < rows[members[b]].*key;
              });
  };
  by_entry_.resize(m);
  by_exit_.resize(m);
  std::iota(by_entry_.begin(), by_entry_.end(), std::size_t{0});
  std::iota(by_exit_.begin(), by_exit_.end(), std::size_t{0});
  sort_by(&by_entry_, &SurvivalObservation::entry);
  sort_by(&by_exit_, &SurvivalObservation::exit);
  by_event_.clear();
  for (std::size_t p : by_exit_) {
    if (rows[members[p]].event) by_event_.push_back(p);
  }

  // Distinct event times, ascending; at each, the node's entries and exits
  // strictly before it and the end of its events in by_event_.
  times_.clear();
  in_end_.clear();
  out_end_.clear();
  event_end_.clear();
  std::size_t in = 0, out = 0;
  for (std::size_t k = 0; k < by_event_.size(); ++k) {
    const double t = rows[members[by_event_[k]]].exit;
    if (!times_.empty() && times_.back() == t) {
      event_end_.back() = k + 1;
      continue;
    }
    while (in < m && rows[members[by_entry_[in]]].entry < t) ++in;
    while (out < m && rows[members[by_exit_[out]]].exit < t) ++out;
    times_.push_back(t);
    in_end_.push_back(in);
    out_end_.push_back(out);
    event_end_.push_back(k + 1);
  }
}

void LogRankScan::LoadFeature(const std::vector<double>& value) {
  auto gather = [&](const std::vector<std::size_t>& order,
                    std::vector<double>* out) {
    out->resize(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      (*out)[k] = value[order[k]];
    }
  };
  gather(by_entry_, &entry_value_);
  gather(by_exit_, &exit_value_);
  gather(by_event_, &event_value_);
}

double LogRankScan::Stat(double threshold) const {
  // Group 0 is value <= threshold. Integer at-risk counts per group, then
  // the statistic's terms in exactly the sort-per-candidate form's order
  // and arithmetic, so every candidate's value is bit-identical to it.
  double o = 0.0, e = 0.0, v = 0.0;
  std::size_t in0 = 0, out0 = 0, a = 0, b = 0, c = 0;
  for (std::size_t j = 0; j < times_.size(); ++j) {
    for (; a < in_end_[j]; ++a) in0 += entry_value_[a] <= threshold ? 1 : 0;
    for (; b < out_end_[j]; ++b) out0 += exit_value_[b] <= threshold ? 1 : 0;
    int d0 = 0;
    const std::size_t c_begin = c;
    for (; c < event_end_[j]; ++c) d0 += event_value_[c] <= threshold ? 1 : 0;
    const double n_g[2] = {
        static_cast<double>(in0 - out0),
        static_cast<double>((in_end_[j] - in0) - (out_end_[j] - out0))};
    double n = n_g[0] + n_g[1];
    if (n <= 1.0) continue;
    double dt = static_cast<double>(c - c_begin);
    double frac = n_g[0] / n;
    o += static_cast<double>(d0);
    e += dt * frac;
    v += dt * frac * (1.0 - frac) * (n - dt) / (n - 1.0);
  }
  if (v <= 0.0) return 0.0;
  double diff = o - e;
  return diff * diff / v;
}

RsfModel::RsfModel(RsfConfig config) : config_(config) {}

void RsfModel::SetWarmStart(RsfWarmState state) {
  warm_ = std::move(state);
  has_warm_ = true;
}

RsfWarmState RsfModel::warm_state() const {
  return RsfWarmState{trees_, streams_used_, feature_dim_};
}

Status RsfModel::Fit(const core::ModelInput& input) {
  const std::size_t n = input.num_pipes();
  if (n == 0) return Status::InvalidArgument("no pipes to fit");
  const std::size_t d = input.feature_dim();
  if (d == 0) return Status::InvalidArgument("no features to split on");
  if (input.pipe_features.size() != n) {
    return Status::InvalidArgument("input feature table mismatch");
  }
  std::vector<SurvivalObservation> rows = BuildPipeSurvival(input);
  int total_events = 0;
  for (const auto& r : rows) total_events += r.event ? 1 : 0;
  if (total_events == 0) {
    return Status::FailedPrecondition("no failure events in training window");
  }

  // Warm start: carry the previous forest (newest-first retention under the
  // num_trees cap) and grow only the top-up trees on the new data. The RNG
  // fork sequence continues from the lineage's stream counter, so a warm
  // fit never re-uses a stream an earlier year consumed.
  std::vector<RsfTree> carried;
  std::uint64_t stream_base = 0;
  int new_trees = std::max(config_.num_trees, 1);
  if (has_warm_ && !warm_.trees.empty() && warm_.feature_dim == d) {
    new_trees = std::min(std::max(config_.warm_top_up_trees, 1),
                         std::max(config_.num_trees, 1));
    std::size_t keep = static_cast<std::size_t>(
        std::max(config_.num_trees, 1) - new_trees);
    std::size_t drop =
        warm_.trees.size() > keep ? warm_.trees.size() - keep : 0;
    carried.assign(warm_.trees.begin() + static_cast<std::ptrdiff_t>(drop),
                   warm_.trees.end());
    stream_base = warm_.streams_used;
  }
  has_warm_ = false;
  warm_ = RsfWarmState{};

  int mtry = config_.num_split_features > 0
                 ? std::min<int>(config_.num_split_features,
                                 static_cast<int>(d))
                 : std::max(1, static_cast<int>(std::ceil(
                                   std::sqrt(static_cast<double>(d)))));

  // Pre-fork one stream per tree, indexed by lifetime tree number, before
  // any parallel work starts — the determinism contract from thread_pool.h.
  stats::Rng master(config_.seed, kRsfStream);
  for (std::uint64_t s = 0; s < stream_base; ++s) master.Fork();
  std::vector<stats::Rng> tree_rngs;
  tree_rngs.reserve(static_cast<std::size_t>(new_trees));
  for (int t = 0; t < new_trees; ++t) tree_rngs.push_back(master.Fork());

  std::vector<RsfTree> grown(static_cast<std::size_t>(new_trees));
  ThreadPool::Shared().ParallelFor(
      new_trees, config_.num_fit_threads, [&](int t) {
        stats::Rng rng = tree_rngs[static_cast<std::size_t>(t)];
        std::vector<std::size_t> members(n);
        for (std::size_t i = 0; i < n; ++i) {
          members[i] = static_cast<std::size_t>(rng.NextBounded(n));
        }
        TreeBuilder builder{rows, input.pipe_features, config_, mtry, &rng,
                            &grown[static_cast<std::size_t>(t)],
                            /*scan=*/{}, /*column=*/{}, /*vals=*/{}};
        builder.Build(members, 0);
      });

  trees_ = std::move(carried);
  for (auto& t : grown) trees_.push_back(std::move(t));
  streams_used_ = stream_base + static_cast<std::uint64_t>(new_trees);
  feature_dim_ = d;
  fitted_ = true;
  return Status::OK();
}

double RsfModel::ScoreOne(const double* z, double age) const {
  double sum = 0.0;
  for (const auto& tree : trees_) {
    int node = 0;
    while (tree.nodes[static_cast<std::size_t>(node)].leaf < 0) {
      const RsfNode& nd = tree.nodes[static_cast<std::size_t>(node)];
      node = z[nd.feature] <= nd.threshold ? nd.left : nd.right;
    }
    sum += tree.leaf_chf[static_cast<std::size_t>(
                             tree.nodes[static_cast<std::size_t>(node)].leaf)]
               .At(age + 1.0);
  }
  return sum / static_cast<double>(trees_.size());
}

Result<std::vector<double>> RsfModel::ScorePipes(const core::ModelInput& input) {
  if (!fitted_) return Status::FailedPrecondition("RsfModel not fitted");
  if (input.feature_dim() != feature_dim_) {
    return Status::InvalidArgument(
        "feature dimension mismatch between fit and score inputs");
  }
  std::vector<double> scores(input.num_pipes(), 0.0);
  for (std::size_t i = 0; i < input.num_pipes(); ++i) {
    double age =
        std::max(0, input.split.test_year - input.pipes[i]->laid_year);
    scores[i] = ScoreOne(input.pipe_features[i].data(), age);
  }
  return scores;
}

Result<std::vector<double>> RsfModel::ScorePipes(
    const core::ModelInput& input, const core::ScoreOptions& options) {
  if (!fitted_) return Status::FailedPrecondition("RsfModel not fitted");
  if (input.feature_dim() != feature_dim_) {
    return Status::InvalidArgument(
        "feature dimension mismatch between fit and score inputs");
  }
  const core::FeatureMatrix& fm = input.pipe_feature_matrix;
  if (fm.num_rows() != input.num_pipes() || fm.dim != feature_dim_) {
    return ScorePipes(input);  // input without flat views: serial path
  }
  return core::ScoreBlocked(
      input.num_pipes(), options, [&](std::size_t begin, std::size_t end,
                                      double* out) {
        for (std::size_t i = begin; i < end; ++i) {
          double age =
              std::max(0, input.split.test_year - input.pipes[i]->laid_year);
          out[i - begin] = ScoreOne(fm.row(i), age);
        }
      });
}

}  // namespace baselines
}  // namespace piperisk
