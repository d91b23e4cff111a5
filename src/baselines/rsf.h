#ifndef PIPERISK_BASELINES_RSF_H_
#define PIPERISK_BASELINES_RSF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/survival.h"
#include "core/model.h"

namespace piperisk {
namespace baselines {

/// Random survival forest over pipe lifetimes (Ishwaran et al. 2008, in the
/// spirit of the nonparametric follow-up work to the paper): bootstrap trees
/// grown on the BuildPipeSurvival rows, splits chosen by the log-rank
/// statistic (delayed entry respected), each leaf carrying a Nelson–Aalen
/// cumulative hazard over its members. A pipe's risk score is the ensemble
/// mean cumulative hazard evaluated just past its age in the test year —
/// the standard "mortality" ranking.
struct RsfConfig {
  int num_trees = 60;
  int max_depth = 8;
  /// Nodes with fewer observations (or no events) become leaves.
  int min_node_obs = 30;
  /// A split is admissible only when both children keep this many rows.
  int min_leaf_obs = 10;
  /// Candidate features per split (<= 0: ceil(sqrt(feature_dim))).
  int num_split_features = 0;
  /// Candidate thresholds per feature (evenly spaced member quantiles).
  int num_thresholds = 8;
  std::uint64_t seed = 1849;
  /// Worker threads for growing trees. Wall clock only: every tree owns a
  /// pre-forked RNG stream and writes its own slot, so the forest is
  /// bit-identical for every thread count.
  int num_fit_threads = 1;
  /// Trees grown on the new data when warm-starting from a previous fit.
  int warm_top_up_trees = 12;
};

/// One binary tree node; leaf < 0 means internal (descend by
/// z[feature] <= threshold), otherwise `leaf` indexes the tree's leaf_chf.
struct RsfNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  int leaf = -1;
};

struct RsfTree {
  std::vector<RsfNode> nodes;
  std::vector<StepFunction> leaf_chf;
};

/// Two-sample log-rank statistic (O - E)^2 / V for the candidate splits of
/// one tree node, with delayed entry: at each distinct event time t a
/// group's at-risk count is #{entry < t} - #{exit < t} (exit > entry holds
/// for every BuildPipeSurvival row). Reset sorts the node's entries, exits
/// and event times once; each candidate is then one linear merge with
/// integer at-risk counts, whose (O, E, V) terms see the same values in the
/// same order as a per-candidate sort would, so the statistic is
/// bit-identical to it.
class LogRankScan {
 public:
  /// Presorts the node's member rows (bootstrap duplicates count twice).
  void Reset(const std::vector<SurvivalObservation>& rows,
             const std::vector<std::size_t>& members);
  /// Loads the split feature: value[p] belongs to members[p].
  void LoadFeature(const std::vector<double>& value);
  /// Statistic of the split value <= threshold vs the rest; 0 when the
  /// split carries no information (V == 0).
  double Stat(double threshold) const;

 private:
  // Member positions in entry, exit and event-exit order.
  std::vector<std::size_t> by_entry_, by_exit_, by_event_;
  std::vector<double> times_;  // distinct event times, ascending
  // Per event time: entries and exits strictly before it, and the end of
  // its events in by_event_.
  std::vector<std::size_t> in_end_, out_end_, event_end_;
  // The loaded feature in by_entry_, by_exit_ and by_event_ order.
  std::vector<double> entry_value_, exit_value_, event_value_;
};

/// Portable snapshot of a fitted forest for warm-started rolling re-fits:
/// the trees carry raw (unstandardised-agnostic) thresholds, so they can
/// score a later year's input directly; `streams_used` records how many RNG
/// streams this model lineage has consumed so top-up trees continue the
/// fork sequence instead of re-using streams.
struct RsfWarmState {
  std::vector<RsfTree> trees;
  std::uint64_t streams_used = 0;
  std::size_t feature_dim = 0;
};

class RsfModel : public core::FailureModel {
 public:
  explicit RsfModel(RsfConfig config = RsfConfig());

  std::string name() const override { return "RSF"; }
  Status Fit(const core::ModelInput& input) override;
  Result<std::vector<double>> ScorePipes(const core::ModelInput& input) override;
  /// Blocked parallel scoring over the flat feature matrix.
  Result<std::vector<double>> ScorePipes(
      const core::ModelInput& input,
      const core::ScoreOptions& options) override;

  /// Snapshot of the fitted forest (valid after a successful Fit).
  RsfWarmState warm_state() const;
  /// Arms the next Fit to carry over `state`'s trees (oldest dropped to
  /// respect num_trees) and grow only warm_top_up_trees new ones. A state
  /// whose feature_dim disagrees with the input is ignored (cold fit).
  void SetWarmStart(RsfWarmState state);

  std::size_t num_trees() const { return trees_.size(); }

 private:
  double ScoreOne(const double* z, double age) const;

  RsfConfig config_;
  bool fitted_ = false;
  std::size_t feature_dim_ = 0;
  std::vector<RsfTree> trees_;
  std::uint64_t streams_used_ = 0;
  bool has_warm_ = false;
  RsfWarmState warm_;
};

}  // namespace baselines
}  // namespace piperisk

#endif  // PIPERISK_BASELINES_RSF_H_
