#ifndef PIPERISK_EVAL_EXPERIMENT_H_
#define PIPERISK_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/gbt.h"
#include "baselines/rsf.h"
#include "common/result.h"
#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "core/model.h"
#include "data/dataset.h"
#include "eval/ranking_metrics.h"

namespace piperisk {
namespace eval {

/// Orchestration of the paper's comparison protocol: one call fits every
/// compared model on the same ModelInput and evaluates the shared metric
/// set, so each exp_* binary (one per table/figure) reproduces its artefact
/// from identical runs.
struct ExperimentConfig {
  data::TemporalSplit split = data::TemporalSplit::Paper();
  net::PipeCategory category = net::PipeCategory::kCriticalMain;
  net::FeatureConfig features = net::FeatureConfig::DrinkingWater();

  /// Shared MCMC scale for the Bayesian models; benches keep the defaults,
  /// tests shrink them.
  core::HierarchyConfig hierarchy;

  /// Also fit the extended suite (logistic, age-only curves, ES ranker).
  bool include_extended = false;

  /// HBP groupings to fit; the paper reports the best of
  /// material/diameter/laid-year.
  std::vector<core::GroupingScheme> hbp_groupings = {
      core::GroupingScheme::kMaterial, core::GroupingScheme::kDiameterBand,
      core::GroupingScheme::kLaidDecade};

  /// Machine-learning baselines joining the headline comparison. Their seeds
  /// and fit threads are derived from `seed` / hierarchy.num_threads at run
  /// time (like the SVMrank baseline), so the fields here carry only the
  /// structural knobs (tree counts, depths, ...).
  baselines::RsfConfig rsf;
  baselines::GbtConfig gbt;

  std::uint64_t seed = 2013;
};

/// One fitted model's evaluation record.
struct ModelRun {
  std::string name;
  std::vector<double> scores;  ///< aligned with input.pipes
  AucResult auc_full;          ///< AUC(100%), pipe-count budget
  AucResult auc_1pct;          ///< AUC(1%), pipe-count budget
  double detected_at_1pct_length = 0.0;  ///< Fig. 18.8 operating point
  bool is_hbp_grouping = false;
};

/// A full region comparison: the shared input, the per-model runs, and the
/// ready-to-score test set view.
struct RegionExperiment {
  std::string region_name;
  /// Keeps the dataset alive when the harness generated it itself
  /// (input.dataset points into it). Null when the caller owns the data.
  std::shared_ptr<const data::RegionDataset> owned_dataset;
  core::ModelInput input;
  std::vector<ScoredPipe> BaseScored() const;  ///< outcomes with zero scores
  std::vector<ModelRun> runs;

  /// ScoredPipe rows for one run (outcomes + that run's scores).
  std::vector<ScoredPipe> ScoredFor(const ModelRun& run) const;

  /// Index in `runs` of the best fixed-grouping HBP by full AUC (the
  /// paper's "only the results from the best groupings are shown"), or -1
  /// if no HBP runs exist.
  int BestHbpIndex() const;

  /// Finds a run by name; nullptr when absent.
  const ModelRun* FindRun(const std::string& name) const;

  /// The paper's headline rows: DPMHBP, HBP(best), Cox, SVMrank, Weibull,
  /// RSF, GBT — in that order, skipping any that failed to fit.
  std::vector<const ModelRun*> HeadlineRuns() const;
};

/// Fits and evaluates the full suite on one region dataset.
Result<RegionExperiment> RunRegionExperiment(const data::RegionDataset& dataset,
                                             const ExperimentConfig& config);

/// Generates the three paper regions (A, B, C) and runs the suite on each.
/// Any per-region failure aborts the batch with its status.
Result<std::vector<RegionExperiment>> RunPaperRegions(
    const ExperimentConfig& config);

}  // namespace eval
}  // namespace piperisk

#endif  // PIPERISK_EVAL_EXPERIMENT_H_
