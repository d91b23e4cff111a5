#include "eval/experiment.h"

#include <memory>
#include <utility>

#include "baselines/age_models.h"
#include "baselines/cox.h"
#include "baselines/gbt.h"
#include "baselines/logistic.h"
#include "baselines/rank_model.h"
#include "baselines/rsf.h"
#include "baselines/weibull.h"
#include "common/logging.h"
#include "data/failure_simulator.h"

namespace piperisk {
namespace eval {

std::vector<ScoredPipe> RegionExperiment::BaseScored() const {
  std::vector<ScoredPipe> out(input.num_pipes());
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    out[i].score = 0.0;
    out[i].failures = input.outcomes[i].test_failures;
    out[i].length_m = input.outcomes[i].length_m;
  }
  return out;
}

std::vector<ScoredPipe> RegionExperiment::ScoredFor(const ModelRun& run) const {
  std::vector<ScoredPipe> out = BaseScored();
  for (size_t i = 0; i < out.size() && i < run.scores.size(); ++i) {
    out[i].score = run.scores[i];
  }
  return out;
}

int RegionExperiment::BestHbpIndex() const {
  int best = -1;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].is_hbp_grouping) continue;
    if (best < 0 ||
        runs[i].auc_full.normalised > runs[static_cast<size_t>(best)]
                                          .auc_full.normalised) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

const ModelRun* RegionExperiment::FindRun(const std::string& name) const {
  for (const ModelRun& run : runs) {
    if (run.name == name) return &run;
  }
  return nullptr;
}

std::vector<const ModelRun*> RegionExperiment::HeadlineRuns() const {
  std::vector<const ModelRun*> out;
  if (const ModelRun* r = FindRun("DPMHBP")) out.push_back(r);
  int hbp = BestHbpIndex();
  if (hbp >= 0) out.push_back(&runs[static_cast<size_t>(hbp)]);
  if (const ModelRun* r = FindRun("Cox")) out.push_back(r);
  if (const ModelRun* r = FindRun("SVMrank")) out.push_back(r);
  if (const ModelRun* r = FindRun("Weibull")) out.push_back(r);
  if (const ModelRun* r = FindRun("RSF")) out.push_back(r);
  if (const ModelRun* r = FindRun("GBT")) out.push_back(r);
  return out;
}

namespace {

/// Fits a model, scores it (blocked parallel path), and appends the
/// evaluated run. The rank index is built once per scored set and reused by
/// every metric — no per-metric re-sort. A model that fails to fit is
/// skipped with a warning (the comparison remains valid for the others).
void FitAndRecord(core::FailureModel* model, const core::ModelInput& input,
                  const core::ScoreOptions& score_options,
                  RegionExperiment* experiment, bool is_hbp) {
  Status st = model->Fit(input);
  if (!st.ok()) {
    PIPERISK_LOG(kWarning) << model->name() << " failed to fit: "
                           << st.ToString();
    return;
  }
  auto scores = model->ScorePipes(input, score_options);
  if (!scores.ok()) {
    PIPERISK_LOG(kWarning) << model->name() << " failed to score: "
                           << scores.status().ToString();
    return;
  }
  ModelRun run;
  run.name = model->name();
  run.scores = std::move(*scores);
  run.is_hbp_grouping = is_hbp;

  std::vector<ScoredPipe> scored = experiment->BaseScored();
  for (size_t i = 0; i < scored.size(); ++i) scored[i].score = run.scores[i];

  RankOptions rank_options;
  rank_options.num_threads = score_options.num_threads;
  const RankedScores ranked = RankedScores::Build(scored, rank_options);
  if (auto auc = ranked.Auc(BudgetMode::kPipeCount, 1.0); auc.ok()) {
    run.auc_full = *auc;
  }
  if (auto auc = ranked.Auc(BudgetMode::kPipeCount, 0.01); auc.ok()) {
    run.auc_1pct = *auc;
  }
  if (auto det = ranked.DetectedAtBudget(BudgetMode::kLength, 0.01);
      det.ok()) {
    run.detected_at_1pct_length = *det;
  }
  experiment->runs.push_back(std::move(run));
}

}  // namespace

Result<RegionExperiment> RunRegionExperiment(const data::RegionDataset& dataset,
                                             const ExperimentConfig& config) {
  auto input = core::ModelInput::Build(dataset, config.split, config.category,
                                       config.features);
  if (!input.ok()) return input.status();

  RegionExperiment experiment;
  experiment.region_name = dataset.network.region().name;
  experiment.input = std::move(*input);

  core::HierarchyConfig hierarchy = config.hierarchy;
  hierarchy.seed = config.seed;
  core::ScoreOptions score_options;
  score_options.num_threads = hierarchy.num_threads;

  // --- the paper's headline approaches ------------------------------------
  {
    core::DpmhbpConfig dc;
    dc.hierarchy = hierarchy;
    core::DpmhbpModel dpmhbp(dc);
    FitAndRecord(&dpmhbp, experiment.input, score_options, &experiment,
                 /*is_hbp=*/false);
  }
  for (core::GroupingScheme scheme : config.hbp_groupings) {
    core::HbpModel hbp(scheme, hierarchy);
    FitAndRecord(&hbp, experiment.input, score_options, &experiment,
                 /*is_hbp=*/true);
  }
  {
    baselines::CoxModel cox;
    FitAndRecord(&cox, experiment.input, score_options, &experiment, false);
  }
  {
    baselines::RankModelConfig rc;
    rc.seed = config.seed + 1;
    baselines::RankModel svm(rc);
    FitAndRecord(&svm, experiment.input, score_options, &experiment, false);
  }
  {
    baselines::WeibullModel weibull;
    FitAndRecord(&weibull, experiment.input, score_options, &experiment, false);
  }
  {
    baselines::RsfConfig rc = config.rsf;
    rc.seed = config.seed + 3;
    rc.num_fit_threads = hierarchy.num_threads;
    baselines::RsfModel rsf(rc);
    FitAndRecord(&rsf, experiment.input, score_options, &experiment, false);
  }
  {
    baselines::GbtConfig gc = config.gbt;
    gc.seed = config.seed + 4;
    gc.num_fit_threads = hierarchy.num_threads;
    baselines::GbtModel gbt(gc);
    FitAndRecord(&gbt, experiment.input, score_options, &experiment, false);
  }

  // --- extended suite -------------------------------------------------------
  if (config.include_extended) {
    {
      baselines::LogisticModel logistic;
      FitAndRecord(&logistic, experiment.input, score_options, &experiment,
                   false);
    }
    for (auto curve :
         {baselines::AgeCurve::kTimeExponential,
          baselines::AgeCurve::kTimePower, baselines::AgeCurve::kTimeLinear}) {
      baselines::AgeOnlyModel age(curve);
      FitAndRecord(&age, experiment.input, score_options, &experiment,
                   false);
    }
    {
      baselines::RankModelConfig rc;
      rc.trainer = baselines::RankTrainer::kDirectAucEs;
      rc.seed = config.seed + 2;
      baselines::RankModel es(rc);
      FitAndRecord(&es, experiment.input, score_options, &experiment, false);
    }
  }

  if (experiment.runs.empty()) {
    return Status::Internal("every model failed to fit");
  }
  return experiment;
}

Result<std::vector<RegionExperiment>> RunPaperRegions(
    const ExperimentConfig& config) {
  std::vector<RegionExperiment> out;
  for (const data::RegionConfig& rc :
       {data::RegionConfig::RegionA(), data::RegionConfig::RegionB(),
        data::RegionConfig::RegionC()}) {
    auto dataset = data::GenerateRegion(rc);
    if (!dataset.ok()) return dataset.status();
    auto owned =
        std::make_shared<const data::RegionDataset>(std::move(*dataset));
    auto experiment = RunRegionExperiment(*owned, config);
    if (!experiment.ok()) return experiment.status();
    experiment->owned_dataset = owned;
    out.push_back(std::move(*experiment));
  }
  return out;
}

}  // namespace eval
}  // namespace piperisk
