// compare-A: the paper's comparison protocol on region A, from the CSV
// bundle on disk to the evaluated ranking and its significance test, then
// published to the risk service. See main.cc for why this workload exists.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cox.h"
#include "baselines/gbt.h"
#include "baselines/rank_model.h"
#include "baselines/rsf.h"
#include "baselines/weibull.h"
#include "bench.h"
#include "common/json.h"
#include "common/trace.h"
#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "data/csv_io.h"
#include "data/failure_simulator.h"
#include "eval/experiment.h"
#include "eval/significance.h"
#include "serve_load.h"
#include "stats.h"

namespace piperisk {
namespace e2e {

namespace {

/// Every model RunRegionExperiment fits without the extended suite.
constexpr int kExpectedModelRuns = 9;
/// DPMHBP, the best HBP grouping, Cox, SVMrank, Weibull, RSF, GBT.
constexpr size_t kHeadlineModels = 7;

/// One evaluated model: its name and the two AUCs the paper reports.
struct ModelAucs {
  std::string name;
  double auc_full = 0.0;
  double auc_1pct = 0.0;
};

/// Summed duration of the library's own `dpmhbp.sweep` spans collected
/// while tracing was on.
double LibrarySweepMs() {
  std::ostringstream out;
  telemetry::WriteTraceJson(out);
  auto doc = json::Parse(out.str());
  Gate(doc.ok(), "parse the library trace");
  const json::Value* events = doc->Find("traceEvents");
  Gate(events != nullptr && events->is_array(), "library trace has events");
  double us = 0.0;
  for (const json::Value& e : events->AsArray()) {
    if (e.StringOr("name", "") == "dpmhbp.sweep") us += e.NumberOr("dur", 0);
  }
  return us / 1000.0;
}

/// The DPMHBP run against the best other headline model (by full AUC).
std::pair<const eval::ModelRun*, const eval::ModelRun*> PairedModels(
    const eval::RegionExperiment& experiment) {
  const eval::ModelRun* dpmhbp = experiment.FindRun("DPMHBP");
  const eval::ModelRun* best = nullptr;
  for (const eval::ModelRun* run : experiment.HeadlineRuns()) {
    if (run == dpmhbp) continue;
    if (best == nullptr ||
        run->auc_full.normalised > best->auc_full.normalised) {
      best = run;
    }
  }
  return {dpmhbp, best};
}

}  // namespace

Outcome RunCompareA(const Options& options) {
  Outcome outcome;
  if (options.trace) SetPerLayerDefaults(&outcome.metrics);
  const std::string prefix = options.work_dir + "/region_a";

  // --- set-up: generate region A and write its CSV bundle, three times ----
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    auto dataset = data::GenerateRegion(data::RegionConfig::RegionA());
    Gate(dataset.ok(), "generate region A");
    generate_s.push_back(SecondsSince(start));
    Gate(data::SaveRegionDataset(*dataset, prefix).ok(),
         "write the region A CSV bundle");
    setup_s.push_back(SecondsSince(start));
  }

  const int threads = options.nproc;
  eval::ExperimentConfig config;
  config.seed = options.seed;
  config.hierarchy.num_chains = 1;
  config.hierarchy.num_threads = threads;
  config.hierarchy.sweep_threads = threads;
  core::HierarchyConfig hierarchy = config.hierarchy;
  hierarchy.seed = config.seed;  // what RunRegionExperiment fits with
  core::ScoreOptions score_options;
  score_options.num_threads = threads;

  // --- gate reference: DPMHBP with a serial sweep --------------------------
  // Every timed run's DPMHBP scores (sweep-threads = nproc) must equal these
  // bit for bit.
  auto reference_data = data::LoadRegionDataset(prefix);
  Gate(reference_data.ok(), "load the region A bundle");
  auto reference_input = core::ModelInput::Build(
      *reference_data, config.split, config.category, config.features);
  Gate(reference_input.ok(), "build the model input");
  std::vector<double> reference_scores;
  {
    core::DpmhbpConfig dc;
    dc.hierarchy = hierarchy;
    dc.hierarchy.sweep_threads = 1;
    core::DpmhbpModel reference(dc);
    Gate(reference.Fit(*reference_input).ok(), "serial-sweep DPMHBP fit");
    auto scores = reference.ScorePipes(*reference_input, score_options);
    Gate(scores.ok(), "serial-sweep DPMHBP scores");
    reference_scores = std::move(*scores);
  }

  // --- timed runs ----------------------------------------------------------
  std::vector<double> walls;
  std::vector<double> peaks;
  std::vector<ModelAucs> aucs;  // from the first run; later runs must match
  double suite_auc = 0.0;
  std::string rival_name;
  RankingPublisher publisher;
  std::atomic<int> reps_done{0};
  auto pipeline = [&](int rep) {
    ResetPeakRss();
    RegistryDelta chains;
    const Clock::time_point start = Clock::now();
    auto dataset = data::LoadRegionDataset(prefix);
    Gate(dataset.ok(), "load the region A bundle");
    auto experiment = eval::RunRegionExperiment(*dataset, config);
    Gate(experiment.ok(), "run the region experiment");
    const auto [dpmhbp, best] = PairedModels(*experiment);
    Gate(dpmhbp != nullptr && best != nullptr, "DPMHBP and a rival exist");
    eval::PairedAucTestConfig paired_config;
    paired_config.seed = options.seed;
    paired_config.num_threads = threads;
    auto paired = eval::PairedAucTest(experiment->ScoredFor(*dpmhbp),
                                      experiment->ScoredFor(*best),
                                      paired_config);
    walls.push_back(SecondsSince(start));
    peaks.push_back(PeakRssMb());
    chains.Finish();

    outcome.attempted += kExpectedModelRuns + 1;
    outcome.failed += kExpectedModelRuns -
                      static_cast<long long>(experiment->runs.size()) +
                      chains.Counter("checkpoint.chains_failed") +
                      (paired.ok() ? 0 : 1);
    Gate(paired.ok(), "paired AUC test");
    Gate(experiment->HeadlineRuns().size() == kHeadlineModels,
         "every headline model is present");
    Gate(dpmhbp->scores.size() == reference_scores.size(),
         "DPMHBP scores every pipe");
    for (size_t i = 0; i < reference_scores.size(); ++i) {
      Gate(SameBits(dpmhbp->scores[i], reference_scores[i]),
           "DPMHBP scores are bit-identical at sweep-threads 1 and nproc");
    }
    std::vector<ModelAucs> these;
    double sum = 0.0;
    for (const eval::ModelRun* run : experiment->HeadlineRuns()) {
      sum += run->auc_full.normalised;
    }
    for (const eval::ModelRun& run : experiment->runs) {
      these.push_back({run.name, run.auc_full.normalised,
                       run.auc_1pct.normalised});
    }
    if (rep == 0) {
      aucs = these;
      suite_auc = sum / static_cast<double>(kHeadlineModels);
      rival_name = best->name;
    }
    Gate(these.size() == aucs.size(), "same models on every run");
    for (size_t i = 0; i < aucs.size(); ++i) {
      Gate(these[i].name == aucs[i].name &&
               SameBits(these[i].auc_full, aucs[i].auc_full) &&
               SameBits(these[i].auc_1pct, aucs[i].auc_1pct),
           "every run evaluates to the same AUCs");
    }

    // The evaluated DPMHBP ranking goes to the risk service.
    const core::ModelInput& input = experiment->input;
    std::vector<std::uint64_t> ids(input.num_pipes());
    std::vector<double> lengths(input.num_pipes());
    for (size_t i = 0; i < input.num_pipes(); ++i) {
      ids[i] = input.pipes[i]->id;
      lengths[i] = input.outcomes[i].length_m;
    }
    outcome.attempted += 1;
    publisher.Publish(std::move(ids), dpmhbp->scores, std::move(lengths));
    reps_done.fetch_add(1);
  };

  const double serve_seconds = std::max(1.0, 0.25 * options.seconds);
  const double pipeline_budget =
      (options.seconds - serve_seconds) * (options.trace ? 0.5 : 1.0);
  {
    Ticker ticker("compare-A", [&](double) {
      return std::to_string(reps_done.load()) + " analyses done";
    });
    // One analysis takes longer than half the run, so the median always
    // has two to stand on (the traced run's untraced reference needs one).
    RepeatFor(pipeline_budget, options.trace ? 1 : 2, pipeline);
  }
  LogSpread("compare-A wall_s", walls);
  const double wall_median = Median(walls);
  const ModelAucs& dpmhbp_aucs = aucs.front();
  Gate(dpmhbp_aucs.name == "DPMHBP", "DPMHBP is the first model run");

  if (!options.trace) {
    Metrics& m = outcome.metrics;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("wall_s", wall_median, "s");
    m.Set("peak_rss_mb", Median(peaks), "MB");
    m.Set("auc_full", 100.0 * dpmhbp_aucs.auc_full, "%");
    m.Set("auc_1pct", 100.0 * dpmhbp_aucs.auc_1pct, "%");
    m.Set("suite_auc_full", 100.0 * suite_auc, "%");
    publisher.ServeAndReport(options, serve_seconds, &outcome);
    return outcome;
  }

  // --- traced pass: the same analysis, one public call at a time ----------
  // Mirrors RunRegionExperiment + the paired test so each module's calls
  // get their own span; its AUCs must equal the untraced runs' bit for bit.
  SpanTree tree;
  Metrics& m = outcome.metrics;
  RegistryDelta pass_delta;
  const double pass_cpu_start = ProcessCpuSeconds();
  telemetry::StartTracing();
  std::vector<ModelAucs> traced;
  std::unique_ptr<RegistryDelta> sampler;  // around the DPMHBP fit
  {
    SpanTree::Scope root(&tree, "pipeline", "pipeline");
    std::unique_ptr<data::RegionDataset> dataset;
    {
      SpanTree::Scope s(&tree, "data.LoadRegionDataset", "data");
      auto loaded = data::LoadRegionDataset(prefix);
      Gate(loaded.ok(), "load the region A bundle");
      dataset = std::make_unique<data::RegionDataset>(std::move(*loaded));
    }
    std::unique_ptr<core::ModelInput> input;
    {
      SpanTree::Scope s(&tree, "core.ModelInput::Build", "core");
      auto built = core::ModelInput::Build(*dataset, config.split,
                                           config.category, config.features);
      Gate(built.ok(), "build the model input");
      input = std::make_unique<core::ModelInput>(std::move(*built));
    }
    std::vector<eval::ScoredPipe> base(input->num_pipes());
    for (size_t i = 0; i < base.size(); ++i) {
      base[i].failures = input->outcomes[i].test_failures;
      base[i].length_m = input->outcomes[i].length_m;
    }
    std::vector<std::vector<double>> scores;
    auto fit = [&](core::FailureModel& model, const char* fit_span,
                   const char* score_span, const char* layer) {
      {
        SpanTree::Scope s(&tree, fit_span, layer);
        Gate(model.Fit(*input).ok(), model.name() + " fit");
      }
      SpanTree::Scope s(&tree, score_span, layer);
      auto scored = model.ScorePipes(*input, score_options);
      Gate(scored.ok(), model.name() + " scores");
      scores.push_back(std::move(*scored));
    };
    auto evaluate = [&](const std::string& name) {
      std::vector<eval::ScoredPipe> pipes = base;
      for (size_t i = 0; i < pipes.size(); ++i) {
        pipes[i].score = scores.back()[i];
      }
      eval::RankOptions rank_options;
      rank_options.num_threads = threads;
      std::unique_ptr<eval::RankedScores> ranked;
      {
        SpanTree::Scope s(&tree, "eval.RankedScores::Build", "eval");
        ranked = std::make_unique<eval::RankedScores>(
            eval::RankedScores::Build(pipes, rank_options));
      }
      SpanTree::Scope s(&tree, "eval.metrics", "eval");
      auto full = ranked->Auc(eval::BudgetMode::kPipeCount, 1.0);
      auto one = ranked->Auc(eval::BudgetMode::kPipeCount, 0.01);
      auto det = ranked->DetectedAtBudget(eval::BudgetMode::kLength, 0.01);
      Gate(full.ok() && one.ok() && det.ok(), name + " metrics");
      traced.push_back({name, full->normalised, one->normalised});
    };

    {
      core::DpmhbpConfig dc;
      dc.hierarchy = hierarchy;
      core::DpmhbpModel model(dc);
      sampler = std::make_unique<RegistryDelta>();
      fit(model, "core.dpmhbp.Fit", "core.dpmhbp.ScorePipes", "core");
      sampler->Finish();
      evaluate(model.name());
    }
    for (core::GroupingScheme scheme : config.hbp_groupings) {
      core::HbpModel model(scheme, hierarchy);
      fit(model, "core.hbp.Fit", "core.hbp.ScorePipes", "core");
      evaluate(model.name());
    }
    {
      baselines::CoxModel model;
      fit(model, "baselines.cox", "baselines.cox", "baselines");
      evaluate(model.name());
    }
    {
      baselines::RankModelConfig rc;
      rc.seed = config.seed + 1;
      baselines::RankModel model(rc);
      fit(model, "baselines.svm", "baselines.svm", "baselines");
      evaluate(model.name());
    }
    {
      baselines::WeibullModel model;
      fit(model, "baselines.weibull", "baselines.weibull", "baselines");
      evaluate(model.name());
    }
    {
      baselines::RsfConfig rc = config.rsf;
      rc.seed = config.seed + 3;
      rc.num_fit_threads = threads;
      baselines::RsfModel model(rc);
      fit(model, "baselines.rsf", "baselines.rsf", "baselines");
      evaluate(model.name());
    }
    {
      baselines::GbtConfig gc = config.gbt;
      gc.seed = config.seed + 4;
      gc.num_fit_threads = threads;
      baselines::GbtModel model(gc);
      fit(model, "baselines.gbt", "baselines.gbt", "baselines");
      evaluate(model.name());
    }
    {
      // DPMHBP (fitted first) against the rival the untraced runs chose.
      size_t rival = 0;
      for (size_t i = 0; i < traced.size(); ++i) {
        if (traced[i].name == rival_name) rival = i;
      }
      Gate(rival > 0, "traced pass fits the paired rival");
      std::vector<eval::ScoredPipe> a = base;
      std::vector<eval::ScoredPipe> b = base;
      for (size_t i = 0; i < base.size(); ++i) {
        a[i].score = scores[0][i];
        b[i].score = scores[rival][i];
      }
      eval::PairedAucTestConfig paired_config;
      paired_config.seed = options.seed;
      paired_config.num_threads = threads;
      SpanTree::Scope s(&tree, "eval.PairedAucTest", "eval");
      Gate(eval::PairedAucTest(a, b, paired_config).ok(), "paired AUC test");
    }
    Gate(scores[0] == reference_scores,
         "traced DPMHBP scores equal the serial-sweep reference");
  }
  telemetry::StopTracing();
  pass_delta.Finish();
  const double pass_cpu_s = ProcessCpuSeconds() - pass_cpu_start;

  Gate(traced.size() == aucs.size(), "traced pass fits every model");
  for (size_t i = 0; i < aucs.size(); ++i) {
    Gate(traced[i].name == aucs[i].name &&
             SameBits(traced[i].auc_full, aucs[i].auc_full) &&
             SameBits(traced[i].auc_1pct, aucs[i].auc_1pct),
         "traced pass reproduces the untraced AUCs");
  }

  m.Set("data.generate_s", Median(generate_s), "s");
  m.Set("data.csv_load_ms", tree.TotalMs("data.LoadRegionDataset"), "ms");
  m.Set("core.input_build_ms", tree.TotalMs("core.ModelInput::Build"), "ms");
  m.Set("core.dpmhbp_fit_ms", tree.TotalMs("core.dpmhbp.Fit"), "ms");
  const double parallel = static_cast<double>(
      sampler->Counter("core.sweep.parallel_sweeps"));
  const double sweeps =
      parallel +
      static_cast<double>(sampler->Counter("core.sweep.serial_sweeps"));
  m.Set("core.sweeps", sweeps, "count");
  m.Set("core.sweep_ms", LibrarySweepMs(), "ms");
  m.Set("core.parallel_sweep_share", Ratio(parallel, sweeps), "ratio");
  m.Set("core.accept_ratio",
        Ratio(static_cast<double>(
                  sampler->Counter("mcmc.metropolis.accepts")),
              static_cast<double>(
                  sampler->Counter("mcmc.metropolis.proposals"))),
        "ratio");
  const double hits =
      static_cast<double>(sampler->Counter("mcmc.likelihood_cache.hits"));
  const double misses =
      static_cast<double>(sampler->Counter("mcmc.likelihood_cache.misses"));
  m.Set("core.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  m.Set("core.dedup_ratio",
        Ratio(static_cast<double>(sampler->Counter("suffstats.classes")),
              static_cast<double>(sampler->Counter("suffstats.rows"))),
        "ratio");
  m.Set("core.hbp_fit_ms", tree.TotalMs("core.hbp.Fit"), "ms");
  m.Set("core.score_ms",
        tree.TotalMs("core.dpmhbp.ScorePipes") +
            tree.TotalMs("core.hbp.ScorePipes"),
        "ms");
  m.Set("core.chain_retries",
        static_cast<double>(pass_delta.Counter("checkpoint.chain_retries")),
        "count");
  m.Set("core.chains_failed",
        static_cast<double>(pass_delta.Counter("checkpoint.chains_failed")),
        "count");
  for (const char* family : {"weibull", "rsf", "gbt", "cox", "svm"}) {
    // Fit and score share one span name per family, so the total is both.
    m.Set(std::string("baselines.") + family + "_fit_ms",
          tree.TotalMs(std::string("baselines.") + family), "ms");
  }
  m.Set("eval.rank_build_ms", tree.TotalMs("eval.RankedScores::Build"), "ms");
  m.Set("eval.metrics_ms", tree.TotalMs("eval.metrics"), "ms");
  m.Set("eval.significance_ms", tree.TotalMs("eval.PairedAucTest"), "ms");
  SetPoolMetrics(pass_delta, &m);
  m.Set("process.cpu_s", pass_cpu_s, "s");
  m.Set("process.cpu_per_wall", Ratio(pass_cpu_s, tree.RootMs() / 1000.0),
        "ratio");
  ReportLayers(tree, wall_median, &m);
  publisher.ServeAndReport(options, serve_seconds, &outcome);
  return outcome;
}

}  // namespace e2e
}  // namespace piperisk
