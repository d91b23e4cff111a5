#include "eval/rolling.h"

#include <cmath>
#include <limits>
#include <memory>

#include "common/thread_pool.h"
#include "stats/rng.h"

namespace piperisk {
namespace eval {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
/// Dedicated RNG stream for spawning per-year experiment seeds, distinct
/// from every model stream so the seed derivation never aliases a sampler.
constexpr std::uint64_t kRollingSeedStream = 0x2011C;
}  // namespace

std::vector<std::uint64_t> RollingYearSeeds(std::uint64_t seed,
                                            int num_years) {
  std::vector<std::uint64_t> seeds;
  if (num_years <= 0) return seeds;
  seeds.reserve(static_cast<size_t>(num_years));
  stats::Rng spawner(seed, kRollingSeedStream);
  for (int i = 0; i < num_years; ++i) {
    stats::Rng fork = spawner.Fork();
    seeds.push_back(fork.NextU64());
  }
  return seeds;
}

const RollingSeries* RollingResult::Find(const std::string& model) const {
  for (const auto& s : series) {
    if (s.model == model) return &s;
  }
  return nullptr;
}

void RecordRollingObservation(RollingSeries* series, size_t year_count,
                              double auc_full, double auc_1pct) {
  if (year_count == 0) return;
  // Pad any missed years (model failed or was absent earlier) with NaN.
  while (series->auc_full.size() + 1 < year_count) {
    series->auc_full.push_back(kNan);
    series->auc_1pct.push_back(kNan);
  }
  if (series->auc_full.size() >= year_count) {
    // A value for this year is already recorded — two runs mapped to the
    // same label. Last write wins; pushing again would leave the series
    // longer than the year axis and misalign every later year.
    series->auc_full[year_count - 1] = auc_full;
    series->auc_1pct[year_count - 1] = auc_1pct;
    return;
  }
  series->auc_full.push_back(auc_full);
  series->auc_1pct.push_back(auc_1pct);
}

Result<RollingResult> RunRollingEvaluation(const data::RegionDataset& dataset,
                                           const RollingConfig& config) {
  if (config.last_test_year < config.first_test_year) {
    return Status::InvalidArgument("rolling year range inverted");
  }
  if (config.first_test_year <= dataset.config.observe_first) {
    return Status::InvalidArgument(
        "first test year leaves no training window");
  }
  const int num_years =
      config.last_test_year - config.first_test_year + 1;
  const std::vector<std::uint64_t> seeds =
      RollingYearSeeds(config.experiment.seed, num_years);
  const auto year_config = [&](int i) {
    const net::Year y = config.first_test_year + i;
    ExperimentConfig ec = config.experiment;
    ec.split.train_first = dataset.config.observe_first;
    ec.split.train_last = y - 1;
    ec.split.test_year = y;
    ec.seed = seeds[static_cast<size_t>(i)];
    return ec;
  };
  std::vector<std::unique_ptr<Result<RegionExperiment>>> slots(
      static_cast<size_t>(num_years));
  // Each year window retrains every model independently (its seed is a
  // function of (experiment.seed, year index) alone), so the windows run as
  // blocks on the shared pool into per-year slots; the sequential merge
  // below then sees exactly what a serial loop would have produced.
  ThreadPool::Shared().ParallelFor(num_years, config.num_threads, [&](int i) {
    slots[static_cast<size_t>(i)] = std::make_unique<Result<RegionExperiment>>(
        RunRegionExperiment(dataset, year_config(i)));
  });

  RollingResult out;
  for (net::Year y = config.first_test_year; y <= config.last_test_year; ++y) {
    out.test_years.push_back(y);
    const auto& experiment =
        *slots[static_cast<size_t>(y - config.first_test_year)];
    if (!experiment.ok()) return experiment.status();

    for (const ModelRun* run : experiment->HeadlineRuns()) {
      // HBP(best) can change grouping across years; report it under the
      // stable label "HBP(best)".
      std::string label = run->is_hbp_grouping ? "HBP(best)" : run->name;
      RollingSeries* series = nullptr;
      for (auto& s : out.series) {
        if (s.model == label) series = &s;
      }
      if (series == nullptr) {
        out.series.push_back(RollingSeries{label, {}, {}});
        series = &out.series.back();
      }
      RecordRollingObservation(series, out.test_years.size(),
                               run->auc_full.normalised,
                               run->auc_1pct.normalised);
    }
    // Pad models that were absent this year.
    for (auto& s : out.series) {
      while (s.auc_full.size() < out.test_years.size()) {
        s.auc_full.push_back(kNan);
        s.auc_1pct.push_back(kNan);
      }
    }
  }
  if (out.series.empty()) {
    return Status::Internal("no models produced rolling results");
  }
  return out;
}

Result<stats::TTestResult> RollingPairedTest(const RollingResult& result,
                                             const std::string& model_a,
                                             const std::string& model_b,
                                             bool use_full_auc) {
  const RollingSeries* a = result.Find(model_a);
  const RollingSeries* b = result.Find(model_b);
  if (a == nullptr || b == nullptr) {
    return Status::NotFound("model series not found in rolling result");
  }
  std::vector<double> xs, ys;
  const auto& va = use_full_auc ? a->auc_full : a->auc_1pct;
  const auto& vb = use_full_auc ? b->auc_full : b->auc_1pct;
  for (size_t i = 0; i < va.size() && i < vb.size(); ++i) {
    if (std::isnan(va[i]) || std::isnan(vb[i])) continue;
    xs.push_back(va[i]);
    ys.push_back(vb[i]);
  }
  return stats::PairedTTest(xs, ys, stats::Alternative::kGreater);
}

}  // namespace eval
}  // namespace piperisk
