#ifndef PIPERISK_EVAL_ROLLING_H_
#define PIPERISK_EVAL_ROLLING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/experiment.h"
#include "stats/hypothesis.h"

namespace piperisk {
namespace eval {

/// Rolling-origin (expanding-window) evaluation: for each test year y in
/// [first_test_year, last_test_year], train every model on
/// [observe_first, y-1] and evaluate on y. This is the honest repeated-
/// split backing for paired t-tests when only one failure history exists —
/// each year contributes one paired AUC observation per model.
struct RollingConfig {
  net::Year first_test_year = 2004;
  net::Year last_test_year = 2009;
  ExperimentConfig experiment;
  /// Worker threads for running year windows (<= 0: use the hardware).
  /// Each year's experiment is seeded only by (experiment.seed, year index)
  /// and writes its own result slot; the per-year slots merge in year order
  /// afterwards, so results never depend on the thread count.
  int num_threads = 1;
};

/// One model's metric series over the rolling test years.
struct RollingSeries {
  std::string model;
  std::vector<double> auc_full;       ///< one per test year
  std::vector<double> auc_1pct;
};

struct RollingResult {
  std::vector<net::Year> test_years;
  std::vector<RollingSeries> series;  ///< headline models only

  /// Finds a series by model name; nullptr when absent.
  const RollingSeries* Find(const std::string& model) const;
};

/// Records one year's observation in a series, keeping the series aligned
/// with `year_count` processed test years: missed earlier years are padded
/// with NaN, and when the series already holds a value for the current year
/// (two headline runs mapping to the same label, e.g. "HBP(best)") the last
/// write wins instead of double-pushing — a double push would desync the
/// series from the year axis for every later year.
void RecordRollingObservation(RollingSeries* series, size_t year_count,
                              double auc_full, double auc_1pct);

/// Derives one experiment seed per rolling year through independent
/// Rng::Fork streams of a dedicated spawner. The historical `seed + year`
/// arithmetic made adjacent base seeds share year streams (seed S, year y
/// and seed S+1, year y-1 collided); forked streams are pairwise
/// independent for any base seed while staying a pure function of
/// (seed, year index).
std::vector<std::uint64_t> RollingYearSeeds(std::uint64_t seed, int num_years);

/// Runs the rolling evaluation on one dataset. Models that fail to fit in
/// a given year contribute NaN for that year (and the paired tests skip
/// those years).
Result<RollingResult> RunRollingEvaluation(const data::RegionDataset& dataset,
                                           const RollingConfig& config);

/// Paired one-sided t-test over the rolling years: H1 model_a > model_b on
/// the chosen metric (true = full AUC, false = 1% AUC). Years where either
/// side is NaN are dropped.
Result<stats::TTestResult> RollingPairedTest(const RollingResult& result,
                                             const std::string& model_a,
                                             const std::string& model_b,
                                             bool use_full_auc);

}  // namespace eval
}  // namespace piperisk

#endif  // PIPERISK_EVAL_ROLLING_H_
