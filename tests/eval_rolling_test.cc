// Tests for the rolling-origin validation harness and the MCMC diagnostics
// report.

#include <gtest/gtest.h>

#include <cmath>

#include "core/diagnostics.h"
#include "eval/rolling.h"
#include "tests/test_util.h"

namespace piperisk {
namespace eval {
namespace {

RollingConfig FastRolling() {
  RollingConfig config;
  config.first_test_year = 2007;
  config.last_test_year = 2009;
  config.experiment.hierarchy.burn_in = 15;
  config.experiment.hierarchy.samples = 30;
  return config;
}

TEST(RollingTest, ProducesSeriesPerHeadlineModel) {
  const auto& shared = testutil::GetSharedRegion();
  auto rolling = RunRollingEvaluation(shared.dataset, FastRolling());
  ASSERT_TRUE(rolling.ok()) << rolling.status().ToString();
  ASSERT_EQ(rolling->test_years.size(), 3u);
  EXPECT_EQ(rolling->test_years[0], 2007);
  EXPECT_EQ(rolling->test_years[2], 2009);
  for (const char* model : {"DPMHBP", "HBP(best)", "Cox", "SVMrank",
                            "Weibull", "RSF", "GBT"}) {
    const RollingSeries* series = rolling->Find(model);
    ASSERT_NE(series, nullptr) << model;
    ASSERT_EQ(series->auc_full.size(), 3u) << model;
    for (double auc : series->auc_full) {
      if (!std::isnan(auc)) {
        EXPECT_GT(auc, 0.3) << model;
        EXPECT_LE(auc, 1.0) << model;
      }
    }
  }
  EXPECT_EQ(rolling->Find("NotAModel"), nullptr);
}

TEST(RollingTest, PairedTestRunsOnSeries) {
  const auto& shared = testutil::GetSharedRegion();
  auto rolling = RunRollingEvaluation(shared.dataset, FastRolling());
  ASSERT_TRUE(rolling.ok());
  auto test = RollingPairedTest(*rolling, "DPMHBP", "Cox", true);
  // With only 3 years the test may or may not reject; it must at least be
  // computable (nonzero variance of differences is near-certain here).
  if (test.ok()) {
    EXPECT_GE(test->p_value, 0.0);
    EXPECT_LE(test->p_value, 1.0);
    EXPECT_DOUBLE_EQ(test->dof, 2.0);
  }
  EXPECT_FALSE(RollingPairedTest(*rolling, "DPMHBP", "NotAModel", true).ok());
}

TEST(RollingTest, RecordObservationKeepsSeriesAlignedOnDuplicateLabels) {
  // Regression: two headline runs mapping to the same label in one year
  // (e.g. both "HBP(best)") used to double-push, leaving the series longer
  // than the year axis; the NaN pad loop then never realigned and every
  // later year was shifted. The merge helper must apply last-write-wins.
  RollingSeries series{"HBP(best)", {}, {}};

  // Year 1: two runs under the same label.
  RecordRollingObservation(&series, 1, 0.70, 0.50);
  RecordRollingObservation(&series, 1, 0.80, 0.60);
  ASSERT_EQ(series.auc_full.size(), 1u);
  EXPECT_DOUBLE_EQ(series.auc_full[0], 0.80);  // last write wins
  EXPECT_DOUBLE_EQ(series.auc_1pct[0], 0.60);

  // Year 2: a single run lands in the right slot.
  RecordRollingObservation(&series, 2, 0.75, 0.55);
  ASSERT_EQ(series.auc_full.size(), 2u);
  EXPECT_DOUBLE_EQ(series.auc_full[1], 0.75);

  // Year 4 (year 3 missed): the pad fills the gap with NaN.
  RecordRollingObservation(&series, 4, 0.9, 0.8);
  ASSERT_EQ(series.auc_full.size(), 4u);
  EXPECT_TRUE(std::isnan(series.auc_full[2]));
  EXPECT_TRUE(std::isnan(series.auc_1pct[2]));
  EXPECT_DOUBLE_EQ(series.auc_full[3], 0.9);
}

TEST(RollingTest, YearSeedsComeFromADedicatedStream) {
  // Regression for the seed-collision bug: per-year seeds used to be
  // `seed + year`, so base seed S at year y and base seed S+1 at year y-1
  // shared an RNG stream. The forked spawner gives every (seed, year) pair
  // an unrelated stream.
  auto seeds = RollingYearSeeds(1849, 5);
  ASSERT_EQ(seeds.size(), 5u);
  // Deterministic for a fixed base seed.
  EXPECT_EQ(RollingYearSeeds(1849, 5), seeds);
  // Prefix-stable: asking for fewer years yields a prefix, so extending the
  // horizon never changes the seeds of already-evaluated years.
  auto shorter = RollingYearSeeds(1849, 3);
  ASSERT_EQ(shorter.size(), 3u);
  for (size_t i = 0; i < shorter.size(); ++i) EXPECT_EQ(shorter[i], seeds[i]);
  // Pairwise distinct within a run.
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]) << i << "," << j;
    }
  }
  // The old collision pattern must be gone: shifting the base seed by one
  // must not reproduce a shifted copy of the same seed sequence.
  auto shifted = RollingYearSeeds(1850, 5);
  for (size_t i = 0; i + 1 < seeds.size(); ++i) {
    EXPECT_NE(shifted[i], seeds[i + 1]) << i;
  }
  EXPECT_TRUE(RollingYearSeeds(1849, 0).empty());
  EXPECT_TRUE(RollingYearSeeds(1849, -3).empty());
}

TEST(RollingTest, ValidatesYearRange) {
  const auto& shared = testutil::GetSharedRegion();
  RollingConfig config = FastRolling();
  config.first_test_year = 2009;
  config.last_test_year = 2007;
  EXPECT_FALSE(RunRollingEvaluation(shared.dataset, config).ok());
  config = FastRolling();
  config.first_test_year = shared.dataset.config.observe_first;
  EXPECT_FALSE(RunRollingEvaluation(shared.dataset, config).ok());
}

TEST(DiagnosticsTest, DpmhbpReportHasSaneFields) {
  const auto& shared = testutil::GetSharedRegion();
  core::DpmhbpConfig config;
  config.hierarchy = testutil::FastHierarchy();
  config.hierarchy.samples = 80;
  core::DpmhbpModel model(config);
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto d = core::DiagnoseDpmhbp(model);
  EXPECT_EQ(d.num_groups.samples, 80u);
  EXPECT_EQ(d.alpha.samples, 80u);
  EXPECT_GT(d.mean_groups, 1.0);
  EXPECT_GT(d.num_groups.ess, 1.0);
  EXPECT_GT(d.alpha.ess, 1.0);
  std::string text = core::RenderDiagnostics({d.num_groups, d.alpha});
  EXPECT_NE(text.find("K (groups)"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
}

TEST(DiagnosticsTest, HbpReportCoversEveryGroup) {
  const auto& shared = testutil::GetSharedRegion();
  core::HbpModel model(core::GroupingScheme::kMaterial,
                       testutil::FastHierarchy());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto diagnostics = core::DiagnoseHbp(model);
  EXPECT_EQ(diagnostics.size(), model.group_rates().size());
  for (const auto& d : diagnostics) {
    EXPECT_GT(d.samples, 0u);
    EXPECT_GT(d.mean, 0.0);
    EXPECT_LT(d.mean, 1.0);
  }
}

}  // namespace
}  // namespace eval
}  // namespace piperisk
