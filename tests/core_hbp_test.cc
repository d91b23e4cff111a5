// Tests for the pipe-level HBP baseline: grouping, covariate handling,
// posterior behaviour, and ranking skill on synthetic data with known
// structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "core/hbp.h"
#include "core/mcmc.h"
#include "tests/test_util.h"

namespace piperisk {
namespace core {
namespace {

using testutil::FastHierarchy;
using testutil::GetSharedRegion;
using testutil::ScoreAuc;

TEST(GroupingTest, SchemesProduceDenseLabels) {
  const auto& shared = GetSharedRegion();
  for (auto scheme :
       {GroupingScheme::kMaterial, GroupingScheme::kDiameterBand,
        GroupingScheme::kLaidDecade, GroupingScheme::kCoating,
        GroupingScheme::kSoilCorrosiveness, GroupingScheme::kSingle}) {
    auto labels = AssignFixedPipeGroups(shared.cwm_input, scheme);
    ASSERT_EQ(labels.size(), shared.cwm_input.num_pipes());
    std::set<int> seen(labels.begin(), labels.end());
    int k = static_cast<int>(seen.size());
    EXPECT_GE(k, 1);
    for (int g = 0; g < k; ++g) EXPECT_EQ(seen.count(g), 1u) << ToString(scheme);
  }
}

TEST(GroupingTest, SingleSchemeHasOneGroup) {
  const auto& shared = GetSharedRegion();
  auto labels = AssignFixedPipeGroups(shared.cwm_input, GroupingScheme::kSingle);
  for (int l : labels) EXPECT_EQ(l, 0);
}

TEST(GroupingTest, MaterialGroupsMatchPipeMaterials) {
  const auto& shared = GetSharedRegion();
  auto labels =
      AssignFixedPipeGroups(shared.cwm_input, GroupingScheme::kMaterial);
  // Same material -> same label, different material -> different label.
  for (size_t i = 1; i < shared.cwm_input.num_pipes(); ++i) {
    bool same_material = shared.cwm_input.pipes[i]->material ==
                         shared.cwm_input.pipes[0]->material;
    EXPECT_EQ(labels[i] == labels[0], same_material) << i;
  }
}

TEST(PipeCountsTest, MatchDirectRecount) {
  const auto& shared = GetSharedRegion();
  auto counts = BuildPipeCounts(shared.cwm_input);
  ASSERT_EQ(counts.size(), shared.cwm_input.num_pipes());
  int total_k = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GE(counts[i].k, 0);
    EXPECT_LE(counts[i].k, counts[i].n);
    EXPECT_LE(counts[i].n, shared.cwm_input.split.TrainYears());
    total_k += counts[i].k;
    // k <= raw failure count (binarised by year).
    EXPECT_LE(counts[i].k, shared.cwm_input.outcomes[i].train_failures);
  }
  EXPECT_GT(total_k, 0);
}

TEST(HbpModelTest, FitProducesCalibratedProbabilities) {
  const auto& shared = GetSharedRegion();
  HbpModel model(GroupingScheme::kMaterial, FastHierarchy());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  const auto& probs = model.pipe_probabilities();
  ASSERT_EQ(probs.size(), shared.cwm_input.num_pipes());
  double sum = 0.0;
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    sum += p;
  }
  // Expected yearly failures ~ observed yearly rate (calibration sanity):
  // sum of pipe-year probabilities should be within 3x of the observed
  // yearly failure-year count.
  auto counts = BuildPipeCounts(shared.cwm_input);
  double observed = 0.0;
  for (const auto& c : counts) observed += c.k;
  observed /= shared.cwm_input.split.TrainYears();
  EXPECT_GT(sum, observed / 3.0);
  EXPECT_LT(sum, observed * 3.0);
}

TEST(HbpModelTest, RanksFailedPipesAboveAverage) {
  const auto& shared = GetSharedRegion();
  HbpModel model(GroupingScheme::kMaterial, FastHierarchy());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto scores = model.ScorePipes(shared.cwm_input);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(ScoreAuc(shared.cwm_input, *scores), 0.60);
}

TEST(HbpModelTest, HistoryRaisesPredictedRisk) {
  const auto& shared = GetSharedRegion();
  HbpModel model(GroupingScheme::kSingle, FastHierarchy());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto scores = model.ScorePipes(shared.cwm_input);
  ASSERT_TRUE(scores.ok());
  // Mean score of pipes with training failures must exceed those without.
  double with = 0.0, without = 0.0;
  int n_with = 0, n_without = 0;
  for (size_t i = 0; i < shared.cwm_input.num_pipes(); ++i) {
    if (shared.cwm_input.outcomes[i].train_failures > 0) {
      with += (*scores)[i];
      ++n_with;
    } else {
      without += (*scores)[i];
      ++n_without;
    }
  }
  ASSERT_GT(n_with, 0);
  ASSERT_GT(n_without, 0);
  EXPECT_GT(with / n_with, 2.0 * without / n_without);
}

TEST(HbpModelTest, GroupRatesDifferAcrossGroups) {
  const auto& shared = GetSharedRegion();
  HbpModel model(GroupingScheme::kLaidDecade, FastHierarchy());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  const auto& rates = model.group_rates();
  ASSERT_GE(rates.size(), 2u);
  double lo = *std::min_element(rates.begin(), rates.end());
  double hi = *std::max_element(rates.begin(), rates.end());
  EXPECT_GT(hi, lo);
  for (double q : rates) {
    EXPECT_GT(q, 0.0);
    EXPECT_LT(q, 1.0);
  }
}

TEST(HbpModelTest, DeterministicForSeed) {
  const auto& shared = GetSharedRegion();
  HierarchyConfig h = FastHierarchy();
  HbpModel m1(GroupingScheme::kMaterial, h);
  HbpModel m2(GroupingScheme::kMaterial, h);
  ASSERT_TRUE(m1.Fit(shared.cwm_input).ok());
  ASSERT_TRUE(m2.Fit(shared.cwm_input).ok());
  auto s1 = m1.ScorePipes(shared.cwm_input);
  auto s2 = m2.ScorePipes(shared.cwm_input);
  for (size_t i = 0; i < s1->size(); ++i) {
    EXPECT_DOUBLE_EQ((*s1)[i], (*s2)[i]);
  }
}

TEST(HbpModelTest, CovariatesChangeScores) {
  const auto& shared = GetSharedRegion();
  HierarchyConfig with_cov = FastHierarchy();
  HierarchyConfig without_cov = FastHierarchy();
  without_cov.use_covariates = false;
  HbpModel m1(GroupingScheme::kMaterial, with_cov);
  HbpModel m2(GroupingScheme::kMaterial, without_cov);
  ASSERT_TRUE(m1.Fit(shared.cwm_input).ok());
  ASSERT_TRUE(m2.Fit(shared.cwm_input).ok());
  auto s1 = m1.ScorePipes(shared.cwm_input);
  auto s2 = m2.ScorePipes(shared.cwm_input);
  bool any_diff = false;
  for (size_t i = 0; i < s1->size() && !any_diff; ++i) {
    any_diff = std::fabs((*s1)[i] - (*s2)[i]) > 1e-9;
  }
  EXPECT_TRUE(any_diff);
}

TEST(HbpModelTest, ScoreBeforeFitFails) {
  const auto& shared = GetSharedRegion();
  HbpModel model(GroupingScheme::kMaterial);
  EXPECT_FALSE(model.ScorePipes(shared.cwm_input).ok());
}

TEST(HbpModelTest, ConfigValidation) {
  // Non-finite or non-positive concentrations (including the improper
  // prior c0 = 0) fail cleanly, not by abort or a silent fit.
  const auto& shared = GetSharedRegion();
  const double kNaN = std::nan("");
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {0.0, -1.0, kNaN, kInf}) {
    HierarchyConfig h = FastHierarchy();
    h.c = bad;
    EXPECT_EQ(HbpModel(GroupingScheme::kMaterial, h)
                  .Fit(shared.cwm_input)
                  .code(),
              StatusCode::kInvalidArgument)
        << "c=" << bad;
    h = FastHierarchy();
    h.c0 = bad;
    EXPECT_EQ(HbpModel(GroupingScheme::kMaterial, h)
                  .Fit(shared.cwm_input)
                  .code(),
              StatusCode::kInvalidArgument)
        << "c0=" << bad;
  }
}

TEST(HbpModelTest, RejectsNegativeBurnIn) {
  const auto& shared = GetSharedRegion();
  for (int bad : {-1, -5, -100}) {
    HierarchyConfig h = FastHierarchy();
    h.burn_in = bad;
    const Status status =
        HbpModel(GroupingScheme::kMaterial, h).Fit(shared.cwm_input);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "burn=" << bad;
    EXPECT_NE(status.message().find("burn_in"), std::string::npos)
        << status.ToString();
  }
  HierarchyConfig h = FastHierarchy();
  h.burn_in = 0;
  HbpModel model(GroupingScheme::kMaterial, h);
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  ASSERT_FALSE(model.group_rate_traces().empty());
  EXPECT_EQ(model.group_rate_traces()[0].size(),
            static_cast<size_t>(h.samples));
}

TEST(HbpModelTest, ValidateHierarchyChecksEveryField) {
  EXPECT_TRUE(ValidateHierarchy(HierarchyConfig()).ok());
  auto invalid = [](auto mutate) {
    HierarchyConfig h;
    mutate(h);
    return ValidateHierarchy(h).code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(invalid([](HierarchyConfig& h) { h.burn_in = -1; }));
  EXPECT_TRUE(invalid([](HierarchyConfig& h) { h.samples = 0; }));
  EXPECT_TRUE(invalid([](HierarchyConfig& h) { h.num_chains = 0; }));
  EXPECT_TRUE(invalid([](HierarchyConfig& h) { h.c = 0.0; }));
  EXPECT_TRUE(invalid([](HierarchyConfig& h) { h.c0 = std::nan(""); }));
  HierarchyConfig edge;
  edge.burn_in = 0;
  edge.samples = 1;
  EXPECT_TRUE(ValidateHierarchy(edge).ok());
}

TEST(HbpModelTest, TracesSupportDiagnostics) {
  const auto& shared = GetSharedRegion();
  HierarchyConfig h = FastHierarchy();
  h.samples = 60;
  HbpModel model(GroupingScheme::kSingle, h);
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  ASSERT_EQ(model.group_rate_traces().size(), 1u);
  const auto& trace = model.group_rate_traces()[0];
  EXPECT_EQ(trace.size(), 60u);
  // The chain should move and stay in (0, 1).
  std::set<double> distinct(trace.begin(), trace.end());
  EXPECT_GT(distinct.size(), 5u);
  EXPECT_GT(EffectiveSampleSize(trace), 3.0);
}

TEST(HbpModelTest, SegmentHelpersForDpmhbp) {
  const auto& shared = GetSharedRegion();
  auto multipliers =
      FitSegmentMultipliers(shared.cwm_input, FastHierarchy());
  ASSERT_EQ(multipliers.size(), shared.cwm_input.num_segments());
  double mean = 0.0;
  for (double m : multipliers) {
    EXPECT_GE(m, FastHierarchy().min_multiplier);
    EXPECT_LE(m, FastHierarchy().max_multiplier);
    mean += m;
  }
  mean /= multipliers.size();
  EXPECT_NEAR(mean, 1.0, 0.35);  // normalised before clamping

  // AggregatePipeRisk: a pipe's risk exceeds its max segment probability
  // and is below the sum.
  std::vector<double> segment_probs(shared.cwm_input.num_segments(), 0.01);
  auto risk = AggregatePipeRisk(shared.cwm_input, segment_probs);
  for (size_t i = 0; i < risk.size(); ++i) {
    size_t n_segments = shared.cwm_input.pipe_segment_rows[i].size();
    EXPECT_GE(risk[i], 0.01 - 1e-12);
    EXPECT_LE(risk[i], 0.01 * n_segments + 1e-12);
    double exact = 1.0 - std::pow(0.99, static_cast<double>(n_segments));
    EXPECT_NEAR(risk[i], exact, 1e-9);
  }
}

}  // namespace
}  // namespace core
}  // namespace piperisk
