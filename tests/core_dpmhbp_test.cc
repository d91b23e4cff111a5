// Tests for the DPMHBP model: sampler mechanics (group bookkeeping, alpha
// resampling, determinism), statistical behaviour (cluster recovery on
// constructed data), and ranking skill relative to simpler models.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "stats/distributions.h"
#include "tests/test_util.h"

namespace piperisk {
namespace core {
namespace {

using testutil::FastHierarchy;
using testutil::GetSharedRegion;
using testutil::ScoreAuc;

DpmhbpConfig FastConfig() {
  DpmhbpConfig config;
  config.hierarchy = FastHierarchy();
  return config;
}

TEST(DpmhbpTest, FitProducesValidState) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel model(FastConfig());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  const auto& probs = model.segment_probabilities();
  ASSERT_EQ(probs.size(), shared.cwm_input.num_segments());
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  // Labels dense in [0, K).
  const auto& labels = model.group_labels();
  std::set<int> seen(labels.begin(), labels.end());
  int k = static_cast<int>(seen.size());
  for (int g = 0; g < k; ++g) EXPECT_EQ(seen.count(g), 1u);
  EXPECT_GT(model.mean_num_groups(), 1.0);
  EXPECT_EQ(model.num_groups_trace().size(),
            static_cast<size_t>(FastConfig().hierarchy.samples));
  EXPECT_EQ(model.alpha_trace().size(),
            static_cast<size_t>(FastConfig().hierarchy.samples));
}

TEST(DpmhbpTest, DeterministicForSeed) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel m1(FastConfig());
  DpmhbpModel m2(FastConfig());
  ASSERT_TRUE(m1.Fit(shared.cwm_input).ok());
  ASSERT_TRUE(m2.Fit(shared.cwm_input).ok());
  auto s1 = m1.ScorePipes(shared.cwm_input);
  auto s2 = m2.ScorePipes(shared.cwm_input);
  for (size_t i = 0; i < s1->size(); ++i) {
    EXPECT_DOUBLE_EQ((*s1)[i], (*s2)[i]);
  }
}

TEST(DpmhbpTest, SeedChangesDraw) {
  const auto& shared = GetSharedRegion();
  DpmhbpConfig c1 = FastConfig();
  DpmhbpConfig c2 = FastConfig();
  c2.hierarchy.seed = 777;
  DpmhbpModel m1(c1), m2(c2);
  ASSERT_TRUE(m1.Fit(shared.cwm_input).ok());
  ASSERT_TRUE(m2.Fit(shared.cwm_input).ok());
  auto s1 = m1.ScorePipes(shared.cwm_input);
  auto s2 = m2.ScorePipes(shared.cwm_input);
  bool any_diff = false;
  for (size_t i = 0; i < s1->size() && !any_diff; ++i) {
    any_diff = std::fabs((*s1)[i] - (*s2)[i]) > 1e-12;
  }
  EXPECT_TRUE(any_diff);
}

TEST(DpmhbpTest, RankingSkillOnSharedRegion) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel model(FastConfig());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto scores = model.ScorePipes(shared.cwm_input);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(ScoreAuc(shared.cwm_input, *scores), 0.62);
}

TEST(DpmhbpTest, AlphaResamplingMovesWhenEnabled) {
  const auto& shared = GetSharedRegion();
  DpmhbpConfig config = FastConfig();
  config.resample_alpha = true;
  DpmhbpModel model(config);
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  std::set<double> distinct(model.alpha_trace().begin(),
                            model.alpha_trace().end());
  EXPECT_GT(distinct.size(), 10u);

  DpmhbpConfig fixed = FastConfig();
  fixed.resample_alpha = false;
  fixed.alpha = 1.5;
  DpmhbpModel fixed_model(fixed);
  ASSERT_TRUE(fixed_model.Fit(shared.cwm_input).ok());
  for (double a : fixed_model.alpha_trace()) EXPECT_DOUBLE_EQ(a, 1.5);
}

TEST(DpmhbpTest, HistoryRaisesPredictedRisk) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel model(FastConfig());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  const auto& probs = model.segment_probabilities();
  double with = 0.0, without = 0.0;
  int n_with = 0, n_without = 0;
  for (size_t row = 0; row < shared.cwm_input.num_segments(); ++row) {
    if (shared.cwm_input.segment_counts[row].k > 0) {
      with += probs[row];
      ++n_with;
    } else {
      without += probs[row];
      ++n_without;
    }
  }
  ASSERT_GT(n_with, 0);
  ASSERT_GT(n_without, 0);
  EXPECT_GT(with / n_with, 3.0 * without / n_without);
}

TEST(DpmhbpTest, RecoverHighAndLowRateClusters) {
  // Constructed two-cluster data: a network whose ground truth has two very
  // different segment failure rates with identical features. The CRP
  // grouping must put high-count segments in higher-rate groups, yielding
  // clearly separated predictive probabilities.
  data::RegionDataset dataset;
  dataset.config = data::RegionConfig::Tiny(5);
  dataset.config.observe_first = 1998;
  dataset.config.observe_last = 2009;
  dataset.network = net::Network(net::RegionInfo{"2cluster", 0, 0});
  stats::Rng rng(5150);
  const int kPipes = 200;
  for (int i = 0; i < kPipes; ++i) {
    net::Pipe p;
    p.id = i;
    p.category = net::PipeCategory::kCriticalMain;
    p.material = net::Material::kCicl;
    p.diameter_mm = 450;
    p.laid_year = 1960;
    ASSERT_TRUE(dataset.network.AddPipe(p).ok());
    net::PipeSegment s;
    s.id = i;
    s.pipe_id = i;
    s.start = {static_cast<double>(i), 0.0};
    s.end = {static_cast<double>(i), 50.0};
    ASSERT_TRUE(dataset.network.AddSegment(s).ok());
    // First half: rate 0.02/yr; second half: rate 0.45/yr.
    double rate = i < kPipes / 2 ? 0.02 : 0.45;
    for (net::Year y = 1998; y <= 2008; ++y) {
      if (stats::SampleBernoulli(&rng, rate)) {
        net::FailureRecord r;
        r.pipe_id = i;
        r.segment_id = i;
        r.year = y;
        r.location = s.Midpoint();
        dataset.failures.Add(r);
      }
    }
  }
  auto input = core::ModelInput::Build(dataset, data::TemporalSplit::Paper(),
                                       net::PipeCategory::kCriticalMain,
                                       net::FeatureConfig::AttributesOnly());
  ASSERT_TRUE(input.ok());
  DpmhbpConfig config = FastConfig();
  config.hierarchy.use_covariates = false;  // features are uninformative here
  DpmhbpModel model(config);
  ASSERT_TRUE(model.Fit(*input).ok());
  const auto& probs = model.segment_probabilities();
  double lo = 0.0, hi = 0.0;
  for (int i = 0; i < kPipes / 2; ++i) lo += probs[static_cast<size_t>(i)];
  for (int i = kPipes / 2; i < kPipes; ++i) hi += probs[static_cast<size_t>(i)];
  lo /= kPipes / 2;
  hi /= kPipes / 2;
  // The high-rate cluster's mean predictive must be several times larger
  // and in the right ballpark.
  EXPECT_GT(hi, 4.0 * lo);
  EXPECT_GT(hi, 0.2);
  EXPECT_LT(lo, 0.1);
  // And the sampler should have found a small number of groups, not one
  // per segment.
  EXPECT_LT(model.mean_num_groups(), 40.0);
}

TEST(DpmhbpTest, ConfigValidation) {
  const auto& shared = GetSharedRegion();
  DpmhbpConfig config = FastConfig();
  config.hierarchy.samples = 0;
  DpmhbpModel m1(config);
  EXPECT_FALSE(m1.Fit(shared.cwm_input).ok());
  config = FastConfig();
  config.auxiliary_components = 0;
  DpmhbpModel m2(config);
  EXPECT_FALSE(m2.Fit(shared.cwm_input).ok());
  // Non-finite or non-positive concentrations fail cleanly, not by abort.
  const double kNaN = std::nan("");
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {0.0, -1.0, kNaN, kInf}) {
    config = FastConfig();
    config.hierarchy.c = bad;
    EXPECT_EQ(DpmhbpModel(config).Fit(shared.cwm_input).code(),
              StatusCode::kInvalidArgument)
        << "c=" << bad;
    config = FastConfig();
    config.hierarchy.c0 = bad;
    EXPECT_EQ(DpmhbpModel(config).Fit(shared.cwm_input).code(),
              StatusCode::kInvalidArgument)
        << "c0=" << bad;
  }
}

TEST(DpmhbpTest, ScoreBeforeFitFails) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel model(FastConfig());
  EXPECT_FALSE(model.ScorePipes(shared.cwm_input).ok());
}

TEST(DpmhbpTest, BeatsSingleGroupHbpOnSharedRegion) {
  // The adaptive hierarchy should outrank the no-hierarchy baseline.
  const auto& shared = GetSharedRegion();
  DpmhbpModel dpmhbp(FastConfig());
  ASSERT_TRUE(dpmhbp.Fit(shared.cwm_input).ok());
  HbpModel flat(GroupingScheme::kSingle, FastHierarchy());
  ASSERT_TRUE(flat.Fit(shared.cwm_input).ok());
  double auc_dpmhbp =
      ScoreAuc(shared.cwm_input, *dpmhbp.ScorePipes(shared.cwm_input));
  double auc_flat =
      ScoreAuc(shared.cwm_input, *flat.ScorePipes(shared.cwm_input));
  EXPECT_GT(auc_dpmhbp + 0.02, auc_flat);  // allow noise, forbid collapse
}

}  // namespace
}  // namespace core
}  // namespace piperisk
