// Tests for the Bayesian nonparametric building blocks: beta process,
// beta-Bernoulli conjugacy, CRP, and the MCMC utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "core/beta_bernoulli.h"
#include "core/beta_process.h"
#include "core/crp.h"
#include "core/mcmc.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "stats/special.h"

namespace piperisk {
namespace core {
namespace {

// --- Beta-Bernoulli conjugacy ----------------------------------------------------

TEST(BetaBernoulliTest, PosteriorUpdatesMeanConcentration) {
  BetaParams prior{0.1, 10.0};  // a=1, b=9
  BetaParams post = Posterior(prior, 3, 8);
  EXPECT_DOUBLE_EQ(post.c, 18.0);           // 10 + 8
  EXPECT_DOUBLE_EQ(post.a(), 4.0);          // 1 + 3
  EXPECT_DOUBLE_EQ(post.b(), 14.0);         // 9 + 5
  EXPECT_DOUBLE_EQ(post.mean(), 4.0 / 18.0);
}

TEST(BetaBernoulliTest, PosteriorMeanRateAndPredictiveAgree) {
  BetaParams prior{0.02, 30.0};
  EXPECT_DOUBLE_EQ(PosteriorMeanRate(prior, 2, 11),
                   (30.0 * 0.02 + 2.0) / (30.0 + 11.0));
  EXPECT_DOUBLE_EQ(PredictiveNext(prior, 2, 11),
                   PosteriorMeanRate(prior, 2, 11));
}

TEST(BetaBernoulliTest, VarianceFormula) {
  BetaParams p{0.3, 5.0};
  EXPECT_NEAR(p.variance(), 0.3 * 0.7 / 6.0, 1e-12);
}

TEST(BetaBernoulliTest, LogMarginalMatchesDirectIntegration) {
  // Compare against the full beta-binomial pmf in stats.
  for (int k = 0; k <= 5; ++k) {
    double direct = stats::LogBetaBinomial(k, 5, 1.5, 3.5);
    double log_choose = stats::LogGamma(6.0) - stats::LogGamma(k + 1.0) -
                        stats::LogGamma(6.0 - k);
    EXPECT_NEAR(LogMarginalNoBinom(k, 5, 1.5, 3.5) + log_choose, direct,
                1e-10);
    EXPECT_NEAR(LogMarginal(k, 5, 1.5, 3.5), direct, 1e-10);
  }
}

TEST(BetaBernoulliTest, LogMarginalHandlesRealExposure) {
  // Continuous n (covariate-scaled exposure) stays finite and monotone in k.
  double l0 = LogMarginalNoBinom(0.0, 7.3, 0.4, 11.6);
  double l1 = LogMarginalNoBinom(1.0, 7.3, 0.4, 11.6);
  EXPECT_TRUE(std::isfinite(l0));
  EXPECT_TRUE(std::isfinite(l1));
  EXPECT_LT(l1, l0);  // one failure is rarer than none at low rates
}

TEST(BetaBernoulliTest, InvalidArgumentsGiveNegInf) {
  double neg_inf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(LogMarginalNoBinom(-1, 5, 1, 1), neg_inf);
  EXPECT_EQ(LogMarginalNoBinom(6, 5, 1, 1), neg_inf);
  EXPECT_EQ(LogMarginalNoBinom(2, 5, 0.0, 1), neg_inf);
}

// --- Beta process --------------------------------------------------------------

TEST(BetaProcessTest, CreateValidatesInputs) {
  EXPECT_FALSE(BetaProcess::Create(0.0, {0.5}).ok());
  EXPECT_FALSE(BetaProcess::Create(1.0, {0.0}).ok());
  EXPECT_FALSE(BetaProcess::Create(1.0, {1.0}).ok());
  EXPECT_TRUE(BetaProcess::Create(2.0, {0.3, 0.7}).ok());
}

TEST(BetaProcessTest, SampledWeightsHaveBaseMeans) {
  auto bp = BetaProcess::Create(20.0, {0.2, 0.6});
  ASSERT_TRUE(bp.ok());
  stats::Rng rng(3);
  double sum0 = 0.0, sum1 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto w = bp->SampleWeights(&rng);
    sum0 += w[0];
    sum1 += w[1];
  }
  EXPECT_NEAR(sum0 / n, 0.2, 0.01);
  EXPECT_NEAR(sum1 / n, 0.6, 0.01);
}

TEST(BetaProcessTest, PosteriorMatchesEq184) {
  // Eq. 18.4: H | X_{1..m} ~ BP(c + m, c/(c+m) H0 + 1/(c+m) sum X_j).
  auto bp = BetaProcess::Create(4.0, {0.25, 0.5});
  ASSERT_TRUE(bp.ok());
  auto post = bp->Posterior({3, 0}, 6);
  ASSERT_TRUE(post.ok());
  EXPECT_DOUBLE_EQ(post->concentration(), 10.0);
  EXPECT_NEAR(post->base_weights()[0], (4.0 * 0.25 + 3.0) / 10.0, 1e-12);
  EXPECT_NEAR(post->base_weights()[1], (4.0 * 0.5 + 0.0) / 10.0, 1e-12);
}

TEST(BetaProcessTest, PosteriorRejectsBadCounts) {
  auto bp = BetaProcess::Create(4.0, {0.25});
  ASSERT_TRUE(bp.ok());
  EXPECT_FALSE(bp->Posterior({7}, 6).ok());   // count > draws
  EXPECT_FALSE(bp->Posterior({-1}, 6).ok());
  EXPECT_FALSE(bp->Posterior({1, 2}, 6).ok());  // atom mismatch
}

TEST(BetaProcessTest, BernoulliDrawsMatchWeights) {
  stats::Rng rng(4);
  std::vector<double> weights{0.05, 0.95};
  int ones0 = 0, ones1 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto draw = BetaProcess::SampleBernoulliDraw(weights, &rng);
    ones0 += draw[0];
    ones1 += draw[1];
  }
  EXPECT_NEAR(static_cast<double>(ones0) / n, 0.05, 0.01);
  EXPECT_NEAR(static_cast<double>(ones1) / n, 0.95, 0.01);
}

TEST(BetaProcessTest, ConjugacySelfConsistency) {
  // Sampling data from the prior then updating should, on average, leave
  // the base measure unchanged (prior-posterior consistency).
  auto bp = BetaProcess::Create(10.0, {0.3});
  ASSERT_TRUE(bp.ok());
  stats::Rng rng(5);
  double post_mean_acc = 0.0;
  const int trials = 3000;
  const int m = 5;
  for (int t = 0; t < trials; ++t) {
    auto weights = bp->SampleWeights(&rng);
    int successes = 0;
    for (int j = 0; j < m; ++j) {
      successes += BetaProcess::SampleBernoulliDraw(weights, &rng)[0];
    }
    auto post = bp->Posterior({successes}, m);
    ASSERT_TRUE(post.ok());
    post_mean_acc += post->base_weights()[0];
  }
  EXPECT_NEAR(post_mean_acc / trials, 0.3, 0.01);
}

// --- CRP ------------------------------------------------------------------------

TEST(CrpTest, FirstCustomerSitsAtFirstTable) {
  stats::Rng rng(6);
  auto labels = SampleCrpAssignment(1, 1.0, &rng);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], 0);
}

TEST(CrpTest, LabelsAreDense) {
  stats::Rng rng(7);
  auto labels = SampleCrpAssignment(500, 2.0, &rng);
  std::set<int> seen(labels.begin(), labels.end());
  int k = static_cast<int>(seen.size());
  for (int g = 0; g < k; ++g) EXPECT_TRUE(seen.count(g) == 1);
}

TEST(CrpTest, ExpectedTableCountMatchesTheory) {
  stats::Rng rng(8);
  const double alpha = 1.5;
  const size_t n = 300;
  double total_tables = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    auto labels = SampleCrpAssignment(n, alpha, &rng);
    std::set<int> seen(labels.begin(), labels.end());
    total_tables += static_cast<double>(seen.size());
  }
  double expected = CrpExpectedTables(n, alpha);
  EXPECT_NEAR(total_tables / trials, expected, 0.15);
}

TEST(CrpTest, HigherAlphaMoreTables) {
  EXPECT_LT(CrpExpectedTables(1000, 0.5), CrpExpectedTables(1000, 5.0));
  EXPECT_NEAR(CrpExpectedTables(1, 3.0), 1.0, 1e-12);
}

TEST(CrpTest, SeatingWeightsFollowEq186) {
  auto lw = CrpLogSeatingWeights({3, 1, 0}, 2.0);
  ASSERT_EQ(lw.size(), 4u);
  EXPECT_NEAR(lw[0], std::log(3.0), 1e-12);
  EXPECT_NEAR(lw[1], std::log(1.0), 1e-12);
  EXPECT_TRUE(std::isinf(lw[2]));
  EXPECT_NEAR(lw[3], std::log(2.0), 1e-12);
}

TEST(CrpTest, LogProbabilityIsExchangeable) {
  // Permuting labels of the same partition leaves the EPPF unchanged.
  double p1 = CrpLogProbability({0, 0, 1, 2, 1}, 1.3);
  double p2 = CrpLogProbability({1, 1, 0, 2, 0}, 1.3);  // relabelled
  EXPECT_NEAR(p1, p2, 1e-12);
}

TEST(CrpTest, LogProbabilityNormalisesForTinyN) {
  // n = 3: sum of EPPF over the 5 partitions must be 1.
  const double alpha = 0.7;
  double total = 0.0;
  for (const auto& labels :
       {std::vector<int>{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1},
        {0, 1, 2}}) {
    total += std::exp(CrpLogProbability(labels, alpha));
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(CrpTest, ConcentrationResamplingStaysPositiveAndMoves) {
  stats::Rng rng(9);
  double alpha = 1.0;
  std::set<double> values;
  for (int i = 0; i < 200; ++i) {
    alpha = ResampleCrpConcentration(alpha, 15, 2000, 2.0, 0.5, &rng);
    EXPECT_GT(alpha, 0.0);
    values.insert(alpha);
  }
  EXPECT_GT(values.size(), 100u);  // the chain actually moves
}

// --- MCMC utilities ----------------------------------------------------------------

TEST(McmcTest, MetropolisLogitTargetsBetaDistribution) {
  // Sample Beta(3, 7) via logit random-walk Metropolis and check moments.
  stats::Rng rng(10);
  auto log_target = [](double x) { return stats::LogPdfBeta(x, 3.0, 7.0); };
  double x = 0.5;
  StepSizeAdapter adapter;
  stats::RunningStats rs;
  for (int i = 0; i < 30000; ++i) {
    bool accepted = false;
    x = MetropolisLogitStep(x, log_target, adapter.step(), &rng, &accepted);
    if (i < 3000) {
      adapter.Update(accepted);
    } else {
      rs.Add(x);
    }
  }
  EXPECT_NEAR(rs.mean(), 0.3, 0.01);
  EXPECT_NEAR(rs.variance(), 0.3 * 0.7 / 11.0, 0.004);
}

TEST(McmcTest, MetropolisLogTargetsGammaDistribution) {
  stats::Rng rng(11);
  auto log_target = [](double x) { return stats::LogPdfGamma(x, 4.0, 2.0); };
  double x = 1.0;
  StepSizeAdapter adapter;
  stats::RunningStats rs;
  for (int i = 0; i < 30000; ++i) {
    bool accepted = false;
    x = MetropolisLogStep(x, log_target, adapter.step(), &rng, &accepted);
    if (i < 3000) {
      adapter.Update(accepted);
    } else {
      rs.Add(x);
    }
  }
  EXPECT_NEAR(rs.mean(), 2.0, 0.05);
  EXPECT_NEAR(rs.variance(), 1.0, 0.1);
}

TEST(McmcTest, AdapterConvergesTowardTargetAcceptance) {
  stats::Rng rng(12);
  auto log_target = [](double x) { return stats::LogPdfBeta(x, 2.0, 2.0); };
  double x = 0.5;
  StepSizeAdapter adapter(5.0, 0.44);
  for (int i = 0; i < 5000; ++i) {
    bool accepted = false;
    x = MetropolisLogitStep(x, log_target, adapter.step(), &rng, &accepted);
    adapter.Update(accepted);
  }
  EXPECT_NEAR(adapter.acceptance_rate(), 0.44, 0.12);
}

TEST(McmcTest, EffectiveSampleSizeDetectsCorrelation) {
  stats::Rng rng(13);
  std::vector<double> iid, correlated;
  double prev = 0.0;
  for (int i = 0; i < 4000; ++i) {
    double z = stats::SampleNormal(&rng);
    iid.push_back(z);
    prev = 0.95 * prev + z;  // AR(1), strong autocorrelation
    correlated.push_back(prev);
  }
  double ess_iid = EffectiveSampleSize(iid);
  double ess_corr = EffectiveSampleSize(correlated);
  EXPECT_GT(ess_iid, 2500.0);
  EXPECT_LT(ess_corr, 600.0);
}

TEST(McmcTest, GewekeFlagsDriftingChain) {
  std::vector<double> drifting, stationary;
  stats::Rng rng(14);
  for (int i = 0; i < 2000; ++i) {
    drifting.push_back(i * 0.01 + stats::SampleNormal(&rng));
    stationary.push_back(stats::SampleNormal(&rng));
  }
  EXPECT_GT(std::fabs(GewekeZ(drifting)), 4.0);
  EXPECT_LT(std::fabs(GewekeZ(stationary)), 3.0);
}

}  // namespace
}  // namespace core
}  // namespace piperisk
