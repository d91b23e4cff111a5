// Tests for descriptive statistics, hypothesis tests, bootstrap, and the
// small dense linear algebra used by the Newton solvers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/hypothesis.h"
#include "stats/linalg.h"
#include "stats/rng.h"

namespace piperisk {
namespace stats {
namespace {

// --- Descriptive ---------------------------------------------------------------

TEST(RunningStatsTest, MatchesBatchComputation) {
  RunningStats rs;
  std::vector<double> xs{1.0, 4.0, 2.0, 8.0, 5.0};
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.mean(), 4.0);
  EXPECT_DOUBLE_EQ(rs.variance(), Variance(xs));
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 8.0);
}

TEST(RunningStatsTest, MergeEqualsCombinedStream) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = std::sin(i * 0.7) * 10.0;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(RunningStatsTest, DegenerateCases) {
  RunningStats rs;
  EXPECT_EQ(rs.variance(), 0.0);
  rs.Add(3.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.mean(), 3.0);
}

TEST(DescriptiveTest, QuantileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 9.0}), 5.0);
}

TEST(DescriptiveTest, PearsonCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> ny{10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, ny), -1.0, 1e-12);
  std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_EQ(PearsonCorrelation(x, c), 0.0);
}

TEST(DescriptiveTest, AverageRanksWithTies) {
  std::vector<double> xs{10.0, 20.0, 20.0, 5.0};
  auto ranks = AverageRanks(xs);
  EXPECT_DOUBLE_EQ(ranks[3], 1.0);
  EXPECT_DOUBLE_EQ(ranks[0], 2.0);
  EXPECT_DOUBLE_EQ(ranks[1], 3.5);
  EXPECT_DOUBLE_EQ(ranks[2], 3.5);
}

TEST(DescriptiveTest, SpearmanIsRankPearson) {
  // Monotone nonlinear relation -> Spearman 1, Pearson < 1.
  std::vector<double> x{1, 2, 3, 4, 5, 6};
  std::vector<double> y;
  for (double v : x) y.push_back(std::exp(v));
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
  EXPECT_LT(PearsonCorrelation(x, y), 1.0);
}

// --- Hypothesis tests -------------------------------------------------------------

TEST(TTestTest, OneSampleMatchesR) {
  // Hand computation: mean 5.05, sd 0.187083 -> t = 0.05/(sd/sqrt(6))
  // = 0.654654, df = 5, two-sided p = 0.541605.
  std::vector<double> xs{5.1, 4.9, 5.3, 5.0, 4.8, 5.2};
  auto r = OneSampleTTest(xs, 5.0, Alternative::kTwoSided);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->t, 0.6546537, 1e-6);
  EXPECT_DOUBLE_EQ(r->dof, 5.0);
  EXPECT_NEAR(r->p_value, 0.5416046, 1e-6);
}

TEST(TTestTest, PairedOneSidedMatchesR) {
  // Hand computation: diffs {.05,.02,.03,.06,.03}, mean .038,
  // sd .0164317 -> t = 5.17115, df = 4, one-sided p ~ 0.0033.
  std::vector<double> a{0.82, 0.74, 0.78, 0.80, 0.76};
  std::vector<double> b{0.77, 0.72, 0.75, 0.74, 0.73};
  auto r = PairedTTest(a, b, Alternative::kGreater);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->t, 5.17115, 1e-4);
  EXPECT_GT(r->p_value, 0.002);
  EXPECT_LT(r->p_value, 0.005);
  EXPECT_NEAR(r->mean_difference, 0.038, 1e-9);
}

TEST(TTestTest, PairedRejectsMismatchedSizes) {
  EXPECT_FALSE(PairedTTest({1.0, 2.0}, {1.0}, Alternative::kTwoSided).ok());
}

TEST(TTestTest, ZeroVarianceFails) {
  EXPECT_FALSE(
      OneSampleTTest({2.0, 2.0, 2.0}, 1.0, Alternative::kTwoSided).ok());
}

TEST(TTestTest, LessAlternativeMirrorsGreater) {
  std::vector<double> a{1.0, 1.1, 0.9, 1.05};
  std::vector<double> b{2.0, 2.1, 1.9, 2.05};
  auto less = PairedTTest(a, b, Alternative::kLess);
  auto greater = PairedTTest(a, b, Alternative::kGreater);
  ASSERT_TRUE(less.ok());
  ASSERT_TRUE(greater.ok());
  EXPECT_LT(less->p_value, 0.01);
  EXPECT_GT(greater->p_value, 0.99);
}

TEST(TTestTest, WelchMatchesR) {
  // Hand computation: means 3 and 6, variances 2.5 and 10 ->
  // se = sqrt(0.5 + 2) = 1.58114, t = -3/1.58114 = -1.89737,
  // Welch-Satterthwaite df = 6.25/1.0625 = 5.88235, p = 0.10753.
  std::vector<double> a{1, 2, 3, 4, 5};
  std::vector<double> b{2, 4, 6, 8, 10};
  auto r = WelchTTest(a, b, Alternative::kTwoSided);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->t, -1.897367, 1e-5);
  EXPECT_NEAR(r->dof, 5.882353, 1e-5);
  EXPECT_NEAR(r->p_value, 0.107531, 1e-5);
}

// --- Bootstrap -----------------------------------------------------------------

TEST(BootstrapTest, MeanIntervalCoversTruth) {
  Rng rng(55);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(SampleNormal(&rng, 10.0, 2.0));
  Rng boot_rng(56);
  auto bi = BootstrapMean(xs, 500, 0.95, &boot_rng);
  ASSERT_TRUE(bi.ok());
  EXPECT_NEAR(bi->point, 10.0, 0.5);
  EXPECT_LT(bi->lo, bi->point);
  EXPECT_GT(bi->hi, bi->point);
  EXPECT_LT(bi->lo, 10.0);
  EXPECT_GT(bi->hi, 10.0);
  EXPECT_EQ(bi->replicates.size(), 500u);
}

TEST(BootstrapTest, RejectsDegenerateInputs) {
  Rng rng(1);
  EXPECT_FALSE(BootstrapMean({}, 100, 0.95, &rng).ok());
  EXPECT_FALSE(BootstrapMean({1.0}, 1, 0.95, &rng).ok());
  EXPECT_FALSE(BootstrapMean({1.0, 2.0}, 100, 1.5, &rng).ok());
}

TEST(BootstrapTest, CustomStatistic) {
  Rng rng(2);
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 100.0};
  auto bi = BootstrapIndices(
      xs.size(), 200, 0.9,
      [&xs](const std::vector<size_t>& idx) {
        std::vector<double> sample;
        for (size_t i : idx) sample.push_back(xs[i]);
        return Median(std::move(sample));
      },
      &rng);
  ASSERT_TRUE(bi.ok());
  EXPECT_DOUBLE_EQ(bi->point, 3.0);
}

// --- Linear algebra --------------------------------------------------------------

TEST(LinalgTest, CholeskySolvesKnownSystem) {
  SymmetricMatrix a(2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 3.0;
  auto x = CholeskySolve(a, {8.0, 7.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.25, 1e-12);
  EXPECT_NEAR((*x)[1], 1.5, 1e-12);
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  SymmetricMatrix a(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 5.0;
  a.at(1, 0) = 5.0;
  a.at(1, 1) = 1.0;  // eigenvalues 6 and -4
  EXPECT_FALSE(CholeskySolve(a, {1.0, 1.0}).ok());
}

TEST(LinalgTest, CholeskyLargerRandomSpd) {
  // Build SPD as B'B + I and verify the residual.
  Rng rng(9);
  const size_t d = 12;
  std::vector<double> bmat(d * d);
  for (double& v : bmat) v = SampleNormal(&rng);
  SymmetricMatrix a(d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      double s = 0.0;
      for (size_t k = 0; k < d; ++k) s += bmat[k * d + i] * bmat[k * d + j];
      a.at(i, j) = s + (i == j ? 1.0 : 0.0);
    }
  }
  std::vector<double> b(d);
  for (double& v : b) v = SampleNormal(&rng);
  auto x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < d; ++i) {
    double resid = -b[i];
    for (size_t j = 0; j < d; ++j) resid += a.at(i, j) * (*x)[j];
    EXPECT_NEAR(resid, 0.0, 1e-9);
  }
}

TEST(LinalgTest, CholeskyRejectsNanPivot) {
  SymmetricMatrix a(2);
  a.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  a.at(1, 1) = 1.0;
  auto x = CholeskySolve(a, {1.0, 1.0});
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kNumericalError);
}

std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// The scalar Hessian loop WeightedGram replaced: one AddSymmetric per entry
// per row.
SymmetricMatrix NaiveWeightedGram(const std::vector<double>& x, size_t n,
                                  size_t d, const std::vector<double>& w) {
  SymmetricMatrix h(d + 1);
  for (size_t i = 0; i < n; ++i) {
    const double* xi = x.data() + i * d;
    for (size_t r = 0; r < d; ++r) {
      for (size_t c = r; c < d; ++c) h.AddSymmetric(r, c, w[i] * xi[r] * xi[c]);
      h.AddSymmetric(r, d, w[i] * xi[r]);
    }
    h.at(d, d) += w[i];
  }
  return h;
}

TEST(LinalgTest, WeightedGramMatchesNaiveLoopBitForBit) {
  Rng rng(14);
  for (size_t n : {0, 1, 3, 4, 5, 4097}) {
    for (size_t d : {0, 1, 2, 33}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " d=" << d);
      std::vector<double> x(n * d);
      for (double& v : x) v = SampleNormal(&rng);
      // Negative weights and exact zeros alongside ordinary positive ones.
      std::vector<double> w(n);
      for (size_t i = 0; i < n; ++i) {
        w[i] = i % 5 == 2 ? 0.0 : SampleNormal(&rng) * 3.0;
      }
      SymmetricMatrix fast = WeightedGram(x.data(), n, d, w.data());
      SymmetricMatrix naive = NaiveWeightedGram(x, n, d, w);
      ASSERT_EQ(fast.dim(), d + 1);
      for (size_t r = 0; r <= d; ++r) {
        for (size_t c = 0; c <= d; ++c) {
          ASSERT_EQ(Bits(fast.at(r, c)), Bits(naive.at(r, c)))
              << "entry (" << r << ", " << c << ")";
        }
      }
    }
  }
}

TEST(LinalgTest, LinearPredictorsMatchScalarLoopBitForBit) {
  Rng rng(15);
  for (size_t n : {0, 1, 3, 4, 5, 4097}) {
    for (size_t d : {0, 1, 2, 33}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " d=" << d);
      std::vector<double> x(n * d), w(d), eta(n);
      for (double& v : x) v = SampleNormal(&rng);
      for (double& v : w) v = SampleNormal(&rng);
      const double b0 = -0.75;
      LinearPredictors(x.data(), n, d, b0, w.data(), eta.data());
      for (size_t i = 0; i < n; ++i) {
        double e = b0;
        for (size_t c = 0; c < d; ++c) e += w[c] * x[i * d + c];
        ASSERT_EQ(Bits(eta[i]), Bits(e)) << "row " << i;
      }
    }
  }
}

TEST(LinalgTest, VectorHelpers) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm2({3.0, 4.0}), 5.0);
  Axpy(2.0, a, &b);
  EXPECT_DOUBLE_EQ(b[0], 6.0);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
}

TEST(LinalgTest, AddSymmetricAndDiagonal) {
  SymmetricMatrix m(3);
  m.AddSymmetric(0, 2, 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 5.0);
  m.AddSymmetric(1, 1, 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
  m.AddDiagonal(1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
}

}  // namespace
}  // namespace stats
}  // namespace piperisk
