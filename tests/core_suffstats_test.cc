// Tests for the sufficient-statistic deduplication layer: equivalence-class
// building, the hoisted / rising-factorial collapsed marginal against the
// reference implementation, and the versioned per-group likelihood cache.

#include "core/suffstats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/beta_bernoulli.h"
#include "stats/special.h"

namespace piperisk {
namespace core {
namespace {

TEST(SuffStatClassesTest, IdenticalTriplesCollapse) {
  std::vector<double> k{0, 1, 0, 1, 0, 2};
  std::vector<double> n{12, 12, 12, 12, 10, 12};
  std::vector<double> m{1.0, 1.0, 1.0, 2.0, 1.0, 1.0};
  auto classes = SuffStatClasses::Build(k, n, m, 12.0);
  // Distinct triples: (0,12,1) x2, (1,12,1), (1,12,2), (0,10,1), (2,12,1).
  EXPECT_EQ(classes.num_classes(), 5u);
  EXPECT_EQ(classes.num_rows(), 6u);
  // Rows 0 and 2 share the first class (ids follow first appearance).
  EXPECT_EQ(classes.row_class(0), 0u);
  EXPECT_EQ(classes.row_class(2), 0u);
  EXPECT_EQ(classes.class_rows(0), 2);
  EXPECT_EQ(classes.row_class(1), 1u);
  EXPECT_EQ(classes.row_class(3), 2u);
  EXPECT_EQ(classes.row_class(4), 3u);
  EXPECT_EQ(classes.row_class(5), 4u);
  int total = 0;
  for (size_t cls = 0; cls < classes.num_classes(); ++cls) {
    total += classes.class_rows(cls);
  }
  EXPECT_EQ(total, 6);
}

TEST(SuffStatClassesTest, ClassLogLikMatchesReferenceMarginal) {
  const double c = 12.0;
  std::vector<double> k{0, 1, 3, 7};
  std::vector<double> n{12, 12, 11, 9};
  std::vector<double> m{0.6, 1.0, 1.7, 3.2};
  auto classes = SuffStatClasses::Build(k, n, m, c);
  ASSERT_EQ(classes.num_classes(), 4u);
  for (size_t cls = 0; cls < classes.num_classes(); ++cls) {
    for (double q : {1e-5, 0.003, 0.02, 0.2, 0.49, 0.9}) {
      double mean = std::clamp(q * m[cls], 1e-7, 1.0 - 1e-7);
      double want =
          LogMarginalNoBinom(k[cls], n[cls], c * mean, c * (1.0 - mean));
      double got = classes.ClassLogLik(cls, q);
      EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::fabs(want)))
          << "cls=" << cls << " q=" << q;
    }
  }
}

TEST(SuffStatClassesTest, FractionalKFallsBackToFourLgammaForm) {
  // Non-integer k (covariate-scaled effective exposure) cannot take the
  // rising-factorial fast path but must still match the reference.
  const double c = 8.0;
  std::vector<double> k{1.5};
  std::vector<double> n{10.0};
  std::vector<double> m{1.0};
  auto classes = SuffStatClasses::Build(k, n, m, c);
  for (double q : {0.01, 0.1, 0.4}) {
    double want = LogMarginalNoBinom(1.5, 10.0, c * q, c * (1.0 - q));
    EXPECT_NEAR(classes.ClassLogLik(0, q), want, 1e-10);
  }
}

TEST(SuffStatClassesTest, HoistedMarginalIdentity) {
  // LogMarginalNoBinomHoisted(k, n, a, b, lgamma(a+b) - lgamma(a+b+n)) must
  // reproduce LogMarginalNoBinom for arbitrary (including fractional) k.
  for (double k : {0.0, 1.0, 2.5}) {
    for (double n : {4.0, 12.0}) {
      for (double a : {0.03, 0.7, 5.0}) {
        for (double b : {2.0, 11.4}) {
          double lnc = stats::LogGamma(a + b) - stats::LogGamma(a + b + n);
          EXPECT_NEAR(LogMarginalNoBinomHoisted(k, n, a, b, lnc),
                      LogMarginalNoBinom(k, n, a, b), 1e-10);
        }
      }
    }
  }
}

TEST(SuffStatClassesTest, InvalidCountsAreMinusInfinity) {
  std::vector<double> k{5};
  std::vector<double> n{12};
  std::vector<double> m{1.0};
  auto classes = SuffStatClasses::Build(k, n, m, 12.0);
  EXPECT_TRUE(std::isfinite(classes.ClassLogLik(0, 0.01)));
  EXPECT_EQ(LogMarginalNoBinomHoisted(5.0, 4.0, 1.0, 1.0, 0.0),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(LogMarginalNoBinomHoisted(-1.0, 4.0, 1.0, 1.0, 0.0),
            -std::numeric_limits<double>::infinity());
}

TEST(GroupLikelihoodCacheTest, RefreshesOnlyOnVersionChange) {
  std::vector<double> k{0, 1, 2};
  std::vector<double> n{12, 12, 12};
  std::vector<double> m{1.0, 1.3, 0.7};
  auto classes = SuffStatClasses::Build(k, n, m, 12.0);
  GroupLikelihoodCache cache(&classes);

  const auto& col = cache.Column(0, 1, 0.02);
  ASSERT_EQ(col.size(), classes.num_classes());
  for (size_t cls = 0; cls < classes.num_classes(); ++cls) {
    EXPECT_DOUBLE_EQ(col[cls], classes.ClassLogLik(cls, 0.02));
  }
  // Same version: the cache must NOT recompute, even if q is passed
  // differently — the version is the invalidation key.
  const auto& stale = cache.Column(0, 1, 0.5);
  EXPECT_DOUBLE_EQ(stale[0], classes.ClassLogLik(0, 0.02));
  // Bumped version: refreshed at the new rate.
  const auto& fresh = cache.Column(0, 2, 0.5);
  for (size_t cls = 0; cls < classes.num_classes(); ++cls) {
    EXPECT_DOUBLE_EQ(fresh[cls], classes.ClassLogLik(cls, 0.5));
  }
  // Distinct groups get distinct slots (grown on demand).
  const auto& other = cache.Column(7, 1, 0.1);
  EXPECT_DOUBLE_EQ(other[0], classes.ClassLogLik(0, 0.1));
  EXPECT_DOUBLE_EQ(cache.Column(0, 2, 0.5)[0], classes.ClassLogLik(0, 0.5));
}

}  // namespace
}  // namespace core
}  // namespace piperisk
