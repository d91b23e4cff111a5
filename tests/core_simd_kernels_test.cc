// Tests for the batched likelihood column kernels and the within-chain
// sweep partitioning.
//
// The load-bearing contract is bit-identity: FillColumnBatch must reproduce
// the scalar FillColumn exactly, and a fit run with any --sweep-threads
// setting must reproduce the serial fit exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/beta_bernoulli.h"
#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "core/suffstats.h"
#include "core/sweep_parallel.h"
#include "stats/special.h"
#include "tests/test_util.h"

namespace piperisk {
namespace core {
namespace {

using testutil::FastHierarchy;
using testutil::GetSharedRegion;

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Asserts FillColumnBatch == FillColumn bit-for-bit for every q in
/// `rates`.
void ExpectBatchMatchesScalar(const SuffStatClasses& classes,
                              const std::vector<double>& rates) {
  std::vector<double> scalar, batch;
  SuffStatClasses::ColumnScratch scratch;
  for (double q : rates) {
    classes.FillColumn(q, &scalar);
    classes.FillColumnBatch(q, &batch, &scratch);
    ASSERT_EQ(scalar.size(), classes.num_classes());
    ASSERT_EQ(batch.size(), scalar.size());
    for (size_t cls = 0; cls < scalar.size(); ++cls) {
      EXPECT_TRUE(BitIdentical(batch[cls], scalar[cls]))
          << "q=" << q << " cls=" << cls << " scalar=" << scalar[cls]
          << " batch=" << batch[cls];
    }
  }
}

const std::vector<double>& StandardRates() {
  static const std::vector<double> rates{
      1e-308, 1e-12, 1e-7, 0.003, 0.02, 0.2, 0.5,
      0.9,    1.0 - 1e-7, 1.0, 2.0};
  return rates;
}

TEST(SimdKernelTest, EmptyClassesProduceEmptyColumns) {
  auto classes = SuffStatClasses::Build({}, {}, {}, 12.0);
  EXPECT_EQ(classes.num_classes(), 0u);
  std::vector<double> scalar{1.0}, batch{2.0};
  SuffStatClasses::ColumnScratch scratch;
  classes.FillColumn(0.1, &scalar);
  classes.FillColumnBatch(0.1, &batch, &scratch);
  EXPECT_TRUE(scalar.empty());
  EXPECT_TRUE(batch.empty());
}

TEST(SimdKernelTest, ZeroFailureMajorityMatchesScalar) {
  // The k = 0 fast path (no logs at all in the ladder) dominates real data.
  std::vector<double> k(9, 0.0);
  std::vector<double> n{1, 2, 3, 5, 8, 10, 11, 12, 12};
  std::vector<double> m(9, 1.0);
  m[8] = 1.5;  // same (k, n), different multiplier -> distinct class + group
  auto classes = SuffStatClasses::Build(k, n, m, 12.0);
  ExpectBatchMatchesScalar(classes, StandardRates());
}

TEST(SimdKernelTest, IntegerLadderWideAndTailMatchesScalar) {
  // Two multiplier groups of unequal size; k up to the ladder cap exercises
  // the widest rising ladder.
  std::vector<double> k, n, m;
  for (int ki = 0; ki <= 11; ++ki) {
    k.push_back(ki);
    n.push_back(12.0);
    m.push_back(1.0);
  }
  for (int ki = 0; ki <= 6; ++ki) {
    k.push_back(ki);
    n.push_back(64.0);
    m.push_back(0.7);
  }
  k.push_back(64.0);  // exactly the ladder cap
  n.push_back(64.0);
  m.push_back(0.7);
  auto classes = SuffStatClasses::Build(k, n, m, 12.0);
  ExpectBatchMatchesScalar(classes, StandardRates());
}

TEST(SimdKernelTest, FractionalAndOversizedKTakeSlowPathIdentically) {
  // Non-integer k (covariate-scaled exposure), k beyond the ladder cap, and
  // k > n (-inf) must all match the scalar slow path bit-for-bit, mixed into
  // the same multiplier groups as fast-path classes.
  std::vector<double> k{0.0, 1.5, 2.0, 101.0, 13.0, 0.25, 3.0};
  std::vector<double> n{12.0, 10.0, 12.0, 400.0, 12.0, 9.5, 12.0};
  std::vector<double> m{1.0, 1.0, 1.0, 1.0, 1.0, 2.2, 2.2};
  auto classes = SuffStatClasses::Build(k, n, m, 8.0);
  ExpectBatchMatchesScalar(classes, StandardRates());
  // k = 13 > n = 12: the marginal is -inf however it is computed.
  std::vector<double> col;
  classes.FillColumn(0.1, &col);
  EXPECT_EQ(col[4], -std::numeric_limits<double>::infinity());
}

TEST(SimdKernelTest, DenormalAndHugeMultipliersMatchScalar) {
  // Extreme multipliers drive the tilted mean into both clamp rails; the
  // batch kernel must agree with the scalar clamp exactly.
  std::vector<double> k{0, 1, 2, 0, 1};
  std::vector<double> n{12, 12, 12, 12, 12};
  std::vector<double> m{5e-324, 1e-300, 1.0, 1e300,
                        std::numeric_limits<double>::max()};
  auto classes = SuffStatClasses::Build(k, n, m, 12.0);
  ExpectBatchMatchesScalar(classes, StandardRates());
}

TEST(SimdKernelTest, SharedOffsetsAreMemoisedConsistently) {
  // Many classes sharing offset n - k within a group: the memoised
  // lgamma(b + offset) must be reused without drift.
  std::vector<double> k, n, m;
  for (int i = 0; i < 20; ++i) {
    k.push_back(i % 5);
    n.push_back(12.0 + i % 5);  // offset n - k == 12 for every class
    m.push_back(1.0);
  }
  auto classes = SuffStatClasses::Build(k, n, m, 12.0);
  ASSERT_EQ(classes.num_classes(), 5u);
  ExpectBatchMatchesScalar(classes, StandardRates());
}

TEST(SimdKernelTest, HoistedBatchMatchesScalarHoisted) {
  const std::vector<double> k{0.0, 1.0, 2.5, 7.0, -1.0, 9.0};
  const std::vector<double> n{4.0, 12.0, 10.0, 9.0, 4.0, 8.0};
  std::vector<double> lnc(k.size());
  for (double a : {0.03, 0.7, 5.0}) {
    for (double b : {2.0, 11.4}) {
      for (size_t i = 0; i < k.size(); ++i) {
        lnc[i] = stats::LogGamma(a + b) - stats::LogGamma(a + b + n[i]);
      }
      std::vector<double> batch(k.size());
      LogMarginalNoBinomHoistedBatch(k.data(), n.data(), a, b, lnc.data(),
                                     batch.data(), k.size());
      for (size_t i = 0; i < k.size(); ++i) {
        EXPECT_TRUE(BitIdentical(
            batch[i], LogMarginalNoBinomHoisted(k[i], n[i], a, b, lnc[i])))
            << "a=" << a << " b=" << b << " i=" << i;
      }
    }
  }
  // Invalid beta parameters: the whole batch is -inf, matching the scalar
  // guard.
  std::vector<double> bad(k.size());
  LogMarginalNoBinomHoistedBatch(k.data(), n.data(), -1.0, 2.0, lnc.data(),
                                 bad.data(), k.size());
  for (double v : bad) {
    EXPECT_EQ(v, -std::numeric_limits<double>::infinity());
  }
}

// --- Sweep-thread-count invariance ------------------------------------------
//
// The sweep's contract: the fit is a pure function of (seed, chains) — sweep_threads must never reach the arithmetic or the RNG
// stream. sweep_threads == 1 is the unchanged serial path that the chain
// runner's golden tests pin, so exact agreement here extends those goldens
// to every thread count.

std::vector<double> FitDpmhbpScores(int sweep_threads) {
  const auto& shared = GetSharedRegion();
  DpmhbpConfig config;
  config.hierarchy = FastHierarchy();
  config.hierarchy.sweep_threads = sweep_threads;
  DpmhbpModel model(config);
  EXPECT_TRUE(model.Fit(shared.cwm_input).ok());
  auto scores = model.ScorePipes(shared.cwm_input);
  EXPECT_TRUE(scores.ok());
  return *scores;
}

TEST(SweepThreadInvarianceTest, DpmhbpScoresBitIdenticalAcrossThreadCounts) {
  const std::vector<double> serial = FitDpmhbpScores(1);
  // 0 = "whole machine" — must also be bit-identical.
  for (int threads : {2, 4, 8, 0}) {
    const std::vector<double> parallel = FitDpmhbpScores(threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(BitIdentical(parallel[i], serial[i]))
          << "threads=" << threads << " pipe=" << i;
    }
  }
}

TEST(SweepThreadInvarianceTest, HbpPosteriorBitIdenticalAcrossThreadCounts) {
  const auto& shared = GetSharedRegion();
  auto fit = [&](int sweep_threads) {
    HierarchyConfig h = FastHierarchy();
    h.sweep_threads = sweep_threads;
    HbpModel model(GroupingScheme::kMaterial, h);
    EXPECT_TRUE(model.Fit(shared.cwm_input).ok());
    return model;
  };
  HbpModel serial = fit(1);
  for (int threads : {2, 8}) {
    HbpModel parallel = fit(threads);
    ASSERT_EQ(parallel.pipe_probabilities().size(),
              serial.pipe_probabilities().size());
    for (size_t i = 0; i < serial.pipe_probabilities().size(); ++i) {
      EXPECT_TRUE(BitIdentical(parallel.pipe_probabilities()[i],
                               serial.pipe_probabilities()[i]))
          << "threads=" << threads << " pipe=" << i;
    }
    ASSERT_EQ(parallel.group_rates().size(), serial.group_rates().size());
    for (size_t g = 0; g < serial.group_rates().size(); ++g) {
      EXPECT_TRUE(
          BitIdentical(parallel.group_rates()[g], serial.group_rates()[g]))
          << "threads=" << threads << " group=" << g;
    }
  }
}

TEST(SweepParallelTest, ResolveSweepThreads) {
  EXPECT_EQ(ResolveSweepThreads(1), 1);
  EXPECT_EQ(ResolveSweepThreads(7), 7);
  EXPECT_GE(ResolveSweepThreads(0), 1);
  EXPECT_GE(ResolveSweepThreads(-3), 1);
}

}  // namespace
}  // namespace core
}  // namespace piperisk
