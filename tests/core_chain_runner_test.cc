// Tests for the multi-chain parallel inference engine: the generic runner's
// scheduling/RNG contract, bit-reproducibility of pooled model fits across
// thread counts, and exact backward compatibility of single-chain fits with
// the pre-multichain samplers.

#include "core/chain_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/diagnostics.h"
#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "core/mcmc.h"
#include "tests/test_util.h"

namespace piperisk {
namespace core {
namespace {

using testutil::FastHierarchy;
using testutil::GetSharedRegion;

TEST(ChainRunnerTest, ResolveThreadCountClampsToChains) {
  EXPECT_EQ(ResolveThreadCount(8, 4), 4);
  EXPECT_EQ(ResolveThreadCount(2, 4), 2);
  EXPECT_EQ(ResolveThreadCount(1, 1), 1);
  // <= 0 resolves to the hardware, still clamped into [1, chains].
  EXPECT_EQ(ResolveThreadCount(0, 1), 1);
  EXPECT_GE(ResolveThreadCount(0, 64), 1);
  EXPECT_LE(ResolveThreadCount(0, 64), 64);
  EXPECT_EQ(ResolveThreadCount(-3, 2) <= 2, true);
}

TEST(ChainRunnerTest, ChainZeroKeepsLegacyStream) {
  // The multi-chain contract: chain 0's generator is exactly Rng(seed,
  // stream), so single-chain runs reproduce historical results.
  auto rngs = MakeChainRngs(/*seed=*/123, /*stream=*/0xD1EC1, /*chains=*/4);
  stats::Rng legacy(123, 0xD1EC1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rngs[0].NextU64(), legacy.NextU64());
}

TEST(ChainRunnerTest, ChainStreamsAreDistinctAndDeterministic) {
  auto a = MakeChainRngs(7, 42, 6);
  auto b = MakeChainRngs(7, 42, 6);
  ASSERT_EQ(a.size(), 6u);
  std::vector<std::uint64_t> first;
  for (size_t c = 0; c < a.size(); ++c) {
    std::uint64_t draw = a[c].NextU64();
    EXPECT_EQ(draw, b[c].NextU64());  // same (seed, stream, K) -> same rngs
    first.push_back(draw);
  }
  for (size_t i = 0; i < first.size(); ++i) {
    for (size_t j = i + 1; j < first.size(); ++j) {
      EXPECT_NE(first[i], first[j]);
    }
  }
}

TEST(ChainRunnerTest, EveryChainRunsOnceWithIdenticalDrawsAcrossThreadCounts) {
  constexpr int kChains = 8;
  for (int threads : {1, 3, 8}) {
    std::vector<std::uint64_t> draw(kChains, 0);
    std::vector<std::atomic<int>> runs(kChains);
    for (auto& r : runs) r = 0;
    RunChains(kChains, threads, /*seed=*/99, /*stream=*/5,
              [&](int chain, stats::Rng* rng) {
                runs[static_cast<size_t>(chain)] += 1;
                draw[static_cast<size_t>(chain)] = rng->NextU64();
              });
    auto rngs = MakeChainRngs(99, 5, kChains);
    for (int c = 0; c < kChains; ++c) {
      EXPECT_EQ(runs[static_cast<size_t>(c)], 1) << "threads=" << threads;
      EXPECT_EQ(draw[static_cast<size_t>(c)], rngs[static_cast<size_t>(c)]())
          << "chain " << c << " threads=" << threads;
    }
  }
}

DpmhbpConfig ChainedConfig(int chains, int threads) {
  DpmhbpConfig config;
  config.hierarchy = FastHierarchy();
  config.hierarchy.num_chains = chains;
  config.hierarchy.num_threads = threads;
  return config;
}

TEST(ChainRunnerTest, DpmhbpPooledScoresBitIdenticalAcrossThreadCounts) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel serial(ChainedConfig(4, 1));
  DpmhbpModel parallel(ChainedConfig(4, 4));
  ASSERT_TRUE(serial.Fit(shared.cwm_input).ok());
  ASSERT_TRUE(parallel.Fit(shared.cwm_input).ok());
  const auto& ps = serial.segment_probabilities();
  const auto& pp = parallel.segment_probabilities();
  ASSERT_EQ(ps.size(), pp.size());
  for (size_t i = 0; i < ps.size(); ++i) EXPECT_EQ(ps[i], pp[i]);
  auto ss = serial.ScorePipes(shared.cwm_input);
  auto sp = parallel.ScorePipes(shared.cwm_input);
  ASSERT_TRUE(ss.ok());
  ASSERT_TRUE(sp.ok());
  for (size_t i = 0; i < ss->size(); ++i) EXPECT_EQ((*ss)[i], (*sp)[i]);
  EXPECT_EQ(serial.alpha_trace(), parallel.alpha_trace());
  EXPECT_EQ(serial.num_groups_trace(), parallel.num_groups_trace());
}

TEST(ChainRunnerTest, DpmhbpPoolsEveryChainsDraws) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel model(ChainedConfig(3, 2));
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  const size_t samples = static_cast<size_t>(FastHierarchy().samples);
  EXPECT_EQ(model.alpha_trace().size(), 3 * samples);
  EXPECT_EQ(model.num_groups_trace().size(), 3 * samples);
  ASSERT_EQ(model.alpha_chain_traces().size(), 3u);
  ASSERT_EQ(model.qmax_chain_traces().size(), 3u);
  for (const auto& chain : model.alpha_chain_traces()) {
    EXPECT_EQ(chain.size(), samples);
  }
  // Independent streams: chains must not be copies of each other.
  EXPECT_NE(model.alpha_chain_traces()[0], model.alpha_chain_traces()[1]);
}

TEST(ChainRunnerTest, DpmhbpSingleChainReproducesPreMultichainFit) {
  // Golden values captured from the pre-chain-runner implementation (seed
  // commit) on the shared-region fixture with FastHierarchy(): a fit with
  // num_chains = 1 must reproduce the historical sampler bit-for-bit. This
  // runs the deduplicated sampler (the default), so it also pins the
  // suffstat-class path to the historical per-row arithmetic.
  const auto& shared = GetSharedRegion();
  DpmhbpModel model(ChainedConfig(1, 1));
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  const auto& p = model.segment_probabilities();
  ASSERT_EQ(p.size(), 1469u);
  EXPECT_DOUBLE_EQ(p[0], 0.00079253309525358117);
  EXPECT_DOUBLE_EQ(p[1], 0.00079806611654158763);
  EXPECT_DOUBLE_EQ(p[2], 0.001293271928833605);
  EXPECT_DOUBLE_EQ(p[100], 0.0013549187107499399);
  EXPECT_DOUBLE_EQ(p[500], 0.0014404070327176694);
  EXPECT_DOUBLE_EQ(p[1468], 0.083880070165021026);
  auto scores = model.ScorePipes(shared.cwm_input);
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ((*scores)[0], 0.0062732591134361899);
  EXPECT_DOUBLE_EQ((*scores)[10], 0.53128751034710442);
  double ksum = 0;
  for (int k : model.num_groups_trace()) ksum += k;
  EXPECT_DOUBLE_EQ(ksum, 1438.0);
  EXPECT_DOUBLE_EQ(model.alpha_trace().front(), 1.9434490727119753);
  EXPECT_DOUBLE_EQ(model.alpha_trace().back(), 6.7410860442645708);
}

TEST(ChainRunnerTest, HbpPooledScoresBitIdenticalAcrossThreadCounts) {
  const auto& shared = GetSharedRegion();
  HierarchyConfig h = FastHierarchy();
  h.num_chains = 4;
  h.num_threads = 1;
  HbpModel serial(GroupingScheme::kMaterial, h);
  h.num_threads = 4;
  HbpModel parallel(GroupingScheme::kMaterial, h);
  ASSERT_TRUE(serial.Fit(shared.cwm_input).ok());
  ASSERT_TRUE(parallel.Fit(shared.cwm_input).ok());
  const auto& ps = serial.pipe_probabilities();
  const auto& pp = parallel.pipe_probabilities();
  ASSERT_EQ(ps.size(), pp.size());
  for (size_t i = 0; i < ps.size(); ++i) EXPECT_EQ(ps[i], pp[i]);
  ASSERT_EQ(serial.group_rate_chain_traces().size(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(serial.group_rate_chain_traces()[c],
              parallel.group_rate_chain_traces()[c]);
  }
}

TEST(ChainRunnerTest, HbpSingleChainReproducesPreMultichainFit) {
  // Golden values captured from the pre-chain-runner implementation (seed
  // commit) on the shared-region fixture with FastHierarchy(). Runs the
  // deduplicated sampler (the default).
  const auto& shared = GetSharedRegion();
  HbpModel model(GroupingScheme::kMaterial, FastHierarchy());
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  const auto& p = model.pipe_probabilities();
  EXPECT_DOUBLE_EQ(p[0], 0.0047535078373287546);
  EXPECT_DOUBLE_EQ(p[5], 0.02927631674062562);
  EXPECT_DOUBLE_EQ(p.back(), 0.14433691073679142);
  EXPECT_DOUBLE_EQ(model.group_rates()[0], 0.045554450107733943);
}

TEST(ChainRunnerTest, MoreChainsTightenDiagnostics) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel model(ChainedConfig(4, 0));
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto d = DiagnoseDpmhbp(model);
  EXPECT_EQ(d.alpha.chains, 4u);
  EXPECT_EQ(d.alpha.samples, 4u * static_cast<size_t>(FastHierarchy().samples));
  // Pooled ESS across 4 chains must beat any single chain's ESS.
  double max_single = 0.0;
  for (const auto& chain : model.alpha_chain_traces()) {
    max_single = std::max(max_single, EffectiveSampleSize(chain));
  }
  EXPECT_GT(d.alpha.ess, max_single);
  EXPECT_GT(d.alpha.rhat, 0.0);
  EXPECT_GT(d.q_max.samples, 0u);
}

TEST(ChainRunnerTest, InvalidChainCountRejected) {
  const auto& shared = GetSharedRegion();
  DpmhbpModel model(ChainedConfig(0, 1));
  EXPECT_FALSE(model.Fit(shared.cwm_input).ok());
  HierarchyConfig h = FastHierarchy();
  h.num_chains = -2;
  HbpModel hbp(GroupingScheme::kMaterial, h);
  EXPECT_FALSE(hbp.Fit(shared.cwm_input).ok());
}

}  // namespace
}  // namespace core
}  // namespace piperisk
