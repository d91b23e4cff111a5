// Tests for the tree-ensemble baselines: random survival forest and
// gradient-boosted trees. The determinism contract (bit-identical scores
// for every fit thread count, pinned by a golden per model) is the
// load-bearing property; ranking skill on the shared region keeps the
// models honest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "baselines/gbt.h"
#include "baselines/rsf.h"
#include "core/model.h"
#include "stats/rng.h"
#include "tests/test_util.h"

namespace piperisk {
namespace baselines {
namespace {

using testutil::GetSharedRegion;
using testutil::ScoreAuc;

// Small ensembles keep these tests fast while still exercising the
// parallel fan-out (several trees per thread).
RsfConfig FastRsf() {
  RsfConfig config;
  config.num_trees = 24;
  config.max_depth = 6;
  return config;
}

GbtConfig FastGbt() {
  GbtConfig config;
  config.num_rounds = 30;
  return config;
}

std::vector<double> FitAndScore(core::FailureModel* model,
                                const core::ModelInput& input) {
  auto fit = model->Fit(input);
  PIPERISK_CHECK(fit.ok()) << fit.ToString();
  auto scores = model->ScorePipes(input);
  PIPERISK_CHECK(scores.ok()) << scores.status().ToString();
  return *scores;
}

// --- RSF -----------------------------------------------------------------------

/// FNV-1a over the length, then the bit patterns, of `values`.
std::uint64_t BitHash(const std::vector<double>& values) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  mix(values.size());
  for (double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  return hash;
}

TEST(RsfTest, ScoresMatchGolden) {
  // Captured from the forest that sorted every candidate split from
  // scratch; the presorted scan must reproduce it bit for bit.
  const auto& shared = GetSharedRegion();
  RsfConfig config = FastRsf();
  config.num_fit_threads = 2;
  RsfModel model(config);
  const std::vector<double> scores = FitAndScore(&model, shared.cwm_input);
  ASSERT_EQ(scores.size(), 240u);
  EXPECT_EQ(BitHash(scores), 0xF2617399ADEF6595ULL);
  const std::pair<std::size_t, double> kPinned[] = {
      {0, 0x1.769d0369d036bp-4},   {1, 0x1.2cb4fbd115fe8p-6},
      {37, 0x1.c749f132ecd9dp+0},  {60, 0x1.ff069334b8ffcp+0},
      {120, 0x1.512b2be90c242p+0}, {180, 0x1.08967621e4484p-2},
      {239, 0x1.00a14d37f6a2ap+1}};
  for (const auto& [i, want] : kPinned) {
    EXPECT_EQ(scores[i], want) << "pipe=" << i;
  }
}

/// The log-rank statistic as the forest computed it before the presorted
/// scan: per candidate, sort each group's entries and exits and merge them
/// against an ordered map of event times. The reference for LogRankScan.
double LogRankStat(const std::vector<SurvivalObservation>& rows,
                   const std::vector<std::size_t>& members,
                   const std::vector<std::vector<double>>& z, int feature,
                   double threshold) {
  std::vector<double> entry[2], exit[2];
  // event time -> (events left, events total)
  std::map<double, std::pair<int, int>> events;
  for (std::size_t i : members) {
    const auto& r = rows[i];
    int g = z[i][feature] <= threshold ? 0 : 1;
    entry[g].push_back(r.entry);
    exit[g].push_back(r.exit);
    if (r.event) {
      auto& d = events[r.exit];
      if (g == 0) d.first += 1;
      d.second += 1;
    }
  }
  for (int g = 0; g < 2; ++g) {
    std::sort(entry[g].begin(), entry[g].end());
    std::sort(exit[g].begin(), exit[g].end());
  }
  double o = 0.0, e = 0.0, v = 0.0;
  std::size_t ein[2] = {0, 0}, eout[2] = {0, 0};
  for (const auto& [t, d] : events) {
    double n_g[2];
    for (int g = 0; g < 2; ++g) {
      while (ein[g] < entry[g].size() && entry[g][ein[g]] < t) ++ein[g];
      while (eout[g] < exit[g].size() && exit[g][eout[g]] < t) ++eout[g];
      n_g[g] = static_cast<double>(ein[g] - eout[g]);
    }
    double n = n_g[0] + n_g[1];
    if (n <= 1.0) continue;
    double dt = static_cast<double>(d.second);
    double frac = n_g[0] / n;
    o += static_cast<double>(d.first);
    e += dt * frac;
    v += dt * frac * (1.0 - frac) * (n - dt) / (n - 1.0);
  }
  if (v <= 0.0) return 0.0;
  double diff = o - e;
  return diff * diff / v;
}

// Every threshold at and between the member values, plus one below the
// minimum and the maximum itself (the one-sided splits).
void ExpectScanMatchesReference(const std::vector<SurvivalObservation>& rows,
                                const std::vector<std::vector<double>>& z,
                                const std::vector<std::size_t>& members) {
  LogRankScan scan;
  scan.Reset(rows, members);
  std::vector<double> column;
  for (int f = 0; f < static_cast<int>(z[0].size()); ++f) {
    column.clear();
    for (std::size_t i : members) column.push_back(z[i][f]);
    scan.LoadFeature(column);
    std::vector<double> thresholds = column;
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    thresholds.push_back(thresholds.front() - 1.0);
    for (double thr : thresholds) {
      const double want = LogRankStat(rows, members, z, f, thr);
      const double got = scan.Stat(thr);
      std::uint64_t want_bits, got_bits;
      std::memcpy(&want_bits, &want, sizeof want);
      std::memcpy(&got_bits, &got, sizeof got);
      ASSERT_EQ(got_bits, want_bits)
          << "feature=" << f << " threshold=" << thr << " want=" << want
          << " got=" << got;
    }
  }
}

std::vector<std::size_t> Bootstrap(std::size_t n, stats::Rng* rng) {
  std::vector<std::size_t> members(n);
  for (std::size_t& m : members) {
    m = static_cast<std::size_t>(rng->NextBounded(n));
  }
  return members;
}

TEST(RsfTest, PresortedLogRankScanMatchesSortPerCandidate) {
  // Integer times and few feature levels: tied entries, tied exits, several
  // events at one time, entries equal to event times, and bootstrap
  // duplicates in every member set.
  stats::Rng rng(4099);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 20 + rng.NextBounded(120);
    std::vector<SurvivalObservation> rows(n);
    std::vector<std::vector<double>> z(n);
    for (std::size_t i = 0; i < n; ++i) {
      rows[i].entry = static_cast<double>(rng.NextBounded(6));
      rows[i].exit = rows[i].entry + 1.0 + static_cast<double>(rng.NextBounded(7));
      rows[i].event = rng.NextBounded(5) < 2;
      z[i] = {static_cast<double>(rng.NextBounded(4)), rng.NextDouble(),
              static_cast<double>(rng.NextBounded(2))};
    }
    ExpectScanMatchesReference(rows, z, Bootstrap(n, &rng));
    // A node whose members share one row: nothing to split.
    ExpectScanMatchesReference(rows, z, std::vector<std::size_t>(5, 0));
  }
}

TEST(RsfTest, PresortedLogRankScanMatchesOnSharedRegion) {
  const auto& input = GetSharedRegion().cwm_input;
  const std::vector<SurvivalObservation> rows = BuildPipeSurvival(input);
  stats::Rng rng(7);
  ExpectScanMatchesReference(rows, input.pipe_features,
                             Bootstrap(rows.size(), &rng));
}

TEST(RsfTest, ScoresAreBitIdenticalAcrossThreadCounts) {
  const auto& shared = GetSharedRegion();
  std::vector<std::vector<double>> runs;
  for (int threads : {1, 2, 4}) {
    RsfConfig config = FastRsf();
    config.num_fit_threads = threads;
    RsfModel model(config);
    runs.push_back(FitAndScore(&model, shared.cwm_input));
  }
  ASSERT_EQ(runs[0].size(), shared.cwm_input.num_pipes());
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      // Bitwise, not approximate: the pre-forked stream design promises
      // the same forest regardless of scheduling.
      EXPECT_EQ(runs[r][i], runs[0][i]) << "threads run " << r << " pipe " << i;
    }
  }
}

TEST(RsfTest, ScoresHaveRankingSkill) {
  const auto& shared = GetSharedRegion();
  RsfModel model(FastRsf());
  auto scores = FitAndScore(&model, shared.cwm_input);
  for (double s : scores) EXPECT_GE(s, 0.0);
  EXPECT_GT(ScoreAuc(shared.cwm_input, scores), 0.55);
}

TEST(RsfTest, BlockedScoringMatchesSerial) {
  const auto& shared = GetSharedRegion();
  RsfModel model(FastRsf());
  auto serial = FitAndScore(&model, shared.cwm_input);
  core::ScoreOptions options;
  options.num_threads = 4;
  auto blocked = model.ScorePipes(shared.cwm_input, options);
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(blocked->size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ((*blocked)[i], serial[i]) << i;
  }
}

TEST(RsfTest, ScoreBeforeFitFails) {
  const auto& shared = GetSharedRegion();
  RsfModel model(FastRsf());
  EXPECT_FALSE(model.ScorePipes(shared.cwm_input).ok());
}

// --- GBT -----------------------------------------------------------------------

TEST(GbtTest, ScoresMatchGolden) {
  // Captured from the cold fit; a cold ensemble must reproduce it bit for
  // bit.
  const auto& shared = GetSharedRegion();
  GbtConfig config = FastGbt();
  config.num_fit_threads = 2;
  GbtModel model(config);
  const std::vector<double> scores = FitAndScore(&model, shared.cwm_input);
  ASSERT_EQ(scores.size(), 240u);
  EXPECT_EQ(BitHash(scores), 0x764540B664590DA4ULL);
  const std::pair<std::size_t, double> kPinned[] = {
      {0, 0x1.cda8c076b2b16p-4},   {1, 0x1.494ef8a821fbdp-3},
      {37, 0x1.26f112e043073p-1},  {60, 0x1.7e1b91ae6914bp-1},
      {120, 0x1.12337e4b9129dp-2}, {180, 0x1.00c4ae4fc5123p-2},
      {239, 0x1.ddd8cce763fffp-2}};
  for (const auto& [i, want] : kPinned) {
    EXPECT_EQ(scores[i], want) << "pipe=" << i;
  }
}

TEST(GbtTest, ScoresAreBitIdenticalAcrossThreadCounts) {
  const auto& shared = GetSharedRegion();
  std::vector<std::vector<double>> runs;
  for (int threads : {1, 2, 4}) {
    GbtConfig config = FastGbt();
    config.num_fit_threads = threads;
    GbtModel model(config);
    runs.push_back(FitAndScore(&model, shared.cwm_input));
  }
  ASSERT_EQ(runs[0].size(), shared.cwm_input.num_pipes());
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i], runs[0][i]) << "threads run " << r << " pipe " << i;
    }
  }
}

TEST(GbtTest, ScoresHaveRankingSkill) {
  const auto& shared = GetSharedRegion();
  GbtModel model(FastGbt());
  auto scores = FitAndScore(&model, shared.cwm_input);
  for (double s : scores) EXPECT_GT(s, 0.0);  // Poisson intensity exp(F)
  EXPECT_GT(ScoreAuc(shared.cwm_input, scores), 0.55);
}

TEST(GbtTest, LogisticLossAlsoRanks) {
  const auto& shared = GetSharedRegion();
  GbtConfig config = FastGbt();
  config.loss = GbtLoss::kLogistic;
  GbtModel model(config);
  auto scores = FitAndScore(&model, shared.cwm_input);
  for (double s : scores) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);  // sigmoid output
  }
  EXPECT_GT(ScoreAuc(shared.cwm_input, scores), 0.55);
}

TEST(GbtTest, BlockedScoringMatchesSerial) {
  const auto& shared = GetSharedRegion();
  GbtModel model(FastGbt());
  auto serial = FitAndScore(&model, shared.cwm_input);
  core::ScoreOptions options;
  options.num_threads = 4;
  auto blocked = model.ScorePipes(shared.cwm_input, options);
  ASSERT_TRUE(blocked.ok());
  ASSERT_EQ(blocked->size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ((*blocked)[i], serial[i]) << i;
  }
}

TEST(GbtTest, ScoreBeforeFitFails) {
  const auto& shared = GetSharedRegion();
  GbtModel model(FastGbt());
  EXPECT_FALSE(model.ScorePipes(shared.cwm_input).ok());
}

}  // namespace
}  // namespace baselines
}  // namespace piperisk
