// Tests for the pipelined DPMHBP CRP pass: the uniform-first discrete
// sampler it assigns with, fits that stay bit-identical at every
// sweep_threads (with one, two and several chunks, a partial tail chunk and
// the vacated-table case), likelihood-cache tallies and sweep sub-spans.
// The golden values were captured from the serial row loop the pipeline
// replaced, so agreement pins the pipeline to it bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/dpmhbp.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "tests/test_util.h"

namespace piperisk {
namespace core {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// --- SampleDiscreteLogUniform ------------------------------------------------

// Draws with the RNG overload and with the uniform-first overload from two
// generators in lockstep; both must pick the same index and leave the
// scratch identical.
void ExpectSameDraws(const std::vector<double>& lw, std::uint64_t seed,
                     int draws) {
  stats::Rng rng(seed), uniforms(seed);
  std::vector<double> scratch_a, scratch_b;
  for (int i = 0; i < draws; ++i) {
    const size_t want = stats::SampleDiscreteLog(
        &rng, std::span<const double>(lw), &scratch_a);
    const size_t got = stats::SampleDiscreteLogUniform(
        uniforms.NextDouble(), std::span<const double>(lw), &scratch_b);
    ASSERT_EQ(got, want) << "draw=" << i;
    ASSERT_EQ(scratch_a, scratch_b);
    ASSERT_NE(lw[got], kNegInf);
  }
  // The weights scanned are exactly exp(lw - max): +0 at every -inf.
  const double max_lw = *std::max_element(lw.begin(), lw.end());
  for (size_t i = 0; i < lw.size(); ++i) {
    ASSERT_EQ(scratch_b[i], std::exp(lw[i] - max_lw)) << "i=" << i;
  }
  EXPECT_EQ(rng.NextU64(), uniforms.NextU64());
}

TEST(CrpPipelineTest, UniformOverloadPicksRngOverloadsIndex) {
  stats::Rng gen(31);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t size = 1 + gen.NextBounded(40);
    std::vector<double> lw(size);
    for (double& v : lw) v = -60.0 + 70.0 * gen.NextDouble();
    // Empty tables: a third of the entries at -inf, never all of them.
    for (size_t i = 0; i + 1 < size; ++i) {
      if (gen.NextBounded(3) == 0) lw[i] = kNegInf;
    }
    ExpectSameDraws(lw, 1000 + static_cast<std::uint64_t>(trial), 20);
  }
}

TEST(CrpPipelineTest, UniformOverloadAllButOneNegInf) {
  for (size_t live : {size_t{0}, size_t{3}, size_t{6}}) {
    std::vector<double> lw(7, kNegInf);
    lw[live] = -12.5;
    ExpectSameDraws(lw, 77 + live, 200);
    std::vector<double> scratch;
    for (double u : {0.0, 0.5, std::nextafter(1.0, 0.0)}) {
      EXPECT_EQ(stats::SampleDiscreteLogUniform(
                    u, std::span<const double>(lw), &scratch),
                live);
    }
  }
}

TEST(CrpPipelineTest, UniformOverloadTies) {
  // Equal weights split [0, 1) evenly; boundaries go to the upper entry.
  const std::vector<double> lw{-3.0, kNegInf, -3.0, -3.0, kNegInf, -3.0};
  ExpectSameDraws(lw, 5, 500);
  std::vector<double> scratch;
  auto pick = [&](double u) {
    return stats::SampleDiscreteLogUniform(u, std::span<const double>(lw),
                                           &scratch);
  };
  EXPECT_EQ(pick(0.0), 0u);
  EXPECT_EQ(pick(0.24), 0u);
  EXPECT_EQ(pick(0.25), 2u);
  EXPECT_EQ(pick(0.5), 3u);
  EXPECT_EQ(pick(0.75), 5u);
  EXPECT_EQ(pick(std::nextafter(1.0, 0.0)), 5u);
}

// --- Fit fixtures ---------------------------------------------------------------

/// FNV-1a over the bit patterns of a fit's outputs.
class BitHash {
 public:
  void Add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Mix(bits);
  }
  void Add(int v) { Mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Mix(values.size());
    for (const T& v : values) Add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// A critical-main network of `pipes` single-segment pipes with varied
/// attributes and a heavy-tailed spread of failure rates, so the fit has
/// many classes and a churning partition. One segment per pipe, so the
/// sampler sees exactly `pipes` rows.
ModelInput SyntheticInput(int pipes, std::uint64_t seed) {
  data::RegionDataset dataset;
  dataset.config = data::RegionConfig::Tiny(5);
  dataset.config.observe_first = 1998;
  dataset.config.observe_last = 2009;
  dataset.network = net::Network(net::RegionInfo{"pipeline", 0, 0});
  stats::Rng rng(seed);
  for (int i = 0; i < pipes; ++i) {
    net::Pipe p;
    p.id = i;
    p.category = net::PipeCategory::kCriticalMain;
    p.material = i % 3 == 0 ? net::Material::kCicl : net::Material::kDicl;
    p.diameter_mm = 300.0 + 75.0 * static_cast<double>(i % 4);
    p.laid_year = 1930 + static_cast<int>(rng.NextBounded(60));
    PIPERISK_CHECK(dataset.network.AddPipe(p).ok());
    net::PipeSegment s;
    s.id = i;
    s.pipe_id = i;
    s.start = {static_cast<double>(i), 0.0};
    s.end = {static_cast<double>(i), 40.0};
    PIPERISK_CHECK(dataset.network.AddSegment(s).ok());
    const double u = rng.NextDouble();
    const double rate = 0.01 + 0.4 * u * u * u;
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
  auto input = ModelInput::Build(dataset, data::TemporalSplit::Paper(),
                                 net::PipeCategory::kCriticalMain,
                                 net::FeatureConfig::AttributesOnly());
  PIPERISK_CHECK(input.ok()) << input.status().ToString();
  PIPERISK_CHECK(input->num_segments() == static_cast<size_t>(pipes));
  return std::move(*input);
}

struct FitDigest {
  std::uint64_t hash = 0;  ///< probabilities, labels and every trace
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

std::int64_t CounterValue(const char* name) {
  return telemetry::Registry::Global().GetCounter(name)->Value();
}

FitDigest FitDigestOf(const ModelInput& input, DpmhbpConfig config,
                      int sweep_threads) {
  config.hierarchy.sweep_threads = sweep_threads;
  const std::int64_t hits = CounterValue("mcmc.likelihood_cache.hits");
  const std::int64_t misses = CounterValue("mcmc.likelihood_cache.misses");
  DpmhbpModel model(config);
  const Status fit = model.Fit(input);
  PIPERISK_CHECK(fit.ok()) << fit.ToString();
  BitHash h;
  h.Add(model.segment_probabilities());
  h.Add(model.group_labels());
  h.Add(model.num_groups_trace());
  h.Add(model.alpha_trace());
  for (const auto& trace : model.qmax_chain_traces()) h.Add(trace);
  return FitDigest{h.value(), CounterValue("mcmc.likelihood_cache.hits") - hits,
                   CounterValue("mcmc.likelihood_cache.misses") - misses};
}

DpmhbpConfig ShortConfig() {
  DpmhbpConfig config;
  config.hierarchy.burn_in = 6;
  config.hierarchy.samples = 10;
  return config;
}

struct PipelineCase {
  const char* name;
  int pipes;
  int initial_groups;
  /// Captured from the serial row loop at sweep_threads = 1 and 4 (the
  /// hash is the same at both; the cache tallies differ because parallel
  /// sweeps refresh stale columns up front).
  std::uint64_t hash;
  std::int64_t serial_hits, serial_misses, parallel_hits, parallel_misses;
};

void ExpectPipelineMatchesGolden(const PipelineCase& c) {
  const ModelInput input = SyntheticInput(c.pipes, 900 + c.pipes);
  DpmhbpConfig config = ShortConfig();
  config.initial_groups = c.initial_groups;
  for (int threads : {1, 2, 3, 4, 8}) {
    const FitDigest d = FitDigestOf(input, config, threads);
    EXPECT_EQ(d.hash, c.hash) << c.name << " threads=" << threads;
    // The shared pool always has a worker, so any setting above one
    // sweeps in parallel.
    const bool parallel = threads > 1;
    EXPECT_EQ(d.cache_hits, parallel ? c.parallel_hits : c.serial_hits)
        << c.name << " threads=" << threads;
    EXPECT_EQ(d.cache_misses, parallel ? c.parallel_misses : c.serial_misses)
        << c.name << " threads=" << threads;
  }
}

// n < one chunk; every row starts at its own table, so the first sweep
// takes the vacated-table path on every row.
TEST(CrpPipelineTest, BitIdenticalBelowOneChunk) {
  ExpectPipelineMatchesGolden({"n=700", 700, 700, 0xB58EEDDAE356629BULL, 1371383, 2262, 1373313, 2263});
}

// Exactly two full chunks.
TEST(CrpPipelineTest, BitIdenticalAtTwoFullChunks) {
  ExpectPipelineMatchesGolden({"n=2048", 2048, 8, 0x533CA80C3A4EECC3ULL, 407547, 149, 407665, 149});
}

// Three full chunks plus a partial tail.
TEST(CrpPipelineTest, BitIdenticalWithPartialTailChunk) {
  ExpectPipelineMatchesGolden({"n=3500", 3500, 40, 0xA32432399D833BAEULL, 3442438, 792, 3443067, 792});
}

TEST(CrpPipelineTest, SharedRegionCacheTalliesMatchSerialLoop) {
  const auto& shared = testutil::GetSharedRegion();
  DpmhbpConfig config;
  config.hierarchy = testutil::FastHierarchy();
  const FitDigest serial = FitDigestOf(shared.cwm_input, config, 1);
  EXPECT_EQ(serial.hash, 0x0E565CDACDDB9B53ULL);
  EXPECT_EQ(serial.cache_hits, 2595887);
  EXPECT_EQ(serial.cache_misses, 1831);
  const FitDigest parallel = FitDigestOf(shared.cwm_input, config, 4);
  EXPECT_EQ(parallel.hash, serial.hash);
  EXPECT_EQ(parallel.cache_hits, 2597414);
  EXPECT_EQ(parallel.cache_misses, 1831);
}

// --- Sweep sub-spans --------------------------------------------------------------

struct SpanEvent {
  std::string name;
  double tid, ts, end;
};

std::vector<SpanEvent> TracedSpans() {
  std::ostringstream out;
  telemetry::WriteTraceJson(out);
  auto doc = json::Parse(out.str());
  PIPERISK_CHECK(doc.ok()) << doc.status().ToString();
  std::vector<SpanEvent> spans;
  for (const json::Value& e : doc->Find("traceEvents")->AsArray()) {
    const double ts = e.Find("ts")->AsNumber();
    spans.push_back({e.Find("name")->AsString(), e.Find("tid")->AsNumber(),
                     ts, ts + e.Find("dur")->AsNumber()});
  }
  return spans;
}

TEST(CrpPipelineTest, SweepSubSpansOncePerSweepInsideTheSweep) {
  const ModelInput input = SyntheticInput(1500, 21);
  for (int threads : {1, 4}) {
    DpmhbpConfig config = ShortConfig();
    config.hierarchy.sweep_threads = threads;
    DpmhbpModel model(config);
    telemetry::StartTracing();
    ASSERT_TRUE(model.Fit(input).ok());
    telemetry::StopTracing();
    const int sweeps = config.hierarchy.burn_in + config.hierarchy.samples;

    const char* kPhases[] = {"dpmhbp.prefetch", "dpmhbp.crp",
                             "dpmhbp.metropolis", "dpmhbp.finish"};
    std::vector<SpanEvent> sweep_spans;
    std::map<std::string, std::vector<SpanEvent>> phase_spans;
    for (const SpanEvent& e : TracedSpans()) {
      if (e.name == "dpmhbp.sweep") sweep_spans.push_back(e);
      for (const char* phase : kPhases) {
        if (e.name == phase) phase_spans[phase].push_back(e);
      }
    }
    ASSERT_EQ(sweep_spans.size(), static_cast<size_t>(sweeps));
    for (const char* phase : kPhases) {
      ASSERT_EQ(phase_spans[phase].size(), static_cast<size_t>(sweeps))
          << phase << " threads=" << threads;
    }
    // Spans are recorded at scope exit, so the i-th of each name belongs
    // to the i-th sweep: each phase nests inside it, in phase order.
    for (int i = 0; i < sweeps; ++i) {
      const SpanEvent& sweep = sweep_spans[static_cast<size_t>(i)];
      double prev_end = sweep.ts;
      for (const char* phase : kPhases) {
        const SpanEvent& p = phase_spans[phase][static_cast<size_t>(i)];
        EXPECT_EQ(p.tid, sweep.tid) << phase;
        EXPECT_GE(p.ts, prev_end) << phase << " sweep=" << i;
        EXPECT_LE(p.end, sweep.end) << phase << " sweep=" << i;
        prev_end = p.end;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace piperisk
