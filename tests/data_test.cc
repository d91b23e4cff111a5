// Tests for the synthetic data substrate: generator calibration,
// determinism, failure simulator behaviour (sparsity, escalation, cohort
// heterogeneity), waste-water fields, and the temporal split builders.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "data/csv_io.h"
#include "data/failure_simulator.h"
#include "data/network_generator.h"
#include "data/split.h"
#include "data/wastewater.h"
#include "tests/test_util.h"

namespace piperisk {
namespace data {
namespace {

RegionConfig SmallConfig(std::uint64_t seed) {
  RegionConfig c = RegionConfig::Tiny(seed);
  c.num_pipes = 600;
  c.target_failures_all = 380.0;
  c.target_failures_cwm = 60.0;
  return c;
}

TEST(NetworkGeneratorTest, ExactPipeCountsAndCwmShare) {
  RegionConfig config = SmallConfig(1);
  auto network = NetworkGenerator(config).Generate();
  ASSERT_TRUE(network.ok());
  EXPECT_EQ(network->num_pipes(), 600u);
  auto cwm = network->PipesOfCategory(net::PipeCategory::kCriticalMain);
  EXPECT_EQ(cwm.size(), 150u);  // 25% of 600
  for (const net::Pipe* p : cwm) {
    EXPECT_GE(p->diameter_mm, net::kCriticalMainMinDiameterMm);
  }
  for (const net::Pipe* p :
       network->PipesOfCategory(net::PipeCategory::kReticulationMain)) {
    EXPECT_LT(p->diameter_mm, net::kCriticalMainMinDiameterMm);
  }
}

TEST(NetworkGeneratorTest, LaidYearsWithinRange) {
  RegionConfig config = SmallConfig(2);
  auto network = NetworkGenerator(config).Generate();
  ASSERT_TRUE(network.ok());
  for (const net::Pipe& p : network->pipes()) {
    EXPECT_GE(p.laid_year, config.laid_first);
    EXPECT_LE(p.laid_year, config.laid_last);
  }
}

TEST(NetworkGeneratorTest, DeterministicForSeed) {
  RegionConfig config = SmallConfig(3);
  auto n1 = NetworkGenerator(config).Generate();
  auto n2 = NetworkGenerator(config).Generate();
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(n2.ok());
  ASSERT_EQ(n1->num_segments(), n2->num_segments());
  for (size_t i = 0; i < n1->num_segments(); ++i) {
    EXPECT_EQ(n1->segments()[i].start, n2->segments()[i].start);
    EXPECT_EQ(n1->segments()[i].soil, n2->segments()[i].soil);
  }
}

TEST(NetworkGeneratorTest, DifferentSeedsDiffer) {
  auto n1 = NetworkGenerator(SmallConfig(4)).Generate();
  auto n2 = NetworkGenerator(SmallConfig(5)).Generate();
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(n2.ok());
  bool any_diff = n1->num_segments() != n2->num_segments();
  for (size_t i = 0; !any_diff && i < n1->num_segments(); ++i) {
    any_diff = !(n1->segments()[i].start == n2->segments()[i].start);
  }
  EXPECT_TRUE(any_diff);
}

TEST(NetworkGeneratorTest, GeometryInsideFootprintAndValid) {
  RegionConfig config = SmallConfig(6);
  auto network = NetworkGenerator(config).Generate();
  ASSERT_TRUE(network.ok());
  EXPECT_TRUE(network->Validate().ok());
  double side = config.SideM();
  for (const net::PipeSegment& s : network->segments()) {
    EXPECT_GE(s.start.x, -1e-9);
    EXPECT_LE(s.start.x, side + 1e-9);
    EXPECT_GE(s.end.y, -1e-9);
    EXPECT_LE(s.end.y, side + 1e-9);
    EXPECT_GT(s.LengthM(), 0.0);
  }
}

TEST(NetworkGeneratorTest, EnvironmentalFeaturesPopulated) {
  auto network = NetworkGenerator(SmallConfig(7)).Generate();
  ASSERT_TRUE(network.ok());
  // Soil values should span more than one category across the region.
  std::set<int> corr;
  double max_dist = 0.0;
  for (const net::PipeSegment& s : network->segments()) {
    corr.insert(static_cast<int>(s.soil.corrosiveness));
    EXPECT_TRUE(std::isfinite(s.distance_to_intersection_m));
    max_dist = std::max(max_dist, s.distance_to_intersection_m);
  }
  EXPECT_GE(corr.size(), 2u);
  EXPECT_GT(max_dist, 0.0);
}

TEST(NetworkGeneratorTest, ConnectedGrowthSharesEndpoints) {
  RegionConfig config = SmallConfig(18);
  config.connect_fraction = 0.9;
  auto network = NetworkGenerator(config).Generate();
  ASSERT_TRUE(network.ok());
  // Count pipes whose start coincides exactly with another pipe's endpoint.
  std::set<std::pair<double, double>> endpoints;
  int attached = 0;
  for (const net::Pipe& p : network->pipes()) {
    if (p.segments.empty()) continue;
    auto first = network->FindSegment(p.segments.front());
    auto last = network->FindSegment(p.segments.back());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(last.ok());
    if (endpoints.count({(*first)->start.x, (*first)->start.y}) != 0) {
      ++attached;
    }
    endpoints.insert({(*first)->start.x, (*first)->start.y});
    endpoints.insert({(*last)->end.x, (*last)->end.y});
  }
  // Most pipes after the first should attach to an existing junction.
  EXPECT_GT(attached, static_cast<int>(network->num_pipes() / 2));

  // Default config stays scattered.
  RegionConfig scattered = SmallConfig(18);
  auto scattered_net = NetworkGenerator(scattered).Generate();
  ASSERT_TRUE(scattered_net.ok());
  std::set<std::pair<double, double>> starts;
  int shared = 0;
  for (const net::Pipe& p : scattered_net->pipes()) {
    auto first = scattered_net->FindSegment(p.segments.front());
    if (!starts.insert({(*first)->start.x, (*first)->start.y}).second) {
      ++shared;
    }
  }
  EXPECT_EQ(shared, 0);
}

TEST(NetworkGeneratorTest, RejectsBadConfig) {
  RegionConfig config = SmallConfig(8);
  config.num_pipes = 0;
  EXPECT_FALSE(NetworkGenerator(config).Generate().ok());
  config = SmallConfig(8);
  config.laid_last = config.laid_first - 10;
  EXPECT_FALSE(NetworkGenerator(config).Generate().ok());
  // The intensity table is sized by the observation window.
  config = SmallConfig(8);
  config.observe_last = config.observe_first - 1;
  EXPECT_EQ(NetworkGenerator(config).Generate().status().code(),
            StatusCode::kInvalidArgument);
  for (double bad : {-1.0, 1.5, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    config = SmallConfig(8);
    config.connect_fraction = bad;
    EXPECT_EQ(NetworkGenerator(config).Generate().status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  for (double edge : {0.0, 1.0}) {
    config = SmallConfig(8);
    config.connect_fraction = edge;
    EXPECT_TRUE(NetworkGenerator(config).Generate().ok()) << edge;
  }
}

// --- FailureSimulator ---------------------------------------------------------

TEST(FailureSimulatorTest, CalibratesToTargetsWithinTolerance) {
  RegionConfig config = SmallConfig(9);
  auto dataset = GenerateRegion(config);
  ASSERT_TRUE(dataset.ok());
  double total = static_cast<double>(dataset->failures.size());
  // Poisson noise at ~380 expected: 5 sigma ~ 100.
  EXPECT_NEAR(total, config.target_failures_all, 100.0);
  int cwm = 0;
  for (const auto& r : dataset->failures.records()) {
    auto pipe = dataset->network.FindPipe(r.pipe_id);
    if (pipe.ok() && (*pipe)->IsCritical()) ++cwm;
  }
  EXPECT_NEAR(cwm, config.target_failures_cwm, 45.0);
}

TEST(FailureSimulatorTest, Deterministic) {
  RegionConfig config = SmallConfig(10);
  auto d1 = GenerateRegion(config);
  auto d2 = GenerateRegion(config);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  ASSERT_EQ(d1->failures.size(), d2->failures.size());
  for (size_t i = 0; i < d1->failures.size(); ++i) {
    EXPECT_EQ(d1->failures.records()[i].segment_id,
              d2->failures.records()[i].segment_id);
    EXPECT_EQ(d1->failures.records()[i].year, d2->failures.records()[i].year);
  }
}

TEST(FailureSimulatorTest, FailuresWithinObservationWindowAndMatched) {
  RegionConfig config = SmallConfig(11);
  auto dataset = GenerateRegion(config);
  ASSERT_TRUE(dataset.ok());
  for (const auto& r : dataset->failures.records()) {
    EXPECT_GE(r.year, config.observe_first);
    EXPECT_LE(r.year, config.observe_last);
    EXPECT_TRUE(dataset->network.FindSegment(r.segment_id).ok());
    EXPECT_TRUE(dataset->network.FindPipe(r.pipe_id).ok());
    // No failures before the pipe was laid.
    EXPECT_GE(r.year, (*dataset->network.FindPipe(r.pipe_id))->laid_year);
  }
}

TEST(FailureSimulatorTest, SparsityHolds) {
  // "Very few pipes have failure records": most segments never fail.
  RegionConfig config = SmallConfig(12);
  auto dataset = GenerateRegion(config);
  ASSERT_TRUE(dataset.ok());
  std::set<net::SegmentId> failed;
  for (const auto& r : dataset->failures.records()) failed.insert(r.segment_id);
  EXPECT_LT(static_cast<double>(failed.size()),
            0.35 * dataset->network.num_segments());
}

TEST(FailureSimulatorTest, IntensityIncreasesWithAge) {
  RegionConfig config = SmallConfig(13);
  auto network = NetworkGenerator(config).Generate();
  ASSERT_TRUE(network.ok());
  FailureSimulator simulator(config);
  // Find a metallic pipe and check monotone-ish wear-out over decades.
  for (const net::PipeSegment& s : network->segments()) {
    auto pipe = network->FindPipe(s.pipe_id);
    if (!pipe.ok() || (*pipe)->material != net::Material::kCicl) continue;
    double young = simulator.RawIntensity(*network, s, (*pipe)->laid_year + 5);
    double old = simulator.RawIntensity(*network, s, (*pipe)->laid_year + 60);
    EXPECT_GT(old, young);
    break;
  }
  // No intensity before laying.
  const net::PipeSegment& s0 = network->segments()[0];
  auto p0 = network->FindPipe(s0.pipe_id);
  EXPECT_EQ(simulator.RawIntensity(*network, s0, (*p0)->laid_year - 1), 0.0);
}

TEST(FailureSimulatorTest, IntensityTableMatchesRawIntensityBitForBit) {
  RegionConfig config = RegionConfig::Tiny(5);
  config.laid_last = 2005;  // some pipes are laid inside the window
  auto network = NetworkGenerator(config).Generate();
  ASSERT_TRUE(network.ok());
  FailureSimulator simulator(config);
  const FailureSimulator::IntensityTable table =
      simulator.BuildIntensityTable(*network);
  ASSERT_EQ(table.years, config.observe_last - config.observe_first + 1);
  ASSERT_EQ(table.critical.size(), network->num_segments());
  ASSERT_EQ(table.raw.size(), network->num_segments() * table.years);
  int unlaid = 0;
  std::uint64_t hash = testutil::Fnv1a("");
  for (size_t i = 0; i < network->num_segments(); ++i) {
    const net::PipeSegment& s = network->segments()[i];
    const net::Pipe& pipe = **network->FindPipe(s.pipe_id);
    EXPECT_EQ(table.critical[i] != 0, pipe.IsCritical());
    for (int k = 0; k < table.years; ++k) {
      const double raw =
          simulator.RawIntensity(*network, s, config.observe_first + k);
      const double entry = table.Row(i)[k];
      ASSERT_EQ(std::memcmp(&raw, &entry, sizeof(double)), 0)
          << "segment " << s.id << " year " << config.observe_first + k;
      hash = testutil::Fnv1a(
          std::string_view(reinterpret_cast<const char*>(&entry), 8), hash);
      if (config.observe_first + k < pipe.laid_year) {
        EXPECT_EQ(entry, 0.0);
        ++unlaid;
      } else {
        EXPECT_GT(entry, 0.0);
      }
    }
  }
  EXPECT_GT(unlaid, 0);
  // Generated bytes hide ulp-level changes (a Bernoulli draw rarely lands
  // within an ulp of p), so the intensities' and calibrated scales' own bit
  // patterns are pinned too, as computed by per-year RawIntensity calls.
  EXPECT_EQ(hash, 0xCC6A422769F4E800ULL);
  const FailureSimulator::Scales scales = simulator.CalibrateScales(*network);
  EXPECT_EQ(scales.cwm, 0x1.60c519ccfe95bp+0);
  EXPECT_EQ(scales.rwm, 0x1.c92fc0ea6e5d8p-3);
}

TEST(FailureSimulatorTest, CohortMultiplierDeterministicAndHeterogeneous) {
  RegionConfig config = SmallConfig(14);
  FailureSimulator simulator(config);
  std::set<double> values;
  for (net::PipeId id = 0; id < 200; ++id) {
    double m1 = simulator.CohortMultiplier(id);
    double m2 = simulator.CohortMultiplier(id);
    EXPECT_DOUBLE_EQ(m1, m2);
    values.insert(m1);
  }
  EXPECT_EQ(values.size(), 3u);  // the three latent cohorts all appear
}

TEST(FailureSimulatorTest, EscalationRaisesRepeatFailures) {
  // With escalation on, segments that failed once fail again more often
  // than the no-dynamics baseline.
  RegionConfig config = SmallConfig(15);
  config.num_pipes = 1200;
  config.target_failures_all = 900.0;
  config.target_failures_cwm = 150.0;
  auto network = NetworkGenerator(config).Generate();
  ASSERT_TRUE(network.ok());

  FailureSimulator::Dynamics none;
  none.escalation = 1.0;
  FailureSimulator::Dynamics strong;
  strong.escalation = 3.0;
  auto repeats = [&](const FailureSimulator& sim) {
    auto history = sim.Simulate(*network);
    EXPECT_TRUE(history.ok());
    std::map<net::SegmentId, int> counts;
    for (const auto& r : history->records()) counts[r.segment_id]++;
    int repeat_segments = 0;
    for (const auto& [id, n] : counts) {
      (void)id;
      if (n > 1) ++repeat_segments;
    }
    return std::make_pair(repeat_segments,
                          static_cast<int>(counts.size()));
  };
  auto [rep_none, seg_none] = repeats(FailureSimulator(config, none));
  auto [rep_strong, seg_strong] = repeats(FailureSimulator(config, strong));
  // Same calibrated totals, so compare repeat shares.
  double share_none = static_cast<double>(rep_none) / std::max(seg_none, 1);
  double share_strong =
      static_cast<double>(rep_strong) / std::max(seg_strong, 1);
  EXPECT_GT(share_strong, share_none);
}

// --- Generated-byte goldens -------------------------------------------------------
//
// FNV-1a hashes of whole CSV bundles (meta, pipes, segments, failures, in
// that order). Any change to a generated bit -- network geometry, soil and
// traffic features, or the failure log -- fails here.

std::uint64_t BundleHash(const RegionConfig& config, const char* name) {
  const std::string dir = testing::TempDir() + "/piperisk_golden_" + name +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto dataset = GenerateRegion(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  if (!dataset.ok()) return 0;
  const std::string prefix = dir + "/bundle";
  EXPECT_TRUE(SaveRegionDataset(*dataset, prefix).ok());
  std::uint64_t hash = testutil::Fnv1a("");
  for (const char* part : {"_meta.csv", "_pipes.csv", "_segments.csv",
                           "_failures.csv"}) {
    std::ifstream in(prefix + part, std::ios::binary);
    hash = testutil::Fnv1a(std::string(std::istreambuf_iterator<char>(in),
                                       std::istreambuf_iterator<char>()),
                           hash);
  }
  std::filesystem::remove_all(dir);
  return hash;
}

TEST(GeneratorGoldenTest, TinyBundles) {
  EXPECT_EQ(BundleHash(RegionConfig::Tiny(1), "tiny1"), 0x38400E0865A02F1FULL);
  EXPECT_EQ(BundleHash(RegionConfig::Tiny(2), "tiny2"), 0x30FF1790BB7A2431ULL);
  RegionConfig connected = RegionConfig::Tiny(1);
  connected.connect_fraction = 0.3;
  EXPECT_EQ(BundleHash(connected, "connected"), 0x7D1666B263A950B5ULL);
}

TEST(GeneratorGoldenTest, RegionABundle) {
  EXPECT_EQ(BundleHash(RegionConfig::RegionA(), "a"), 0xA3C1746EF5A796DDULL);
}

TEST(GenerateRegionTest, SubSpansOncePerRegionInsideTheRegionSpan) {
  telemetry::StartTracing();
  ASSERT_TRUE(GenerateRegion(RegionConfig::Tiny(3)).ok());
  telemetry::StopTracing();
  std::map<std::string, std::vector<testutil::SpanEvent>> spans;
  for (const testutil::SpanEvent& e : testutil::TracedSpans()) {
    spans[e.name].push_back(e);
  }
  ASSERT_EQ(spans["generate.region"].size(), 1u);
  const testutil::SpanEvent& region = spans["generate.region"][0];
  double prev_end = region.ts;
  for (const char* phase :
       {"generate.network", "generate.calibrate", "generate.simulate"}) {
    ASSERT_EQ(spans[phase].size(), 1u) << phase;
    const testutil::SpanEvent& p = spans[phase][0];
    EXPECT_EQ(p.tid, region.tid) << phase;
    EXPECT_GE(p.ts, prev_end) << phase;
    EXPECT_LE(p.end, region.end) << phase;
    prev_end = p.end;
  }
}

// --- Wastewater ------------------------------------------------------------------

TEST(WastewaterTest, GeneratesCalibratedChokes) {
  WastewaterConfig config;
  config.num_pipes = 800;
  config.target_chokes = 700.0;
  auto dataset = GenerateWastewaterRegion(config);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->network.num_pipes(), 800u);
  EXPECT_NEAR(static_cast<double>(dataset->failures.size()), 700.0, 150.0);
  for (const auto& r : dataset->failures.records()) {
    EXPECT_EQ(r.mode, net::FailureMode::kChoke);
  }
}

TEST(WastewaterTest, FieldsInUnitRangeAndSmooth) {
  WastewaterConfig config;
  for (double x : {100.0, 5000.0, 9000.0}) {
    double canopy = CanopyFieldAt(config, {x, x});
    double moisture = MoistureFieldAt(config, {x, x});
    EXPECT_GE(canopy, 0.0);
    EXPECT_LE(canopy, 1.0);
    EXPECT_GE(moisture, 0.0);
    EXPECT_LE(moisture, 1.0);
    // Smoothness: nearby points have nearby values.
    EXPECT_NEAR(CanopyFieldAt(config, {x + 5.0, x}), canopy, 0.05);
  }
}

TEST(WastewaterTest, CanopyPositivelyAssociatedWithChokes) {
  WastewaterConfig config;
  config.num_pipes = 1200;
  config.target_chokes = 1200.0;
  auto dataset = GenerateWastewaterRegion(config);
  ASSERT_TRUE(dataset.ok());
  // Split segments at the median canopy; high half must have a higher choke
  // rate per km-year.
  std::vector<const net::PipeSegment*> segments;
  for (const auto& s : dataset->network.segments()) segments.push_back(&s);
  double lo_chokes = 0, lo_km = 0, hi_chokes = 0, hi_km = 0;
  for (const auto* s : segments) {
    double km = s->LengthM() / 1000.0;
    int n = dataset->failures.CountForSegment(s->id, 1998, 2009);
    if (s->tree_canopy_fraction > 0.3) {
      hi_chokes += n;
      hi_km += km;
    } else {
      lo_chokes += n;
      lo_km += km;
    }
  }
  ASSERT_GT(lo_km, 0.0);
  ASSERT_GT(hi_km, 0.0);
  EXPECT_GT(hi_chokes / hi_km, 1.5 * (lo_chokes / lo_km));
}

// --- Split builders -----------------------------------------------------------------

TEST(SplitTest, SegmentCountsRespectWindowAndCategory) {
  RegionConfig config = SmallConfig(16);
  auto dataset = GenerateRegion(config);
  ASSERT_TRUE(dataset.ok());
  TemporalSplit split = TemporalSplit::Paper();
  auto cwm_counts = BuildSegmentCounts(*dataset, split,
                                       net::PipeCategory::kCriticalMain);
  auto all_counts = BuildSegmentCounts(*dataset, split);
  EXPECT_LT(cwm_counts.size(), all_counts.size());
  for (const auto& c : cwm_counts) {
    EXPECT_GE(c.n, 1);
    EXPECT_LE(c.n, split.TrainYears());
    EXPECT_GE(c.k, 0);
    EXPECT_LE(c.k, c.n);
    auto pipe = dataset->network.FindPipe(c.pipe_id);
    ASSERT_TRUE(pipe.ok());
    EXPECT_TRUE((*pipe)->IsCritical());
    // k matches a direct recount of distinct failure years in-window.
    EXPECT_EQ(c.k, dataset->failures.FailureYearsForSegment(
                       c.segment_id, split.train_first, split.train_last));
  }
}

TEST(SplitTest, PipeOutcomesSeparateTrainAndTest) {
  RegionConfig config = SmallConfig(17);
  auto dataset = GenerateRegion(config);
  ASSERT_TRUE(dataset.ok());
  TemporalSplit split = TemporalSplit::Paper();
  auto outcomes = BuildPipeOutcomes(*dataset, split);
  int total_train = 0, total_test = 0;
  for (const auto& o : outcomes) {
    total_train += o.train_failures;
    total_test += o.test_failures;
    EXPECT_GT(o.length_m, 0.0);
  }
  // All failures are accounted for across the two windows (window covers
  // the full observation period).
  EXPECT_EQ(total_train + total_test,
            static_cast<int>(dataset->failures.size()));
  // Test year is roughly 1/12 of the record.
  EXPECT_LT(total_test, total_train);
}

TEST(SplitTest, PaperSplitConstants) {
  TemporalSplit split = TemporalSplit::Paper();
  EXPECT_EQ(split.train_first, 1998);
  EXPECT_EQ(split.train_last, 2008);
  EXPECT_EQ(split.test_year, 2009);
  EXPECT_EQ(split.TrainYears(), 11);
}

}  // namespace
}  // namespace data
}  // namespace piperisk
