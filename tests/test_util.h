#ifndef PIPERISK_TESTS_TEST_UTIL_H_
#define PIPERISK_TESTS_TEST_UTIL_H_

// Shared fixtures for model tests: a small but realistic region dataset and
// its prebuilt ModelInput, constructed once per process (generation is the
// slow part of these tests).

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/trace.h"
#include "core/hbp.h"
#include "core/model.h"
#include "data/failure_simulator.h"
#include "eval/ranking_metrics.h"

namespace piperisk {
namespace testutil {

struct SharedRegion {
  data::RegionDataset dataset;
  core::ModelInput cwm_input;
};

/// A ~800-pipe region with CWM share 30% and enough failures that every
/// model has signal. Built on first use; later uses are free.
inline const SharedRegion& GetSharedRegion() {
  static const SharedRegion* shared = [] {
    auto s = new SharedRegion();
    data::RegionConfig config = data::RegionConfig::Tiny(4242);
    config.num_pipes = 800;
    config.cwm_fraction = 0.3;
    config.target_failures_all = 520.0;
    config.target_failures_cwm = 110.0;
    auto dataset = data::GenerateRegion(config);
    PIPERISK_CHECK(dataset.ok()) << dataset.status().ToString();
    s->dataset = std::move(*dataset);
    auto input = core::ModelInput::Build(
        s->dataset, data::TemporalSplit::Paper(),
        net::PipeCategory::kCriticalMain, net::FeatureConfig::DrinkingWater());
    PIPERISK_CHECK(input.ok()) << input.status().ToString();
    s->cwm_input = std::move(*input);
    return s;
  }();
  return *shared;
}

/// FNV-1a over `bytes`, continuing from `hash`: the generated-byte goldens
/// hash whole files with it.
inline std::uint64_t Fnv1a(std::string_view bytes,
                           std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// One recorded trace span, in trace microseconds.
struct SpanEvent {
  std::string name;
  double tid, ts, end;
};

/// The spans collected since the last telemetry::StartTracing(), in
/// recording (scope-exit) order.
inline std::vector<SpanEvent> TracedSpans() {
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

/// Test-time hierarchy settings: short chains that still mix on the small
/// fixture.
inline core::HierarchyConfig FastHierarchy() {
  core::HierarchyConfig h;
  h.burn_in = 25;
  h.samples = 50;
  return h;
}

/// Pipe-level detection AUC of scores against test-year outcomes (higher is
/// better; 0.5 ~ random).
inline double ScoreAuc(const core::ModelInput& input,
                       const std::vector<double>& scores) {
  std::vector<int> failures(input.num_pipes());
  std::vector<double> lengths(input.num_pipes());
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    failures[i] = input.outcomes[i].test_failures;
    lengths[i] = input.outcomes[i].length_m;
  }
  auto scored = eval::ZipScores(scores, failures, lengths);
  PIPERISK_CHECK(scored.ok());
  auto auc = eval::DetectionAuc(*scored, eval::BudgetMode::kPipeCount, 1.0);
  PIPERISK_CHECK(auc.ok()) << auc.status().ToString();
  return auc->normalised;
}

}  // namespace testutil
}  // namespace piperisk

#endif  // PIPERISK_TESTS_TEST_UTIL_H_
