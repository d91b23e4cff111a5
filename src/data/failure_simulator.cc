#include "data/failure_simulator.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/trace.h"
#include "data/network_generator.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace piperisk {
namespace data {

namespace {

using net::Coating;
using net::Material;
using net::PipeCategory;

/// Wear-out exponent by material: AC embrittles sharply late in life, PVC is
/// young stock with an infant-mortality bump, ductile iron is benign.
double AgeMultiplier(const net::Pipe& pipe, int age) {
  double a = std::max(age, 1);
  double gamma;
  switch (pipe.material) {
    case Material::kAc:
      gamma = 1.8;
      break;
    case Material::kCicl:
      gamma = 1.4;
      break;
    case Material::kSteel:
      gamma = 1.2;
      break;
    case Material::kDicl:
      gamma = 0.8;
      break;
    case Material::kPvc:
      gamma = 0.5;
      break;
    default:
      gamma = 1.0;
      break;
  }
  double mult = std::pow(a / 50.0, gamma);
  if (pipe.material == Material::kPvc && age < 8) {
    mult += 0.6;  // joint/installation defects surface early
  }
  return std::max(mult, 0.02);
}

bool IsMetallic(Material m) {
  return m == Material::kCicl || m == Material::kSteel || m == Material::kDicl;
}

double CorrosionMultiplier(const net::Pipe& pipe,
                           const net::PipeSegment& segment) {
  if (!IsMetallic(pipe.material)) return 1.0;
  static const double kSoil[] = {1.0, 1.9, 3.4, 5.5};
  double mult = kSoil[static_cast<int>(segment.soil.corrosiveness)];
  switch (pipe.coating) {
    case Coating::kPolyethyleneSleeve:
      mult = 1.0 + (mult - 1.0) * 0.35;
      break;
    case Coating::kTar:
      mult = 1.0 + (mult - 1.0) * 0.70;
      break;
    case Coating::kBitumen:
      mult = 1.0 + (mult - 1.0) * 0.80;
      break;
    case Coating::kNone:
      break;
  }
  return mult;
}

double ExpansiveClayMultiplier(const net::Pipe& pipe,
                               const net::PipeSegment& segment) {
  static const double kClay[] = {1.0, 1.3, 2.0, 3.2};
  double base = kClay[static_cast<int>(segment.soil.expansiveness)];
  // Rigid, small-diameter mains suffer most from shrink–swell bending.
  bool rigid =
      pipe.material == Material::kCicl || pipe.material == Material::kAc;
  if (!rigid) base = 1.0 + (base - 1.0) * 0.3;
  double size = std::sqrt(std::clamp(150.0 / pipe.diameter_mm, 0.3, 1.5));
  return 1.0 + (base - 1.0) * size;
}

double TrafficMultiplier(const net::PipeSegment& segment, bool critical) {
  double d = segment.distance_to_intersection_m;
  if (!std::isfinite(d)) return 1.0;
  // Pressure cycling decays with distance from the intersection; critical
  // mains are buried deeper, so the effect is attenuated.
  double peak = critical ? 1.3 : 2.2;
  return 1.0 + peak * std::exp(-d / 120.0);
}

double GeologyMultiplier(const net::PipeSegment& segment) {
  double mult = 1.0;
  switch (segment.soil.geology) {
    case net::SoilGeology::kShale:
      mult *= 1.20;
      break;
    case net::SoilGeology::kAlluvium:
      mult *= 1.35;  // differential settlement
      break;
    default:
      break;
  }
  switch (segment.soil.landscape) {
    case net::SoilLandscape::kFluvial:
      mult *= 1.25;
      break;
    case net::SoilLandscape::kColluvial:
      mult *= 1.10;
      break;
    default:
      break;
  }
  return mult;
}

double DiameterMultiplier(const net::Pipe& pipe) {
  // Per-km break rates fall with diameter (thicker walls, better bedding).
  return std::pow(std::clamp(200.0 / pipe.diameter_mm, 0.2, 2.5), 0.8);
}

}  // namespace

double FailureSimulator::CohortMultiplier(net::PipeId pipe_id) const {
  // Deterministic in (seed, pipe id): hash both into a throwaway stream.
  stats::Rng rng(config_.seed * 0x9e3779b97f4a7c15ULL +
                     static_cast<std::uint64_t>(pipe_id) * 0xbf58476d1ce4e5b9ULL,
                 0x94d049bb133111ebULL);
  double u = rng.NextDouble();
  if (u < 0.30) return 0.40;  // well-installed cohort
  if (u < 0.85) return 1.0;   // nominal
  return 3.2;                 // bad batch / poor bedding
}

namespace {

/// Unobservable segment-level heterogeneity: unmapped bedding quality,
/// backfill, local water-table pockets. Lognormal with sigma ~ 0.35, mean 1.
/// Deterministic in (seed, segment id). This variance is invisible to every
/// covariate-only model; only failure history reveals it.
double HiddenSegmentFactor(std::uint64_t seed, net::SegmentId segment_id) {
  stats::Rng rng(seed * 0xd6e8feb86659fd93ULL +
                     static_cast<std::uint64_t>(segment_id) *
                         0xa3b195354a39b70dULL,
                 0x2545f4914f6cdd1dULL);
  double z = stats::SampleNormal(&rng);
  return std::exp(0.35 * z - 0.061);  // mean ~= 1
}

/// The year-independent factors of one segment's raw intensity. The
/// per-year product is base * age, then each of `tail` in turn, always in
/// this order: floating-point products are not associative, so reordering
/// the factors changes the intensities' bits.
struct SegmentFactors {
  double base = 0.0;  ///< base_per_km * len_km
  /// Corrosion, expansive clay, traffic, geology, diameter, cohort, hidden.
  std::array<double, 7> tail{};
};

SegmentFactors FactorsOf(const net::Pipe& pipe,
                         const net::PipeSegment& segment, double cohort,
                         std::uint64_t seed) {
  const bool critical = pipe.IsCritical();
  const double base_per_km = critical ? 0.040 : 0.32;
  const double len_km = segment.LengthM() / 1000.0;
  return {base_per_km * len_km,
          {CorrosionMultiplier(pipe, segment),
           ExpansiveClayMultiplier(pipe, segment),
           TrafficMultiplier(segment, critical), GeologyMultiplier(segment),
           DiameterMultiplier(pipe), cohort,
           HiddenSegmentFactor(seed, segment.id)}};
}

double YearIntensity(const SegmentFactors& f, double age_multiplier) {
  double h = f.base * age_multiplier;
  for (double factor : f.tail) h *= factor;
  return h;
}

}  // namespace

double FailureSimulator::RawIntensity(const net::Network& network,
                                      const net::PipeSegment& segment,
                                      net::Year year) const {
  auto pipe_result = network.FindPipe(segment.pipe_id);
  if (!pipe_result.ok()) return 0.0;
  const net::Pipe& pipe = **pipe_result;
  int age = year - pipe.laid_year;
  if (age < 0) return 0.0;
  return YearIntensity(
      FactorsOf(pipe, segment, CohortMultiplier(pipe.id), config_.seed),
      AgeMultiplier(pipe, age));
}

FailureSimulator::IntensityTable FailureSimulator::BuildIntensityTable(
    const net::Network& network) const {
  IntensityTable table;
  table.years = std::max(config_.observe_last - config_.observe_first + 1, 0);
  const std::vector<net::PipeSegment>& segments = network.segments();
  table.raw.assign(segments.size() * static_cast<size_t>(table.years), 0.0);
  table.critical.assign(segments.size(), 0);
  // Consecutive segments of one pipe (the generator stores a pipe's
  // segments together) share its lookup, cohort and per-year age factors.
  const net::Pipe* pipe = nullptr;
  double cohort = 0.0;
  std::vector<double> age_factor(static_cast<size_t>(table.years));
  for (size_t i = 0; i < segments.size(); ++i) {
    const net::PipeSegment& s = segments[i];
    if (pipe == nullptr || pipe->id != s.pipe_id) {
      auto pipe_result = network.FindPipe(s.pipe_id);
      pipe = pipe_result.ok() ? *pipe_result : nullptr;
      if (pipe == nullptr) continue;
      cohort = CohortMultiplier(pipe->id);
      for (int k = 0; k < table.years; ++k) {
        const int age = config_.observe_first + k - pipe->laid_year;
        age_factor[k] = age >= 0 ? AgeMultiplier(*pipe, age) : 0.0;
      }
    }
    table.critical[i] = pipe->IsCritical();
    const SegmentFactors factors = FactorsOf(*pipe, s, cohort, config_.seed);
    double* row = table.raw.data() + i * static_cast<size_t>(table.years);
    for (int k = 0; k < table.years; ++k) {
      if (config_.observe_first + k >= pipe->laid_year) {
        row[k] = YearIntensity(factors, age_factor[k]);
      }
    }
  }
  return table;
}

net::FailureHistory FailureSimulator::SimulatePass(
    const net::Network& network, const IntensityTable& table,
    const Scales& scales, std::uint64_t salt, double* cwm_count,
    double* rwm_count) const {
  stats::Rng rng((config_.seed + salt) ^ 0x5851f42d4c957f2dULL,
                 0x14057b7ef767814fULL);
  *cwm_count = 0.0;
  *rwm_count = 0.0;
  // History escalation: disturbed bedding after each repair raises the
  // subsequent hazard by escalation^min(prior failures, max_escalated).
  // Tabulated up to the most failures a segment can have had.
  std::vector<double> escalation(
      static_cast<size_t>(
          std::min(std::max(dynamics_.max_escalated, 0), table.years)) +
      1);
  for (size_t k = 0; k < escalation.size(); ++k) {
    escalation[k] =
        std::pow(dynamics_.escalation,
                 std::min(static_cast<int>(k), dynamics_.max_escalated));
  }
  const size_t top = escalation.size() - 1;
  net::FailureHistory history;
  const std::vector<net::PipeSegment>& segments = network.segments();
  for (size_t i = 0; i < segments.size(); ++i) {
    const net::PipeSegment& s = segments[i];
    const double* row = table.Row(i);
    const bool critical = table.critical[i] != 0;
    const double scale = critical ? scales.cwm : scales.rwm;
    size_t prior_failures = 0;
    for (int k = 0; k < table.years; ++k) {
      const double h = row[k];
      if (h <= 0.0) continue;
      double esc = escalation[std::min(prior_failures, top)];
      double p = -std::expm1(-scale * esc * h);
      if (stats::SampleBernoulli(&rng, p)) {
        net::FailureRecord r;
        r.pipe_id = s.pipe_id;
        r.segment_id = s.id;
        r.year = config_.observe_first + k;
        double t = rng.NextDouble();
        r.location = net::Point{s.start.x + t * (s.end.x - s.start.x),
                                s.start.y + t * (s.end.y - s.start.y)};
        r.mode = net::FailureMode::kBreak;
        history.Add(r);
        ++prior_failures;
        *(critical ? cwm_count : rwm_count) += 1.0;
      }
    }
  }
  return history;
}

FailureSimulator::Scales FailureSimulator::CalibrateScales(
    const net::Network& network) const {
  return CalibrateScales(network, BuildIntensityTable(network));
}

FailureSimulator::Scales FailureSimulator::CalibrateScales(
    const net::Network& network, const IntensityTable& table) const {
  // Fixed point on simulated totals: the escalation dynamics make the
  // expectation history-dependent, so calibration runs the simulator
  // itself. A fixed calibration salt stream keeps this deterministic.
  const double target_cwm = config_.target_failures_cwm;
  const double target_rwm =
      std::max(config_.target_failures_all - config_.target_failures_cwm, 0.0);
  Scales scales;

  // Analytic warm start ignoring escalation: fixed-point iterations on the
  // expected failure totals, summed over the table in segment-year order.
  auto warm = [&table](bool critical, double target) {
    if (target <= 0.0) return 1.0;
    double scale = 1.0;
    for (int iter = 0; iter < 8; ++iter) {
      double expected = 0.0;
      for (size_t i = 0; i < table.critical.size(); ++i) {
        if ((table.critical[i] != 0) != critical) continue;
        const double* row = table.Row(i);
        for (int k = 0; k < table.years; ++k) {
          if (row[k] <= 0.0) continue;
          expected += -std::expm1(-scale * row[k]);
        }
      }
      if (expected <= 0.0) break;  // also when the category is empty
      scale *= target / expected;
    }
    return scale;
  };
  scales.cwm = warm(true, target_cwm);
  scales.rwm = warm(false, target_rwm);

  // Simulation-based refinement.
  for (int iter = 0; iter < 5; ++iter) {
    double cwm = 0.0, rwm = 0.0;
    SimulatePass(network, table, scales, /*salt=*/1000 + iter, &cwm, &rwm);
    if (cwm > 0.0 && target_cwm > 0.0) scales.cwm *= target_cwm / cwm;
    if (rwm > 0.0 && target_rwm > 0.0) scales.rwm *= target_rwm / rwm;
  }
  return scales;
}

Result<net::FailureHistory> FailureSimulator::Simulate(
    const net::Network& network) const {
  if (network.num_segments() == 0) {
    return Status::FailedPrecondition("network has no segments");
  }
  // One table serves the warm start and all six passes; it is freed when
  // Simulate returns.
  IntensityTable table;
  Scales scales;
  {
    telemetry::ScopedSpan span("generate.calibrate");
    table = BuildIntensityTable(network);
    scales = CalibrateScales(network, table);
  }
  telemetry::ScopedSpan span("generate.simulate");
  double cwm = 0.0, rwm = 0.0;
  return SimulatePass(network, table, scales, /*salt=*/0, &cwm, &rwm);
}

Result<RegionDataset> GenerateRegion(const RegionConfig& config) {
  telemetry::ScopedSpan span("generate.region");
  auto network = [&config] {
    telemetry::ScopedSpan network_span("generate.network");
    return NetworkGenerator(config).Generate();
  }();
  if (!network.ok()) return network.status();
  FailureSimulator simulator(config);
  auto failures = simulator.Simulate(*network);
  if (!failures.ok()) return failures.status();
  RegionDataset dataset;
  dataset.config = config;
  dataset.network = std::move(*network);
  dataset.failures = std::move(*failures);
  return dataset;
}

}  // namespace data
}  // namespace piperisk
