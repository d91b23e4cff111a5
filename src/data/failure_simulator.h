#ifndef PIPERISK_DATA_FAILURE_SIMULATOR_H_
#define PIPERISK_DATA_FAILURE_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/generator_config.h"
#include "net/failure.h"
#include "net/network.h"

namespace piperisk {
namespace data {

/// Ground-truth failure process for the synthetic substrate.
///
/// Each segment-year carries a latent break intensity composed of
/// multiplicative factors (age-by-material wear-out, corrosion in aggressive
/// soils modulated by coating, expansive-clay stress on rigid small mains,
/// traffic loading near intersections, geology/landscape settlement) plus a
/// latent per-pipe quality cohort that is *not* observable through any
/// feature — the heterogeneity the nonparametric grouping must discover from
/// failure history alone. Failures are Bernoulli per segment-year on
/// p = 1 - exp(-intensity), matching the models' "at most one failure per
/// segment per year" observation model.
///
/// The simulator self-calibrates two global scales (CWM and RWM) so the
/// expected failure totals over the observation window match the
/// RegionConfig targets from Table 18.1.
class FailureSimulator {
 public:
  /// History-dependent hazard escalation: each past failure of a segment
  /// multiplies its subsequent intensity by `escalation` (capped at
  /// `max_escalated` prior failures). This models disturbed bedding and
  /// progressive joint damage — the empirical "previous breaks are the best
  /// predictor of future breaks" effect that makes failure-history models
  /// (HBP/DPMHBP) outperform covariate-only ones.
  struct Dynamics {
    double escalation = 3.2;
    int max_escalated = 4;
  };

  explicit FailureSimulator(RegionConfig config)
      : config_(std::move(config)) {}
  FailureSimulator(RegionConfig config, Dynamics dynamics)
      : config_(std::move(config)), dynamics_(dynamics) {}

  /// Calibrates scales against `network` and samples the failure log over
  /// the observation window. Deterministic in (config.seed, network).
  Result<net::FailureHistory> Simulate(const net::Network& network) const;

  /// The latent intensity of one segment in one year *excluding* the global
  /// calibration scale (exposed for tests and diagnostics).
  double RawIntensity(const net::Network& network,
                      const net::PipeSegment& segment, net::Year year) const;

  /// RawIntensity of every segment-year of a network over the observation
  /// window, each segment's year-independent factors computed once. Row i
  /// belongs to network.segments()[i]; entry k is year observe_first + k,
  /// and is 0 before the pipe was laid (or when its pipe is unknown).
  struct IntensityTable {
    int years = 0;
    std::vector<double> raw;             ///< segments x years, row-major
    std::vector<std::uint8_t> critical;  ///< per segment: pipe is a CWM
    const double* Row(size_t segment) const {
      return raw.data() + segment * static_cast<size_t>(years);
    }
  };
  IntensityTable BuildIntensityTable(const net::Network& network) const;

  /// The calibrated scales used by the last Simulate call semantics: since
  /// Simulate is const and deterministic, CalibrateScales recomputes them.
  /// Calibration is by fixed-point on *simulated* totals (the escalation
  /// dynamics make the expectation history-dependent). Builds its own
  /// intensity table.
  struct Scales {
    double cwm = 1.0;
    double rwm = 1.0;
  };
  Scales CalibrateScales(const net::Network& network) const;

  /// Latent per-pipe quality-cohort multiplier (deterministic in
  /// (config.seed, pipe id)); exposed so tests can verify heterogeneity.
  double CohortMultiplier(net::PipeId pipe_id) const;

 private:
  Scales CalibrateScales(const net::Network& network,
                         const IntensityTable& table) const;

  /// One stochastic pass with the given scales over `network`'s table;
  /// `counts` returns (cwm, rwm) failure totals. Used by both calibration
  /// and the final simulation.
  net::FailureHistory SimulatePass(const net::Network& network,
                                   const IntensityTable& table,
                                   const Scales& scales, std::uint64_t salt,
                                   double* cwm_count, double* rwm_count) const;

  RegionConfig config_;
  Dynamics dynamics_;
};

/// Convenience: generate a full region dataset (network + calibrated
/// failures) from a config.
Result<RegionDataset> GenerateRegion(const RegionConfig& config);

}  // namespace data
}  // namespace piperisk

#endif  // PIPERISK_DATA_FAILURE_SIMULATOR_H_
