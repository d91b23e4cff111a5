#include "data/network_generator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/distributions.h"
#include "stats/rng.h"

namespace piperisk {
namespace data {

namespace {

using net::Coating;
using net::Material;
using net::PipeCategory;
using net::Point;
using net::SoilProfile;

/// Era-conditioned material mix. Pre-war networks are cast iron; mid-century
/// brings asbestos cement; the modern stock is PVC/DICL. This mirrors the
/// real cohort structure the models exploit.
Material SampleMaterial(stats::Rng* rng, net::Year laid, bool critical) {
  double u = rng->NextDouble();
  if (laid < 1950) {
    if (critical) return u < 0.85 ? Material::kCicl : Material::kSteel;
    return u < 0.92 ? Material::kCicl : Material::kSteel;
  }
  if (laid < 1970) {
    if (u < 0.55) return Material::kCicl;
    if (u < 0.85) return Material::kAc;
    return critical ? Material::kSteel : Material::kPvc;
  }
  if (laid < 1985) {
    if (u < 0.30) return Material::kAc;
    if (u < 0.55) return Material::kDicl;
    if (u < 0.90) return Material::kPvc;
    return Material::kCicl;
  }
  if (u < 0.55) return Material::kPvc;
  if (u < 0.90) return Material::kDicl;
  return Material::kSteel;
}

Coating SampleCoating(stats::Rng* rng, Material material, net::Year laid) {
  double u = rng->NextDouble();
  switch (material) {
    case Material::kCicl:
    case Material::kSteel:
      if (laid < 1955) return u < 0.6 ? Coating::kTar : Coating::kNone;
      return u < 0.35 ? Coating::kBitumen : Coating::kNone;
    case Material::kDicl:
      return u < 0.7 ? Coating::kPolyethyleneSleeve : Coating::kNone;
    default:
      return Coating::kNone;
  }
}

double SampleDiameter(stats::Rng* rng, bool critical) {
  if (critical) {
    // CWM: 300 mm and above; discrete nominal sizes.
    static const double kSizes[] = {300, 375, 450, 500, 600, 750, 900};
    static const double kWeights[] = {0.34, 0.22, 0.16, 0.12, 0.09, 0.05,
                                      0.02};
    double u = rng->NextDouble();
    double acc = 0.0;
    for (size_t i = 0; i < 7; ++i) {
      acc += kWeights[i];
      if (u < acc) return kSizes[i];
    }
    return 900;
  }
  static const double kSizes[] = {100, 150, 200, 250};
  static const double kWeights[] = {0.45, 0.35, 0.14, 0.06};
  double u = rng->NextDouble();
  double acc = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    acc += kWeights[i];
    if (u < acc) return kSizes[i];
  }
  return 250;
}

/// Laid-year sampler: a mixture of post-war construction booms inside the
/// configured range, so age cohorts are lumpy as in real networks.
net::Year SampleLaidYear(stats::Rng* rng, const RegionConfig& cfg) {
  double span = static_cast<double>(cfg.laid_last - cfg.laid_first);
  double u = rng->NextDouble();
  double frac;
  if (u < 0.25) {
    // Early stock, thinning toward the start of the range.
    frac = 0.30 * std::pow(rng->NextDouble(), 0.7);
  } else if (u < 0.70) {
    // Post-war boom: bulk of the network in the middle of the range.
    frac = 0.30 + 0.40 * rng->NextDouble();
  } else {
    // Modern growth.
    frac = 0.70 + 0.30 * std::pow(rng->NextDouble(), 1.3);
  }
  return cfg.laid_first + static_cast<net::Year>(std::lround(frac * span));
}

SoilProfile SampleSoilProfile(stats::Rng* rng) {
  SoilProfile p;
  // Marginals roughly matching published Sydney-basin soil statistics:
  // corrosive and reactive zones are a strong minority.
  double u = rng->NextDouble();
  p.corrosiveness = u < 0.40   ? net::SoilCorrosiveness::kLow
                    : u < 0.72 ? net::SoilCorrosiveness::kModerate
                    : u < 0.92 ? net::SoilCorrosiveness::kHigh
                               : net::SoilCorrosiveness::kSevere;
  u = rng->NextDouble();
  p.expansiveness = u < 0.45   ? net::SoilExpansiveness::kStable
                    : u < 0.75 ? net::SoilExpansiveness::kSlightly
                    : u < 0.93 ? net::SoilExpansiveness::kModerately
                               : net::SoilExpansiveness::kHighly;
  u = rng->NextDouble();
  p.geology = u < 0.42   ? net::SoilGeology::kSandstone
              : u < 0.72 ? net::SoilGeology::kShale
              : u < 0.88 ? net::SoilGeology::kAlluvium
              : u < 0.96 ? net::SoilGeology::kGranite
                         : net::SoilGeology::kBasalt;
  u = rng->NextDouble();
  p.landscape = u < 0.28   ? net::SoilLandscape::kFluvial
                : u < 0.52 ? net::SoilLandscape::kColluvial
                : u < 0.80 ? net::SoilLandscape::kErosional
                : u < 0.95 ? net::SoilLandscape::kResidual
                           : net::SoilLandscape::kAeolian;
  return p;
}

}  // namespace

Result<net::Network> NetworkGenerator::Generate() const {
  if (config_.num_pipes <= 0) {
    return Status::InvalidArgument("num_pipes must be positive");
  }
  if (config_.laid_last < config_.laid_first) {
    return Status::InvalidArgument("laid-year range is inverted");
  }
  if (config_.observe_last < config_.observe_first) {
    return Status::InvalidArgument("observation window is inverted");
  }
  if (!(config_.connect_fraction >= 0.0 && config_.connect_fraction <= 1.0)) {
    return Status::InvalidArgument("connect_fraction must be in [0, 1]");
  }
  stats::Rng rng(config_.seed, 0x9e3779b97f4a7c15ULL);
  const double side = config_.SideM();

  net::RegionInfo info;
  info.name = config_.name;
  info.population = config_.population;
  info.area_km2 = config_.AreaKm2();
  net::Network network(info);

  // Soil zones: Voronoi sites with independent profiles.
  {
    std::vector<net::SoilZoneIndex::Zone> zones;
    zones.reserve(static_cast<size_t>(config_.num_soil_zones));
    for (int z = 0; z < config_.num_soil_zones; ++z) {
      net::SoilZoneIndex::Zone zone;
      zone.id = z;
      zone.site = Point{rng.NextUniform(0.0, side), rng.NextUniform(0.0, side)};
      zone.profile = SampleSoilProfile(&rng);
      zones.push_back(zone);
    }
    network.SetSoilIndex(net::SoilZoneIndex(std::move(zones)));
  }

  // Traffic intersections on a jittered grid scaled by density.
  {
    double count = config_.intersections_per_km2 * config_.AreaKm2();
    int n = std::max(4, static_cast<int>(count));
    int per_side = std::max(2, static_cast<int>(std::sqrt(n)));
    double pitch = side / per_side;
    std::vector<Point> pts;
    pts.reserve(static_cast<size_t>(per_side) * per_side);
    for (int gx = 0; gx < per_side; ++gx) {
      for (int gy = 0; gy < per_side; ++gy) {
        pts.push_back(Point{(gx + 0.5) * pitch + rng.NextUniform(-0.3, 0.3) * pitch,
                            (gy + 0.5) * pitch + rng.NextUniform(-0.3, 0.3) * pitch});
      }
    }
    network.SetIntersectionIndex(net::IntersectionIndex(std::move(pts)));
  }

  // Pipes. Exactly round(num_pipes * cwm_fraction) critical mains.
  const int num_cwm =
      static_cast<int>(std::lround(config_.num_pipes * config_.cwm_fraction));
  net::SegmentId next_segment_id = config_.segment_id_base;
  std::vector<Point> junctions;  // existing endpoints for connected growth
  for (int i = 0; i < config_.num_pipes; ++i) {
    const bool critical = i < num_cwm;
    net::Pipe pipe;
    pipe.id = config_.pipe_id_base + i;
    pipe.category = critical ? PipeCategory::kCriticalMain
                             : PipeCategory::kReticulationMain;
    pipe.laid_year = SampleLaidYear(&rng, config_);
    pipe.material = SampleMaterial(&rng, pipe.laid_year, critical);
    pipe.coating = SampleCoating(&rng, pipe.material, pipe.laid_year);
    pipe.diameter_mm = SampleDiameter(&rng, critical);
    PIPERISK_RETURN_IF_ERROR(network.AddPipe(pipe));

    // Geometry: a direction-jittered polyline from a random start. Streets
    // run mostly axis-aligned; pipes follow them.
    double length = std::exp(stats::SampleNormal(
        &rng, critical ? config_.cwm_log_length_mu : config_.rwm_log_length_mu,
        critical ? config_.cwm_log_length_sigma
                 : config_.rwm_log_length_sigma));
    length = std::clamp(length, 20.0, 4000.0);
    int num_segments = std::max(
        1, static_cast<int>(std::lround(length / config_.mean_segment_length_m)));
    double seg_len = length / num_segments;

    Point cursor{rng.NextUniform(0.0, side), rng.NextUniform(0.0, side)};
    if (!junctions.empty() &&
        rng.NextDouble() < config_.connect_fraction) {
      cursor = junctions[rng.NextBounded(junctions.size())];
    }
    const Point pipe_start = cursor;
    // Axis-aligned base heading with jitter.
    double heading =
        (rng.NextBounded(2) == 0 ? 0.0 : M_PI_2) + rng.NextUniform(-0.15, 0.15);
    if (rng.NextBounded(2) == 0) heading += M_PI;
    for (int s = 0; s < num_segments; ++s) {
      net::PipeSegment seg;
      seg.id = next_segment_id++;
      seg.pipe_id = pipe.id;
      seg.index_in_pipe = s;
      seg.start = cursor;
      heading += rng.NextUniform(-0.12, 0.12);
      Point next{cursor.x + seg_len * std::cos(heading),
                 cursor.y + seg_len * std::sin(heading)};
      // Reflect at the region boundary so pipes stay inside the footprint.
      if (next.x < 0.0 || next.x > side) {
        heading = M_PI - heading;
        next.x = std::clamp(next.x, 0.0, side);
      }
      if (next.y < 0.0 || next.y > side) {
        heading = -heading;
        next.y = std::clamp(next.y, 0.0, side);
      }
      seg.end = next;
      cursor = next;
      PIPERISK_RETURN_IF_ERROR(network.AddSegment(seg));
    }
    if (config_.connect_fraction > 0.0) {
      // Register both ends as junctions for later pipes to attach to.
      junctions.push_back(pipe_start);
      junctions.push_back(cursor);
    }
  }

  network.RefreshEnvironmentalFeatures();
  PIPERISK_RETURN_IF_ERROR(network.Validate());
  return network;
}

}  // namespace data
}  // namespace piperisk
