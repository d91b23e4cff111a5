#include "net/soil.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

namespace piperisk {
namespace net {

std::string_view ToString(SoilCorrosiveness v) {
  switch (v) {
    case SoilCorrosiveness::kLow:
      return "low";
    case SoilCorrosiveness::kModerate:
      return "moderate";
    case SoilCorrosiveness::kHigh:
      return "high";
    case SoilCorrosiveness::kSevere:
      return "severe";
  }
  return "?";
}

std::string_view ToString(SoilExpansiveness v) {
  switch (v) {
    case SoilExpansiveness::kStable:
      return "stable";
    case SoilExpansiveness::kSlightly:
      return "slightly";
    case SoilExpansiveness::kModerately:
      return "moderately";
    case SoilExpansiveness::kHighly:
      return "highly";
  }
  return "?";
}

std::string_view ToString(SoilGeology v) {
  switch (v) {
    case SoilGeology::kSandstone:
      return "sandstone";
    case SoilGeology::kShale:
      return "shale";
    case SoilGeology::kAlluvium:
      return "alluvium";
    case SoilGeology::kGranite:
      return "granite";
    case SoilGeology::kBasalt:
      return "basalt";
  }
  return "?";
}

std::string_view ToString(SoilLandscape v) {
  switch (v) {
    case SoilLandscape::kFluvial:
      return "fluvial";
    case SoilLandscape::kColluvial:
      return "colluvial";
    case SoilLandscape::kErosional:
      return "erosional";
    case SoilLandscape::kResidual:
      return "residual";
    case SoilLandscape::kAeolian:
      return "aeolian";
  }
  return "?";
}

namespace {
template <typename Enum>
Result<Enum> ParseEnum(std::string_view s, int count, const char* what) {
  for (int i = 0; i < count; ++i) {
    if (ToString(static_cast<Enum>(i)) == s) return static_cast<Enum>(i);
  }
  return Status::ParseError(std::string("unknown ") + what + ": '" +
                            std::string(s) + "'");
}
}  // namespace

Result<SoilCorrosiveness> ParseSoilCorrosiveness(std::string_view s) {
  return ParseEnum<SoilCorrosiveness>(s, kNumCorrosiveness,
                                      "soil corrosiveness");
}
Result<SoilExpansiveness> ParseSoilExpansiveness(std::string_view s) {
  return ParseEnum<SoilExpansiveness>(s, kNumExpansiveness,
                                      "soil expansiveness");
}
Result<SoilGeology> ParseSoilGeology(std::string_view s) {
  return ParseEnum<SoilGeology>(s, kNumGeology, "soil geology");
}
Result<SoilLandscape> ParseSoilLandscape(std::string_view s) {
  return ParseEnum<SoilLandscape>(s, kNumLandscape, "soil landscape");
}

NearestPointGrid::NearestPointGrid(std::vector<Point> points)
    : points_(std::move(points)) {
  if (points_.empty()) return;
  double min_x = points_[0].x, max_x = points_[0].x;
  double min_y = points_[0].y, max_y = points_[0].y;
  for (const Point& p : points_) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  // Aim for ~1 point per cell on average. A degenerate (non-finite) extent
  // keeps the single-cell default, which the search handles like any grid.
  const double span_x = std::max(max_x - min_x, 1.0);
  const double span_y = std::max(max_y - min_y, 1.0);
  const double cell =
      std::sqrt(span_x * span_y / static_cast<double>(points_.size()));
  if (std::isfinite(cell)) {
    min_x_ = min_x;
    min_y_ = min_y;
    cell_ = cell;
    nx_ = static_cast<int>(span_x / cell_) + 1;
    ny_ = static_cast<int>(span_y / cell_) + 1;
  }
  buckets_.assign(static_cast<size_t>(nx_) * ny_, {});
  for (size_t i = 0; i < points_.size(); ++i) {
    buckets_[static_cast<size_t>(CellCoord(points_[i].y, min_y_, ny_)) * nx_ +
             CellCoord(points_[i].x, min_x_, nx_)]
        .push_back(i);
  }
}

int NearestPointGrid::CellCoord(double v, double lo, int cells) const {
  const double f = (v - lo) / cell_;
  if (!(f >= 0.0)) return 0;  // below the grid, or NaN
  if (f >= cells - 1) return cells - 1;
  return static_cast<int>(f);
}

NearestPointGrid::Hit NearestPointGrid::Nearest(const Point& p) const {
  Hit best{0, std::numeric_limits<double>::infinity()};
  const int cx = CellCoord(p.x, min_x_, nx_);
  const int cy = CellCoord(p.y, min_y_, ny_);
  // Expand square rings of cells around p's cell. A point in a ring not yet
  // searched lies at least (ring - 1) cells away, so once the best distance
  // is within that bound no unsearched point can be nearer or tie.
  const int rings = std::max(nx_, ny_);
  for (int ring = 0; ring < rings; ++ring) {
    for (int dy = -ring; dy <= ring; ++dy) {
      const int gy = cy + dy;
      if (gy < 0 || gy >= ny_) continue;
      // The ring's top and bottom rows are whole; other rows hold only the
      // two cells at dx = -ring and dx = +ring.
      const int step = std::abs(dy) == ring ? 1 : 2 * ring;
      for (int dx = -ring; dx <= ring; dx += step) {
        const int gx = cx + dx;
        if (gx < 0 || gx >= nx_) continue;
        for (size_t i : buckets_[static_cast<size_t>(gy) * nx_ + gx]) {
          const double d = Distance(p, points_[i]);
          if (d < best.distance || (d == best.distance && i < best.index)) {
            best = {i, d};
          }
        }
      }
    }
    if (best.distance <= (ring - 1) * cell_) break;
  }
  return best;
}

namespace {
std::vector<Point> SitesOf(const std::vector<SoilZoneIndex::Zone>& zones) {
  std::vector<Point> sites;
  sites.reserve(zones.size());
  for (const SoilZoneIndex::Zone& z : zones) sites.push_back(z.site);
  return sites;
}
}  // namespace

SoilZoneIndex::SoilZoneIndex(std::vector<Zone> zones)
    : zones_(std::move(zones)), sites_(SitesOf(zones_)) {}

const SoilZoneIndex::Zone* SoilZoneIndex::NearestZone(const Point& p) const {
  if (zones_.empty()) return nullptr;
  return &zones_[sites_.Nearest(p).index];
}

Result<ZoneId> SoilZoneIndex::ZoneAt(const Point& p) const {
  const Zone* zone = NearestZone(p);
  if (zone == nullptr) return Status::FailedPrecondition("empty soil index");
  return zone->id;
}

Result<SoilProfile> SoilZoneIndex::ProfileAt(const Point& p) const {
  const Zone* zone = NearestZone(p);
  if (zone == nullptr) return Status::FailedPrecondition("empty soil index");
  return zone->profile;
}

IntersectionIndex::IntersectionIndex(std::vector<Point> intersections)
    : grid_(std::move(intersections)) {}

double IntersectionIndex::NearestDistance(const Point& p) const {
  if (grid_.size() == 0) return std::numeric_limits<double>::infinity();
  return grid_.Nearest(p).distance;
}

}  // namespace net
}  // namespace piperisk
