#ifndef PIPERISK_NET_SOIL_H_
#define PIPERISK_NET_SOIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/geometry.h"
#include "net/units.h"

namespace piperisk {
namespace net {

/// The four categorical soil factors of Table 18.2. Each partitions the
/// region into zones; a pipe segment inherits the values of the zone its
/// midpoint falls into ("pipe segments falling into the same region share
/// the same soil factor value").

/// Pitting/corrosion risk class (linear polarisation resistance test bands).
enum class SoilCorrosiveness : int {
  kLow = 0,
  kModerate = 1,
  kHigh = 2,
  kSevere = 3,
};
inline constexpr int kNumCorrosiveness = 4;

/// Shrink–swell reactivity class of the surrounding clays.
enum class SoilExpansiveness : int {
  kStable = 0,
  kSlightly = 1,
  kModerately = 2,
  kHighly = 3,
};
inline constexpr int kNumExpansiveness = 4;

/// Dominant rock type.
enum class SoilGeology : int {
  kSandstone = 0,
  kShale = 1,
  kAlluvium = 2,
  kGranite = 3,
  kBasalt = 4,
};
inline constexpr int kNumGeology = 5;

/// Landscape class from the soil map layer.
enum class SoilLandscape : int {
  kFluvial = 0,
  kColluvial = 1,
  kErosional = 2,
  kResidual = 3,
  kAeolian = 4,
};
inline constexpr int kNumLandscape = 5;

std::string_view ToString(SoilCorrosiveness v);
std::string_view ToString(SoilExpansiveness v);
std::string_view ToString(SoilGeology v);
std::string_view ToString(SoilLandscape v);

Result<SoilCorrosiveness> ParseSoilCorrosiveness(std::string_view s);
Result<SoilExpansiveness> ParseSoilExpansiveness(std::string_view s);
Result<SoilGeology> ParseSoilGeology(std::string_view s);
Result<SoilLandscape> ParseSoilLandscape(std::string_view s);

/// The full soil profile at one location.
struct SoilProfile {
  SoilCorrosiveness corrosiveness = SoilCorrosiveness::kLow;
  SoilExpansiveness expansiveness = SoilExpansiveness::kStable;
  SoilGeology geology = SoilGeology::kSandstone;
  SoilLandscape landscape = SoilLandscape::kFluvial;

  bool operator==(const SoilProfile&) const = default;
};

/// Uniform-grid nearest-point index over a fixed point set, shared by the
/// soil-zone and intersection layers. The grid (about one point per cell)
/// is built in the constructor and never changes, so concurrent queries
/// from pool threads are safe.
class NearestPointGrid {
 public:
  /// The nearest point's index and its distance.
  struct Hit {
    size_t index = 0;
    double distance = 0.0;
  };

  NearestPointGrid() = default;
  explicit NearestPointGrid(std::vector<Point> points);

  /// The point nearest to `p`, with ties broken to the lowest index: the
  /// result of a linear scan that keeps the first strict minimum. When no
  /// point is at a finite distance (e.g. `p` is not finite) it is index 0
  /// at +inf. Precondition: the point set is non-empty.
  Hit Nearest(const Point& p) const;

  const std::vector<Point>& points() const { return points_; }
  size_t size() const { return points_.size(); }

 private:
  int CellCoord(double v, double lo, int cells) const;

  std::vector<Point> points_;
  double cell_ = 1.0;
  double min_x_ = 0.0, min_y_ = 0.0;
  int nx_ = 1, ny_ = 1;
  std::vector<std::vector<size_t>> buckets_;  ///< point indices per cell
};

/// A spatial index mapping locations to soil profiles.
///
/// The utility's GIS layers partition each local-government area into
/// irregular polygons; we model the partition as a Voronoi diagram over
/// seeded sites, each carrying a full profile. Lookup is nearest-site. This
/// preserves the property the models rely on: spatially proximate segments
/// share soil values, and zone shapes are irregular.
class SoilZoneIndex {
 public:
  /// A Voronoi site with its profile.
  struct Zone {
    ZoneId id = 0;
    Point site;
    SoilProfile profile;
  };

  SoilZoneIndex() = default;
  explicit SoilZoneIndex(std::vector<Zone> zones);

  /// The zone whose site is nearest to `p`. Fails when the index is empty.
  Result<ZoneId> ZoneAt(const Point& p) const;

  /// Profile lookup at a point; fails when the index is empty.
  Result<SoilProfile> ProfileAt(const Point& p) const;

  const std::vector<Zone>& zones() const { return zones_; }
  size_t size() const { return zones_.size(); }

 private:
  /// The nearest zone (lowest index among equidistant sites); null when
  /// the index is empty.
  const Zone* NearestZone(const Point& p) const;

  std::vector<Zone> zones_;
  NearestPointGrid sites_;
};

/// A set of traffic intersections with a nearest-distance query; the
/// "distance to closest traffic intersection" feature of Table 18.2 measures
/// road-surface pressure-change exposure.
class IntersectionIndex {
 public:
  IntersectionIndex() = default;
  explicit IntersectionIndex(std::vector<Point> intersections);

  /// Distance from `p` to the nearest intersection; +inf when empty
  /// (callers treat that as "no road exposure").
  double NearestDistance(const Point& p) const;

  const std::vector<Point>& intersections() const { return grid_.points(); }
  size_t size() const { return grid_.size(); }

 private:
  NearestPointGrid grid_;
};

}  // namespace net
}  // namespace piperisk

#endif  // PIPERISK_NET_SOIL_H_
