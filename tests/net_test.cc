// Tests for the network substrate: geometry, soil/intersection indexes,
// pipe/segment model, network construction + validation, failure history.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "net/failure.h"
#include "net/geometry.h"
#include "net/network.h"
#include "net/pipe.h"
#include "net/soil.h"
#include "stats/rng.h"

namespace piperisk {
namespace net {
namespace {

// --- Geometry -------------------------------------------------------------------

TEST(GeometryTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
}

TEST(GeometryTest, PolylineLength) {
  Polyline line({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(line.Length(), 7.0);
  EXPECT_EQ(line.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(line.EdgeLength(0), 3.0);
  EXPECT_DOUBLE_EQ(line.EdgeLength(1), 4.0);
}

TEST(GeometryTest, EmptyAndSinglePointPolyline) {
  Polyline empty;
  EXPECT_DOUBLE_EQ(empty.Length(), 0.0);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_TRUE(std::isinf(empty.DistanceTo({0, 0})));
  Polyline single({{2, 2}});
  EXPECT_DOUBLE_EQ(single.DistanceTo({2, 5}), 3.0);
}

TEST(GeometryTest, Interpolate) {
  Polyline line({{0, 0}, {10, 0}});
  Point mid = line.Interpolate(0.5);
  EXPECT_DOUBLE_EQ(mid.x, 5.0);
  EXPECT_DOUBLE_EQ(mid.y, 0.0);
  Point start = line.Interpolate(-0.5);  // clamped
  EXPECT_DOUBLE_EQ(start.x, 0.0);
  Point end = line.Interpolate(2.0);
  EXPECT_DOUBLE_EQ(end.x, 10.0);
}

TEST(GeometryTest, InterpolateMultiEdgeByArclength) {
  Polyline line({{0, 0}, {6, 0}, {6, 6}});
  Point p = line.Interpolate(0.75);  // 9m along a 12m line -> (6, 3)
  EXPECT_NEAR(p.x, 6.0, 1e-12);
  EXPECT_NEAR(p.y, 3.0, 1e-12);
}

TEST(GeometryTest, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(PointSegmentDistance({5, 3}, {0, 0}, {10, 0}), 3.0);
  // Beyond the ends, distance is to the endpoint.
  EXPECT_DOUBLE_EQ(PointSegmentDistance({-4, 3}, {0, 0}, {10, 0}), 5.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(PointSegmentDistance({3, 4}, {0, 0}, {0, 0}), 5.0);
}

TEST(GeometryTest, DistanceToPolylineTakesMinimum) {
  Polyline line({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_DOUBLE_EQ(line.DistanceTo({12, 5}), 2.0);
  EXPECT_DOUBLE_EQ(line.DistanceTo({5, -1}), 1.0);
}

TEST(GeometryTest, BoundingBox) {
  Polyline line({{1, 5}, {-2, 3}, {4, -1}});
  auto [lo, hi] = line.BoundingBox();
  EXPECT_DOUBLE_EQ(lo.x, -2.0);
  EXPECT_DOUBLE_EQ(lo.y, -1.0);
  EXPECT_DOUBLE_EQ(hi.x, 4.0);
  EXPECT_DOUBLE_EQ(hi.y, 5.0);
}

TEST(GeometryTest, ProjectArclength) {
  Polyline line({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_NEAR(ProjectArclength(line, {3, 1}), 3.0, 1e-12);
  EXPECT_NEAR(ProjectArclength(line, {11, 4}), 14.0, 1e-12);
  EXPECT_NEAR(ProjectArclength(line, {-5, 0}), 0.0, 1e-12);
}

// --- Soil enums and index ----------------------------------------------------------

TEST(SoilTest, EnumRoundTrip) {
  for (int i = 0; i < kNumCorrosiveness; ++i) {
    auto v = static_cast<SoilCorrosiveness>(i);
    EXPECT_EQ(*ParseSoilCorrosiveness(ToString(v)), v);
  }
  for (int i = 0; i < kNumGeology; ++i) {
    auto v = static_cast<SoilGeology>(i);
    EXPECT_EQ(*ParseSoilGeology(ToString(v)), v);
  }
  EXPECT_FALSE(ParseSoilExpansiveness("volcanic").ok());
  EXPECT_FALSE(ParseSoilLandscape("").ok());
}

TEST(SoilZoneIndexTest, NearestSiteLookup) {
  std::vector<SoilZoneIndex::Zone> zones(2);
  zones[0].id = 0;
  zones[0].site = {0, 0};
  zones[0].profile.corrosiveness = SoilCorrosiveness::kLow;
  zones[1].id = 1;
  zones[1].site = {100, 0};
  zones[1].profile.corrosiveness = SoilCorrosiveness::kSevere;
  SoilZoneIndex index(std::move(zones));
  EXPECT_EQ(*index.ZoneAt({10, 5}), 0);
  EXPECT_EQ(*index.ZoneAt({90, -5}), 1);
  EXPECT_EQ(index.ProfileAt({99, 0})->corrosiveness,
            SoilCorrosiveness::kSevere);
}

TEST(SoilZoneIndexTest, EmptyIndexFails) {
  SoilZoneIndex index;
  EXPECT_FALSE(index.ZoneAt({0, 0}).ok());
  EXPECT_FALSE(index.ProfileAt({0, 0}).ok());
}

// Reference for the grid search: a linear scan in which the first zone at
// the strictly smallest distance wins.
size_t LinearNearestZone(const std::vector<SoilZoneIndex::Zone>& zones,
                         const Point& p) {
  double best = std::numeric_limits<double>::infinity();
  size_t best_index = 0;
  for (size_t i = 0; i < zones.size(); ++i) {
    double d = Distance(zones[i].site, p);
    if (d < best) {
      best = d;
      best_index = i;
    }
  }
  return best_index;
}

TEST(SoilZoneIndexTest, GridMatchesLinearScanIncludingTies) {
  stats::Rng rng(31);
  std::vector<SoilZoneIndex::Zone> zones;
  auto add_zone = [&](Point site) {
    SoilZoneIndex::Zone z;
    z.id = 1000 + static_cast<ZoneId>(zones.size());
    z.site = site;
    z.profile.corrosiveness =
        static_cast<SoilCorrosiveness>(rng.NextBounded(kNumCorrosiveness));
    z.profile.expansiveness =
        static_cast<SoilExpansiveness>(rng.NextBounded(kNumExpansiveness));
    z.profile.geology = static_cast<SoilGeology>(rng.NextBounded(kNumGeology));
    z.profile.landscape =
        static_cast<SoilLandscape>(rng.NextBounded(kNumLandscape));
    zones.push_back(z);
  };
  // Random sites, integer-lattice sites (equidistant from many integer
  // queries) and exact duplicates of earlier sites, all interleaved.
  for (int i = 0; i < 120; ++i) {
    add_zone({rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)});
    if (i % 3 == 0) {
      add_zone({200.0 * static_cast<double>(rng.NextBounded(26)),
                200.0 * static_cast<double>(rng.NextBounded(26))});
    }
    if (i % 4 == 0) add_zone(zones[rng.NextBounded(zones.size())].site);
  }
  const SoilZoneIndex index(zones);
  const IntersectionIndex intersections([&] {
    std::vector<Point> sites;
    for (const auto& z : zones) sites.push_back(z.site);
    return sites;
  }());

  std::vector<Point> queries;
  for (int i = 0; i < 10000; ++i) {
    switch (i % 5) {
      case 0:  // inside and well outside the sites' bounding box
        queries.push_back(
            {rng.NextUniform(-2000, 7000), rng.NextUniform(-2000, 7000)});
        break;
      case 1:  // integer lattice: exact distance ties between lattice sites
        queries.push_back({100.0 * static_cast<double>(rng.NextBounded(56)),
                           100.0 * static_cast<double>(rng.NextBounded(56))});
        break;
      case 2:  // exactly on a (possibly duplicated) site
        queries.push_back(zones[rng.NextBounded(zones.size())].site);
        break;
      case 3:  // far away
        queries.push_back(
            {rng.NextUniform(-1e7, 1e7), rng.NextUniform(-1e7, 1e7)});
        break;
      default:
        queries.push_back(
            {rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)});
        break;
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Point q : {Point{nan, 10}, Point{10, nan}, Point{inf, 0},
                  Point{-inf, -inf}, Point{1e300, -1e300}}) {
    queries.push_back(q);
  }

  for (const Point& q : queries) {
    const size_t ref = LinearNearestZone(zones, q);
    ASSERT_EQ(*index.ZoneAt(q), zones[ref].id) << q.x << "," << q.y;
    ASSERT_EQ(*index.ProfileAt(q), zones[ref].profile) << q.x << "," << q.y;
    if (std::isfinite(q.x) && std::isfinite(q.y)) {
      ASSERT_EQ(intersections.NearestDistance(q), Distance(zones[ref].site, q));
    }
  }
}

TEST(IntersectionIndexTest, MatchesBruteForce) {
  stats::Rng rng(17);
  std::vector<Point> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)});
  }
  IntersectionIndex index(pts);
  for (int trial = 0; trial < 200; ++trial) {
    Point q{rng.NextUniform(-100, 5100), rng.NextUniform(-100, 5100)};
    double brute = std::numeric_limits<double>::infinity();
    for (const Point& p : pts) brute = std::min(brute, Distance(p, q));
    EXPECT_NEAR(index.NearestDistance(q), brute, 1e-9);
  }
}

TEST(IntersectionIndexTest, EmptyReturnsInfinity) {
  IntersectionIndex index;
  EXPECT_TRUE(std::isinf(index.NearestDistance({0, 0})));
}

// --- Pipe model -----------------------------------------------------------------

TEST(PipeTest, EnumRoundTrip) {
  for (int i = 0; i < kNumMaterials; ++i) {
    auto v = static_cast<Material>(i);
    EXPECT_EQ(*ParseMaterial(ToString(v)), v);
  }
  for (int i = 0; i < kNumCoatings; ++i) {
    auto v = static_cast<Coating>(i);
    EXPECT_EQ(*ParseCoating(ToString(v)), v);
  }
  EXPECT_EQ(*ParsePipeCategory("CWM"), PipeCategory::kCriticalMain);
  EXPECT_FALSE(ParseMaterial("adamantium").ok());
}

TEST(PipeTest, AgeAndCriticality) {
  Pipe p;
  p.laid_year = 1960;
  EXPECT_EQ(p.AgeAt(2008), 48);
  EXPECT_EQ(p.AgeAt(1950), 0);  // clamped
  p.category = PipeCategory::kCriticalMain;
  EXPECT_TRUE(p.IsCritical());
  p.category = PipeCategory::kWasteWater;
  EXPECT_FALSE(p.IsCritical());
}

TEST(PipeSegmentTest, MidpointAndLength) {
  PipeSegment s;
  s.start = {0, 0};
  s.end = {10, 0};
  EXPECT_DOUBLE_EQ(s.LengthM(), 10.0);
  EXPECT_DOUBLE_EQ(s.Midpoint().x, 5.0);
}

// --- Network --------------------------------------------------------------------

Network MakeTwoPipeNetwork() {
  Network network(RegionInfo{"T", 1000.0, 2.0});
  Pipe p1;
  p1.id = 1;
  p1.category = PipeCategory::kCriticalMain;
  p1.diameter_mm = 450;
  Pipe p2;
  p2.id = 2;
  p2.category = PipeCategory::kReticulationMain;
  EXPECT_TRUE(network.AddPipe(p1).ok());
  EXPECT_TRUE(network.AddPipe(p2).ok());
  PipeSegment s1;
  s1.id = 10;
  s1.pipe_id = 1;
  s1.start = {0, 0};
  s1.end = {100, 0};
  PipeSegment s2;
  s2.id = 11;
  s2.pipe_id = 1;
  s2.start = {100, 0};
  s2.end = {100, 50};
  PipeSegment s3;
  s3.id = 12;
  s3.pipe_id = 2;
  s3.start = {500, 500};
  s3.end = {530, 500};
  EXPECT_TRUE(network.AddSegment(s1).ok());
  EXPECT_TRUE(network.AddSegment(s2).ok());
  EXPECT_TRUE(network.AddSegment(s3).ok());
  return network;
}

TEST(NetworkTest, ConstructionAndLookup) {
  Network network = MakeTwoPipeNetwork();
  EXPECT_EQ(network.num_pipes(), 2u);
  EXPECT_EQ(network.num_segments(), 3u);
  EXPECT_TRUE(network.Validate().ok());
  ASSERT_TRUE(network.FindPipe(1).ok());
  EXPECT_EQ((*network.FindPipe(1))->segments.size(), 2u);
  EXPECT_FALSE(network.FindPipe(99).ok());
  EXPECT_FALSE(network.FindSegment(99).ok());
}

TEST(NetworkTest, RejectsDuplicatesAndOrphans) {
  Network network = MakeTwoPipeNetwork();
  Pipe dup;
  dup.id = 1;
  EXPECT_EQ(network.AddPipe(dup).code(), StatusCode::kAlreadyExists);
  PipeSegment orphan;
  orphan.id = 50;
  orphan.pipe_id = 777;
  EXPECT_EQ(network.AddSegment(orphan).code(), StatusCode::kNotFound);
  PipeSegment dup_seg;
  dup_seg.id = 10;
  dup_seg.pipe_id = 2;
  EXPECT_EQ(network.AddSegment(dup_seg).code(), StatusCode::kAlreadyExists);
}

TEST(NetworkTest, LengthAccounting) {
  Network network = MakeTwoPipeNetwork();
  EXPECT_DOUBLE_EQ(*network.PipeLengthM(1), 150.0);
  EXPECT_DOUBLE_EQ(*network.PipeLengthM(2), 30.0);
  EXPECT_DOUBLE_EQ(network.TotalLengthM(), 180.0);
  EXPECT_DOUBLE_EQ(network.TotalLengthM(PipeCategory::kCriticalMain), 150.0);
  EXPECT_DOUBLE_EQ(network.TotalLengthM(PipeCategory::kReticulationMain),
                   30.0);
}

TEST(NetworkTest, PipesOfCategory) {
  Network network = MakeTwoPipeNetwork();
  auto cwm = network.PipesOfCategory(PipeCategory::kCriticalMain);
  ASSERT_EQ(cwm.size(), 1u);
  EXPECT_EQ(cwm[0]->id, 1);
}

TEST(NetworkTest, EnvironmentalRefresh) {
  Network network = MakeTwoPipeNetwork();
  std::vector<SoilZoneIndex::Zone> zones(1);
  zones[0].id = 0;
  zones[0].site = {0, 0};
  zones[0].profile.geology = SoilGeology::kBasalt;
  network.SetSoilIndex(SoilZoneIndex(std::move(zones)));
  network.SetIntersectionIndex(IntersectionIndex({{50, 0}}));
  network.RefreshEnvironmentalFeatures();
  auto seg = network.FindSegment(10);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ((*seg)->soil.geology, SoilGeology::kBasalt);
  EXPECT_DOUBLE_EQ((*seg)->distance_to_intersection_m, 0.0);  // midpoint hit
  auto far = network.FindSegment(12);
  EXPECT_NEAR((*far)->distance_to_intersection_m,
              Distance({515, 500}, {50, 0}), 1e-9);
}

TEST(NetworkTest, MatchFailuresByLocationWithinPipe) {
  Network network = MakeTwoPipeNetwork();
  std::vector<FailureRecord> records(2);
  records[0].pipe_id = 1;
  records[0].year = 2001;
  records[0].location = {99, 40};  // nearest segment 11
  records[1].pipe_id = 777;        // unknown pipe -> dropped
  records[1].year = 2002;
  auto stats = network.MatchFailuresToSegments(&records);
  EXPECT_EQ(stats.matched, 1u);
  EXPECT_EQ(stats.dropped_unknown_pipe, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].segment_id, 11);
}

TEST(NetworkTest, MatchFailureByLocationOnly) {
  Network network = MakeTwoPipeNetwork();
  std::vector<FailureRecord> records(1);
  records[0].pipe_id = kInvalidId;
  records[0].location = {520, 498};
  auto stats = network.MatchFailuresToSegments(&records);
  EXPECT_EQ(stats.matched, 1u);
  EXPECT_EQ(stats.matched_by_location_only, 1u);
  EXPECT_EQ(records[0].segment_id, 12);
  EXPECT_EQ(records[0].pipe_id, 2);
}

// --- Failure history -----------------------------------------------------------------

TEST(FailureHistoryTest, CountsAndBinarisation) {
  FailureHistory history;
  FailureRecord r;
  r.pipe_id = 1;
  r.segment_id = 10;
  r.year = 2000;
  history.Add(r);
  r.year = 2000;  // same segment, same year, second event
  history.Add(r);
  r.year = 2003;
  history.Add(r);
  r.segment_id = 11;
  r.year = 2005;
  history.Add(r);

  EXPECT_EQ(history.size(), 4u);
  EXPECT_EQ(history.CountForSegment(10, 1998, 2008), 3);
  EXPECT_EQ(history.CountForSegment(10, 2001, 2008), 1);
  EXPECT_EQ(history.CountForPipe(1, 1998, 2008), 4);
  EXPECT_EQ(history.BinaryForSegmentYear(10, 2000), 1);
  EXPECT_EQ(history.BinaryForSegmentYear(10, 2001), 0);
  // Distinct failure years: 2000 and 2003.
  EXPECT_EQ(history.FailureYearsForSegment(10, 1998, 2008), 2);
}

TEST(FailureHistoryTest, WindowAndFailedPipes) {
  FailureHistory history;
  for (int y : {1999, 2004, 2009}) {
    FailureRecord r;
    r.pipe_id = y % 3;
    r.segment_id = 100 + y;
    r.year = y;
    history.Add(r);
  }
  EXPECT_EQ(history.InWindow(2000, 2008).size(), 1u);
  auto failed = history.FailedPipes(1998, 2009);
  EXPECT_EQ(failed.size(), 3u);
  EXPECT_EQ(history.FailedPipes(2010, 2020).size(), 0u);
}

TEST(FailureHistoryTest, ModeRoundTrip) {
  EXPECT_EQ(*ParseFailureMode("break"), FailureMode::kBreak);
  EXPECT_EQ(*ParseFailureMode("choke"), FailureMode::kChoke);
  EXPECT_FALSE(ParseFailureMode("leak").ok());
}

}  // namespace
}  // namespace net
}  // namespace piperisk
