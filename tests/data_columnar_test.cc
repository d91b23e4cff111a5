// Tests for the columnar shard format and the sharded-dataset layer:
// bit-exact round trips, deterministic writes, rejection of every
// corruption class (mirroring the checkpoint corpus), manifest validation,
// deterministic sharded generation, and the streaming fit/score paths.

#include "data/columnar.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.h"
#include "core/hbp.h"
#include "core/model.h"
#include "core/streaming_hbp.h"
#include "data/csv_io.h"
#include "data/failure_simulator.h"
#include "data/sharded_dataset.h"
#include "eval/streaming_eval.h"
#include "tests/test_util.h"

namespace piperisk {
namespace data {
namespace {

std::string TempShardDir(const char* name) {
  // gtest_discover_tests runs every TEST as its own process, possibly
  // concurrently (ctest -j), so the scratch dir must be unique per process
  // or fixture SetUps race on remove_all.
  std::string dir = testing::TempDir() + "/piperisk_shard_" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

RegionDataset MakeTinyDataset(std::uint64_t seed) {
  RegionConfig config = RegionConfig::Tiny(seed);
  auto dataset = GenerateRegion(config);
  PIPERISK_CHECK(dataset.ok()) << dataset.status().ToString();
  return std::move(*dataset);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Field-by-field equality, doubles compared bit-exactly (EXPECT_EQ on
// double is an exact comparison).
void ExpectDatasetsEqual(const RegionDataset& a, const RegionDataset& b) {
  EXPECT_EQ(a.config.name, b.config.name);
  EXPECT_EQ(a.config.observe_first, b.config.observe_first);
  EXPECT_EQ(a.config.observe_last, b.config.observe_last);
  ASSERT_EQ(a.network.pipes().size(), b.network.pipes().size());
  for (size_t i = 0; i < a.network.pipes().size(); ++i) {
    const net::Pipe& pa = a.network.pipes()[i];
    const net::Pipe& pb = b.network.pipes()[i];
    EXPECT_EQ(pa.id, pb.id);
    EXPECT_EQ(pa.category, pb.category);
    EXPECT_EQ(pa.material, pb.material);
    EXPECT_EQ(pa.coating, pb.coating);
    EXPECT_EQ(pa.diameter_mm, pb.diameter_mm);
    EXPECT_EQ(pa.laid_year, pb.laid_year);
    EXPECT_EQ(pa.segments, pb.segments);
  }
  ASSERT_EQ(a.network.segments().size(), b.network.segments().size());
  for (size_t i = 0; i < a.network.segments().size(); ++i) {
    const net::PipeSegment& sa = a.network.segments()[i];
    const net::PipeSegment& sb = b.network.segments()[i];
    EXPECT_EQ(sa.id, sb.id);
    EXPECT_EQ(sa.pipe_id, sb.pipe_id);
    EXPECT_EQ(sa.index_in_pipe, sb.index_in_pipe);
    EXPECT_EQ(sa.start.x, sb.start.x);
    EXPECT_EQ(sa.start.y, sb.start.y);
    EXPECT_EQ(sa.end.x, sb.end.x);
    EXPECT_EQ(sa.end.y, sb.end.y);
    EXPECT_EQ(sa.soil, sb.soil);
    EXPECT_EQ(sa.distance_to_intersection_m, sb.distance_to_intersection_m);
    EXPECT_EQ(sa.tree_canopy_fraction, sb.tree_canopy_fraction);
    EXPECT_EQ(sa.soil_moisture, sb.soil_moisture);
  }
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    const net::FailureRecord& fa = a.failures.records()[i];
    const net::FailureRecord& fb = b.failures.records()[i];
    EXPECT_EQ(fa.pipe_id, fb.pipe_id);
    EXPECT_EQ(fa.segment_id, fb.segment_id);
    EXPECT_EQ(fa.year, fb.year);
    EXPECT_EQ(fa.location.x, fb.location.x);
    EXPECT_EQ(fa.location.y, fb.location.y);
    EXPECT_EQ(fa.mode, fb.mode);
  }
}

// --- shard round trip --------------------------------------------------------

TEST(ColumnarTest, RoundTripIsBitExact) {
  const std::string dir = TempShardDir("roundtrip");
  const RegionDataset dataset = MakeTinyDataset(11);
  const std::string path = dir + "/" + ShardFileName(0);
  ASSERT_TRUE(WriteShard(dataset, path).ok());
  auto loaded = LoadShard(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatasetsEqual(dataset, *loaded);
}

TEST(ColumnarTest, WriteIsDeterministic) {
  const std::string dir = TempShardDir("determ");
  const RegionDataset dataset = MakeTinyDataset(12);
  ASSERT_TRUE(WriteShard(dataset, dir + "/a.prk").ok());
  ASSERT_TRUE(WriteShard(dataset, dir + "/b.prk").ok());
  EXPECT_EQ(ReadBytes(dir + "/a.prk"), ReadBytes(dir + "/b.prk"));
}

TEST(ColumnarTest, MetaSurvivesRoundTrip) {
  const std::string dir = TempShardDir("meta");
  const RegionDataset dataset = MakeTinyDataset(13);
  const std::string path = dir + "/m.prk";
  ASSERT_TRUE(WriteShard(dataset, path).ok());
  auto reader = ShardReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->meta().name, dataset.config.name);
  EXPECT_EQ(reader->meta().num_pipes, dataset.network.num_pipes());
  EXPECT_EQ(reader->meta().num_segments, dataset.network.num_segments());
  EXPECT_EQ(reader->meta().num_failures, dataset.failures.size());
  EXPECT_EQ(reader->meta().observe_first, dataset.config.observe_first);
  EXPECT_EQ(reader->meta().observe_last, dataset.config.observe_last);
  EXPECT_GT(reader->mapped_bytes(), 0u);
}

// --- corruption corpus -------------------------------------------------------

class ColumnarCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempShardDir("corrupt");
    path_ = dir_ + "/shard.prk";
    ASSERT_TRUE(WriteShard(MakeTinyDataset(14), path_).ok());
    bytes_ = ReadBytes(path_);
    ASSERT_GT(bytes_.size(), 128u);
  }

  std::string dir_;
  std::string path_;
  std::string bytes_;
};

TEST_F(ColumnarCorruptionTest, RejectsMissingFile) {
  auto r = ShardReader::Open(dir_ + "/nope.prk");
  ASSERT_FALSE(r.ok());
}

TEST_F(ColumnarCorruptionTest, RejectsZeroLengthFile) {
  WriteBytes(path_, "");
  auto r = ShardReader::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("empty"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnarCorruptionTest, RejectsBadMagic) {
  std::string corrupt = bytes_;
  corrupt[0] ^= 0x01;
  WriteBytes(path_, corrupt);
  auto r = ShardReader::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnarCorruptionTest, RejectsVersionSkew) {
  std::string corrupt = bytes_;
  corrupt[8] = static_cast<char>(kShardFormatVersion + 1);  // version u64 LE
  WriteBytes(path_, corrupt);
  auto r = ShardReader::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnarCorruptionTest, RejectsTruncatedSectionTable) {
  // Cut the file inside the section table (header is 32 bytes).
  WriteBytes(path_, bytes_.substr(0, 48));
  auto r = ShardReader::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnarCorruptionTest, RejectsTruncatedPayload) {
  WriteBytes(path_, bytes_.substr(0, bytes_.size() / 2));
  EXPECT_FALSE(ShardReader::Open(path_).ok());
}

TEST_F(ColumnarCorruptionTest, RejectsSectionChecksumMismatch) {
  std::string corrupt = bytes_;
  corrupt[bytes_.size() - 5] ^= 0x40;  // payload byte in the last section
  WriteBytes(path_, corrupt);
  auto r = ShardReader::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnarCorruptionTest, RejectsTableChecksumMismatch) {
  std::string corrupt = bytes_;
  corrupt[40] ^= 0x40;  // inside the section table
  WriteBytes(path_, corrupt);
  auto r = ShardReader::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ColumnarCorruptionTest, RejectsNonShardFile) {
  WriteBytes(path_, "pipe_id,score\n1,0.5\n" + std::string(64, 'x'));
  auto r = ShardReader::Open(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos)
      << r.status().ToString();
}

// --- sharded dataset ---------------------------------------------------------

ShardedGenerateOptions SmallOptions(const std::string& dir, int regions) {
  ShardedGenerateOptions options;
  options.regions = regions;
  options.seed = 99;
  options.pipes_per_region = 400;
  options.out_dir = dir;
  return options;
}

TEST(ShardedDatasetTest, GenerateIsDeterministicAcrossThreadCounts) {
  const std::string dir_a = TempShardDir("gen_a");
  const std::string dir_b = TempShardDir("gen_b");
  ShardedGenerateOptions a = SmallOptions(dir_a, 3);
  ShardedGenerateOptions b = SmallOptions(dir_b, 3);
  b.threads = 1;
  auto sa = GenerateShardedDataset(a);
  ASSERT_TRUE(sa.ok()) << sa.status().ToString();
  auto sb = GenerateShardedDataset(b);
  ASSERT_TRUE(sb.ok()) << sb.status().ToString();
  EXPECT_EQ(sa->pipes, sb->pipes);
  EXPECT_GT(sa->pipes, 0u);
  for (int i = 0; i < 3; ++i) {
    const std::string f = ShardFileName(i);
    EXPECT_EQ(ReadBytes(dir_a + "/" + f), ReadBytes(dir_b + "/" + f)) << f;
  }
  EXPECT_EQ(ReadBytes(dir_a + "/" + kManifestFileName),
            ReadBytes(dir_b + "/" + kManifestFileName));
}

TEST(ShardedDatasetTest, GeneratedBytesMatchGolden) {
  // FNV-1a over every shard's bytes, then the manifest's: pins each
  // generated bit of a 3-region dataset at one and at four threads.
  for (int threads : {1, 4}) {
    const std::string dir =
        TempShardDir(("golden" + std::to_string(threads)).c_str());
    ShardedGenerateOptions options = SmallOptions(dir, 3);
    options.pipes_per_region = 2000;
    options.threads = threads;
    auto summary = GenerateShardedDataset(options);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    std::uint64_t hash = testutil::Fnv1a("");
    for (int i = 0; i < 3; ++i) {
      hash = testutil::Fnv1a(ReadBytes(dir + "/" + ShardFileName(i)), hash);
    }
    hash = testutil::Fnv1a(ReadBytes(dir + "/" + kManifestFileName), hash);
    EXPECT_EQ(hash, 0xC7FDFE0BDA31DD89ULL) << "threads=" << threads;
    std::filesystem::remove_all(dir);
  }
}

TEST(ShardedDatasetTest, OpenStreamsShardsInOrder) {
  const std::string dir = TempShardDir("stream");
  auto summary = GenerateShardedDataset(SmallOptions(dir, 4));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  ASSERT_EQ(shards->shards().size(), 4u);
  EXPECT_EQ(shards->total_pipes(), summary->pipes);

  // Ids must be disjoint across shards (the per-region id bases).
  std::vector<std::uint64_t> seen_pipes(4, 0);
  Status st = shards->ForEachShard(
      2, [&](size_t shard, const RegionDataset& dataset) -> Status {
        seen_pipes[shard] = dataset.network.num_pipes();
        const net::PipeId first = dataset.network.pipes().front().id;
        if (first != static_cast<net::PipeId>(shard) * 100000000LL) {
          return Status::Internal("unexpected id base");
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (std::uint64_t n : seen_pipes) EXPECT_GT(n, 0u);
}

TEST(ShardedDatasetTest, RejectsManifestCountDrift) {
  const std::string dir = TempShardDir("drift");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 2)).ok());
  // Rewrite shard 1 with different content; the manifest now lies about it.
  ASSERT_TRUE(
      WriteShard(MakeTinyDataset(77), dir + "/" + ShardFileName(1)).ok());
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok());
  auto r = shards->LoadShardDataset(1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedDatasetTest, CsvConvertedShardMatchesSource) {
  // CSV bundle -> shard -> dataset must equal the directly loaded bundle.
  const std::string dir = TempShardDir("csv");
  const RegionDataset dataset = MakeTinyDataset(21);
  ASSERT_TRUE(SaveRegionDataset(dataset, dir + "/src").ok());
  auto from_csv = LoadRegionDataset(dir + "/src");
  ASSERT_TRUE(from_csv.ok());
  ASSERT_TRUE(WriteShard(*from_csv, dir + "/s.prk").ok());
  auto from_shard = LoadShard(dir + "/s.prk");
  ASSERT_TRUE(from_shard.ok());
  ExpectDatasetsEqual(*from_csv, *from_shard);
}

// --- streaming fit / score ---------------------------------------------------

// Writes `dataset` as the only shard of a sharded dataset in `dir`.
ShardedDataset WriteOneShard(const std::string& dir,
                             const RegionDataset& dataset) {
  PIPERISK_CHECK(WriteShard(dataset, dir + "/" + ShardFileName(0)).ok());
  ShardInfo info;
  info.file = ShardFileName(0);
  info.region = dataset.config.name;
  info.pipes = dataset.network.num_pipes();
  info.segments = dataset.network.num_segments();
  info.failures = dataset.failures.size();
  PIPERISK_CHECK(WriteManifest(dir, {info}).ok());
  auto shards = ShardedDataset::Open(dir);
  PIPERISK_CHECK(shards.ok()) << shards.status().ToString();
  return std::move(*shards);
}

// A copy of `source` whose pipes go through `edit` first; segments and
// failures are kept unless `keep` rejects their pipe.
template <typename Edit, typename Keep>
RegionDataset RebuildDataset(const RegionDataset& source, Edit edit,
                             Keep keep) {
  RegionDataset out;
  out.config = source.config;
  out.network = net::Network(source.network.region());
  for (net::Pipe p : source.network.pipes()) {
    p.segments.clear();
    edit(p);
    PIPERISK_CHECK(out.network.AddPipe(std::move(p)).ok());
  }
  for (const net::PipeSegment& s : source.network.segments()) {
    if (keep(s.pipe_id)) PIPERISK_CHECK(out.network.AddSegment(s).ok());
  }
  for (const net::FailureRecord& r : source.failures.records()) {
    if (keep(r.pipe_id)) out.failures.Add(r);
  }
  return out;
}

TEST(StreamingHbpTest, FitIsWindowInvariantAndReproducible) {
  const std::string dir = TempShardDir("fit");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 3)).ok());
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok());

  core::StreamingHbpOptions options;
  options.hierarchy = testutil::FastHierarchy();
  options.shard_window = 1;
  auto fit1 = core::FitStreamingHbp(*shards, options);
  ASSERT_TRUE(fit1.ok()) << fit1.status().ToString();
  options.shard_window = 3;
  auto fit3 = core::FitStreamingHbp(*shards, options);
  ASSERT_TRUE(fit3.ok()) << fit3.status().ToString();

  // The sufficient-statistic merge is exact, so the fit is bit-identical
  // for any shard window (and across repeated runs).
  EXPECT_EQ(fit1->raw_keys, fit3->raw_keys);
  EXPECT_EQ(fit1->group_rate_means, fit3->group_rate_means);
  EXPECT_EQ(fit1->group_tilted_means, fit3->group_tilted_means);
  EXPECT_EQ(fit1->q0, fit3->q0);
  EXPECT_EQ(fit1->total_pipes, fit3->total_pipes);
  EXPECT_GT(fit1->total_n, 0u);
  ASSERT_FALSE(fit1->raw_keys.empty());
  for (double q : fit1->group_rate_means) {
    EXPECT_GT(q, 0.0);
    EXPECT_LT(q, 1.0);
  }

  // Scores stream to disk in shard order, identically for any window.
  const std::string out1 = dir + "/scores1.csv";
  const std::string out3 = dir + "/scores3.csv";
  options.shard_window = 1;
  ASSERT_TRUE(core::ScoreStreamingHbp(*shards, *fit1, options, out1).ok());
  options.shard_window = 3;
  ASSERT_TRUE(core::ScoreStreamingHbp(*shards, *fit3, options, out3).ok());
  EXPECT_EQ(ReadBytes(out1), ReadBytes(out3));

  // The streamed evaluate join must take the ordered fast path on the
  // artefact the streaming fit just wrote.
  auto streamed = eval::BuildStreamedScoredPipes(
      *shards, net::PipeCategory::kCriticalMain, out1, 2);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->fallback, 0u);
  EXPECT_EQ(streamed->missing, 0u);
  EXPECT_EQ(streamed->matched, streamed->ids.size());
  EXPECT_EQ(streamed->ids.size(), fit1->total_pipes);
}

TEST(StreamingHbpTest, RejectsInvalidHierarchy) {
  // The out-of-core fit runs the same checks as the in-memory fits: a
  // negative burn-in used to exit 0 and write NaN scores, and c/c0 were
  // never checked at all.
  const std::string dir = TempShardDir("fit_invalid");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 1)).ok());
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok());
  auto fit_code = [&](auto mutate) {
    core::StreamingHbpOptions options;
    options.hierarchy = testutil::FastHierarchy();
    mutate(options.hierarchy);
    return core::FitStreamingHbp(*shards, options).status().code();
  };
  EXPECT_EQ(fit_code([](core::HierarchyConfig& h) { h.burn_in = -100; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fit_code([](core::HierarchyConfig& h) { h.c = 0.0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fit_code([](core::HierarchyConfig& h) { h.c0 = -1.0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fit_code([](core::HierarchyConfig& h) { h.samples = 0; }),
            StatusCode::kInvalidArgument);
}

std::uint64_t HashBytesOf(const void* data, size_t size, std::uint64_t hash) {
  return testutil::Fnv1a(
      std::string_view(static_cast<const char*>(data), size), hash);
}

template <typename T>
std::uint64_t HashVector(const std::vector<T>& v, std::uint64_t hash) {
  return HashBytesOf(v.data(), v.size() * sizeof(T), hash);
}

TEST(StreamingHbpTest, ArtefactsMatchGolden) {
  // Pins, per grouping scheme, every bit the three streaming passes
  // produce on a 3-region dataset: the fit (keys, means, q0), the scores
  // CSV bytes, and the streamed evaluate arrays. All six schemes, because
  // soil corrosiveness is the only key that reads a segment.
  struct Golden {
    core::GroupingScheme scheme;
    std::uint64_t fit, scores, streamed;
  };
  const Golden kGolden[] = {
      {core::GroupingScheme::kMaterial, 0xA695173C60641018ULL,
       0x45AD359AA52491FEULL, 0x54C088C37F56C483ULL},
      {core::GroupingScheme::kDiameterBand, 0x957D7DFB4FF53DA0ULL,
       0x902B4156CD32EF6CULL, 0x18DB8925065D7DFCULL},
      {core::GroupingScheme::kLaidDecade, 0x3F05B8F2A806AFD5ULL,
       0x4EDBFD4A7CA977F7ULL, 0x865D0E330D3904B6ULL},
      {core::GroupingScheme::kCoating, 0x15F5364BAAAE46ACULL,
       0x31E53ED1F3DC5AC7ULL, 0x6FF54A460DF52BBDULL},
      {core::GroupingScheme::kSoilCorrosiveness, 0xE3435CF7C9373AFCULL,
       0xC1E162259DC848BAULL, 0x80EE5B2D52E6123AULL},
      {core::GroupingScheme::kSingle, 0x45286F21AC49CD70ULL,
       0x6377BCDC533C93CDULL, 0x7B8E26CAC191EDB1ULL},
  };
  const std::string dir = TempShardDir("golden_stream");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 3)).ok());
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok());
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(std::string(core::ToString(golden.scheme)));
    core::StreamingHbpOptions options;
    options.hierarchy = testutil::FastHierarchy();
    options.scheme = golden.scheme;
    options.shard_window = 2;
    auto fit = core::FitStreamingHbp(*shards, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    std::uint64_t fit_hash = HashVector(fit->raw_keys, testutil::Fnv1a(""));
    fit_hash = HashVector(fit->group_rate_means, fit_hash);
    fit_hash = HashVector(fit->group_tilted_means, fit_hash);
    fit_hash = HashBytesOf(&fit->q0, sizeof(fit->q0), fit_hash);
    EXPECT_EQ(fit_hash, golden.fit);

    const std::string out = dir + "/scores.csv";
    ASSERT_TRUE(core::ScoreStreamingHbp(*shards, *fit, options, out).ok());
    EXPECT_EQ(testutil::Fnv1a(ReadBytes(out)), golden.scores);

    auto streamed = eval::BuildStreamedScoredPipes(
        *shards, net::PipeCategory::kCriticalMain, out, 2);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    std::uint64_t hash = HashVector(streamed->ids, testutil::Fnv1a(""));
    hash = HashVector(streamed->scores, hash);
    hash = HashVector(streamed->test_failures, hash);
    hash = HashVector(streamed->lengths_m, hash);
    hash = HashBytesOf(&streamed->test_year, sizeof(streamed->test_year),
                       hash);
    EXPECT_EQ(hash, golden.streamed);
  }
}

TEST(StreamingHbpTest, EveryPassRejectsAPipeWithoutSegments) {
  // A shard whose critical-main pipe has no segment rows loads (Validate
  // accepts it), but none of the streaming passes may silently treat it
  // as a pipe: each fails naming it.
  const std::string dir = TempShardDir("no_segments");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 1)).ok());
  auto source_shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(source_shards.ok());
  auto source = source_shards->LoadShardDataset(0);
  ASSERT_TRUE(source.ok()) << source.status().ToString();

  net::PipeId bare = net::kInvalidId;
  for (const net::Pipe& p : source->network.pipes()) {
    if (p.category == net::PipeCategory::kCriticalMain) {
      bare = p.id;
      break;
    }
  }
  ASSERT_NE(bare, net::kInvalidId);
  const RegionDataset dataset = RebuildDataset(
      *source, [](net::Pipe&) {},
      [&](net::PipeId pipe) { return pipe != bare; });
  const ShardedDataset shards = WriteOneShard(dir, dataset);
  ASSERT_TRUE(shards.LoadShardDataset(0).ok());

  const std::string expected =
      "pipe " + std::to_string(bare) + " has no segments";
  auto expect_rejected = [&](const Status& st, const char* pass) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << pass;
    EXPECT_NE(st.message().find(expected), std::string::npos)
        << pass << ": " << st.ToString();
  };
  core::StreamingHbpOptions options;
  options.hierarchy = testutil::FastHierarchy();
  expect_rejected(core::FitStreamingHbp(shards, options).status(), "fit");

  core::StreamingHbpFit fit;
  fit.raw_keys = {0};
  fit.group_rate_means = {0.01};
  fit.group_tilted_means = {0.01};
  fit.q0 = 0.01;
  const std::string out = dir + "/scores.csv";
  expect_rejected(core::ScoreStreamingHbp(shards, fit, options, out),
                  "score");

  WriteBytes(out, "pipe_id,score\n" + std::to_string(bare) + ",0.5\n");
  expect_rejected(eval::BuildStreamedScoredPipes(
                      shards, net::PipeCategory::kCriticalMain, out, 1)
                      .status(),
                  "join");
}

TEST(StreamingHbpTest, ShardPipesMatchModelInput) {
  // The streaming passes read each pipe through ShardPipes (fit, score) and
  // BuildStreamedScoredPipes (join) instead of ModelInput::Build. Pipe by
  // pipe, for every category and grouping scheme, they must yield the
  // id, group key, training (k, n), test failures and length that the
  // ModelInput path does. Every third pipe is re-laid inside or after the
  // training window so n varies and failures predating the pipe exist.
  const std::string dir = TempShardDir("shard_pipes");
  const RegionDataset dataset = RebuildDataset(
      MakeTinyDataset(31),
      [i = 0](net::Pipe& p) mutable {
        if (i % 3 == 0) p.laid_year = 1996 + (i / 3) % 15;
        ++i;
      },
      [](net::PipeId) { return true; });
  const ShardedDataset shards = WriteOneShard(dir, dataset);
  const data::TemporalSplit split = TemporalSplit::Paper();
  const core::GroupingScheme kSchemes[] = {
      core::GroupingScheme::kMaterial,
      core::GroupingScheme::kDiameterBand,
      core::GroupingScheme::kLaidDecade,
      core::GroupingScheme::kCoating,
      core::GroupingScheme::kSoilCorrosiveness,
      core::GroupingScheme::kSingle};
  for (int c = 0; c < net::kNumPipeCategories; ++c) {
    const auto category = static_cast<net::PipeCategory>(c);
    auto input = core::ModelInput::Build(dataset, split, category,
                                         net::FeatureConfig::DrinkingWater());
    ASSERT_TRUE(input.ok()) << input.status().ToString();
    const std::vector<core::PipeCounts> counts = BuildPipeCounts(*input);
    if (category == net::PipeCategory::kCriticalMain) {
      // The fixture reaches every branch of the year count.
      bool unlaid = false, partial = false, full = false;
      for (const core::PipeCounts& k : counts) {
        unlaid |= k.n == 0;
        partial |= k.n > 0 && k.n < split.TrainYears();
        full |= k.n == split.TrainYears();
      }
      EXPECT_TRUE(unlaid && partial && full);
    }
    for (core::GroupingScheme scheme : kSchemes) {
      SCOPED_TRACE(std::string(net::ToString(category)) + " " +
                   std::string(core::ToString(scheme)));
      core::StreamingHbpOptions options;
      options.category = category;
      options.scheme = scheme;
      auto pipes = core::ShardPipes(dataset, options);
      ASSERT_TRUE(pipes.ok()) << pipes.status().ToString();
      ASSERT_EQ(pipes->size(), input->num_pipes());
      for (size_t i = 0; i < pipes->size(); ++i) {
        const core::ShardPipe& p = (*pipes)[i];
        EXPECT_EQ(p.id, input->pipes[i]->id);
        EXPECT_EQ(p.raw_key, RawFixedPipeGroupKey(*input, i, scheme));
        EXPECT_EQ(p.train.k, counts[i].k);
        EXPECT_EQ(p.train.n, counts[i].n);
      }
    }
    if (input->num_pipes() == 0) continue;

    std::string csv = "pipe_id,score\n";
    for (const net::Pipe* p : input->pipes) {
      csv += std::to_string(p->id) + ",0.5\n";
    }
    const std::string scores = dir + "/scores.csv";
    WriteBytes(scores, csv);
    auto streamed =
        eval::BuildStreamedScoredPipes(shards, category, scores, 1);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_EQ(streamed->ids.size(), input->num_pipes());
    EXPECT_EQ(streamed->test_year, input->split.test_year);
    for (size_t i = 0; i < input->num_pipes(); ++i) {
      EXPECT_EQ(streamed->ids[i],
                static_cast<std::uint64_t>(input->pipes[i]->id));
      EXPECT_EQ(streamed->test_failures[i], input->outcomes[i].test_failures);
      EXPECT_EQ(streamed->lengths_m[i], input->outcomes[i].length_m);
    }
  }
}

TEST(StreamingHbpTest, FailedScoresWriteLeavesNoTempFile) {
  // Renaming onto a non-empty directory fails; the temporary CSV written
  // next to it must not be left behind.
  const std::string dir = TempShardDir("tmp_cleanup");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 1)).ok());
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok());
  core::StreamingHbpOptions options;
  options.hierarchy = testutil::FastHierarchy();
  auto fit = core::FitStreamingHbp(*shards, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  const std::string out = dir + "/occupied";
  std::filesystem::create_directories(out);
  WriteBytes(out + "/keep", "x");
  const Status st = core::ScoreStreamingHbp(*shards, *fit, options, out);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_FALSE(std::filesystem::exists(out + ".tmp"));
  EXPECT_TRUE(std::filesystem::exists(out + "/keep"));

  const std::string missing_dir = dir + "/no/such/dir/scores.csv";
  EXPECT_EQ(core::ScoreStreamingHbp(*shards, *fit, options, missing_dir)
                .code(),
            StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(missing_dir + ".tmp"));
}

TEST(StreamingHbpTest, PassSpansOncePerCallAroundTheShardWindows) {
  // Each streaming pass records its two phase spans once per call (never
  // per shard), in order, on the calling thread; every shard window's
  // parallel_for on that thread nests inside the pass's shard phase, and
  // any other one inside the fit's sweep phase.
  const std::string dir = TempShardDir("spans");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 3)).ok());
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok());
  core::StreamingHbpOptions options;
  options.hierarchy = testutil::FastHierarchy();
  options.shard_window = 2;
  const std::string out = dir + "/scores.csv";

  telemetry::StartTracing();
  core::StreamingHbpFit fit;
  {
    telemetry::ScopedSpan span("test.fit");
    auto fitted = core::FitStreamingHbp(*shards, options);
    ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
    fit = std::move(*fitted);
  }
  {
    telemetry::ScopedSpan span("test.score");
    ASSERT_TRUE(core::ScoreStreamingHbp(*shards, fit, options, out).ok());
  }
  {
    telemetry::ScopedSpan span("test.join");
    ASSERT_TRUE(eval::BuildStreamedScoredPipes(
                    *shards, net::PipeCategory::kCriticalMain, out, 2)
                    .ok());
  }
  telemetry::StopTracing();
  const std::vector<testutil::SpanEvent> spans = testutil::TracedSpans();

  auto only = [&](const char* name) {
    std::vector<testutil::SpanEvent> found;
    for (const testutil::SpanEvent& e : spans) {
      if (e.name == name) found.push_back(e);
    }
    EXPECT_EQ(found.size(), 1u) << name;
    return found.empty() ? testutil::SpanEvent{} : found.front();
  };
  struct Pass {
    const char* call;
    const char* shards;
    const char* tail;
  };
  const Pass kPasses[] = {
      {"test.fit", "streaming_hbp.shards", "streaming_hbp.sweep"},
      {"test.score", "streaming_hbp.score_shards", "streaming_hbp.write"},
      {"test.join", "streaming_eval.shards", "streaming_eval.join"},
  };
  for (const Pass& pass : kPasses) {
    SCOPED_TRACE(pass.call);
    const testutil::SpanEvent call = only(pass.call);
    const testutil::SpanEvent shard_phase = only(pass.shards);
    const testutil::SpanEvent tail = only(pass.tail);
    EXPECT_EQ(shard_phase.tid, call.tid);
    EXPECT_EQ(tail.tid, call.tid);
    EXPECT_GE(shard_phase.ts, call.ts);
    EXPECT_GE(tail.ts, shard_phase.end);
    EXPECT_LE(tail.end, call.end);
    int windows = 0;
    for (const testutil::SpanEvent& e : spans) {
      if (e.name != "threadpool.parallel_for" || e.tid != call.tid ||
          e.ts < call.ts || e.end > call.end) {
        continue;
      }
      if (e.ts >= tail.ts && e.end <= tail.end) {
        // Only the fit's group-rate sampler uses the pool after the shard
        // phase: its chains and per-sweep target evaluations.
        EXPECT_STREQ(pass.tail, "streaming_hbp.sweep");
        continue;
      }
      ++windows;
      EXPECT_GE(e.ts, shard_phase.ts);
      EXPECT_LE(e.end, shard_phase.end);
    }
    EXPECT_EQ(windows, 2);  // 3 shards in windows of 2
  }
}

void ExpectSameFit(const core::StreamingHbpFit& a,
                   const core::StreamingHbpFit& b) {
  EXPECT_EQ(a.raw_keys, b.raw_keys);
  EXPECT_EQ(a.group_rate_means, b.group_rate_means);
  EXPECT_EQ(a.group_tilted_means, b.group_tilted_means);
  EXPECT_EQ(a.q0, b.q0);
}

TEST(StreamingHbpTest, HaltAndResumeIsBitIdentical) {
  // The streaming fit runs the checkpointed chains of the in-memory HBP:
  // a 2-chain fit halted after 3 sweeps and resumed from its snapshots
  // lands on the uninterrupted fit's bits.
  const std::string dir = TempShardDir("resume");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 3)).ok());
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok());
  core::StreamingHbpOptions options;
  options.hierarchy = testutil::FastHierarchy();
  options.hierarchy.num_chains = 2;
  auto baseline = core::FitStreamingHbp(*shards, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string ckpt = dir + "/ckpt";
  options.hierarchy.checkpoint.dir = ckpt;
  options.hierarchy.checkpoint.every = 2;
  options.hierarchy.checkpoint.halt_after_sweeps = 3;
  ASSERT_FALSE(core::FitStreamingHbp(*shards, options).ok());
  for (int chain : {0, 1}) {
    EXPECT_TRUE(std::filesystem::exists(
        core::ChainCheckpointPath(ckpt, "streaming_hbp_material", chain)));
  }

  options.hierarchy.checkpoint.halt_after_sweeps = -1;
  options.hierarchy.checkpoint.resume = true;
  auto resumed = core::FitStreamingHbp(*shards, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameFit(*baseline, *resumed);
}

TEST(StreamingHbpTest, MultiChainFitIsBitIdenticalAcrossThreadCounts) {
  const std::string dir = TempShardDir("threads");
  ASSERT_TRUE(GenerateShardedDataset(SmallOptions(dir, 3)).ok());
  auto shards = ShardedDataset::Open(dir);
  ASSERT_TRUE(shards.ok());
  auto fit = [&](int threads, int sweep_threads) {
    core::StreamingHbpOptions options;
    options.hierarchy = testutil::FastHierarchy();
    options.hierarchy.num_chains = 3;
    options.hierarchy.num_threads = threads;
    options.hierarchy.sweep_threads = sweep_threads;
    auto fitted = core::FitStreamingHbp(*shards, options);
    PIPERISK_CHECK(fitted.ok()) << fitted.status().ToString();
    return std::move(*fitted);
  };
  const core::StreamingHbpFit reference = fit(1, 1);
  ExpectSameFit(reference, fit(3, 1));
  ExpectSameFit(reference, fit(1, 4));
  ExpectSameFit(reference, fit(3, 4));
}

TEST(StreamingEvalTest, ManyBlankLinesDoNotRecurse) {
  // Blank lines are skipped in a loop: a run of them used to cost one
  // stack frame each and overflowed the stack long before this many.
  const std::string dir = TempShardDir("blank_lines");
  const std::string path = dir + "/scores.csv";
  WriteBytes(path, "pipe_id,score\n" + std::string(250000, '\n') +
                       "7,0.25\n\n\r\n");
  auto reader = eval::ScoresReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::int64_t id = 0;
  double score = 0.0;
  auto row = reader->Next(&id, &score);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_TRUE(*row);
  EXPECT_EQ(id, 7);
  EXPECT_EQ(score, 0.25);
  row = reader->Next(&id, &score);
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(*row);
}

TEST(StreamingEvalTest, ScoresReaderParsesAndRejects) {
  const std::string dir = TempShardDir("reader");
  const std::string path = dir + "/scores.csv";
  WriteBytes(path, "pipe_id,score\n3,0.5\n9,1.25e-3\n");
  auto reader = eval::ScoresReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::int64_t id = 0;
  double score = 0.0;
  ASSERT_TRUE(*reader->Next(&id, &score));
  EXPECT_EQ(id, 3);
  EXPECT_EQ(score, 0.5);
  ASSERT_TRUE(*reader->Next(&id, &score));
  EXPECT_EQ(id, 9);
  EXPECT_EQ(score, 1.25e-3);
  EXPECT_FALSE(*reader->Next(&id, &score));

  WriteBytes(path, "a,b\n1,2\n");
  EXPECT_FALSE(eval::ScoresReader::Open(path).ok());

  WriteBytes(path, "pipe_id,score\n3\n");
  reader = eval::ScoresReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->Next(&id, &score).ok());
}

}  // namespace
}  // namespace data
}  // namespace piperisk
