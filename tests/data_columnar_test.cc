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
#include <vector>

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
