// Tests for the checkpoint/resume subsystem: fingerprinting, the binary
// snapshot format (atomic write, checksum, corruption rejection), and the
// keystone guarantee — a sampler run killed mid-fit and resumed produces
// draws and scores bit-identical to an uninterrupted run, and a chain that
// throws is retried from its last snapshot without changing pooled results.

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chain_runner.h"
#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "tests/test_util.h"

namespace piperisk {
namespace core {
namespace {

std::string TempCheckpointDir(const char* name) {
  std::string dir = testing::TempDir() + "/piperisk_ckpt_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- Fingerprint -------------------------------------------------------------

TEST(FingerprintTest, SensitiveToEveryIngredient) {
  auto base = [] {
    Fingerprint fp;
    fp.Add("model").Add(std::uint64_t{7}).Add(1.5).Add(true);
    return fp.digest();
  }();
  {
    Fingerprint fp;
    fp.Add("model").Add(std::uint64_t{8}).Add(1.5).Add(true);
    EXPECT_NE(fp.digest(), base);
  }
  {
    Fingerprint fp;
    fp.Add("model").Add(std::uint64_t{7}).Add(1.5000001).Add(true);
    EXPECT_NE(fp.digest(), base);
  }
  {
    Fingerprint fp;
    fp.Add("other").Add(std::uint64_t{7}).Add(1.5).Add(true);
    EXPECT_NE(fp.digest(), base);
  }
  {
    Fingerprint fp;
    fp.Add("model").Add(std::uint64_t{7}).Add(1.5).Add(false);
    EXPECT_NE(fp.digest(), base);
  }
  {  // Deterministic across instances.
    Fingerprint fp;
    fp.Add("model").Add(std::uint64_t{7}).Add(1.5).Add(true);
    EXPECT_EQ(fp.digest(), base);
  }
}

TEST(FingerprintTest, StringBoundariesMatter) {
  Fingerprint a, b;
  a.Add("ab").Add("c");
  b.Add("a").Add("bc");
  EXPECT_NE(a.digest(), b.digest());
}

// --- Save / Load round trip --------------------------------------------------

ChainCheckpoint MakeSample() {
  ChainCheckpoint c;
  c.chain = 2;
  c.next_sweep = 50;
  c.total_sweeps = 75;
  c.fingerprint = 0xfeedfacecafebeefULL;
  c.rng = stats::RngState{0x123456789abcdef0ULL, 0x0fedcba987654321ULL};
  c.alpha = 1.375;
  c.labels = {0, 1, 1, 2, 0};
  c.group_q = {0.011, 0.5, 1e-7};
  c.group_count = {2, 2, 1};
  c.adapters = {{0.51, 100, 44}, {0.25, 100, 20}, {0.5, 0, 0}};
  c.prob_sum = {0.1, 0.2, 0.3, 0.0, -0.0};
  c.k_trace = {3, 3, 2};
  c.alpha_trace = {1.0, 1.25, 1.375};
  c.qmax_trace = {0.5, 0.5, 0.5};
  c.group_traces = {{0.01, 0.02}, {}, {0.5}};
  c.collected = 3;
  c.proposals = 225;
  c.accepts = 97;
  return c;
}

TEST(CheckpointIoTest, RoundTripIsExact) {
  const std::string dir = TempCheckpointDir("roundtrip");
  const std::string path = ChainCheckpointPath(dir, "model", 2);
  EXPECT_EQ(path, dir + "/model.chain2.ckpt");
  const ChainCheckpoint saved = MakeSample();
  ASSERT_TRUE(SaveChainCheckpoint(saved, path).ok());
  // The atomic-rename protocol must not leave the temp file behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  auto loaded = LoadChainCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->chain, saved.chain);
  EXPECT_EQ(loaded->next_sweep, saved.next_sweep);
  EXPECT_EQ(loaded->total_sweeps, saved.total_sweeps);
  EXPECT_EQ(loaded->fingerprint, saved.fingerprint);
  EXPECT_TRUE(loaded->rng == saved.rng);
  EXPECT_EQ(loaded->labels, saved.labels);
  EXPECT_EQ(loaded->group_count, saved.group_count);
  EXPECT_EQ(loaded->k_trace, saved.k_trace);
  EXPECT_EQ(loaded->collected, saved.collected);
  EXPECT_EQ(loaded->proposals, saved.proposals);
  EXPECT_EQ(loaded->accepts, saved.accepts);
  ASSERT_EQ(loaded->adapters.size(), saved.adapters.size());
  for (size_t i = 0; i < saved.adapters.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->adapters[i].step, saved.adapters[i].step);
    EXPECT_EQ(loaded->adapters[i].proposals, saved.adapters[i].proposals);
    EXPECT_EQ(loaded->adapters[i].accepts, saved.adapters[i].accepts);
  }
  // Doubles travel as bit patterns: exact equality, no decimal round-trip.
  EXPECT_DOUBLE_EQ(loaded->alpha, saved.alpha);
  ASSERT_EQ(loaded->group_q.size(), saved.group_q.size());
  for (size_t i = 0; i < saved.group_q.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->group_q[i], saved.group_q[i]);
  }
  ASSERT_EQ(loaded->prob_sum.size(), saved.prob_sum.size());
  for (size_t i = 0; i < saved.prob_sum.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded->prob_sum[i], saved.prob_sum[i]);
  }
  EXPECT_EQ(loaded->group_traces.size(), saved.group_traces.size());
  EXPECT_EQ(loaded->group_traces[2], saved.group_traces[2]);
}

TEST(CheckpointIoTest, OverwriteReplacesPreviousSnapshot) {
  const std::string dir = TempCheckpointDir("overwrite");
  const std::string path = ChainCheckpointPath(dir, "m", 0);
  ChainCheckpoint first = MakeSample();
  first.next_sweep = 25;
  ASSERT_TRUE(SaveChainCheckpoint(first, path).ok());
  ChainCheckpoint second = MakeSample();
  second.next_sweep = 50;
  ASSERT_TRUE(SaveChainCheckpoint(second, path).ok());
  auto loaded = LoadChainCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->next_sweep, 50);
}

TEST(CheckpointIoTest, RejectsMissingCorruptAndTruncatedFiles) {
  const std::string dir = TempCheckpointDir("corrupt");
  EXPECT_FALSE(LoadChainCheckpoint(dir + "/nope.ckpt").ok());

  const std::string path = ChainCheckpointPath(dir, "m", 0);
  ASSERT_TRUE(SaveChainCheckpoint(MakeSample(), path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  // Flip a payload byte: checksum must catch it.
  {
    std::string corrupt = bytes;
    corrupt[bytes.size() - 5] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  auto r = LoadChainCheckpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);

  // Truncate: size validation must catch it.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_FALSE(LoadChainCheckpoint(path).ok());

  // Not a checkpoint at all.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "pipe_id,score\n1,0.5\n";
  }
  r = LoadChainCheckpoint(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

// --- Sampler-level resume guarantees ----------------------------------------

DpmhbpConfig FastDpmhbp() {
  DpmhbpConfig config;
  config.hierarchy = testutil::FastHierarchy();
  return config;
}

/// Fits with the given checkpoint settings and returns the pooled
/// segment probabilities (the quantity every downstream score derives from).
Result<std::vector<double>> FitDpmhbp(const CheckpointConfig& ck) {
  DpmhbpConfig config = FastDpmhbp();
  config.hierarchy.checkpoint = ck;
  DpmhbpModel model(config);
  PIPERISK_RETURN_IF_ERROR(model.Fit(testutil::GetSharedRegion().cwm_input));
  return model.segment_probabilities();
}

TEST(CheckpointResumeTest, DpmhbpHaltAndResumeIsBitIdentical) {
  const auto baseline = FitDpmhbp(CheckpointConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string dir = TempCheckpointDir("dpmhbp_resume");
  CheckpointConfig ck;
  ck.dir = dir;
  ck.every = 20;
  // Simulated crash after 40 of 75 sweeps: Fit must return an error and
  // leave the sweep-40 snapshots on disk.
  ck.halt_after_sweeps = 40;
  auto halted = FitDpmhbp(ck);
  ASSERT_FALSE(halted.ok());
  EXPECT_TRUE(std::filesystem::exists(ChainCheckpointPath(dir, "dpmhbp", 0)));

  // Resume and run to completion.
  ck.halt_after_sweeps = -1;
  ck.resume = true;
  auto resumed = FitDpmhbp(ck);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->size(), baseline->size());
  for (size_t i = 0; i < baseline->size(); ++i) {
    EXPECT_DOUBLE_EQ((*resumed)[i], (*baseline)[i]) << "segment " << i;
  }
}

TEST(CheckpointResumeTest, ResumeOfCompletedRunFastForwards) {
  const std::string dir = TempCheckpointDir("dpmhbp_completed");
  CheckpointConfig ck;
  ck.dir = dir;
  ck.every = 20;
  auto full = FitDpmhbp(ck);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // A second run with --resume restores the final snapshots and re-runs no
  // sweeps; the pooled result is identical.
  ck.resume = true;
  auto again = FitDpmhbp(ck);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (size_t i = 0; i < full->size(); ++i) {
    EXPECT_DOUBLE_EQ((*again)[i], (*full)[i]) << "segment " << i;
  }
}

TEST(CheckpointResumeTest, ResumeRejectsFingerprintMismatch) {
  const std::string dir = TempCheckpointDir("dpmhbp_mismatch");
  CheckpointConfig ck;
  ck.dir = dir;
  ck.every = 20;
  ck.halt_after_sweeps = 40;
  ASSERT_FALSE(FitDpmhbp(ck).ok());

  // Same directory, different seed: the resume must be rejected with a
  // descriptive error, not silently produce a chimera fit.
  ck.halt_after_sweeps = -1;
  ck.resume = true;
  DpmhbpConfig config = FastDpmhbp();
  config.hierarchy.seed = 43;
  config.hierarchy.checkpoint = ck;
  DpmhbpModel model(config);
  Status status = model.Fit(testutil::GetSharedRegion().cwm_input);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointResumeTest, FaultInjectedChainRetriesWithoutChangingResults) {
  DpmhbpConfig config = FastDpmhbp();
  config.hierarchy.num_chains = 2;
  DpmhbpModel clean(config);
  ASSERT_TRUE(clean.Fit(testutil::GetSharedRegion().cwm_input).ok());

  // Same fit, but chain 1 throws once after 30 sweeps. No checkpoint dir:
  // the retry restores from the in-memory snapshot (sweep 20) and must
  // land on exactly the same draws.
  DpmhbpConfig faulty_config = config;
  faulty_config.hierarchy.checkpoint.every = 20;
  faulty_config.hierarchy.checkpoint.fail_chain = 1;
  faulty_config.hierarchy.checkpoint.fail_chain_after_sweeps = 30;
  DpmhbpModel faulty(faulty_config);
  ASSERT_TRUE(faulty.Fit(testutil::GetSharedRegion().cwm_input).ok());

  const auto& a = clean.segment_probabilities();
  const auto& b = faulty.segment_probabilities();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "segment " << i;
  }
  EXPECT_EQ(clean.num_groups_trace(), faulty.num_groups_trace());
}

TEST(CheckpointResumeTest, FaultBeforeFirstSnapshotRetriesFromScratch) {
  DpmhbpConfig config = FastDpmhbp();
  DpmhbpModel clean(config);
  ASSERT_TRUE(clean.Fit(testutil::GetSharedRegion().cwm_input).ok());

  // The fault fires before the first snapshot interval, so the retry
  // restarts the chain from scratch — still bit-identical, because the
  // pristine per-chain RNG stream is replayed.
  DpmhbpConfig faulty_config = config;
  faulty_config.hierarchy.checkpoint.every = 50;
  faulty_config.hierarchy.checkpoint.fail_chain = 0;
  faulty_config.hierarchy.checkpoint.fail_chain_after_sweeps = 10;
  DpmhbpModel faulty(faulty_config);
  ASSERT_TRUE(faulty.Fit(testutil::GetSharedRegion().cwm_input).ok());

  const auto& a = clean.segment_probabilities();
  const auto& b = faulty.segment_probabilities();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "segment " << i;
  }
}

TEST(CheckpointResumeTest, PermanentlyFailingChainDegradesToSurvivors) {
  // A 2-chain fit whose chain 1 always throws must degrade to chain 0's
  // draws — which are bit-identical to a 1-chain fit (chain 0's stream does
  // not depend on num_chains).
  DpmhbpConfig one_chain = FastDpmhbp();
  DpmhbpModel single(one_chain);
  ASSERT_TRUE(single.Fit(testutil::GetSharedRegion().cwm_input).ok());

  DpmhbpConfig two_chains = FastDpmhbp();
  two_chains.hierarchy.num_chains = 2;
  // The fault hook throws only once, so with zero retries the single throw
  // permanently fails chain 1.
  two_chains.hierarchy.checkpoint.max_chain_retries = 0;
  two_chains.hierarchy.checkpoint.fail_chain = 1;
  two_chains.hierarchy.checkpoint.fail_chain_after_sweeps = 5;
  DpmhbpModel degraded(two_chains);
  ASSERT_TRUE(degraded.Fit(testutil::GetSharedRegion().cwm_input).ok());

  const auto& a = single.segment_probabilities();
  const auto& b = degraded.segment_probabilities();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "segment " << i;
  }
  // Only the surviving chain contributes a trace.
  EXPECT_EQ(degraded.num_groups_chain_traces().size(), 1u);
}

TEST(CheckpointResumeTest, HbpHaltAndResumeIsBitIdentical) {
  const auto& input = testutil::GetSharedRegion().cwm_input;
  HierarchyConfig h = testutil::FastHierarchy();
  HbpModel baseline(GroupingScheme::kMaterial, h);
  ASSERT_TRUE(baseline.Fit(input).ok());

  const std::string dir = TempCheckpointDir("hbp_resume");
  HierarchyConfig interrupted = h;
  interrupted.checkpoint.dir = dir;
  interrupted.checkpoint.every = 15;
  interrupted.checkpoint.halt_after_sweeps = 45;
  HbpModel halted(GroupingScheme::kMaterial, interrupted);
  ASSERT_FALSE(halted.Fit(input).ok());
  EXPECT_TRUE(
      std::filesystem::exists(ChainCheckpointPath(dir, "hbp_material", 0)));

  HierarchyConfig resumed_config = h;
  resumed_config.checkpoint.dir = dir;
  resumed_config.checkpoint.every = 15;
  resumed_config.checkpoint.resume = true;
  HbpModel resumed(GroupingScheme::kMaterial, resumed_config);
  ASSERT_TRUE(resumed.Fit(input).ok());

  const auto& a = baseline.pipe_probabilities();
  const auto& b = resumed.pipe_probabilities();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "pipe " << i;
  }
  const auto& ga = baseline.group_rates();
  const auto& gb = resumed.group_rates();
  ASSERT_EQ(ga.size(), gb.size());
  for (size_t g = 0; g < ga.size(); ++g) {
    EXPECT_DOUBLE_EQ(ga[g], gb[g]) << "group " << g;
  }
  EXPECT_EQ(baseline.group_rate_traces(), resumed.group_rate_traces());
}

TEST(CheckpointResumeTest, HbpResumeRejectsDifferentGrouping) {
  const auto& input = testutil::GetSharedRegion().cwm_input;
  const std::string dir = TempCheckpointDir("hbp_grouping");
  HierarchyConfig h = testutil::FastHierarchy();
  h.checkpoint.dir = dir;
  h.checkpoint.every = 15;
  h.checkpoint.tag = "shared_tag";
  h.checkpoint.halt_after_sweeps = 30;
  HbpModel halted(GroupingScheme::kMaterial, h);
  ASSERT_FALSE(halted.Fit(input).ok());

  // Same tag, different grouping scheme: fingerprint mismatch.
  h.checkpoint.halt_after_sweeps = -1;
  h.checkpoint.resume = true;
  HbpModel other(GroupingScheme::kDiameterBand, h);
  Status status = other.Fit(input);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);
}

// --- Runner-level edge cases -------------------------------------------------

TEST(CheckpointRunnerTest, RejectsResumeWithoutDirectory) {
  ChainRunnerOptions options;
  options.total_sweeps = 10;
  options.checkpoint.resume = true;
  ChainProgram program;
  program.init = [](int) {};
  program.sweep = [](int, int, stats::Rng*) {};
  program.capture = [](int, ChainCheckpoint*) {};
  program.restore = [](int, const ChainCheckpoint&) { return Status::OK(); };
  auto report = RunCheckpointedChains(options, program);
  ASSERT_FALSE(report.ok());
}

ChainProgram NoOpProgram() {
  ChainProgram program;
  program.init = [](int) {};
  program.sweep = [](int, int, stats::Rng*) {};
  program.capture = [](int, ChainCheckpoint*) {};
  program.restore = [](int, const ChainCheckpoint&) { return Status::OK(); };
  return program;
}

TEST(CheckpointRunnerTest, CreatesMissingNestedDirectory) {
  // A directory that does not exist yet used to fail every snapshot write
  // with a warning, so the run persisted nothing.
  const std::string dir = TempCheckpointDir("nested") + "/a/b";
  ChainRunnerOptions options;
  options.num_chains = 2;
  options.total_sweeps = 4;
  options.checkpoint.dir = dir;
  options.checkpoint.every = 2;
  options.checkpoint.tag = "m";
  auto report = RunCheckpointedChains(options, NoOpProgram());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(ChainCheckpointPath(dir, "m", 0)));
  EXPECT_TRUE(std::filesystem::exists(ChainCheckpointPath(dir, "m", 1)));
}

TEST(CheckpointRunnerTest, RejectsCheckpointDirectoryThatIsAFile) {
  const std::string file = TempCheckpointDir("file_dir") + "/plain";
  std::ofstream(file) << "x";
  ChainRunnerOptions options;
  options.total_sweeps = 4;
  options.checkpoint.dir = file;
  options.checkpoint.every = 2;
  bool swept = false;
  ChainProgram program = NoOpProgram();
  program.sweep = [&](int, int, stats::Rng*) { swept = true; };
  auto report = RunCheckpointedChains(options, program);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError);
  EXPECT_NE(report.status().message().find(file), std::string::npos)
      << report.status().ToString();
  EXPECT_FALSE(swept);
}

TEST(CheckpointRunnerTest, AllChainsFailingIsAnError) {
  ChainRunnerOptions options;
  options.total_sweeps = 10;
  options.checkpoint.max_chain_retries = 1;
  ChainProgram program;
  program.init = [](int) {};
  program.sweep = [](int, int sweep, stats::Rng*) {
    if (sweep >= 3) throw std::runtime_error("boom");
  };
  program.capture = [](int, ChainCheckpoint*) {};
  program.restore = [](int, const ChainCheckpoint&) { return Status::OK(); };
  auto report = RunCheckpointedChains(options, program);
  ASSERT_FALSE(report.ok());
}

TEST(CheckpointRunnerTest, ReportsCheckpointAndRetryCounts) {
  ChainRunnerOptions options;
  options.num_chains = 2;
  options.total_sweeps = 10;
  options.checkpoint.every = 5;
  options.checkpoint.fail_chain = 1;
  options.checkpoint.fail_chain_after_sweeps = 7;
  ChainProgram program;
  program.init = [](int) {};
  program.sweep = [](int, int, stats::Rng*) {};
  program.capture = [](int, ChainCheckpoint*) {};
  program.restore = [](int, const ChainCheckpoint&) { return Status::OK(); };
  auto report = RunCheckpointedChains(options, program);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed_chains.empty());
  EXPECT_EQ(report->chain_retries, 1);
  // Chain 0: snapshots at 5 and 10. Chain 1: snapshot at 5, fault at 7,
  // retry re-runs 5..10 and snapshots at 10 (plus the re-taken one at 5
  // never happens — resume starts at sweep 5). At least 4 snapshots total.
  EXPECT_GE(report->checkpoints_written, 4);
}

}  // namespace
}  // namespace core
}  // namespace piperisk
