// piperisk — command-line front end for the library.
//
// Commands:
//   generate  --region A|B|C|tiny [--seed N] [--pipes N] [--connect F]
//             --out PREFIX
//       Generate a synthetic region (network + failures) and write the CSV
//       bundle PREFIX_{meta,pipes,segments,failures}.csv.
//
//   generate  --regions N --out-dir DIR [--seed N] [--pipes N] [--connect F]
//             [--threads T]
//       Sharded form: generate N independently seeded regions and write
//       them as binary columnar shards DIR/shard-NNNNN.prk plus a
//       manifest.csv, one shard at a time (the whole network is never
//       resident). Deterministic: the same --seed yields byte-identical
//       shards at any --threads.
//
//   convert   --data PREFIX --out-dir DIR
//   convert   --data-dir DIR [--shard N] --out PREFIX
//       Convert a CSV bundle into a single-shard columnar dataset, or one
//       shard of a columnar dataset back into a CSV bundle. A CSV -> shard
//       -> CSV round trip is byte-identical to the input bundle.
//
//   fit       --data PREFIX --model dpmhbp|hbp|cox|weibull|svm|logistic|
//             rsf|gbt
//             [--category CWM|RWM|WW] [--burn N] [--samples N] [--seed N]
//             [--chains K] [--threads T] --out SCORES.csv
//             [--sweep-threads S]
//             [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//       Train a model on the 1998-2008 window and write per-pipe risk
//       scores (pipe_id,score). MCMC models pool K independent chains run
//       on T worker threads; results depend only on (--seed, --chains).
//       --sweep-threads S additionally partitions each sweep's likelihood
//       work within a chain across the pool (S<=0 means whole machine);
//       scores stay bit-identical for every S.
//       With --checkpoint-dir, chain snapshots are written atomically every
//       N sweeps (default 25); --resume restarts an interrupted fit from
//       those snapshots and produces scores bit-identical to an
//       uninterrupted run. The same flags work for compare/diagnose/tune.
//       --heartbeat-file FILE [--heartbeat-every S] writes an atomically
//       replaced JSON progress file every S seconds (default 5) with
//       per-chain sweep progress, sweeps/s, acceptance trend, live split-Rhat
//       and ETA; purely observational, scores stay byte-identical.
//
//   fit       --data-dir DIR --out SCORES.csv [--model hbp]
//             [--shard-window W] [--category ...] [--burn N] [--samples N]
//             [--seed N] [--chains K] [--threads T] [--sweep-threads S]
//             [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//       Out-of-core form: stream a sharded dataset (see `generate
//       --regions` / `convert`) through a bounded window of W shards,
//       reduce it to per-group sufficient statistics, fit the covariate-
//       free HBP on the merged statistics, and stream the shards once more
//       to write scores in shard order. Peak RSS is bounded by the window,
//       not the dataset. Only --model hbp supports this path. The sampler
//       is the in-memory HBP's, so the MCMC, checkpoint and heartbeat flags
//       act as above (snapshots are streaming_hbp_<scheme>.chain<K>.ckpt).
//
//   evaluate  --data PREFIX --scores SCORES.csv [--category ...]
//             [--threads T] [--per-pipe FILE] [--topk K --topk-out FILE]
//       Detection metrics of a score file against the 2009 test year.
//       With --data-dir DIR [--shard-window W] instead of --data, the
//       dataset is streamed shard by shard and the scores file is joined
//       sequentially (ordered fast path); metrics and artefacts are
//       identical to the in-memory path on the same data.
//       The ranking is computed once and shared by every metric; T worker
//       threads sort it (the metrics are identical for any T).
//       --per-pipe writes pipe_id,score,rank,percentile for every pipe;
//       --topk-out writes the K riskiest pipes as rank,pipe_id,score. Both
//       files are byte-identical to what `piperisk serve` answers for the
//       same artifact (the golden-equivalence contract).
//
//   serve     --data PREFIX --scores SCORES.csv [--host H] [--port P]
//             [--port-file FILE] [--category ...] [--unit-cost C] [--seed N]
//             [--metrics-port P [--metrics-port-file FILE]]
//       (--data-dir DIR [--shard-window W] streams a sharded dataset into
//       the score index instead of loading a CSV bundle; reload re-streams.)
//       Long-running risk-scoring server: loads the fit artifact into an
//       immutable in-memory score index and answers concurrent queries over
//       a length-prefixed binary protocol (score / topk / whatif / dump /
//       metrics / reload / shutdown). Port 0 picks an ephemeral port;
//       --port-file publishes the bound port for scripts. The `reload` verb
//       re-reads SCORES.csv off the serving path and atomically swaps the
//       snapshot — readers are never blocked. Runs until a client sends
//       `shutdown`.
//
//   query     --port P [--host H] --verb VERB [--pipe ID] [--k K]
//             [--budget C] [--mode absolute|scale] [--value V] [--out FILE]
//       One request against a running server. Verbs: ping, score (--pipe),
//       topk (--k, optional --budget), whatif (--pipe, --mode, --value),
//       dump (--out), metrics, reload, shutdown.
//
//   compare   --data PREFIX [--category ...] [--burn N] [--samples N]
//       Fit the full model suite (DPMHBP, HBP groupings, Cox, SVMrank,
//       Weibull, RSF, GBT) and print the comparison table.
//
//   rolling   --data PREFIX [--first-year Y] [--last-year Y]
//             [--category ...] [--burn N] [--samples N] [--seed N]
//             [--chains K] [--threads T]
//       Rolling-origin evaluation: for each test year in [Y0, Y1] train
//       every headline model cold on the expanding window ending the year
//       before and score the test year; prints each model's per-year AUC
//       series and its mean. Years run in parallel with --threads.
//
//   riskmap   --data PREFIX --scores SCORES.csv --out MAP.geojson
//       Export the Fig. 18.9-style risk map.
//
//   diagnose  --data PREFIX [--model dpmhbp|hbp] [--burn N] [--samples N]
//             [--chains K] [--threads T]
//       MCMC convergence audit: per-trace ESS, Geweke z and (with
//       --chains > 1 especially) cross-chain split-Rhat. dpmhbp monitors
//       K/alpha/q_max; hbp reports every group rate q_k.
//
//   tune      --data PREFIX [--category ...] [--burn N] [--samples N]
//       Grid-search the hierarchy concentration c on an internal
//       validation year (never touches the test year).
//
//   plan      --data PREFIX --scores SCORES.csv [--budget N] [--horizon N]
//             [--out PLAN.csv]
//       Budget-constrained multi-year renewal plan from risk scores.
//
//   top       --metrics-port P [--metrics-host H] | --heartbeat FILE
//             [--interval S] [--iterations N] [--plain]
//       Live terminal dashboard. With --metrics-port it polls a running
//       server's Prometheus endpoint (req/s, latency quantiles, generation);
//       with --heartbeat it tails a fit's heartbeat JSON (per-chain progress
//       bars, sweeps/s, acceptance, live split-Rhat, ETA). --plain prints
//       one block per sample instead of redrawing the screen; --iterations N
//       exits after N samples (0 = run until interrupted).
//
// Every command rejects unknown flags with exit code 2 and names the flag.
//
// Global flags (any command):
//   --log-level debug|info|warning|error|fatal
//       Minimum severity emitted to stderr (default info).
//   --metrics-out FILE
//       After the command finishes, write a metrics-JSON snapshot of every
//       telemetry counter/gauge/histogram plus run metadata (command, seed,
//       chains, threads, build). Purely observational: model draws and pipe
//       scores are bit-identical with or without it.
//   --trace-out FILE
//       Collect chrome://tracing spans for the whole command and write the
//       trace JSON (load via chrome://tracing or https://ui.perfetto.dev).

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/cox.h"
#include "baselines/gbt.h"
#include "baselines/logistic.h"
#include "baselines/rank_model.h"
#include "baselines/rsf.h"
#include "baselines/weibull.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/diagnostics.h"
#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "core/streaming_hbp.h"
#include "data/columnar.h"
#include "data/csv_io.h"
#include "data/failure_simulator.h"
#include "data/sharded_dataset.h"
#include "eval/experiment.h"
#include "eval/ranking_metrics.h"
#include "eval/rolling.h"
#include "eval/streaming_eval.h"
#include "eval/planning.h"
#include "eval/risk_map.h"
#include "eval/tuning.h"
#include "serve/client.h"
#include "serve/http_metrics.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tools/top.h"

#ifndef PIPERISK_GIT_DESCRIBE
#define PIPERISK_GIT_DESCRIBE "unknown"
#endif

namespace piperisk {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: piperisk <generate|convert|fit|evaluate|serve|query|"
               "compare|rolling|riskmap|diagnose|tune|plan|top> [flags]\n"
               "see the header of tools/piperisk_cli.cc for flag details\n");
  return 2;
}

Result<net::PipeCategory> CategoryFlag(const CommandLine& cl) {
  std::string c = cl.GetString("category", "CWM");
  return net::ParsePipeCategory(c);
}

Result<core::ModelInput> LoadInput(const CommandLine& cl,
                                   const data::RegionDataset& dataset) {
  auto category = CategoryFlag(cl);
  if (!category.ok()) return category.status();
  net::FeatureConfig features = *category == net::PipeCategory::kWasteWater
                                    ? net::FeatureConfig::WasteWater()
                                    : net::FeatureConfig::DrinkingWater();
  return core::ModelInput::Build(dataset, data::TemporalSplit::Paper(),
                                 *category, features);
}

/// Rejects, with exit code 2 and the flag's name, any flag that is neither
/// a global exporter or --log-level flag nor one of the command's own
/// `flags`. Returns 0 when every flag is known.
int RejectUnknownFlags(const CommandLine& cl, std::vector<std::string> flags) {
  flags.insert(flags.end(), {"metrics-out", "trace-out", "log-level"});
  const std::vector<std::string> unknown = cl.UnknownFlags(flags);
  if (unknown.empty()) return 0;
  std::fprintf(stderr, "%s: unknown flag --%s\n", cl.command().c_str(),
               unknown.front().c_str());
  return 2;
}

/// RejectUnknownFlags for the MCMC commands, which also accept every flag
/// HierarchyFlags reads (hierarchy, checkpoint, heartbeat).
int RejectUnknownMcmcFlags(const CommandLine& cl,
                           std::vector<std::string> flags) {
  flags.insert(flags.end(),
               {"burn", "samples", "seed", "chains", "threads",
                "sweep-threads", "checkpoint-dir", "checkpoint-every",
                "resume", "checkpoint-halt-after", "heartbeat-file",
                "heartbeat-every"});
  return RejectUnknownFlags(cl, std::move(flags));
}

Result<core::HierarchyConfig> HierarchyFlags(const CommandLine& cl) {
  core::HierarchyConfig h;
  PIPERISK_ASSIGN_OR_RETURN(h.burn_in, cl.GetInt32("burn", h.burn_in));
  PIPERISK_ASSIGN_OR_RETURN(h.samples, cl.GetInt32("samples", h.samples));
  PIPERISK_ASSIGN_OR_RETURN(long long seed, cl.GetInt("seed", 42));
  PIPERISK_ASSIGN_OR_RETURN(h.num_chains,
                            cl.GetInt32("chains", h.num_chains));
  PIPERISK_ASSIGN_OR_RETURN(h.num_threads,
                            cl.GetInt32("threads", h.num_threads));
  h.seed = static_cast<std::uint64_t>(seed);
  if (h.num_chains < 1) {
    return Status::InvalidArgument("--chains must be >= 1");
  }
  PIPERISK_ASSIGN_OR_RETURN(h.sweep_threads,
                            cl.GetInt32("sweep-threads", h.sweep_threads));
  h.checkpoint.dir = cl.GetString("checkpoint-dir", "");
  PIPERISK_ASSIGN_OR_RETURN(
      h.checkpoint.every, cl.GetInt32("checkpoint-every", h.checkpoint.every));
  h.checkpoint.resume = cl.GetBool("resume", false);
  if (h.checkpoint.resume && h.checkpoint.dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }
  // Hidden crash-simulation hook for the smoke test: stop every chain after
  // N sweeps and exit non-zero, leaving the snapshots a kill -9 would leave.
  PIPERISK_ASSIGN_OR_RETURN(
      h.checkpoint.halt_after_sweeps,
      cl.GetInt32("checkpoint-halt-after", h.checkpoint.halt_after_sweeps));
  // Live progress file (observational only; never fingerprinted, fits stay
  // bit-identical with heartbeats on or off).
  h.heartbeat.path = cl.GetString("heartbeat-file", "");
  PIPERISK_ASSIGN_OR_RETURN(
      double hb_every, cl.GetDouble("heartbeat-every", h.heartbeat.every_s));
  h.heartbeat.every_s = hb_every;
  if (!h.heartbeat.path.empty() && h.heartbeat.every_s <= 0.0) {
    return Status::InvalidArgument("--heartbeat-every must be > 0");
  }
  return h;
}

// --- generate ---------------------------------------------------------------

Result<int> ShardWindowFlag(const CommandLine& cl) {
  PIPERISK_ASSIGN_OR_RETURN(int window, cl.GetInt32("shard-window", 4));
  if (window <= 0) {
    return Status::InvalidArgument("--shard-window must be >= 1");
  }
  return window;
}

int CmdGenerateSharded(const CommandLine& cl) {
  if (int rc = RejectUnknownFlags(cl, {"regions", "out-dir", "seed", "pipes",
                                       "connect", "threads"})) {
    return rc;
  }
  data::ShardedGenerateOptions options;
  auto regions = cl.GetInt32("regions", options.regions);
  if (!regions.ok()) return Fail(regions.status());
  options.regions = *regions;
  options.out_dir = cl.GetString("out-dir", "");
  if (options.out_dir.empty()) {
    std::fprintf(stderr, "generate: --regions needs --out-dir DIR\n");
    return 2;
  }
  auto seed = cl.GetInt("seed", static_cast<long long>(options.seed));
  if (!seed.ok()) return Fail(seed.status());
  options.seed = static_cast<std::uint64_t>(*seed);
  auto pipes = cl.GetInt32("pipes", options.pipes_per_region);
  if (!pipes.ok()) return Fail(pipes.status());
  options.pipes_per_region = *pipes;
  auto connect = cl.GetDouble("connect", options.connect_fraction);
  if (!connect.ok()) return Fail(connect.status());
  options.connect_fraction = *connect;
  auto threads = cl.GetInt32("threads", options.threads);
  if (!threads.ok()) return Fail(threads.status());
  options.threads = *threads;

  auto summary = data::GenerateShardedDataset(options);
  if (!summary.ok()) return Fail(summary.status());
  std::printf("wrote %d shards to %s: %llu pipes, %llu segments, "
              "%llu failures\n",
              summary->regions, options.out_dir.c_str(),
              static_cast<unsigned long long>(summary->pipes),
              static_cast<unsigned long long>(summary->segments),
              static_cast<unsigned long long>(summary->failures));
  return 0;
}

int CmdGenerate(const CommandLine& cl) {
  if (cl.Has("regions") || cl.Has("out-dir")) return CmdGenerateSharded(cl);
  if (int rc = RejectUnknownFlags(
          cl, {"region", "out", "seed", "pipes", "connect"})) {
    return rc;
  }
  std::string region = ToLowerAscii(cl.GetString("region", "tiny"));
  std::string out = cl.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out PREFIX is required\n");
    return 2;
  }
  data::RegionConfig config;
  if (region == "a") {
    config = data::RegionConfig::RegionA();
  } else if (region == "b") {
    config = data::RegionConfig::RegionB();
  } else if (region == "c") {
    config = data::RegionConfig::RegionC();
  } else if (region == "tiny") {
    config = data::RegionConfig::Tiny(1);
  } else {
    std::fprintf(stderr, "generate: unknown region '%s'\n", region.c_str());
    return 2;
  }
  auto seed = cl.GetInt("seed", static_cast<long long>(config.seed));
  if (!seed.ok()) return Fail(seed.status());
  config.seed = static_cast<std::uint64_t>(*seed);
  auto pipes = cl.GetInt32("pipes", config.num_pipes);
  if (!pipes.ok()) return Fail(pipes.status());
  config.num_pipes = *pipes;
  auto connect = cl.GetDouble("connect", config.connect_fraction);
  if (!connect.ok()) return Fail(connect.status());
  config.connect_fraction = *connect;

  auto dataset = data::GenerateRegion(config);
  if (!dataset.ok()) return Fail(dataset.status());
  if (Status st = data::SaveRegionDataset(*dataset, out); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %s_{meta,pipes,segments,failures}.csv: %zu pipes, "
              "%zu segments, %zu failures\n",
              out.c_str(), dataset->network.num_pipes(),
              dataset->network.num_segments(), dataset->failures.size());
  return 0;
}

// --- convert ----------------------------------------------------------------

int CmdConvert(const CommandLine& cl) {
  if (int rc = RejectUnknownFlags(
          cl, {"data", "out-dir", "data-dir", "shard", "out"})) {
    return rc;
  }
  const std::string prefix = cl.GetString("data", "");
  const std::string out_dir = cl.GetString("out-dir", "");
  const std::string data_dir = cl.GetString("data-dir", "");
  const std::string out = cl.GetString("out", "");

  if (!prefix.empty() && !out_dir.empty()) {
    // CSV bundle -> single-shard columnar dataset.
    auto dataset = data::LoadRegionDataset(prefix);
    if (!dataset.ok()) return Fail(dataset.status());
    if (::mkdir(out_dir.c_str(), 0777) != 0 && errno != EEXIST) {
      return Fail(Status::IoError("cannot create directory: " + out_dir));
    }
    const std::string file = data::ShardFileName(0);
    if (Status st = data::WriteShard(*dataset, out_dir + "/" + file);
        !st.ok()) {
      return Fail(st);
    }
    data::ShardInfo info;
    info.index = 0;
    info.file = file;
    info.region = dataset->config.name;
    info.pipes = dataset->network.num_pipes();
    info.segments = dataset->network.num_segments();
    info.failures = dataset->failures.size();
    if (Status st = data::WriteManifest(out_dir, {info}); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s/%s (+ manifest): %llu pipes, %llu segments, "
                "%llu failures\n",
                out_dir.c_str(), file.c_str(),
                static_cast<unsigned long long>(info.pipes),
                static_cast<unsigned long long>(info.segments),
                static_cast<unsigned long long>(info.failures));
    return 0;
  }

  if (!data_dir.empty() && !out.empty()) {
    // One shard -> CSV bundle.
    auto shards = data::ShardedDataset::Open(data_dir);
    if (!shards.ok()) return Fail(shards.status());
    auto shard = cl.GetInt("shard", 0);
    if (!shard.ok()) return Fail(shard.status());
    auto dataset =
        shards->LoadShardDataset(static_cast<size_t>(*shard));
    if (!dataset.ok()) return Fail(dataset.status());
    if (Status st = data::SaveRegionDataset(*dataset, out); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s_{meta,pipes,segments,failures}.csv: %zu pipes, "
                "%zu segments, %zu failures\n",
                out.c_str(), dataset->network.num_pipes(),
                dataset->network.num_segments(), dataset->failures.size());
    return 0;
  }

  std::fprintf(stderr,
               "convert: either --data PREFIX --out-dir DIR (CSV -> shard) "
               "or --data-dir DIR --out PREFIX (shard -> CSV)\n");
  return 2;
}

// --- fit ------------------------------------------------------------------------

// Out-of-core fit over a sharded dataset: sufficient-statistic streaming,
// bounded-window RSS. Only the covariate-free HBP factors through per-group
// (k, n) histograms, so only --model hbp is supported here.
int CmdFitStreaming(const CommandLine& cl) {
  if (int rc = RejectUnknownMcmcFlags(
          cl, {"data-dir", "out", "model", "category", "shard-window"})) {
    return rc;
  }
  const std::string dir = cl.GetString("data-dir", "");
  const std::string out = cl.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "fit: --out FILE is required\n");
    return 2;
  }
  const std::string model_name = ToLowerAscii(cl.GetString("model", "hbp"));
  if (model_name != "hbp") {
    std::fprintf(stderr,
                 "fit: --data-dir (out-of-core) supports --model hbp only\n");
    return 2;
  }
  auto shards = data::ShardedDataset::Open(dir);
  if (!shards.ok()) return Fail(shards.status());
  auto hierarchy = HierarchyFlags(cl);
  if (!hierarchy.ok()) return Fail(hierarchy.status());
  auto category = CategoryFlag(cl);
  if (!category.ok()) return Fail(category.status());
  auto window = ShardWindowFlag(cl);
  if (!window.ok()) return Fail(window.status());

  core::StreamingHbpOptions options;
  options.hierarchy = *hierarchy;
  options.category = *category;
  options.shard_window = *window;
  auto fit = core::FitStreamingHbp(*shards, options);
  if (!fit.ok()) return Fail(fit.status());
  if (Status st = core::ScoreStreamingHbp(*shards, *fit, options, out);
      !st.ok()) {
    return Fail(st);
  }
  std::printf("fit streaming-hbp on %llu pipes (%zu groups, %zu shards); "
              "wrote %s\n",
              static_cast<unsigned long long>(fit->total_pipes),
              fit->raw_keys.size(), shards->shards().size(), out.c_str());
  return 0;
}

int CmdFit(const CommandLine& cl) {
  if (cl.Has("data-dir")) return CmdFitStreaming(cl);
  if (int rc =
          RejectUnknownMcmcFlags(cl, {"data", "out", "model", "category"})) {
    return rc;
  }
  std::string prefix = cl.GetString("data", "");
  std::string out = cl.GetString("out", "");
  std::string model_name = ToLowerAscii(cl.GetString("model", "dpmhbp"));
  if (prefix.empty() || out.empty()) {
    std::fprintf(stderr, "fit: --data PREFIX and --out FILE are required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto input = LoadInput(cl, *dataset);
  if (!input.ok()) return Fail(input.status());
  auto hierarchy = HierarchyFlags(cl);
  if (!hierarchy.ok()) return Fail(hierarchy.status());

  core::ModelPtr model;
  if (model_name == "dpmhbp") {
    core::DpmhbpConfig config;
    config.hierarchy = *hierarchy;
    model = std::make_unique<core::DpmhbpModel>(config);
  } else if (model_name == "hbp") {
    model = std::make_unique<core::HbpModel>(core::GroupingScheme::kMaterial,
                                             *hierarchy);
  } else if (model_name == "cox") {
    model = std::make_unique<baselines::CoxModel>();
  } else if (model_name == "weibull") {
    model = std::make_unique<baselines::WeibullModel>();
  } else if (model_name == "svm") {
    model = std::make_unique<baselines::RankModel>();
  } else if (model_name == "logistic") {
    model = std::make_unique<baselines::LogisticModel>();
  } else if (model_name == "rsf") {
    baselines::RsfConfig config;
    config.seed = hierarchy->seed;
    config.num_fit_threads = hierarchy->num_threads;
    model = std::make_unique<baselines::RsfModel>(config);
  } else if (model_name == "gbt") {
    baselines::GbtConfig config;
    config.seed = hierarchy->seed;
    config.num_fit_threads = hierarchy->num_threads;
    model = std::make_unique<baselines::GbtModel>(config);
  } else {
    std::fprintf(stderr, "fit: unknown model '%s'\n", model_name.c_str());
    return 2;
  }

  if (Status st = model->Fit(*input); !st.ok()) return Fail(st);
  core::ScoreOptions score_options;
  score_options.num_threads = hierarchy->num_threads;
  auto scores = model->ScorePipes(*input, score_options);
  if (!scores.ok()) return Fail(scores.status());

  CsvDocument doc({"pipe_id", "score"});
  for (size_t i = 0; i < input->num_pipes(); ++i) {
    Status st = doc.AppendRow({std::to_string(input->pipes[i]->id),
                               StrFormat("%.10g", (*scores)[i])});
    if (!st.ok()) return Fail(st);
  }
  if (Status st = doc.WriteFile(out); !st.ok()) return Fail(st);
  std::printf("fit %s on %zu pipes; wrote %s\n", model->name().c_str(),
              input->num_pipes(), out.c_str());
  return 0;
}

// --- score loading shared by evaluate/riskmap --------------------------------------

Result<std::vector<double>> LoadScores(const std::string& path,
                                       const core::ModelInput& input) {
  PIPERISK_ASSIGN_OR_RETURN(CsvDocument doc, CsvDocument::ReadFile(path));
  PIPERISK_ASSIGN_OR_RETURN(size_t c_id, doc.ColumnIndex("pipe_id"));
  PIPERISK_ASSIGN_OR_RETURN(size_t c_score, doc.ColumnIndex("score"));
  std::unordered_map<net::PipeId, double> by_id;
  for (size_t r = 0; r < doc.num_rows(); ++r) {
    PIPERISK_ASSIGN_OR_RETURN(long long id, ParseInt(doc.cell(r, c_id)));
    PIPERISK_ASSIGN_OR_RETURN(double score, ParseDouble(doc.cell(r, c_score)));
    by_id[id] = score;
  }
  std::vector<double> out(input.num_pipes(), 0.0);
  size_t missing = 0;
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    auto it = by_id.find(input.pipes[i]->id);
    if (it == by_id.end()) {
      ++missing;
    } else {
      out[i] = it->second;
    }
  }
  if (missing == input.num_pipes()) {
    return Status::InvalidArgument("score file matches no pipes in the data");
  }
  return out;
}

// --- golden-equivalence CSV formatting ---------------------------------------
// Both the batch path (`evaluate --per-pipe/--topk-out`) and the serving path
// (`query --verb dump/topk --out`) write through these helpers, so the two
// artefacts are byte-identical whenever the underlying doubles agree. %.17g
// round-trips every IEEE-754 double exactly.

Status WritePerPipeCsv(const std::vector<serve::DumpEntry>& entries,
                       const std::string& path) {
  CsvDocument doc({"pipe_id", "score", "rank", "percentile"});
  for (const auto& e : entries) {
    Status st = doc.AppendRow(
        {std::to_string(e.pipe_id), StrFormat("%.17g", e.score),
         std::to_string(e.rank), StrFormat("%.17g", e.percentile)});
    if (!st.ok()) return st;
  }
  return doc.WriteFile(path);
}

Status WriteTopKCsv(const std::vector<serve::TopKEntry>& entries,
                    const std::string& path) {
  CsvDocument doc({"rank", "pipe_id", "score"});
  for (size_t rank = 0; rank < entries.size(); ++rank) {
    Status st = doc.AppendRow({std::to_string(rank),
                               std::to_string(entries[rank].pipe_id),
                               StrFormat("%.17g", entries[rank].score)});
    if (!st.ok()) return st;
  }
  return doc.WriteFile(path);
}

// The whole metric + artefact tail of `evaluate`, shared by the in-memory
// and streaming paths: same code, so the two paths print and write
// byte-identical output whenever the input arrays agree.
int EvaluateRanking(const CommandLine& cl,
                    const std::vector<std::uint64_t>& ids,
                    const std::vector<double>& scores,
                    const std::vector<int>& failures,
                    const std::vector<double>& lengths, int test_year) {
  auto scored = eval::ZipScores(scores, failures, lengths);
  if (!scored.ok()) return Fail(scored.status());
  auto threads = cl.GetInt32("threads", 1);
  if (!threads.ok()) return Fail(threads.status());
  eval::RankOptions rank_options;
  rank_options.num_threads = *threads;
  // One rank index feeds all three metrics; no per-metric re-sort.
  const eval::RankedScores ranked =
      eval::RankedScores::Build(*scored, rank_options);
  auto full = ranked.Auc(eval::BudgetMode::kPipeCount, 1.0);
  auto one = ranked.Auc(eval::BudgetMode::kPipeCount, 0.01);
  auto at1len = ranked.DetectedAtBudget(eval::BudgetMode::kLength, 0.01);
  if (!full.ok()) return Fail(full.status());
  std::printf("test year %d, %zu pipes\n", test_year, ids.size());
  std::printf("AUC(100%%)          = %.2f%%\n", full->normalised * 100.0);
  if (one.ok()) {
    std::printf("AUC(1%%) normalised = %.2f%%  (raw %.2f x 1e-4)\n",
                one->normalised * 100.0, one->unnormalised * 1e4);
  }
  if (at1len.ok()) {
    std::printf("detect @1%% length  = %.2f%%\n", *at1len * 100.0);
  }

  std::string per_pipe_path = cl.GetString("per-pipe", "");
  if (!per_pipe_path.empty()) {
    std::vector<serve::DumpEntry> entries(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      auto rank = ranked.RankOf(static_cast<std::uint32_t>(i));
      if (!rank.ok()) return Fail(rank.status());
      auto pct = ranked.PercentileOf(static_cast<std::uint32_t>(i));
      if (!pct.ok()) return Fail(pct.status());
      entries[i].pipe_id = ids[i];
      entries[i].score = scores[i];
      entries[i].rank = *rank;
      entries[i].percentile = *pct;
    }
    if (Status st = WritePerPipeCsv(entries, per_pipe_path); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s (%zu pipes)\n", per_pipe_path.c_str(),
                entries.size());
  }

  auto topk_flag = cl.GetInt("topk", 0);
  if (!topk_flag.ok()) return Fail(topk_flag.status());
  if (*topk_flag > 0) {
    std::string topk_path = cl.GetString("topk-out", "");
    if (topk_path.empty()) {
      std::fprintf(stderr, "evaluate: --topk requires --topk-out FILE\n");
      return 2;
    }
    auto top = ranked.TopK(static_cast<size_t>(*topk_flag));
    if (!top.ok()) return Fail(top.status());
    std::vector<serve::TopKEntry> entries(top->size());
    for (size_t r = 0; r < top->size(); ++r) {
      entries[r].pipe_id = ids[(*top)[r]];
      entries[r].score = scores[(*top)[r]];
    }
    if (Status st = WriteTopKCsv(entries, topk_path); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s (top %zu)\n", topk_path.c_str(), entries.size());
  }
  return 0;
}

int CmdEvaluateStreaming(const CommandLine& cl) {
  if (int rc = RejectUnknownFlags(
          cl, {"data-dir", "scores", "category", "shard-window", "threads",
               "per-pipe", "topk", "topk-out"})) {
    return rc;
  }
  const std::string dir = cl.GetString("data-dir", "");
  const std::string scores_path = cl.GetString("scores", "");
  if (scores_path.empty()) {
    std::fprintf(stderr, "evaluate: --scores is required\n");
    return 2;
  }
  auto shards = data::ShardedDataset::Open(dir);
  if (!shards.ok()) return Fail(shards.status());
  auto category = CategoryFlag(cl);
  if (!category.ok()) return Fail(category.status());
  auto window = ShardWindowFlag(cl);
  if (!window.ok()) return Fail(window.status());
  auto streamed = eval::BuildStreamedScoredPipes(*shards, *category,
                                                 scores_path, *window);
  if (!streamed.ok()) return Fail(streamed.status());
  if (streamed->fallback > 0 || streamed->missing > 0) {
    std::fprintf(stderr,
                 "note: scores joined out of order for %llu pipes, "
                 "missing for %llu\n",
                 static_cast<unsigned long long>(streamed->fallback),
                 static_cast<unsigned long long>(streamed->missing));
  }
  return EvaluateRanking(cl, streamed->ids, streamed->scores,
                         streamed->test_failures, streamed->lengths_m,
                         streamed->test_year);
}

int CmdEvaluate(const CommandLine& cl) {
  if (cl.Has("data-dir")) return CmdEvaluateStreaming(cl);
  if (int rc = RejectUnknownFlags(cl, {"data", "scores", "category", "threads",
                                       "per-pipe", "topk", "topk-out"})) {
    return rc;
  }
  std::string prefix = cl.GetString("data", "");
  std::string scores_path = cl.GetString("scores", "");
  if (prefix.empty() || scores_path.empty()) {
    std::fprintf(stderr, "evaluate: --data and --scores are required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto input = LoadInput(cl, *dataset);
  if (!input.ok()) return Fail(input.status());
  auto scores = LoadScores(scores_path, *input);
  if (!scores.ok()) return Fail(scores.status());

  std::vector<std::uint64_t> ids(input->num_pipes());
  std::vector<int> failures(input->num_pipes());
  std::vector<double> lengths(input->num_pipes());
  for (size_t i = 0; i < input->num_pipes(); ++i) {
    ids[i] = static_cast<std::uint64_t>(input->pipes[i]->id);
    failures[i] = input->outcomes[i].test_failures;
    lengths[i] = input->outcomes[i].length_m;
  }
  return EvaluateRanking(cl, ids, *scores, failures, lengths,
                         input->split.test_year);
}

int CmdCompare(const CommandLine& cl) {
  if (int rc = RejectUnknownMcmcFlags(cl, {"data", "category", "extended"})) {
    return rc;
  }
  std::string prefix = cl.GetString("data", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "compare: --data PREFIX is required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto hierarchy = HierarchyFlags(cl);
  if (!hierarchy.ok()) return Fail(hierarchy.status());
  eval::ExperimentConfig config;
  config.hierarchy = *hierarchy;
  config.include_extended = cl.GetBool("extended", false);
  auto category = CategoryFlag(cl);
  if (!category.ok()) return Fail(category.status());
  config.category = *category;
  auto experiment = eval::RunRegionExperiment(*dataset, config);
  if (!experiment.ok()) return Fail(experiment.status());

  TextTable table({"Model", "AUC(100%)", "AUC(1%)", "detect@1% len"});
  for (const auto& run : experiment->runs) {
    table.AddRow({run.name,
                  StrFormat("%6.2f%%", run.auc_full.normalised * 100.0),
                  StrFormat("%6.2f%%", run.auc_1pct.normalised * 100.0),
                  StrFormat("%6.2f%%", run.detected_at_1pct_length * 100.0)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdRolling(const CommandLine& cl) {
  if (int rc = RejectUnknownMcmcFlags(
          cl, {"data", "category", "first-year", "last-year"})) {
    return rc;
  }
  std::string prefix = cl.GetString("data", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "rolling: --data PREFIX is required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto hierarchy = HierarchyFlags(cl);
  if (!hierarchy.ok()) return Fail(hierarchy.status());
  auto category = CategoryFlag(cl);
  if (!category.ok()) return Fail(category.status());

  eval::RollingConfig config;
  auto first = cl.GetInt32("first-year", config.first_test_year);
  if (!first.ok()) return Fail(first.status());
  config.first_test_year = *first;
  auto last = cl.GetInt32("last-year", config.last_test_year);
  if (!last.ok()) return Fail(last.status());
  config.last_test_year = *last;
  config.experiment.hierarchy = *hierarchy;
  config.experiment.seed = hierarchy->seed;
  config.experiment.category = *category;
  config.num_threads = hierarchy->num_threads;

  auto result = eval::RunRollingEvaluation(*dataset, config);
  if (!result.ok()) return Fail(result.status());

  std::vector<std::string> header{"Model"};
  for (net::Year y : result->test_years) header.push_back(std::to_string(y));
  header.push_back("mean AUC");
  TextTable table(header);
  for (const auto& series : result->series) {
    std::vector<std::string> row{series.model};
    double sum = 0.0;
    int n = 0;
    for (double auc : series.auc_full) {
      if (std::isnan(auc)) {
        row.push_back("-");
      } else {
        row.push_back(StrFormat("%5.2f%%", auc * 100.0));
        sum += auc;
        ++n;
      }
    }
    row.push_back(n > 0 ? StrFormat("%5.2f%%", sum / n * 100.0) : "-");
    table.AddRow(row);
  }
  std::printf("rolling cold over %d years (full AUC, pipe-count budget)\n",
              static_cast<int>(result->test_years.size()));
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdRiskmap(const CommandLine& cl) {
  if (int rc = RejectUnknownFlags(cl, {"data", "scores", "out", "category"})) {
    return rc;
  }
  std::string prefix = cl.GetString("data", "");
  std::string scores_path = cl.GetString("scores", "");
  std::string out = cl.GetString("out", "risk_map.geojson");
  if (prefix.empty() || scores_path.empty()) {
    std::fprintf(stderr, "riskmap: --data and --scores are required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto input = LoadInput(cl, *dataset);
  if (!input.ok()) return Fail(input.status());
  auto scores = LoadScores(scores_path, *input);
  if (!scores.ok()) return Fail(scores.status());
  auto geojson = eval::BuildRiskMapGeoJson(*input, *scores);
  if (!geojson.ok()) return Fail(geojson.status());
  std::ofstream file(out, std::ios::trunc);
  if (!file) return Fail(Status::IoError("cannot write " + out));
  file << *geojson;
  auto summary = eval::SummariseRiskMap(*input, *scores, 0.10);
  std::printf("wrote %s (%zu bytes)\n", out.c_str(), geojson->size());
  if (summary.ok()) {
    std::printf("top-decile pipes carry %d of %d test-year failures\n",
                summary->failures_on_top, summary->total_test_failures);
  }
  return 0;
}

int CmdDiagnose(const CommandLine& cl) {
  if (int rc = RejectUnknownMcmcFlags(cl, {"data", "category", "model"})) {
    return rc;
  }
  std::string prefix = cl.GetString("data", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "diagnose: --data PREFIX is required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto input = LoadInput(cl, *dataset);
  if (!input.ok()) return Fail(input.status());
  auto hierarchy = HierarchyFlags(cl);
  if (!hierarchy.ok()) return Fail(hierarchy.status());
  std::string model_name = ToLowerAscii(cl.GetString("model", "dpmhbp"));
  if (model_name == "hbp") {
    core::HbpModel model(core::GroupingScheme::kMaterial, *hierarchy);
    if (Status st = model.Fit(*input); !st.ok()) return Fail(st);
    auto diagnostics = core::DiagnoseHbp(model);
    std::printf("%s", core::RenderDiagnostics(diagnostics).c_str());
    return 0;
  }
  if (model_name != "dpmhbp") {
    std::fprintf(stderr, "diagnose: unknown model '%s' (dpmhbp|hbp)\n",
                 model_name.c_str());
    return 2;
  }
  core::DpmhbpConfig config;
  config.hierarchy = *hierarchy;
  core::DpmhbpModel model(config);
  if (Status st = model.Fit(*input); !st.ok()) return Fail(st);
  auto d = core::DiagnoseDpmhbp(model);
  std::printf("%s", core::RenderDiagnostics({d.num_groups, d.alpha, d.q_max})
                        .c_str());
  std::printf("posterior mean groups: %.2f; chains: %d; converged: %s\n",
              d.mean_groups, hierarchy->num_chains,
              d.converged ? "yes"
                          : "no (increase --burn/--samples or --chains)");
  return 0;
}

int CmdTune(const CommandLine& cl) {
  if (int rc = RejectUnknownMcmcFlags(cl, {"data", "category"})) return rc;
  std::string prefix = cl.GetString("data", "");
  if (prefix.empty()) {
    std::fprintf(stderr, "tune: --data PREFIX is required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto category = CategoryFlag(cl);
  if (!category.ok()) return Fail(category.status());
  auto hierarchy = HierarchyFlags(cl);
  if (!hierarchy.ok()) return Fail(hierarchy.status());
  eval::TuningConfig config;
  config.base = *hierarchy;
  net::FeatureConfig features = *category == net::PipeCategory::kWasteWater
                                    ? net::FeatureConfig::WasteWater()
                                    : net::FeatureConfig::DrinkingWater();
  auto result = eval::TuneHierarchy(*dataset, data::TemporalSplit::Paper(),
                                    *category, features, config);
  if (!result.ok()) return Fail(result.status());
  std::printf("%8s %8s %12s\n", "c", "c0", "valid AUC");
  for (const auto& point : result->grid) {
    std::printf("%8.1f %8.1f %11.2f%%%s\n", point.c, point.c0,
                point.auc * 100.0,
                point.c == result->best.c && point.c0 == result->best.c0
                    ? "  <- best"
                    : "");
  }
  std::printf("use --burn/--samples with fit and c=%.1f for the final "
              "model\n", result->best.c);
  return 0;
}

int CmdPlan(const CommandLine& cl) {
  if (int rc = RejectUnknownFlags(cl, {"data", "scores", "category", "budget",
                                       "horizon", "out"})) {
    return rc;
  }
  std::string prefix = cl.GetString("data", "");
  std::string scores_path = cl.GetString("scores", "");
  if (prefix.empty() || scores_path.empty()) {
    std::fprintf(stderr, "plan: --data and --scores are required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto input = LoadInput(cl, *dataset);
  if (!input.ok()) return Fail(input.status());
  auto scores = LoadScores(scores_path, *input);
  if (!scores.ok()) return Fail(scores.status());

  eval::PlanningConfig config;
  auto budget = cl.GetDouble("budget", config.annual_budget);
  if (!budget.ok()) return Fail(budget.status());
  config.annual_budget = *budget;
  auto horizon = cl.GetInt32("horizon", config.horizon_years);
  if (!horizon.ok()) return Fail(horizon.status());
  config.horizon_years = *horizon;

  auto plan = eval::PlanRenewals(*input, *scores, config);
  if (!plan.ok()) return Fail(plan.status());
  std::printf("renewal plan: %zu actions over %d years, cost %.0f\n",
              plan->actions.size(), config.horizon_years, plan->total_cost);
  std::printf("expected failures: %.1f without -> %.1f with the plan\n",
              plan->expected_failures_without, plan->expected_failures_with);
  std::printf("net benefit: %.0f\n", plan->net_benefit);
  std::string out = cl.GetString("out", "");
  if (!out.empty()) {
    CsvDocument doc({"year_offset", "pipe_id", "cost",
                     "expected_failures_avoided"});
    for (const auto& a : plan->actions) {
      Status st = doc.AppendRow({std::to_string(a.year_offset),
                                 std::to_string(a.pipe_id),
                                 StrFormat("%.2f", a.cost),
                                 StrFormat("%.4f",
                                           a.expected_failures_avoided)});
      if (!st.ok()) return Fail(st);
    }
    if (Status st = doc.WriteFile(out); !st.ok()) return Fail(st);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

// --- serve / query ----------------------------------------------------------

/// Builds a serving snapshot from the on-disk artifact: re-reads the score
/// CSV and pairs it with the dataset's pipe ids and lengths. Runs at startup
/// (generation 1) and again for every `reload` verb, entirely off the
/// serving path.
Result<std::shared_ptr<const serve::ScoreSnapshot>> BuildServeSnapshot(
    const core::ModelInput& input, const std::string& scores_path,
    std::uint64_t generation, double unit_cost) {
  PIPERISK_ASSIGN_OR_RETURN(std::vector<double> scores,
                            LoadScores(scores_path, input));
  std::vector<std::uint64_t> ids(input.num_pipes());
  std::vector<double> lengths(input.num_pipes());
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    ids[i] = static_cast<std::uint64_t>(input.pipes[i]->id);
    lengths[i] = input.outcomes[i].length_m;
  }
  return serve::ScoreSnapshot::Build(std::move(ids), std::move(scores),
                                     std::move(lengths), generation,
                                     unit_cost);
}

// Publishes a bound port for scripts (write + rename so a poller never
// reads a half-written file).
Status PublishPort(const std::string& path, int port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) return Status::IoError("cannot write " + tmp);
    file << port << "\n";
    if (!file.good()) return Status::IoError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp);
  }
  return Status::OK();
}

// Everything after the snapshot is built: start, publish the port, wait.
// Shared by the in-memory and streaming serve paths.
int RunServeLoop(
    const CommandLine& cl,
    std::shared_ptr<const serve::ScoreSnapshot> initial,
    std::function<Result<std::shared_ptr<const serve::ScoreSnapshot>>(
        std::uint64_t)>
        reload_fn) {
  auto port = cl.GetInt32("port", 0);
  if (!port.ok()) return Fail(port.status());
  auto seed = cl.GetInt("seed", 42);
  if (!seed.ok()) return Fail(seed.status());
  const size_t num_pipes = initial->num_pipes();

  serve::ServerOptions options;
  options.host = cl.GetString("host", "127.0.0.1");
  options.port = *port;
  options.seed = static_cast<std::uint64_t>(*seed);
  options.git_describe = PIPERISK_GIT_DESCRIBE;
  options.reload_fn = std::move(reload_fn);

  auto server = serve::Server::Start(options, std::move(initial));
  if (!server.ok()) return Fail(server.status());
  std::printf("serving %zu pipes on %s:%d (generation 1)\n", num_pipes,
              options.host.c_str(), (*server)->port());
  std::fflush(stdout);

  std::string port_file = cl.GetString("port-file", "");
  if (!port_file.empty()) {
    if (Status st = PublishPort(port_file, (*server)->port()); !st.ok()) {
      return Fail(st);
    }
  }

  // Optional Prometheus scrape endpoint next to the binary protocol:
  // GET /metrics + GET /healthz on its own port. Purely observational.
  std::unique_ptr<serve::MetricsHttpServer> metrics_http;
  if (cl.Has("metrics-port")) {
    auto metrics_port = cl.GetInt32("metrics-port", 0);
    if (!metrics_port.ok()) return Fail(metrics_port.status());
    serve::MetricsHttpOptions metrics_options;
    metrics_options.host = options.host;
    metrics_options.port = *metrics_port;
    metrics_options.metadata.command = "serve";
    metrics_options.metadata.seed = options.seed;
    metrics_options.metadata.git_describe = PIPERISK_GIT_DESCRIBE;
    auto http = serve::MetricsHttpServer::Start(metrics_options);
    if (!http.ok()) return Fail(http.status());
    metrics_http = std::move(*http);
    std::printf("metrics on http://%s:%d/metrics\n", options.host.c_str(),
                metrics_http->port());
    std::fflush(stdout);
    std::string metrics_port_file = cl.GetString("metrics-port-file", "");
    if (!metrics_port_file.empty()) {
      if (Status st = PublishPort(metrics_port_file, metrics_http->port());
          !st.ok()) {
        return Fail(st);
      }
    }
  }

  (*server)->WaitUntilStopped();
  std::uint64_t last_generation = (*server)->generation();
  (*server)->Stop();
  std::printf("server stopped (last generation %llu)\n",
              static_cast<unsigned long long>(last_generation));
  return 0;
}

int CmdServeStreaming(const CommandLine& cl) {
  if (int rc = RejectUnknownFlags(
          cl, {"data-dir", "scores", "category", "shard-window", "unit-cost",
               "host", "port", "port-file", "seed", "metrics-port",
               "metrics-port-file"})) {
    return rc;
  }
  const std::string dir = cl.GetString("data-dir", "");
  const std::string scores_path = cl.GetString("scores", "");
  if (scores_path.empty()) {
    std::fprintf(stderr, "serve: --scores is required\n");
    return 2;
  }
  auto shards = data::ShardedDataset::Open(dir);
  if (!shards.ok()) return Fail(shards.status());
  auto category = CategoryFlag(cl);
  if (!category.ok()) return Fail(category.status());
  auto window = ShardWindowFlag(cl);
  if (!window.ok()) return Fail(window.status());
  auto unit_cost = cl.GetDouble(
      "unit-cost", eval::PlanningConfig().inspection_cost_per_m);
  if (!unit_cost.ok()) return Fail(unit_cost.status());

  // The builder owns its own copy of the (small) shard listing, so the
  // reload closure outlives this frame safely; every call re-streams the
  // shards and the scores file from disk.
  const auto build =
      [shards = std::move(*shards), category = *category, scores_path,
       window = *window, cost = *unit_cost](std::uint64_t generation)
      -> Result<std::shared_ptr<const serve::ScoreSnapshot>> {
    PIPERISK_ASSIGN_OR_RETURN(
        eval::StreamedScoredPipes streamed,
        eval::BuildStreamedScoredPipes(shards, category, scores_path,
                                       window));
    return serve::ScoreSnapshot::Build(
        std::move(streamed.ids), std::move(streamed.scores),
        std::move(streamed.lengths_m), generation, cost);
  };
  auto initial = build(1);
  if (!initial.ok()) return Fail(initial.status());
  return RunServeLoop(cl, std::move(*initial), build);
}

int CmdServe(const CommandLine& cl) {
  if (cl.Has("data-dir")) return CmdServeStreaming(cl);
  if (int rc = RejectUnknownFlags(
          cl, {"data", "scores", "category", "unit-cost", "host", "port",
               "port-file", "seed", "metrics-port", "metrics-port-file"})) {
    return rc;
  }
  std::string prefix = cl.GetString("data", "");
  std::string scores_path = cl.GetString("scores", "");
  if (prefix.empty() || scores_path.empty()) {
    std::fprintf(stderr, "serve: --data and --scores are required\n");
    return 2;
  }
  auto dataset = data::LoadRegionDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status());
  auto input = LoadInput(cl, *dataset);
  if (!input.ok()) return Fail(input.status());
  auto unit_cost = cl.GetDouble(
      "unit-cost", eval::PlanningConfig().inspection_cost_per_m);
  if (!unit_cost.ok()) return Fail(unit_cost.status());

  auto initial = BuildServeSnapshot(*input, scores_path, 1, *unit_cost);
  if (!initial.ok()) return Fail(initial.status());

  // `input` is owned by a shared_ptr captured in the reload closure, so it
  // stays alive for as long as the server can call reload.
  auto input_owned =
      std::make_shared<core::ModelInput>(std::move(*input));
  const double cost = *unit_cost;
  auto reload_fn =
      [input_owned, scores_path,
       cost](std::uint64_t next_generation)
      -> Result<std::shared_ptr<const serve::ScoreSnapshot>> {
    return BuildServeSnapshot(*input_owned, scores_path, next_generation,
                              cost);
  };
  return RunServeLoop(cl, std::move(*initial), std::move(reload_fn));
}

int CmdQuery(const CommandLine& cl) {
  if (int rc = RejectUnknownFlags(cl, {"port", "host", "verb", "pipe", "k",
                                       "budget", "mode", "value", "out"})) {
    return rc;
  }
  auto port = cl.GetInt32("port", 0);
  if (!port.ok()) return Fail(port.status());
  if (*port <= 0) {
    std::fprintf(stderr, "query: --port PORT is required\n");
    return 2;
  }
  std::string host = cl.GetString("host", "127.0.0.1");
  std::string verb = ToLowerAscii(cl.GetString("verb", ""));
  auto client = serve::Client::Connect(host, *port);
  if (!client.ok()) return Fail(client.status());

  if (verb == "ping") {
    if (Status st = client->Ping(); !st.ok()) return Fail(st);
    std::printf("pong\n");
    return 0;
  }
  if (verb == "score") {
    if (!cl.Has("pipe")) {
      std::fprintf(stderr, "query: score needs --pipe ID\n");
      return 2;
    }
    auto pipe = cl.GetInt("pipe", 0);
    if (!pipe.ok()) return Fail(pipe.status());
    auto r = client->Score(static_cast<std::uint64_t>(*pipe));
    if (!r.ok()) return Fail(r.status());
    std::printf("pipe %llu: score %.17g, rank %llu of %llu, "
                "percentile %.17g (generation %llu)\n",
                static_cast<unsigned long long>(*pipe), r->score,
                static_cast<unsigned long long>(r->rank),
                static_cast<unsigned long long>(r->num_pipes), r->percentile,
                static_cast<unsigned long long>(r->generation));
    return 0;
  }
  if (verb == "topk") {
    auto k = cl.GetInt("k", 10);
    if (!k.ok()) return Fail(k.status());
    std::optional<double> budget;
    if (cl.Has("budget")) {
      auto b = cl.GetDouble("budget", 0.0);
      if (!b.ok()) return Fail(b.status());
      budget = *b;
    }
    auto r = client->TopK(static_cast<std::uint32_t>(*k), budget);
    if (!r.ok()) return Fail(r.status());
    std::string out = cl.GetString("out", "");
    if (!out.empty()) {
      if (Status st = WriteTopKCsv(r->entries, out); !st.ok()) {
        return Fail(st);
      }
      std::printf("wrote %s (top %zu, generation %llu)\n", out.c_str(),
                  r->entries.size(),
                  static_cast<unsigned long long>(r->generation));
      return 0;
    }
    std::printf("top %zu (generation %llu)\n", r->entries.size(),
                static_cast<unsigned long long>(r->generation));
    for (size_t rank = 0; rank < r->entries.size(); ++rank) {
      std::printf("%6zu  pipe %-10llu score %.10g\n", rank,
                  static_cast<unsigned long long>(r->entries[rank].pipe_id),
                  r->entries[rank].score);
    }
    return 0;
  }
  if (verb == "whatif") {
    if (!cl.Has("pipe") || !cl.Has("value")) {
      std::fprintf(stderr,
                   "query: whatif needs --pipe ID and --value V "
                   "[--mode absolute|scale]\n");
      return 2;
    }
    auto pipe = cl.GetInt("pipe", 0);
    if (!pipe.ok()) return Fail(pipe.status());
    auto value = cl.GetDouble("value", 0.0);
    if (!value.ok()) return Fail(value.status());
    std::string mode_name = ToLowerAscii(cl.GetString("mode", "absolute"));
    serve::WhatIfMode mode;
    if (mode_name == "absolute") {
      mode = serve::WhatIfMode::kAbsolute;
    } else if (mode_name == "scale") {
      mode = serve::WhatIfMode::kScale;
    } else {
      std::fprintf(stderr, "query: unknown --mode '%s' (absolute|scale)\n",
                   mode_name.c_str());
      return 2;
    }
    auto r = client->WhatIf(static_cast<std::uint64_t>(*pipe), mode, *value);
    if (!r.ok()) return Fail(r.status());
    std::printf("pipe %llu of %llu (generation %llu)\n",
                static_cast<unsigned long long>(*pipe),
                static_cast<unsigned long long>(r->num_pipes),
                static_cast<unsigned long long>(r->generation));
    std::printf("  now:     score %.10g, rank %llu, percentile %.4f\n",
                r->old_score, static_cast<unsigned long long>(r->old_rank),
                r->old_percentile);
    std::printf("  what-if: score %.10g, rank %llu, percentile %.4f\n",
                r->new_score, static_cast<unsigned long long>(r->new_rank),
                r->new_percentile);
    return 0;
  }
  if (verb == "dump") {
    std::string out = cl.GetString("out", "");
    if (out.empty()) {
      std::fprintf(stderr, "query: dump needs --out FILE\n");
      return 2;
    }
    auto r = client->Dump();
    if (!r.ok()) return Fail(r.status());
    if (Status st = WritePerPipeCsv(r->entries, out); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote %s (%zu pipes, generation %llu)\n", out.c_str(),
                r->entries.size(),
                static_cast<unsigned long long>(r->generation));
    return 0;
  }
  if (verb == "metrics") {
    auto r = client->Metrics();
    if (!r.ok()) return Fail(r.status());
    std::string out = cl.GetString("out", "");
    if (out.empty()) {
      std::printf("%s", r->c_str());
      return 0;
    }
    std::ofstream file(out, std::ios::trunc);
    if (!file) return Fail(Status::IoError("cannot write " + out));
    file << *r;
    if (!file.good()) return Fail(Status::IoError("write failed: " + out));
    std::printf("wrote %s (%zu bytes)\n", out.c_str(), r->size());
    return 0;
  }
  if (verb == "reload") {
    auto r = client->Reload();
    if (!r.ok()) return Fail(r.status());
    std::printf("reloaded: generation %llu, %llu pipes\n",
                static_cast<unsigned long long>(r->generation),
                static_cast<unsigned long long>(r->num_pipes));
    return 0;
  }
  if (verb == "shutdown") {
    if (Status st = client->Shutdown(); !st.ok()) return Fail(st);
    std::printf("server acknowledged shutdown\n");
    return 0;
  }
  std::fprintf(stderr,
               "query: unknown --verb '%s' (ping|score|topk|whatif|dump|"
               "metrics|reload|shutdown)\n",
               verb.c_str());
  return 2;
}

int Dispatch(const CommandLine& cl) {
  const std::string& command = cl.command();
  if (command == "generate") return CmdGenerate(cl);
  if (command == "convert") return CmdConvert(cl);
  if (command == "fit") return CmdFit(cl);
  if (command == "evaluate") return CmdEvaluate(cl);
  if (command == "serve") return CmdServe(cl);
  if (command == "query") return CmdQuery(cl);
  if (command == "compare") return CmdCompare(cl);
  if (command == "rolling") return CmdRolling(cl);
  if (command == "riskmap") return CmdRiskmap(cl);
  if (command == "diagnose") return CmdDiagnose(cl);
  if (command == "tune") return CmdTune(cl);
  if (command == "plan") return CmdPlan(cl);
  if (command == "top") {
    if (int rc = RejectUnknownFlags(
            cl, {"metrics-port", "metrics-host", "heartbeat", "interval",
                 "iterations", "plain"})) {
      return rc;
    }
    return tools::CmdTop(cl);
  }
  return Usage();
}

/// Writes the metrics-JSON snapshot after the command ran. Reproducibility
/// metadata comes from the same flags the samplers read, so the export can
/// be traced back to the exact run that produced it.
int WriteMetricsFile(const CommandLine& cl, const std::string& path) {
  telemetry::RunMetadata meta;
  meta.command = cl.command();
  auto seed = cl.GetInt("seed", 42);
  if (!seed.ok()) return Fail(seed.status());
  meta.seed = static_cast<std::uint64_t>(*seed);
  auto chains = cl.GetInt32("chains", 1);
  if (!chains.ok()) return Fail(chains.status());
  meta.chains = *chains;
  auto threads = cl.GetInt32("threads", 0);
  if (!threads.ok()) return Fail(threads.status());
  meta.threads = *threads;
  meta.git_describe = PIPERISK_GIT_DESCRIBE;
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Fail(Status::IoError("cannot write " + path));
  telemetry::WriteMetricsJson(telemetry::Registry::Global().Snapshot(), meta,
                              file);
  return file.good() ? 0 : Fail(Status::IoError("write failed: " + path));
}

int WriteTraceFile(const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Fail(Status::IoError("cannot write " + path));
  telemetry::WriteTraceJson(file);
  return file.good() ? 0 : Fail(Status::IoError("write failed: " + path));
}

/// Scope guard for the --metrics-out / --trace-out exports: constructed
/// before dispatch, flushed on every way out of it — normal return, error
/// return, or an exception unwinding past Run. A failed command still leaves
/// its telemetry snapshot behind, which is exactly when it is most wanted.
class ScopedExporters {
 public:
  explicit ScopedExporters(const CommandLine& cl)
      : cl_(cl),
        metrics_out_(cl.GetString("metrics-out", "")),
        trace_out_(cl.GetString("trace-out", "")) {
    if (!trace_out_.empty()) telemetry::StartTracing();
  }

  ScopedExporters(const ScopedExporters&) = delete;
  ScopedExporters& operator=(const ScopedExporters&) = delete;

  ~ScopedExporters() { Flush(); }

  /// Writes both files (once); returns 0 or the first failing writer's exit
  /// code. The destructor re-runs this only if nobody called it, so the
  /// export happens even when dispatch throws.
  int Flush() {
    if (flushed_) return 0;
    flushed_ = true;
    int rc = 0;
    if (!trace_out_.empty()) {
      telemetry::StopTracing();
      rc = WriteTraceFile(trace_out_);
    }
    if (!metrics_out_.empty()) {
      if (int mrc = WriteMetricsFile(cl_, metrics_out_); mrc != 0 && rc == 0) {
        rc = mrc;
      }
    }
    return rc;
  }

 private:
  const CommandLine& cl_;
  const std::string metrics_out_;
  const std::string trace_out_;
  bool flushed_ = false;
};

int Run(int argc, char** argv) {
  auto cl = CommandLine::Parse(argc - 1, argv + 1);
  if (!cl.ok()) return Fail(cl.status());
  if (cl->Has("log-level")) {
    const std::string name = cl->GetString("log-level", "info");
    LogLevel level;
    if (!ParseLogLevel(name, &level)) {
      std::fprintf(stderr,
                   "error: unknown --log-level '%s' "
                   "(debug|info|warning|error|fatal)\n",
                   name.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  ScopedExporters exporters(*cl);
  int exit_code;
  try {
    telemetry::ScopedSpan command_span("cli.command");
    exit_code = Dispatch(*cl);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: unhandled exception: %s\n", e.what());
    exit_code = 1;
  }
  if (int rc = exporters.Flush(); rc != 0 && exit_code == 0) {
    exit_code = rc;
  }
  return exit_code;
}

}  // namespace
}  // namespace piperisk

int main(int argc, char** argv) { return piperisk::Run(argc, argv); }
