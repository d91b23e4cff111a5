#include "core/chain_runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace piperisk {
namespace core {

int ResolveThreadCount(int num_threads, int num_chains) {
  if (num_chains < 1) num_chains = 1;
  int threads = num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  return std::clamp(threads, 1, num_chains);
}

std::vector<stats::Rng> MakeChainRngs(std::uint64_t seed, std::uint64_t stream,
                                      int num_chains) {
  std::vector<stats::Rng> rngs;
  rngs.reserve(static_cast<size_t>(std::max(num_chains, 1)));
  rngs.emplace_back(seed, stream);
  // The spawner lives on a stream distinct from every chain-0 stream (PCG
  // increments only use the low 63 bits of `stream`, so flipping them cannot
  // collide with `stream` itself).
  stats::Rng spawner(seed, ~stream);
  for (int c = 1; c < num_chains; ++c) rngs.push_back(spawner.Fork());
  return rngs;
}

void RunChains(int num_chains, int num_threads, std::uint64_t seed,
               std::uint64_t stream,
               const std::function<void(int chain, stats::Rng* rng)>& body) {
  if (num_chains < 1) return;
  std::vector<stats::Rng> rngs = MakeChainRngs(seed, stream, num_chains);
  const int threads = ResolveThreadCount(num_threads, num_chains);
  // Chain telemetry: wall time per chain plus run/chain counters. All of it
  // happens outside the RNG streams fixed above, so instrumented runs are
  // draw-identical.
  auto& registry = telemetry::Registry::Global();
  static telemetry::Counter* const runs =
      registry.GetCounter("mcmc.chain_runs");
  static telemetry::Counter* const chains_completed =
      registry.GetCounter("mcmc.chains_completed");
  static telemetry::Histogram* const chain_wall_us = registry.GetHistogram(
      "mcmc.chain_wall_us", telemetry::DefaultTimeBucketsUs());
  runs->Increment();
  telemetry::ScopedSpan run_span("mcmc.run_chains");
  // One block per chain on the shared pool: every chain owns its RNG and its
  // result slot, so the schedule never leaks into the draws.
  ThreadPool::Shared().ParallelFor(num_chains, threads, [&](int c) {
    telemetry::ScopedTimer timer(chain_wall_us, "mcmc.chain");
    body(c, &rngs[static_cast<size_t>(c)]);
    chains_completed->Increment();
  });
}

telemetry::Counter* ChainSweepCounter(int chain) {
  return telemetry::Registry::Global().GetCounter(
      StrFormat("mcmc.chain.%d.sweeps", chain));
}

namespace {

/// Per-chain outcome slot: each worker writes only its own entry, so the
/// parallel section needs no locking (same contract as the draw slots).
struct ChainOutcome {
  bool failed = false;
  bool resumed = false;
  bool halted = false;
  int retries = 0;
  int checkpoints = 0;
  Status fatal = Status::OK();  ///< restore rejected the snapshot: abort run
};

}  // namespace

Result<ChainRunReport> RunCheckpointedChains(const ChainRunnerOptions& options,
                                             const ChainProgram& program) {
  if (options.num_chains < 1) {
    return Status::InvalidArgument("num_chains must be >= 1");
  }
  if (options.total_sweeps < 0) {
    return Status::InvalidArgument("total_sweeps must be >= 0");
  }
  if (!program.init || !program.sweep || !program.capture || !program.restore) {
    return Status::InvalidArgument(
        "ChainProgram requires init, sweep, capture and restore callbacks");
  }
  const CheckpointConfig& ck = options.checkpoint;
  if (ck.resume && ck.dir.empty()) {
    return Status::FailedPrecondition(
        "resume requested but no checkpoint directory is set");
  }
  // Mid-run snapshot writes are best-effort, so a missing directory would
  // let the run finish having persisted nothing.
  if (!ck.dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(ck.dir, error);
    if (error) {
      return Status::IoError("cannot create checkpoint directory " + ck.dir +
                             ": " + error.message());
    }
  }

  const int num_chains = options.num_chains;
  std::vector<stats::Rng> rngs =
      MakeChainRngs(options.seed, options.stream, num_chains);

  // Resume points are loaded serially before any parallel work so that a
  // stale or foreign snapshot aborts the whole run with one clear error
  // instead of a per-chain race.
  std::vector<std::optional<ChainCheckpoint>> resume_points(
      static_cast<size_t>(num_chains));
  if (ck.resume) {
    for (int c = 0; c < num_chains; ++c) {
      const std::string path = ChainCheckpointPath(ck.dir, ck.tag, c);
      if (!std::ifstream(path).good()) continue;  // no snapshot: fresh start
      PIPERISK_ASSIGN_OR_RETURN(ChainCheckpoint loaded,
                                LoadChainCheckpoint(path));
      if (loaded.fingerprint != options.fingerprint) {
        return Status::FailedPrecondition(StrFormat(
            "cannot resume from %s: config/seed fingerprint mismatch "
            "(snapshot %016llx vs current run %016llx) — the checkpoint was "
            "written by a run with different settings; delete it or rerun "
            "with the original configuration",
            path.c_str(),
            static_cast<unsigned long long>(loaded.fingerprint),
            static_cast<unsigned long long>(options.fingerprint)));
      }
      if (loaded.chain != c || loaded.total_sweeps != options.total_sweeps) {
        return Status::FailedPrecondition(StrFormat(
            "cannot resume from %s: snapshot is for chain %d of %d sweeps, "
            "current run wants chain %d of %d sweeps",
            path.c_str(), loaded.chain, loaded.total_sweeps, c,
            options.total_sweeps));
      }
      resume_points[static_cast<size_t>(c)] = std::move(loaded);
    }
  }

  auto& registry = telemetry::Registry::Global();
  static telemetry::Counter* const runs =
      registry.GetCounter("mcmc.chain_runs");
  static telemetry::Counter* const chains_completed =
      registry.GetCounter("mcmc.chains_completed");
  static telemetry::Histogram* const chain_wall_us = registry.GetHistogram(
      "mcmc.chain_wall_us", telemetry::DefaultTimeBucketsUs());
  static telemetry::Counter* const retry_count =
      registry.GetCounter("checkpoint.chain_retries");
  static telemetry::Counter* const failed_count =
      registry.GetCounter("checkpoint.chains_failed");
  static telemetry::Counter* const resumed_count =
      registry.GetCounter("checkpoint.chains_resumed");
  runs->Increment();
  telemetry::ScopedSpan run_span("mcmc.run_chains");

  // Heartbeats are pure observers: recorded outside every RNG stream and
  // written by a dedicated thread, so enabling them cannot move a draw.
  HeartbeatMonitor heartbeat(options.heartbeat, num_chains,
                             options.total_sweeps);
  heartbeat.SetPhase("sweep");
  heartbeat.Start();

  std::vector<ChainOutcome> outcomes(static_cast<size_t>(num_chains));
  const int threads = ResolveThreadCount(options.num_threads, num_chains);
  ThreadPool::Shared().ParallelFor(num_chains, threads, [&](int c) {
    telemetry::ScopedTimer timer(chain_wall_us, "mcmc.chain");
    ChainOutcome& out = outcomes[static_cast<size_t>(c)];
    // The pristine stream is kept so a retry with no snapshot can restart
    // the chain from scratch and still land on the canonical draw sequence.
    const stats::Rng initial_rng = rngs[static_cast<size_t>(c)];
    std::optional<ChainCheckpoint> last =
        std::move(resume_points[static_cast<size_t>(c)]);
    out.resumed = last.has_value();
    // The injected fault fires at most once across all attempts — otherwise
    // every retry would re-fail and the hook could never prove recovery.
    bool fault_pending = ck.fail_chain_after_sweeps >= 0 && ck.fail_chain == c;
    const int max_attempts = std::max(0, ck.max_chain_retries) + 1;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      try {
        stats::Rng rng = initial_rng;
        int done = 0;
        if (last.has_value()) {
          Status restored = program.restore(c, *last);
          if (!restored.ok()) {
            out.fatal = restored;
            out.failed = true;
            return;
          }
          rng = stats::Rng::FromState(last->rng);
          done = last->next_sweep;
          // Draws recorded before the snapshot point were captured by the
          // model's restore; the heartbeat trace restarts from here (live
          // R̂ then covers post-resume draws only).
          heartbeat.ResetChain(c, done, 0);
        } else {
          program.init(c);
          heartbeat.ResetChain(c, 0, 0);
        }
        while (done < options.total_sweeps) {
          program.sweep(c, done, &rng);
          ++done;
          heartbeat.ReportSweep(c, done);
          if (program.monitor) {
            double value = 0.0;
            if (program.monitor(c, done - 1, &value)) {
              heartbeat.ReportDraw(c, value);
            }
          }
          if (program.acceptance) {
            std::int64_t proposals = 0, accepted = 0;
            program.acceptance(c, &proposals, &accepted);
            heartbeat.ReportAcceptance(c, proposals, accepted);
          }
          if (fault_pending && done >= ck.fail_chain_after_sweeps) {
            fault_pending = false;
            throw std::runtime_error(StrFormat(
                "injected fault in chain %d after %d sweeps", c, done));
          }
          if (ck.every > 0 &&
              (done % ck.every == 0 || done == options.total_sweeps)) {
            ChainCheckpoint snap;
            program.capture(c, &snap);
            snap.chain = c;
            snap.next_sweep = done;
            snap.total_sweeps = options.total_sweeps;
            snap.fingerprint = options.fingerprint;
            snap.rng = rng.SaveState();
            if (!ck.dir.empty()) {
              Status saved = SaveChainCheckpoint(
                  snap, ChainCheckpointPath(ck.dir, ck.tag, c));
              if (!saved.ok()) {
                // Persistence is best-effort mid-run: the in-memory snapshot
                // still covers retries, so keep sampling.
                PIPERISK_LOG(kWarning)
                    << "chain " << c
                    << ": checkpoint write failed: " << saved.message();
              }
            }
            last = std::move(snap);
            ++out.checkpoints;
          }
          if (ck.halt_after_sweeps >= 0 && done >= ck.halt_after_sweeps &&
              done < options.total_sweeps) {
            out.halted = true;
            return;
          }
        }
        return;  // chain completed
      } catch (const std::exception& e) {
        ++out.retries;
        retry_count->Increment();
        const bool will_retry = attempt + 1 < max_attempts;
        PIPERISK_LOG(kWarning)
            << "chain " << c << " failed: " << e.what() << "; "
            << (will_retry
                    ? (last.has_value()
                           ? StrFormat("retrying from sweep %d checkpoint",
                                       last->next_sweep)
                           : std::string("retrying from scratch"))
                    : std::string("retries exhausted"));
      }
    }
    out.failed = true;
    heartbeat.ReportChainFailed(c);
  });
  heartbeat.SetPhase("done");
  heartbeat.Stop();

  ChainRunReport report;
  bool halted = false;
  for (int c = 0; c < num_chains; ++c) {
    const ChainOutcome& out = outcomes[static_cast<size_t>(c)];
    if (!out.fatal.ok()) return out.fatal;
    report.checkpoints_written += out.checkpoints;
    report.chain_retries += out.retries;
    if (out.halted) halted = true;
    if (out.failed) {
      report.failed_chains.push_back(c);
      failed_count->Increment();
      continue;
    }
    if (out.resumed) {
      ++report.chains_resumed;
      resumed_count->Increment();
    }
    if (!out.halted) chains_completed->Increment();
  }
  if (halted) {
    return Status::Internal(StrFormat(
        "run halted by checkpoint halt hook after %d sweeps (simulated crash; "
        "snapshots for completed intervals remain on disk)",
        ck.halt_after_sweeps));
  }
  if (static_cast<int>(report.failed_chains.size()) == num_chains) {
    return Status::Internal(StrFormat(
        "all %d chains failed after %d retries each; last resort checkpoints "
        "(if any) remain in the checkpoint directory",
        num_chains, std::max(0, ck.max_chain_retries)));
  }
  if (!report.failed_chains.empty()) {
    PIPERISK_LOG(kWarning) << report.failed_chains.size() << " of "
                           << num_chains
                           << " chains failed permanently; pooling the "
                              "surviving chains only";
  }
  return report;
}

}  // namespace core
}  // namespace piperisk
