#ifndef PIPERISK_CORE_CHAIN_RUNNER_H_
#define PIPERISK_CORE_CHAIN_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/telemetry.h"
#include "core/checkpoint.h"
#include "core/heartbeat.h"
#include "stats/rng.h"

namespace piperisk {
namespace core {

/// Multi-chain execution engine for the Metropolis-within-Gibbs samplers.
///
/// Runs K independent chains on the process-wide common::ThreadPool (one
/// block per chain; see common/thread_pool.h). Reproducibility
/// contract: the per-chain RNG streams are derived *before* any thread starts
/// (chain 0 keeps the historical single-chain stream bit-for-bit; chains
/// 1..K-1 are forked from a deterministic spawner), and each chain writes
/// only to its own pre-allocated result slot. Pooled results therefore depend
/// only on (seed, stream, num_chains) — never on the thread count or on OS
/// scheduling.

/// Resolves a requested thread count: values <= 0 mean "use the hardware",
/// and the result is always clamped to [1, num_chains].
int ResolveThreadCount(int num_threads, int num_chains);

/// Builds one generator per chain. Chain 0 is exactly Rng(seed, stream) — so
/// a single-chain run reproduces the historical samplers bit-for-bit — and
/// later chains are Fork()ed sequentially from a spawner keyed on
/// (seed, ~stream), giving statistically independent streams that are fixed
/// before any parallel work begins.
std::vector<stats::Rng> MakeChainRngs(std::uint64_t seed, std::uint64_t stream,
                                      int num_chains);

/// Runs `body(chain_index, &rng)` once per chain on at most `num_threads`
/// worker threads (callers pass the user-facing setting; it is resolved via
/// ResolveThreadCount). Blocks until every chain finished. The body must
/// confine its writes to per-chain state — the runner provides no locking.
///
/// Precondition: num_chains >= 1.
void RunChains(int num_chains, int num_threads, std::uint64_t seed,
               std::uint64_t stream,
               const std::function<void(int chain, stats::Rng* rng)>& body);

/// The per-sweep progress counter of one chain ("mcmc.chain.<c>.sweeps").
/// Samplers resolve it once per chain and bump it every sweep, so a metrics
/// snapshot taken mid-fit shows how far each chain has progressed.
telemetry::Counter* ChainSweepCounter(int chain);

/// ---------------------------------------------------------------------------
/// Checkpointed execution
/// ---------------------------------------------------------------------------
///
/// RunCheckpointedChains drives chains at sweep granularity instead of
/// handing each chain a whole-run body. The model supplies four callbacks
/// (a ChainProgram); the runner owns the loop, the per-chain RNG, periodic
/// snapshots, resume, and failure isolation. Determinism carries over from
/// RunChains: the runner consumes no chain RNG draws itself, so a resumed
/// run replays the exact draw sequence of an uninterrupted one.

/// Everything RunCheckpointedChains needs to know about the run.
struct ChainRunnerOptions {
  int num_chains = 1;
  int num_threads = 0;           ///< <= 0: use the hardware
  std::uint64_t seed = 0;
  std::uint64_t stream = 0;      ///< chain-0 stream constant of the sampler
  int total_sweeps = 0;          ///< burn-in + retained sweeps
  /// Digest of every config field that can influence the draws. Stored in
  /// each snapshot and required to match on resume.
  std::uint64_t fingerprint = 0;
  CheckpointConfig checkpoint;
  /// Live progress file written by a runner-owned background thread (empty
  /// path: off). Observational only — never fingerprinted, never touches
  /// chain RNGs, so heartbeat-enabled runs stay draw-identical.
  HeartbeatConfig heartbeat;
};

/// Sweep-granular callbacks for one model. All four are invoked for a single
/// chain at a time and must confine writes to that chain's state; distinct
/// chains run concurrently.
struct ChainProgram {
  /// Builds fresh chain state (initial labels/rates/accumulators).
  std::function<void(int chain)> init;
  /// Advances chain state by exactly one sweep, drawing only from `rng`.
  std::function<void(int chain, int sweep, stats::Rng* rng)> sweep;
  /// Copies the chain's sampler state and accumulated draws into `out`
  /// (bookkeeping fields — chain/sweeps/fingerprint/rng — are the runner's).
  std::function<void(int chain, ChainCheckpoint* out)> capture;
  /// Overwrites the chain's state from a snapshot, replacing whatever the
  /// chain held before (after a failure that state may be mid-sweep
  /// garbage). Returns non-OK if the snapshot's shape does not fit the
  /// current data, which aborts the run.
  std::function<Status(int chain, const ChainCheckpoint& in)> restore;
  /// Optional: the monitored scalar draw of the sweep just finished (a
  /// label-switching-invariant quantity like q_max), feeding the heartbeat's
  /// live split-R̂. Return false when the sweep produced no draw (burn-in).
  std::function<bool(int chain, int sweep, double* value)> monitor;
  /// Optional: cumulative Metropolis proposal/accept totals of one chain,
  /// polled by the runner after each sweep for the heartbeat's acceptance
  /// trend.
  std::function<void(int chain, std::int64_t* proposals,
                     std::int64_t* accepted)>
      acceptance;
};

/// What happened during a checkpointed run. `failed_chains` lists chains
/// that exhausted their retries — their state is undefined and callers must
/// exclude them from pooling. The run only fails outright when every chain
/// failed (or resume/halt demanded it).
struct ChainRunReport {
  std::vector<int> failed_chains;
  int chains_resumed = 0;
  int checkpoints_written = 0;
  int chain_retries = 0;
};

/// Runs `total_sweeps` sweeps of every chain with periodic checkpointing,
/// resume, and per-chain failure isolation:
///
///   - Snapshots are taken every `checkpoint.every` sweeps and at chain
///     completion, persisted atomically under `checkpoint.dir` when set, and
///     always kept in memory for retries. The directory (and its parents) is
///     created before any chain starts; IoError when that fails.
///   - With `checkpoint.resume`, chains restart from their on-disk snapshot;
///     a fingerprint/shape mismatch aborts with a descriptive error, a
///     missing file simply starts that chain fresh, and a fully-completed
///     snapshot fast-forwards the chain without re-running sweeps.
///   - A chain whose sweep throws is retried from its last snapshot (or from
///     scratch) up to `checkpoint.max_chain_retries` times, then the run
///     degrades to the surviving chains with a warning instead of aborting.
///
/// Preconditions: num_chains >= 1 and program.sweep/init/capture/restore set.
Result<ChainRunReport> RunCheckpointedChains(const ChainRunnerOptions& options,
                                             const ChainProgram& program);

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_CHAIN_RUNNER_H_
