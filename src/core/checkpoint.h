#ifndef PIPERISK_CORE_CHECKPOINT_H_
#define PIPERISK_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "stats/rng.h"

namespace piperisk {
namespace core {

/// Crash-safe checkpoint/resume for the Metropolis-within-Gibbs samplers.
///
/// A checkpoint captures the complete state of ONE chain at a sweep
/// boundary: the sampler's mutable parameters, the accumulated post-burn-in
/// draws, the per-group step-size adapters, and the chain's raw PCG stream.
/// Because every sweep is a deterministic function of (state, rng), a fit
/// restored from a checkpoint and run to completion produces draws — and
/// therefore pooled scores — bit-identical to an uninterrupted run. Doubles
/// are serialised as their IEEE-754 bit patterns, never through decimal
/// round-trips, to keep that guarantee exact.
///
/// Snapshots are written atomically (write temp file in the same directory,
/// then rename), so a crash mid-write can never leave a truncated
/// checkpoint behind: the previous complete snapshot survives. Files carry
/// a format version, a config/seed fingerprint, and a checksum; loading
/// validates all three.

/// User-facing checkpoint settings, embedded in HierarchyConfig so they
/// flow to both MCMC samplers (and through compare/tune) unchanged.
struct CheckpointConfig {
  /// Directory for snapshot files; empty disables persistence. In-memory
  /// snapshots for chain-failure retry are still kept when `every > 0`.
  std::string dir;
  /// Sweeps between snapshots (a final snapshot is always written when a
  /// chain completes). <= 0 disables checkpointing entirely.
  int every = 25;
  /// Restore chains from existing snapshots in `dir` before running.
  /// Chains without a snapshot start fresh; snapshots whose fingerprint
  /// does not match the current config/seed are rejected with a
  /// descriptive Status.
  bool resume = false;
  /// File-name stem (files are `<tag>.chain<K>.ckpt`). Empty: the model
  /// derives a stable tag from its name, e.g. "dpmhbp" / "hbp_material".
  std::string tag;
  /// How many times a throwing chain is re-run from its last snapshot (or
  /// from scratch when none exists yet) before the run degrades to the
  /// surviving chains.
  int max_chain_retries = 2;
  /// Fault-injection test hook: chain `fail_chain` throws once after
  /// completing this many sweeps (< 0: disabled).
  int fail_chain_after_sweeps = -1;
  int fail_chain = 0;
  /// Crash-simulation test hook: every chain stops cleanly once it has
  /// completed this many sweeps and the run returns an error, leaving the
  /// snapshots on disk exactly as a kill -9 would (< 0: disabled).
  int halt_after_sweeps = -1;
};

/// Serialisable state of one StepSizeAdapter (the Robbins–Monro target is
/// config-derived and not part of the state).
struct AdapterCheckpoint {
  double step = 0.0;
  long long proposals = 0;
  long long accepts = 0;
};

/// Full state of one sampler chain at a sweep boundary. The runner fills
/// the bookkeeping fields (chain, sweeps, fingerprint, rng); the model's
/// capture callback fills whichever payload sections it uses — unused
/// sections stay empty and round-trip as such.
struct ChainCheckpoint {
  int chain = 0;
  int next_sweep = 0;    ///< sweeps completed; the first sweep still to run
  int total_sweeps = 0;
  std::uint64_t fingerprint = 0;
  stats::RngState rng;

  // --- sampler state -------------------------------------------------------
  double alpha = 0.0;                        ///< DPMHBP concentration
  std::vector<int> labels;                   ///< DPMHBP segment -> group slot
  std::vector<double> group_q;               ///< rate per group slot
  std::vector<long long> group_count;        ///< members per slot (DPMHBP)
  std::vector<AdapterCheckpoint> adapters;   ///< per group slot

  // --- accumulated post-burn-in draws --------------------------------------
  std::vector<double> prob_sum;                   ///< DPMHBP segment sums
  std::vector<int> k_trace;
  std::vector<double> alpha_trace;
  std::vector<double> qmax_trace;
  std::vector<std::vector<double>> group_traces;  ///< HBP q [group][draw]
  long long collected = 0;
  std::uint64_t proposals = 0;
  std::uint64_t accepts = 0;
};

/// FNV-1a accumulator for config/seed fingerprints. Doubles are hashed by
/// bit pattern, so any change that could alter the draws changes the digest.
class Fingerprint {
 public:
  Fingerprint& Add(std::string_view text);
  /// String literals must hash as text: without this overload, a
  /// `const char*` argument would prefer the pointer->bool standard
  /// conversion over the user-defined conversion to string_view, and every
  /// literal would silently hash as `true`.
  Fingerprint& Add(const char* text) { return Add(std::string_view(text)); }
  Fingerprint& Add(std::uint64_t value);
  Fingerprint& Add(long long value) {
    return Add(static_cast<std::uint64_t>(value));
  }
  Fingerprint& Add(int value) { return Add(static_cast<std::uint64_t>(value)); }
  Fingerprint& Add(bool value) { return Add(std::uint64_t{value ? 1u : 0u}); }
  Fingerprint& Add(double value);

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

/// Snapshot path of one chain: `<dir>/<tag>.chain<K>.ckpt`.
std::string ChainCheckpointPath(const std::string& dir, const std::string& tag,
                                int chain);

/// Serialises the checkpoint to `path` atomically: the bytes are written to
/// `<path>.tmp` and renamed over `path` only when complete, so readers (and
/// crashes) only ever observe complete snapshots. Records write latency and
/// counters in the telemetry registry.
Status SaveChainCheckpoint(const ChainCheckpoint& checkpoint,
                           const std::string& path);

/// Loads and validates a snapshot (magic, format version, checksum,
/// structural sanity). Fingerprint/shape validation against the *current*
/// run is the caller's job — the loader only guarantees the bytes decode to
/// exactly what was saved.
Result<ChainCheckpoint> LoadChainCheckpoint(const std::string& path);

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_CHECKPOINT_H_
