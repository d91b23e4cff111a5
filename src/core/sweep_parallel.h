#ifndef PIPERISK_CORE_SWEEP_PARALLEL_H_
#define PIPERISK_CORE_SWEEP_PARALLEL_H_

#include <cstdint>
#include <vector>

#include "common/telemetry.h"
#include "stats/rng.h"

namespace piperisk {
namespace core {

/// Within-chain sweep partitioning support (see DESIGN.md "Within-chain
/// parallelism & SIMD").
///
/// Deterministic mode: the sweep's RNG draws all happen on a serial
/// coordinator in canonical order; only pure (RNG-free) work — likelihood
/// column refreshes, the CRP pass's auxiliary-table weights and Metropolis
/// log-target evaluations — fans out over the shared thread pool, and
/// results are merged back in canonical order with the exact serial
/// arithmetic. The CRP pass pipelines its serial draw and assign stages
/// over row chunks. Output is bit-identical at every sweep_threads setting.
///
/// Fast mode: CRP reassignment is sharded over contiguous row blocks, each
/// shard sampling against start-of-sweep state with its own pre-forked RNG
/// sub-stream; assignments are applied in shard order afterwards. Output is
/// deterministic for a fixed (seed, sweep_threads) but not bit-identical to
/// the serial sweep.

/// Resolves a HierarchyConfig::sweep_threads setting to a concrete thread
/// count: <= 0 means "whole machine" (shared pool workers + the caller),
/// otherwise the setting itself.
int ResolveSweepThreads(int sweep_threads);

/// Pre-forks one RNG sub-stream per shard from the chain RNG. Consumes
/// exactly `shards` Fork() calls from `chain_rng`, in shard order, so the
/// fork layout is fixed up front and independent of execution order.
std::vector<stats::Rng> ForkShardRngs(stats::Rng* chain_rng, int shards);

/// core.sweep.* telemetry, eagerly registered (like the thread pool's) so
/// fully serial runs still export a stable metrics schema.
struct SweepMetrics {
  telemetry::Counter* parallel_sweeps;    ///< sweeps that used partitioning
  telemetry::Counter* serial_sweeps;      ///< sweeps on the serial path
  telemetry::Counter* column_refreshes;   ///< stale columns refreshed in the
                                          ///< parallel prefetch
  telemetry::Counter* predrawn_proposals; ///< Metropolis proposals pre-drawn
                                          ///< by the serial coordinator
  telemetry::Counter* fast_shards;        ///< CRP shards run in fast mode

  static const SweepMetrics& Get();
};

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_SWEEP_PARALLEL_H_
