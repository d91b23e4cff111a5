#ifndef PIPERISK_CORE_SWEEP_PARALLEL_H_
#define PIPERISK_CORE_SWEEP_PARALLEL_H_

#include "common/telemetry.h"

namespace piperisk {
namespace core {

/// Within-chain sweep partitioning support (see DESIGN.md "Within-chain
/// parallelism").
///
/// The sweep's RNG draws all happen on a serial coordinator in canonical
/// order; only pure (RNG-free) work — likelihood column refreshes, the CRP
/// pass's auxiliary-table weights and Metropolis log-target evaluations —
/// fans out over the shared thread pool, and results are merged back in
/// canonical order with the exact serial arithmetic. The CRP pass pipelines
/// its serial draw and assign stages over row chunks. Output is
/// bit-identical at every sweep_threads setting.

/// Resolves a HierarchyConfig::sweep_threads setting to a concrete thread
/// count: <= 0 means "whole machine" (shared pool workers + the caller),
/// otherwise the setting itself.
int ResolveSweepThreads(int sweep_threads);

/// core.sweep.* telemetry, eagerly registered (like the thread pool's) so
/// fully serial runs still export a stable metrics schema.
struct SweepMetrics {
  telemetry::Counter* parallel_sweeps;    ///< sweeps that used partitioning
  telemetry::Counter* serial_sweeps;      ///< sweeps on the serial path
  telemetry::Counter* column_refreshes;   ///< stale columns refreshed in a
                                          ///< prefetch

  static const SweepMetrics& Get();
};

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_SWEEP_PARALLEL_H_
