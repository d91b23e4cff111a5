#include "core/sweep_parallel.h"

#include "common/thread_pool.h"

namespace piperisk {
namespace core {

int ResolveSweepThreads(int sweep_threads) {
  if (sweep_threads > 0) return sweep_threads;
  return ThreadPool::Shared().num_workers() + 1;
}

const SweepMetrics& SweepMetrics::Get() {
  static const SweepMetrics metrics = [] {
    auto& registry = telemetry::Registry::Global();
    SweepMetrics m;
    m.parallel_sweeps = registry.GetCounter("core.sweep.parallel_sweeps");
    m.serial_sweeps = registry.GetCounter("core.sweep.serial_sweeps");
    m.column_refreshes = registry.GetCounter("core.sweep.column_refreshes");
    return m;
  }();
  return metrics;
}

namespace {
/// Forces registration in any binary linking the core library, so snapshot
/// consumers can rely on the core.sweep.* keys existing even for runs that
/// never enter a sampler.
[[maybe_unused]] const SweepMetrics& g_eager_sweep_metrics =
    SweepMetrics::Get();
}  // namespace

}  // namespace core
}  // namespace piperisk
