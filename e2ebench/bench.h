#ifndef E2EBENCH_BENCH_H_
#define E2EBENCH_BENCH_H_

// Shared plumbing of the end-to-end benchmark: run options, the metric
// sink, correctness gates, process resource probes, registry deltas, the
// benchmark's own span tree and the live stderr ticker. The workloads live
// in compare_a.cc, stream_1m.cc and serve_1m.cc; main.cc explains why each
// exists and which end-to-end metric each layer metric should move.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.h"

namespace piperisk {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// num / den, or 0 when nothing was attempted.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Scratch directory for generated inputs (created and removed by the
  /// caller).
  std::string work_dir;
  int nproc = 1;
};

/// A broken correctness gate. Thrown instead of exiting so that servers
/// and threads unwind; main turns it into a non-zero exit with no result.
class GateFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws GateFailure(what) unless `ok`.
void Gate(bool ok, const std::string& what);

/// Bitwise equality of doubles (NaN equals NaN, -0 differs from +0).
bool SameBits(double a, double b);

/// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// What one run reports: the operation tally and its metrics.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  Metrics metrics;
};

// --- process probes ---------------------------------------------------------

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// PeakRssMb() reads the peak of what ran in between.
void ResetPeakRss();
/// Peak resident set size since the last ResetPeakRss(), in MB.
double PeakRssMb();
/// User + system CPU seconds of this process so far.
double ProcessCpuSeconds();

// --- registry deltas --------------------------------------------------------

/// Before/after view of the global telemetry registry: counters and
/// histograms read as differences between two snapshots.
class RegistryDelta {
 public:
  RegistryDelta();  ///< takes the "before" snapshot
  void Finish();    ///< takes the "after" snapshot

  std::int64_t Counter(const std::string& name) const;
  /// Sum of observations (microseconds for time histograms) in between.
  double HistogramSum(const std::string& name) const;
  /// Quantile estimate of the observations made in between.
  double HistogramQuantile(const std::string& name, double q) const;

 private:
  telemetry::MetricsSnapshot before_;
  telemetry::MetricsSnapshot after_;
};

// --- the benchmark's own spans ----------------------------------------------

/// Spans recorded by the benchmark around calls into the library's public
/// functions, each tagged with the module (layer) the call belongs to.
/// Single-threaded: spans are opened and closed on the thread that drives
/// the pipeline. A null SpanTree* makes every Scope a no-op, which is how
/// untraced runs pay nothing.
class SpanTree {
 public:
  class Scope {
   public:
    Scope(SpanTree* tree, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTree* tree_;
    int index_ = -1;
  };

  /// Milliseconds of every span named `name`, summed.
  double TotalMs(const std::string& name) const;
  /// Self time (duration minus the part covered by child spans) of every
  /// span of `layer`, summed, in milliseconds.
  double LayerSelfMs(const std::string& layer) const;
  /// Duration of the first root span, in milliseconds.
  double RootMs() const;
  /// Summed duration of the root's direct children, in milliseconds.
  double TopLevelMs() const;
  /// Adds time measured inside a span by other means (a registry histogram)
  /// as a child of the innermost open span.
  void AttributeChild(const char* layer, double ms);

 private:
  struct Span {
    const char* name;
    const char* layer;
    int parent;
    double start_ms;
    double end_ms;
    double child_ms = 0.0;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point epoch_ = Clock::now();
};

/// The layers spans are attributed to, in report order.
inline const std::vector<std::string>& Layers() {
  static const std::vector<std::string> layers = {"data", "core", "baselines",
                                                  "eval", "serve"};
  return layers;
}

/// Shared thread pool work over a traced pass: tasks run, the median time a
/// task waited in the queue, and the share of parallel-for blocks the
/// calling thread ran itself.
void SetPoolMetrics(const RegistryDelta& delta, Metrics* metrics);

/// Every per-layer metric at zero with its unit, in report order: a layer
/// a workload never calls reads as no work. Workloads overwrite the ones
/// they measure.
void SetPerLayerDefaults(Metrics* metrics);

/// Writes the per-layer self time and share of the traced pipeline wall,
/// the unattributed share and the tracing overhead (traced wall minus the
/// untraced median) into `metrics`.
void ReportLayers(const SpanTree& tree, double untraced_median_s,
                  Metrics* metrics);

// --- live ticker ------------------------------------------------------------

/// pv-style progress on stderr: one line per second with the elapsed time
/// and whatever `status(elapsed_s)` reports. Stops and joins on destruction.
class Ticker {
 public:
  Ticker(std::string label, std::function<std::string(double)> status);
  ~Ticker();
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

 private:
  void Loop();

  std::string label_;
  std::function<std::string(double)> status_;
  Clock::time_point start_ = Clock::now();
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Logs a sample's median, quartiles and size to stderr: the run's own
/// spread beside the one median it reports.
void LogSpread(const std::string& label, const std::vector<double>& samples);

/// Runs `body` repeatedly for about `budget_s` seconds: at least
/// `min_reps` times, and again while that ends nearer the budget than
/// stopping would (at most half a median iteration past it).
void RepeatFor(double budget_s, int min_reps,
               const std::function<void(int rep)>& body);

// --- workloads --------------------------------------------------------------

Outcome RunCompareA(const Options& options);
Outcome RunStream1M(const Options& options);
Outcome RunServe1M(const Options& options);

}  // namespace e2e
}  // namespace piperisk

#endif  // E2EBENCH_BENCH_H_
