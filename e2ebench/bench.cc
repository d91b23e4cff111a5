#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "stats.h"

namespace piperisk {
namespace e2e {

void Gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

// --- process probes ---------------------------------------------------------

void ResetPeakRss() {
  // "5" resets the VmHWM peak-RSS mark (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// --- registry deltas --------------------------------------------------------

namespace {

const telemetry::HistogramSample* FindHistogram(
    const telemetry::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

RegistryDelta::RegistryDelta()
    : before_(telemetry::Registry::Global().Snapshot()) {}

void RegistryDelta::Finish() {
  after_ = telemetry::Registry::Global().Snapshot();
}

std::int64_t RegistryDelta::Counter(const std::string& name) const {
  auto value = [&](const telemetry::MetricsSnapshot& s) -> std::int64_t {
    for (const auto& c : s.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  return value(after_) - value(before_);
}

double RegistryDelta::HistogramSum(const std::string& name) const {
  const auto* after = FindHistogram(after_, name);
  if (after == nullptr) return 0.0;
  const auto* before = FindHistogram(before_, name);
  return after->sum - (before == nullptr ? 0.0 : before->sum);
}

double RegistryDelta::HistogramQuantile(const std::string& name,
                                        double q) const {
  const auto* after = FindHistogram(after_, name);
  if (after == nullptr) return 0.0;
  telemetry::HistogramSample delta = *after;
  if (const auto* before = FindHistogram(before_, name)) {
    for (size_t i = 0; i < delta.counts.size() && i < before->counts.size();
         ++i) {
      delta.counts[i] -= before->counts[i];
    }
    delta.count -= before->count;
    delta.sum -= before->sum;
  }
  // min/max describe the whole history, not the window; drop them so the
  // estimate interpolates within bucket bounds only.
  delta.min = 0.0;
  delta.max = 0.0;
  return telemetry::EstimateQuantile(delta, q);
}

// --- spans ------------------------------------------------------------------

SpanTree::Scope::Scope(SpanTree* tree, const char* name, const char* layer)
    : tree_(tree) {
  if (tree_ == nullptr) return;
  Span span{name, layer, tree_->open_.empty() ? -1 : tree_->open_.back(),
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      tree_->epoch_)
                .count(),
            0.0};
  index_ = static_cast<int>(tree_->spans_.size());
  tree_->spans_.push_back(span);
  tree_->open_.push_back(index_);
}

SpanTree::Scope::~Scope() {
  if (tree_ == nullptr) return;
  Span& span = tree_->spans_[static_cast<size_t>(index_)];
  span.end_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          tree_->epoch_)
                    .count();
  tree_->open_.pop_back();
  if (span.parent >= 0) {
    tree_->spans_[static_cast<size_t>(span.parent)].child_ms +=
        span.end_ms - span.start_ms;
  }
}

void SpanTree::AttributeChild(const char* layer, double ms) {
  if (open_.empty() || ms <= 0.0) return;
  Span& parent = spans_[static_cast<size_t>(open_.back())];
  parent.child_ms += ms;
  // Recorded as a closed child whose start/end carry only the duration.
  spans_.push_back(Span{"attributed", layer, open_.back(), 0.0, ms, 0.0});
}

double SpanTree::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_ms - s.start_ms;
  }
  return total;
}

double SpanTree::LayerSelfMs(const std::string& layer) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (layer == s.layer) total += s.end_ms - s.start_ms - s.child_ms;
  }
  return total;
}

double SpanTree::RootMs() const {
  for (const Span& s : spans_) {
    if (s.parent < 0) return s.end_ms - s.start_ms;
  }
  return 0.0;
}

double SpanTree::TopLevelMs() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == 0) total += s.end_ms - s.start_ms;
  }
  return total;
}

void SetPoolMetrics(const RegistryDelta& delta, Metrics* metrics) {
  const double caller =
      static_cast<double>(delta.Counter("threadpool.blocks.caller"));
  const double worker =
      static_cast<double>(delta.Counter("threadpool.blocks.worker"));
  metrics->Set("common.pool_tasks",
               static_cast<double>(delta.Counter("threadpool.tasks")),
               "count");
  metrics->Set("common.pool_queue_wait_p50_us",
               delta.HistogramQuantile("threadpool.queue_wait_us", 0.5),
               "us");
  metrics->Set("common.pool_caller_block_share",
               Ratio(caller, caller + worker), "ratio");
}

void SetPerLayerDefaults(Metrics* metrics) {
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"data.generate_s", "s"},
      {"data.csv_load_ms", "ms"},
      {"data.shard_scan_ms", "ms"},
      {"data.shard_mb_per_s", "MB/s"},
      {"data.shard_bytes_mapped", "count"},
      {"data.shard_loads", "count"},
      {"data.checksum_failures", "count"},
      {"core.input_build_ms", "ms"},
      {"core.dpmhbp_fit_ms", "ms"},
      {"core.sweeps", "count"},
      {"core.sweep_ms", "ms"},
      {"core.parallel_sweep_share", "ratio"},
      {"core.accept_ratio", "ratio"},
      {"core.cache_hit_ratio", "ratio"},
      {"core.dedup_ratio", "ratio"},
      {"core.hbp_fit_ms", "ms"},
      {"core.score_ms", "ms"},
      {"core.stream_fit_ms", "ms"},
      {"core.stream_score_ms", "ms"},
      {"core.chain_retries", "count"},
      {"core.chains_failed", "count"},
      {"baselines.weibull_fit_ms", "ms"},
      {"baselines.rsf_fit_ms", "ms"},
      {"baselines.gbt_fit_ms", "ms"},
      {"baselines.cox_fit_ms", "ms"},
      {"baselines.svm_fit_ms", "ms"},
      {"eval.rank_build_ms", "ms"},
      {"eval.metrics_ms", "ms"},
      {"eval.significance_ms", "ms"},
      {"eval.stream_join_ms", "ms"},
      {"eval.join_fallback_rows", "count"},
      {"eval.join_missing_rows", "count"},
      {"serve.score_p50_us", "us"},
      {"serve.score_p99_us", "us"},
      {"serve.topk_p50_us", "us"},
      {"serve.topk_p99_us", "us"},
      {"serve.whatif_p50_us", "us"},
      {"serve.whatif_p99_us", "us"},
      {"serve.snapshot_build_ms", "ms"},
      {"serve.tail_us", "us"},
      {"serve.tail_pct", "%"},
      {"serve.latency_samples", "count"},
      {"serve.protocol_errors", "count"},
      {"serve.request_errors", "count"},
      {"serve.reload_failures", "count"},
      {"common.pool_tasks", "count"},
      {"common.pool_queue_wait_p50_us", "us"},
      {"common.pool_caller_block_share", "ratio"},
      {"process.cpu_s", "s"},
      {"process.cpu_per_wall", "ratio"},
  };
  for (const auto& [name, unit] : kPerLayer) metrics->Set(name, 0.0, unit);
  for (const std::string& layer : Layers()) {
    metrics->Set("layer." + layer + ".self_ms", 0.0, "ms");
    metrics->Set("layer." + layer + ".share", 0.0, "ratio");
  }
  metrics->Set("layer.unattributed_share", 0.0, "ratio");
  metrics->Set("trace.wall_s", 0.0, "s");
  metrics->Set("trace.overhead_s", 0.0, "s");
}

void ReportLayers(const SpanTree& tree, double untraced_median_s,
                  Metrics* metrics) {
  const double wall_ms = tree.RootMs();
  for (const std::string& layer : Layers()) {
    const double self_ms = tree.LayerSelfMs(layer);
    metrics->Set("layer." + layer + ".self_ms", self_ms, "ms");
    metrics->Set("layer." + layer + ".share", Ratio(self_ms, wall_ms),
                 "ratio");
  }
  metrics->Set("layer.unattributed_share",
               Ratio(wall_ms - tree.TopLevelMs(), wall_ms), "ratio");
  metrics->Set("trace.wall_s", wall_ms / 1000.0, "s");
  metrics->Set("trace.overhead_s", wall_ms / 1000.0 - untraced_median_s, "s");
}

// --- ticker -----------------------------------------------------------------

Ticker::Ticker(std::string label,
               std::function<std::string(double)> status)
    : label_(std::move(label)), status_(std::move(status)) {
  thread_ = std::thread([this] { Loop(); });
}

Ticker::~Ticker() {
  stop_.store(true);
  thread_.join();
}

void Ticker::Loop() {
  int tick = 0;
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double elapsed = SecondsSince(start_);
    if (elapsed < tick + 1) continue;
    tick = static_cast<int>(elapsed);
    std::fprintf(stderr, "[%s] %4ds  %s\n", label_.c_str(), tick,
                 status_(elapsed).c_str());
  }
}

void LogSpread(const std::string& label, const std::vector<double>& samples) {
  const Quartiles q = QuartilesOf(samples);
  std::fprintf(stderr, "%s: median %.6g, quartiles %.6g .. %.6g, n = %zu\n",
               label.c_str(), q.median, q.q1, q.q3, q.count);
}

void RepeatFor(double budget_s, int min_reps,
               const std::function<void(int rep)>& body) {
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point rep_start = Clock::now();
    body(static_cast<int>(walls.size()));
    walls.push_back(SecondsSince(rep_start));
  } while (static_cast<int>(walls.size()) < min_reps ||
           SecondsSince(start) + 0.5 * Median(walls) <= budget_s);
}

}  // namespace e2e
}  // namespace piperisk
