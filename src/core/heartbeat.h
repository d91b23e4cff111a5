#ifndef PIPERISK_CORE_HEARTBEAT_H_
#define PIPERISK_CORE_HEARTBEAT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace piperisk {
namespace core {

/// Where and how often a fit writes live progress. Empty path: disabled
/// (every monitor call is a cheap no-op). Heartbeats are observational only:
/// the config is not fingerprinted, the monitor thread never touches chain
/// RNG streams, and fits produce bit-identical artefacts with heartbeats on
/// or off.
struct HeartbeatConfig {
  std::string path;
  double every_s = 5.0;
  /// Free-form run label stamped into the file ("fit dpmhbp", ...).
  std::string label;
};

/// Background progress reporter for long fits: a dedicated thread writes an
/// atomic (`.tmp` + rename) JSON file every `every_s` seconds with per-chain
/// sweep progress, sweeps/s, Metropolis acceptance trend, a live split-R̂
/// over the monitored draws so far, shard progress (streaming fits), peak
/// RSS, and an ETA — so a stalled or kill -9'd fit is diagnosable from the
/// artefact alone.
///
/// Recording calls are wait-free (relaxed atomics) except ReportDraw, which
/// takes a mutex at sweep granularity (never per row). The writer thread is
/// the only reader. See DESIGN.md "Observability" for the file schema.
class HeartbeatMonitor {
 public:
  /// `total_sweeps` and `num_chains` size the progress model; a streaming
  /// shard pass, which runs no chains, passes 1 and 0.
  HeartbeatMonitor(HeartbeatConfig config, int num_chains, int total_sweeps);
  ~HeartbeatMonitor();

  HeartbeatMonitor(const HeartbeatMonitor&) = delete;
  HeartbeatMonitor& operator=(const HeartbeatMonitor&) = delete;

  bool enabled() const { return !config_.path.empty(); }

  /// Starts the writer thread (no-op when disabled). Idempotent.
  void Start();

  /// Final write + joins the writer thread. Idempotent; also run by the
  /// destructor.
  void Stop();

  /// Coarse run phase shown in the file ("init", "sweep", "stream-shards",
  /// "score", "done", ...).
  void SetPhase(const std::string& phase);

  /// Chain `chain` has completed `sweeps_done` of total_sweeps sweeps.
  void ReportSweep(int chain, int sweeps_done);

  /// Cumulative Metropolis proposal/accept totals for one chain; the writer
  /// derives the recent acceptance trend by differencing ticks.
  void ReportAcceptance(int chain, std::int64_t proposals,
                        std::int64_t accepted);

  /// Appends one post-burn-in draw of the monitored scalar (a
  /// label-switching-invariant quantity like q_max) for the live split-R̂.
  void ReportDraw(int chain, double value);

  /// Drops chain draws past `sweeps_done` kept draws and rewinds the sweep
  /// counter — called when a chain restarts or resumes from a checkpoint so
  /// retried sweeps are not double-counted.
  void ResetChain(int chain, int sweeps_done, int draws_kept);

  /// Marks a chain failed (retries exhausted); shown in the file.
  void ReportChainFailed(int chain);

  /// Shard progress of streaming passes (done of total).
  void ReportShards(int done, int total);

  /// Forces one write now (also what the writer thread calls every tick).
  /// Exposed for tests and for the final write in Stop.
  Status WriteNow();

 private:
  struct alignas(64) ChainCell {
    std::atomic<int> sweeps{0};
    std::atomic<std::int64_t> proposals{0};
    std::atomic<std::int64_t> accepted{0};
    std::atomic<bool> failed{false};
  };

  void WriterLoop();
  std::string Render();

  const HeartbeatConfig config_;
  const int num_chains_;
  const int total_sweeps_;
  const std::chrono::steady_clock::time_point started_;

  std::vector<std::unique_ptr<ChainCell>> chains_;
  std::atomic<int> shards_done_{0};
  std::atomic<int> shards_total_{0};

  std::mutex state_mu_;  ///< guards phase_ and draws_
  std::string phase_ = "init";
  std::vector<std::vector<double>> draws_;

  // Writer-thread-only tick state for recent-rate derivation.
  std::chrono::steady_clock::time_point last_tick_;
  std::int64_t last_sweeps_total_ = 0;
  std::int64_t last_proposals_ = 0;
  std::int64_t last_accepted_ = 0;
  double recent_sweeps_per_s_ = 0.0;
  double recent_acceptance_ = 0.0;

  std::mutex writer_mu_;
  std::condition_variable writer_cv_;
  std::atomic<bool> stopping_{false};
  bool started_thread_ = false;
  std::thread writer_;
};

/// Peak resident set size of this process in bytes (getrusage), 0 when
/// unavailable. Also recorded on the "process.peak_rss_bytes" max-gauge.
std::int64_t PeakRssBytes();

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_HEARTBEAT_H_
