#ifndef E2EBENCH_SERVE_LOAD_H_
#define E2EBENCH_SERVE_LOAD_H_

// The closed-loop client side of the benchmark: callers of the risk service
// that each wait for their reply before sending the next request, with the
// production mix of 80 % score, 15 % top-100 and 5 % what-if, plus an
// optional reloader that asks the server to rebuild and publish a new
// snapshot generation at a fixed cadence.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bench.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace piperisk {
namespace e2e {

/// Callers in every closed loop: two, so the server's per-connection
/// threads also get cores.
inline constexpr int kClients = 2;

struct LoadConfig {
  int port = 0;
  /// Measured seconds, after a half-second warm-up in which requests run
  /// but are not counted (connections open, caches fill).
  double seconds = 1.0;
  /// Pipe ids the score and what-if requests draw from, uniformly.
  std::vector<std::uint64_t> pipe_ids;
  std::uint64_t seed = 1;
  /// Time from the end of one reload to the next; 0 runs no reloader.
  int reload_every_ms = 0;
};

/// Latencies in microseconds, sorted. A failed request is recorded as
/// kFailedUs so that it misses every latency limit.
struct LoadResult {
  std::vector<double> score_us;
  std::vector<double> topk_us;
  std::vector<double> whatif_us;
  std::vector<double> all_us;
  std::vector<double> reload_ms;  ///< reload round trips seen by the reloader
  long long requests = 0;
  long long request_errors = 0;
  long long reloads = 0;
  long long reload_failures = 0;
  double elapsed_s = 0.0;
};

inline constexpr double kFailedUs = 1e9;

/// In the batch workloads, every pass's publish is followed by back-to-back
/// reloads of the new ranking, with no callers, for about this long (and at
/// least kMinBatchReloads times). Reloads beside the callers there were too
/// few and too much at the scheduler's mercy (a parallel sort whose every
/// merge level waits for its slowest worker) for a steady median, and
/// timing them after every pass spreads them over the run, so a host that
/// drifts within a run moves their median less. serve-1M keeps its reloads
/// beside the reads.
inline constexpr double kBatchReloadSeconds = 0.3;
inline constexpr int kMinBatchReloads = 5;

/// Runs the closed loop for `config.seconds`. `progress` counts completed
/// requests for the ticker.
LoadResult RunClosedLoop(const LoadConfig& config,
                         std::atomic<long long>* progress);

/// Gate: sampled Score, TopK and WhatIf answers read over the wire must
/// equal the snapshot's direct answers bit for bit.
void CheckWireAnswers(int port, const serve::ScoreSnapshot& snapshot,
                      std::uint64_t seed, int samples);

/// qps, p50_us and p99_us over all verbs.
void ReportServeEndToEnd(const LoadResult& result, Metrics* metrics);

/// Per-verb p50/p99, the supported tail with its sample count, and the
/// server-side error counters of `delta`.
void ReportServeLayers(const LoadResult& result, const RegistryDelta& delta,
                       Metrics* metrics);

/// The serving side of the batch workloads: every freshly evaluated
/// ranking is built into a snapshot, published to one in-process server
/// and reloaded back to back; at the end the server answers a closed loop
/// of callers.
class RankingPublisher {
 public:
  /// Builds a snapshot of the ranking (parallel arrays) and publishes it,
  /// starting the server on the first call, then times back-to-back
  /// reloads of it (kBatchReloadSeconds, kMinBatchReloads).
  void Publish(std::vector<std::uint64_t> ids, std::vector<double> scores,
               std::vector<double> lengths_m);

  /// Checks wire answers against the current snapshot, runs the closed
  /// loop for `seconds`, stops the server and reports the serve metrics
  /// (end-to-end ones, or per-layer ones when `options.trace`) into
  /// `outcome`, with reload_ms over every reload Publish timed, counting
  /// requests and reloads and their failures.
  void ServeAndReport(const Options& options, double seconds,
                      Outcome* outcome);

 private:
  /// Builds a snapshot of the last published ranking, timing the build.
  /// Also the server's reload function.
  Result<std::shared_ptr<const serve::ScoreSnapshot>> Build(
      std::uint64_t generation);

  std::vector<std::uint64_t> ids_;
  std::vector<double> scores_;
  std::vector<double> lengths_m_;
  std::mutex build_mu_;
  std::vector<double> build_ms_;  // guarded by build_mu_
  /// The last snapshot built, which the server serves once Publish returns
  /// (its reloads run one at a time and publish what they build); guarded
  /// by build_mu_.
  std::shared_ptr<const serve::ScoreSnapshot> current_;
  LoadResult reloads_;  ///< only the reload fields: what Publish timed
  RegistryDelta serve_delta_;  ///< server counters over the whole run
  // Declared last so the server, whose reload function reads the members
  // above, stops before they are destroyed.
  std::unique_ptr<serve::Server> server_;
};

}  // namespace e2e
}  // namespace piperisk

#endif  // E2EBENCH_SERVE_LOAD_H_
