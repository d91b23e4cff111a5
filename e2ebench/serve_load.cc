#include "serve_load.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>

#include "eval/planning.h"
#include "serve/client.h"
#include "stats.h"
#include "stats/rng.h"

namespace piperisk {
namespace e2e {

namespace {

struct ClientTally {
  std::vector<double> score_us;
  std::vector<double> topk_us;
  std::vector<double> whatif_us;
  long long errors = 0;
};

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Reloads back to back for about `seconds` (at least kMinBatchReloads
/// times), with no other callers, adding each round trip to `result`
/// (sorted at the end). Each reload gets a fresh connection, and so a fresh
/// server thread wherever the scheduler puts it: over one long-lived
/// connection, region A's sub-millisecond reloads ran at one of two speeds
/// for a whole burst, and a run's median took whichever one it drew.
void TimeReloads(int port, double seconds, LoadResult* result) {
  RepeatFor(seconds, kMinBatchReloads, [&](int) {
    auto client = serve::Client::Connect("127.0.0.1", port);
    Gate(client.ok(), "connect the reloader");
    const Clock::time_point sent = Clock::now();
    const bool ok = client->Reload().ok();
    ++result->reloads;
    if (ok) {
      result->reload_ms.push_back(MicrosSince(sent) / 1000.0);
    } else {
      ++result->reload_failures;
    }
  });
  std::sort(result->reload_ms.begin(), result->reload_ms.end());
}

}  // namespace

LoadResult RunClosedLoop(const LoadConfig& config,
                         std::atomic<long long>* progress) {
  std::atomic<bool> stop{false};
  std::vector<ClientTally> tallies(kClients);
  LoadResult result;
  const std::uint64_t num_ids = config.pipe_ids.size();

  std::vector<std::thread> clients;
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(500);  // after the warm-up
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<size_t>(c)];
      auto client = serve::Client::Connect("127.0.0.1", config.port);
      if (!client.ok()) {
        ++tally.errors;
        return;
      }
      stats::Rng rng(config.seed * 1000 + static_cast<std::uint64_t>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t pipe = config.pipe_ids[rng.NextBounded(num_ids)];
        const std::uint64_t mix = rng.NextBounded(100);
        const Clock::time_point sent = Clock::now();
        std::vector<double>* sink;
        bool ok;
        if (mix < 80) {
          ok = client->Score(pipe).ok();
          sink = &tally.score_us;
        } else if (mix < 95) {
          ok = client->TopK(100).ok();
          sink = &tally.topk_us;
        } else {
          ok = client->WhatIf(pipe, serve::WhatIfMode::kScale, 2.0).ok();
          sink = &tally.whatif_us;
        }
        if (sent < start) continue;  // warm-up
        const double us = MicrosSince(sent);
        sink->push_back(ok ? us : kFailedUs);
        if (!ok) ++tally.errors;
        progress->fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread reloader;
  if (config.reload_every_ms > 0) {
    reloader = std::thread([&] {
      auto client = serve::Client::Connect("127.0.0.1", config.port);
      const auto every = std::chrono::milliseconds(config.reload_every_ms);
      auto next = start + every;
      while (!stop.load(std::memory_order_relaxed)) {
        if (Clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        const Clock::time_point sent = Clock::now();
        const bool ok = client.ok() && client->Reload().ok();
        ++result.reloads;
        if (ok) {
          result.reload_ms.push_back(MicrosSince(sent) / 1000.0);
        } else {
          ++result.reload_failures;
        }
        next = Clock::now() + every;
      }
    });
  }

  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds)));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  if (reloader.joinable()) reloader.join();
  result.elapsed_s = SecondsSince(start);

  for (ClientTally& t : tallies) {
    result.score_us.insert(result.score_us.end(), t.score_us.begin(),
                           t.score_us.end());
    result.topk_us.insert(result.topk_us.end(), t.topk_us.begin(),
                          t.topk_us.end());
    result.whatif_us.insert(result.whatif_us.end(), t.whatif_us.begin(),
                            t.whatif_us.end());
    result.request_errors += t.errors;
  }
  for (auto* v : {&result.score_us, &result.topk_us, &result.whatif_us}) {
    result.all_us.insert(result.all_us.end(), v->begin(), v->end());
    std::sort(v->begin(), v->end());
  }
  std::sort(result.all_us.begin(), result.all_us.end());
  std::sort(result.reload_ms.begin(), result.reload_ms.end());
  result.requests = static_cast<long long>(result.all_us.size());
  return result;
}

void CheckWireAnswers(int port, const serve::ScoreSnapshot& snapshot,
                      std::uint64_t seed, int samples) {
  auto client = serve::Client::Connect("127.0.0.1", port);
  Gate(client.ok(), "connect to the in-process server");
  stats::Rng rng(seed);
  const auto& ids = snapshot.pipe_ids();
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t id = ids[rng.NextBounded(ids.size())];
    auto wire = client->Score(id);
    auto direct = snapshot.Score(id);
    Gate(wire.ok() && direct.ok(), "score round trip");
    Gate(wire->generation == direct->generation &&
             SameBits(wire->score, direct->score) &&
             SameBits(wire->percentile, direct->percentile) &&
             wire->rank == direct->rank &&
             wire->num_pipes == direct->num_pipes,
         "wire Score equals the snapshot's direct answer");

    serve::WhatIfRequest request;
    request.pipe_id = id;
    request.mode = serve::WhatIfMode::kScale;
    request.value = 2.0;
    auto wire_what = client->WhatIf(id, request.mode, request.value);
    auto direct_what = snapshot.WhatIf(request);
    Gate(wire_what.ok() && direct_what.ok(), "what-if round trip");
    Gate(SameBits(wire_what->new_score, direct_what->new_score) &&
             SameBits(wire_what->new_percentile,
                      direct_what->new_percentile) &&
             wire_what->new_rank == direct_what->new_rank &&
             wire_what->old_rank == direct_what->old_rank,
         "wire WhatIf equals the snapshot's direct answer");
  }
  for (std::uint32_t k : {1u, 100u, 1000u}) {
    auto wire = client->TopK(k);
    serve::TopKRequest request;
    request.k = k;
    auto direct = snapshot.TopK(request);
    Gate(wire.ok() && direct.ok(), "top-k round trip");
    bool same = wire->entries.size() == direct->entries.size() &&
                wire->generation == direct->generation;
    for (size_t i = 0; same && i < wire->entries.size(); ++i) {
      same = wire->entries[i].pipe_id == direct->entries[i].pipe_id &&
             SameBits(wire->entries[i].score, direct->entries[i].score);
    }
    Gate(same, "wire TopK(" + std::to_string(k) +
                   ") equals the snapshot's direct answer");
  }
}

void ReportServeEndToEnd(const LoadResult& result, Metrics* metrics) {
  metrics->Set("qps", static_cast<double>(result.requests) / result.elapsed_s,
               "1/s");
  metrics->Set("p50_us", SortedQuantile(result.all_us, 0.50), "us");
  metrics->Set("p99_us", SortedQuantile(result.all_us, 0.99), "us");
}

void ReportServeLayers(const LoadResult& result, const RegistryDelta& delta,
                       Metrics* metrics) {
  const std::pair<const char*, const std::vector<double>*> verbs[] = {
      {"score", &result.score_us},
      {"topk", &result.topk_us},
      {"whatif", &result.whatif_us}};
  for (const auto& [verb, us] : verbs) {
    const std::string prefix = std::string("serve.") + verb;
    metrics->Set(prefix + "_p50_us", SortedQuantile(*us, 0.50), "us");
    metrics->Set(prefix + "_p99_us", SortedQuantile(*us, 0.99), "us");
  }
  const auto tail = SortedTail(result.all_us);
  metrics->Set("serve.tail_us", tail ? tail->value : 0.0, "us");
  metrics->Set("serve.tail_pct", tail ? tail->percentile : 0.0, "%");
  metrics->Set("serve.latency_samples", static_cast<double>(result.requests),
               "count");
  metrics->Set("serve.protocol_errors",
               static_cast<double>(delta.Counter("serve.protocol_errors")),
               "count");
  metrics->Set("serve.request_errors",
               static_cast<double>(delta.Counter("serve.request_errors")),
               "count");
  metrics->Set("serve.reload_failures",
               static_cast<double>(delta.Counter("serve.reload_failures")),
               "count");
}

Result<std::shared_ptr<const serve::ScoreSnapshot>> RankingPublisher::Build(
    std::uint64_t generation) {
  const Clock::time_point start = Clock::now();
  auto snapshot = serve::ScoreSnapshot::Build(
      ids_, scores_, lengths_m_, generation,
      eval::PlanningConfig().inspection_cost_per_m);
  std::lock_guard<std::mutex> lock(build_mu_);
  build_ms_.push_back(SecondsSince(start) * 1000.0);
  if (snapshot.ok()) current_ = *snapshot;
  return snapshot;
}

void RankingPublisher::Publish(std::vector<std::uint64_t> ids,
                               std::vector<double> scores,
                               std::vector<double> lengths_m) {
  ids_ = std::move(ids);
  scores_ = std::move(scores);
  lengths_m_ = std::move(lengths_m);
  auto snapshot = Build(server_ == nullptr ? 1 : server_->generation() + 1);
  Gate(snapshot.ok(), "build the served snapshot");
  if (server_ != nullptr) {
    server_->Publish(*snapshot);
  } else {
    serve::ServerOptions server_options;
    server_options.reload_fn = [this](std::uint64_t generation) {
      return Build(generation);
    };
    auto server = serve::Server::Start(server_options, *snapshot);
    Gate(server.ok(), "start the in-process server");
    server_ = std::move(*server);
  }
  TimeReloads(server_->port(), kBatchReloadSeconds, &reloads_);
}

void RankingPublisher::ServeAndReport(const Options& options, double seconds,
                                      Outcome* outcome) {
  Gate(server_ != nullptr, "a ranking was published");
  std::shared_ptr<const serve::ScoreSnapshot> served;
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    served = current_;
  }
  CheckWireAnswers(server_->port(), *served, options.seed, 200);
  LoadConfig config;
  config.port = server_->port();
  config.seconds = seconds;
  config.pipe_ids = ids_;
  config.seed = options.seed;
  std::atomic<long long> done{0};
  LoadResult result;
  {
    Ticker ticker(options.workload + " serve", [&](double elapsed) {
      return std::to_string(done.load()) + " requests, " +
             std::to_string(static_cast<long long>(done.load() / elapsed)) +
             " req/s";
    });
    result = RunClosedLoop(config, &done);
  }
  result.reload_ms = reloads_.reload_ms;
  result.reloads = reloads_.reloads;
  result.reload_failures = reloads_.reload_failures;
  serve_delta_.Finish();
  server_->Stop();
  outcome->attempted += result.requests + result.reloads;
  outcome->failed += result.request_errors + result.reload_failures;
  Gate(!result.reload_ms.empty(), "at least one reload completed");
  LogSpread(options.workload + " reload_ms", result.reload_ms);
  if (options.trace) {
    ReportServeLayers(result, serve_delta_, &outcome->metrics);
    std::lock_guard<std::mutex> lock(build_mu_);
    outcome->metrics.Set("serve.snapshot_build_ms", Median(build_ms_), "ms");
  } else {
    ReportServeEndToEnd(result, &outcome->metrics);
    outcome->metrics.Set("reload_ms", Median(result.reload_ms), "ms");
  }
}

}  // namespace e2e
}  // namespace piperisk
