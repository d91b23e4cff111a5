#include "core/mcmc.h"

#include <algorithm>
#include <cmath>

#include "common/telemetry.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/special.h"

namespace piperisk {
namespace core {

namespace {

/// Proposal/accept counters shared by every Metropolis kernel. Recording is
/// one striped relaxed add per *group* step (never per row), so the cost is
/// invisible next to the lgamma ladder each proposal evaluates. Telemetry
/// never draws from the RNG: instrumented samplers are draw-identical.
struct MetropolisMetrics {
  telemetry::Counter* proposals;
  telemetry::Counter* accepts;

  static const MetropolisMetrics& Get() {
    static const MetropolisMetrics metrics = [] {
      auto& registry = telemetry::Registry::Global();
      return MetropolisMetrics{
          registry.GetCounter("mcmc.metropolis.proposals"),
          registry.GetCounter("mcmc.metropolis.accepts")};
    }();
    return metrics;
  }
};

void RecordProposal(bool accepted) {
  const MetropolisMetrics& metrics = MetropolisMetrics::Get();
  metrics.proposals->Increment();
  if (accepted) metrics.accepts->Increment();
}

}  // namespace

double MetropolisLogitStep(double current,
                           const std::function<double(double)>& log_target,
                           double step_size, stats::Rng* rng, bool* accepted) {
  *accepted = false;
  double logit_cur = stats::Logit(current);
  double logit_prop = logit_cur + step_size * stats::SampleNormal(rng);
  double proposal = stats::Sigmoid(logit_prop);
  if (proposal <= 0.0 || proposal >= 1.0) {  // underflow guard
    RecordProposal(false);
    return current;
  }
  // Jacobian of x = sigmoid(l): dx/dl = x(1-x).
  double log_ratio = log_target(proposal) - log_target(current) +
                     std::log(proposal) + std::log1p(-proposal) -
                     std::log(current) - std::log1p(-current);
  if (std::log(rng->NextDoubleOpen()) < log_ratio) {
    *accepted = true;
    RecordProposal(true);
    return proposal;
  }
  RecordProposal(false);
  return current;
}

LogitProposal DrawLogitProposal(double current, double step_size,
                                stats::Rng* rng) {
  LogitProposal prop;
  double logit_cur = stats::Logit(current);
  double logit_prop = logit_cur + step_size * stats::SampleNormal(rng);
  prop.proposal = stats::Sigmoid(logit_prop);
  if (prop.proposal <= 0.0 || prop.proposal >= 1.0) {  // underflow guard
    // The fused step returns here before touching the uniform, so the
    // split form must not consume one either.
    prop.in_support = false;
    return prop;
  }
  prop.in_support = true;
  // The fused step draws this uniform after evaluating the log target, but
  // the target evaluation never touches the RNG, so drawing it here leaves
  // the stream in the identical position.
  prop.log_u = std::log(rng->NextDoubleOpen());
  return prop;
}

bool AcceptLogitProposal(const LogitProposal& prop, double current,
                         double proposal_ll, double* current_log_target) {
  if (!prop.in_support) {
    RecordProposal(false);
    return false;
  }
  double log_ratio = proposal_ll - *current_log_target +
                     std::log(prop.proposal) + std::log1p(-prop.proposal) -
                     std::log(current) - std::log1p(-current);
  if (prop.log_u < log_ratio) {
    *current_log_target = proposal_ll;
    RecordProposal(true);
    return true;
  }
  RecordProposal(false);
  return false;
}

double MetropolisLogStep(double current,
                         const std::function<double(double)>& log_target,
                         double step_size, stats::Rng* rng, bool* accepted) {
  *accepted = false;
  double log_cur = std::log(current);
  double log_prop = log_cur + step_size * stats::SampleNormal(rng);
  double proposal = std::exp(log_prop);
  if (!(proposal > 0.0) || !std::isfinite(proposal)) {
    RecordProposal(false);
    return current;
  }
  double log_ratio = log_target(proposal) - log_target(current) + log_prop -
                     log_cur;  // Jacobian dx/dl = x
  if (std::log(rng->NextDoubleOpen()) < log_ratio) {
    *accepted = true;
    RecordProposal(true);
    return proposal;
  }
  RecordProposal(false);
  return current;
}

void StepSizeAdapter::Update(bool accepted) {
  ++proposals_;
  if (accepted) ++accepts_;
  double gamma = 1.0 / std::pow(static_cast<double>(proposals_) + 10.0, 0.6);
  double direction = (accepted ? 1.0 : 0.0) - target_;
  step_ = std::clamp(step_ * std::exp(gamma * direction), 1e-3, 10.0);
}

double EffectiveSampleSize(const std::vector<double>& trace) {
  const std::size_t n = trace.size();
  if (n < 4) return static_cast<double>(n);
  double mean = stats::Mean(trace);
  double var = 0.0;
  for (double x : trace) var += (x - mean) * (x - mean);
  var /= static_cast<double>(n);
  if (var <= 0.0) return static_cast<double>(n);

  auto autocov = [&](std::size_t lag) {
    double s = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) {
      s += (trace[i] - mean) * (trace[i + lag] - mean);
    }
    return s / static_cast<double>(n);
  };

  // Geyer initial positive sequence: sum pairs of consecutive
  // autocovariances while the pair sum stays positive.
  double sum = 0.0;
  for (std::size_t lag = 1; lag + 1 < n; lag += 2) {
    double pair = autocov(lag) + autocov(lag + 1);
    if (pair <= 0.0) break;
    sum += pair;
  }
  double tau = 1.0 + 2.0 * sum / var;
  tau = std::max(tau, 1.0);
  return static_cast<double>(n) / tau;
}

double GewekeZ(const std::vector<double>& trace, double first_frac,
               double last_frac) {
  const std::size_t n = trace.size();
  if (n < 10) return 0.0;
  std::size_t n1 = std::max<std::size_t>(2, static_cast<std::size_t>(n * first_frac));
  std::size_t n2 = std::max<std::size_t>(2, static_cast<std::size_t>(n * last_frac));
  std::vector<double> head(trace.begin(), trace.begin() + n1);
  std::vector<double> tail(trace.end() - n2, trace.end());
  double v1 = stats::Variance(head) / static_cast<double>(n1);
  double v2 = stats::Variance(tail) / static_cast<double>(n2);
  double denom = std::sqrt(v1 + v2);
  if (denom <= 0.0) return 0.0;
  return (stats::Mean(head) - stats::Mean(tail)) / denom;
}

}  // namespace core
}  // namespace piperisk
