#include "stats/distributions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "stats/special.h"

namespace piperisk {
namespace stats {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

double SampleNormal(Rng* rng) {
  // Marsaglia polar method; both deviates are not cached to keep the
  // generator state a pure function of the call sequence.
  while (true) {
    double u = 2.0 * rng->NextDouble() - 1.0;
    double v = 2.0 * rng->NextDouble() - 1.0;
    double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double SampleNormal(Rng* rng, double mu, double sigma) {
  PIPERISK_CHECK(sigma > 0.0) << "sigma must be > 0";
  return mu + sigma * SampleNormal(rng);
}

double SampleGamma(Rng* rng, double shape) {
  PIPERISK_CHECK(shape > 0.0) << "gamma shape must be > 0";
  if (shape < 1.0) {
    // Boost: X ~ Gamma(a+1), U^{1/a} * X ~ Gamma(a).
    double x = SampleGamma(rng, shape + 1.0);
    double u = rng->NextDoubleOpen();
    return x * std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang (2000).
  double d = shape - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = SampleNormal(rng);
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = rng->NextDoubleOpen();
    double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v;
  }
}

double SampleGamma(Rng* rng, double shape, double rate) {
  PIPERISK_CHECK(rate > 0.0) << "gamma rate must be > 0";
  return SampleGamma(rng, shape) / rate;
}

double SampleBeta(Rng* rng, double a, double b) {
  double x = SampleGamma(rng, a);
  double y = SampleGamma(rng, b);
  double s = x + y;
  if (s <= 0.0) {
    // Both gammas underflowed (tiny shapes): fall back on the fact that in
    // that regime the beta is essentially a Bernoulli(a/(a+b)) on {0,1}.
    return rng->NextDouble() < a / (a + b) ? 1.0 - 1e-12 : 1e-12;
  }
  return x / s;
}

bool SampleBernoulli(Rng* rng, double p) { return rng->NextDouble() < p; }

int SampleBinomial(Rng* rng, int n, double p) {
  PIPERISK_CHECK(n >= 0) << "binomial n must be >= 0";
  if (p <= 0.0) return 0;
  if (p >= 1.0) return n;
  int k = 0;
  for (int i = 0; i < n; ++i) k += SampleBernoulli(rng, p) ? 1 : 0;
  return k;
}

int SamplePoisson(Rng* rng, double lambda) {
  PIPERISK_CHECK(lambda >= 0.0) << "poisson rate must be >= 0";
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth multiplication method.
    double limit = std::exp(-lambda);
    double prod = rng->NextDoubleOpen();
    int k = 0;
    while (prod > limit) {
      prod *= rng->NextDoubleOpen();
      ++k;
    }
    return k;
  }
  // Exact splitting: a Poisson(lambda) is the sum of independent
  // Poisson(lambda/m) chunks. Each chunk stays below the Knuth cutoff, so
  // the composite draw is exact (no approximation), and lambdas in this
  // library are small enough that the O(lambda) cost is irrelevant.
  int chunks = static_cast<int>(lambda / 25.0) + 1;
  double per = lambda / chunks;
  int total = 0;
  for (int i = 0; i < chunks; ++i) total += SamplePoisson(rng, per);
  return total;
}

double SampleExponential(Rng* rng, double rate) {
  PIPERISK_CHECK(rate > 0.0) << "exponential rate must be > 0";
  return -std::log(rng->NextDoubleOpen()) / rate;
}

double SampleWeibull(Rng* rng, double shape, double scale) {
  PIPERISK_CHECK(shape > 0.0 && scale > 0.0) << "weibull params must be > 0";
  double e = -std::log(rng->NextDoubleOpen());
  return scale * std::pow(e, 1.0 / shape);
}

std::vector<double> SampleDirichlet(Rng* rng,
                                    const std::vector<double>& alpha) {
  std::vector<double> out(alpha.size());
  double sum = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    out[i] = SampleGamma(rng, alpha[i]);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Degenerate underflow: uniform fallback.
    std::fill(out.begin(), out.end(), 1.0 / out.size());
    return out;
  }
  for (double& v : out) v /= sum;
  return out;
}

size_t SampleDiscrete(Rng* rng, const std::vector<double>& weights) {
  PIPERISK_CHECK(!weights.empty()) << "empty weight vector";
  double total = 0.0;
  for (double w : weights) {
    PIPERISK_CHECK(w >= 0.0) << "negative weight";
    total += w;
  }
  PIPERISK_CHECK(total > 0.0) << "all-zero weight vector";
  double u = rng->NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // guard against rounding at the top end
}

size_t SampleDiscreteLog(Rng* rng, const std::vector<double>& log_weights) {
  PIPERISK_CHECK(!log_weights.empty()) << "empty log-weight vector";
  double max_lw = kNegInf;
  for (double lw : log_weights) max_lw = std::max(max_lw, lw);
  PIPERISK_CHECK(max_lw > kNegInf) << "all log-weights are -inf";
  std::vector<double> w(log_weights.size());
  for (size_t i = 0; i < w.size(); ++i) w[i] = std::exp(log_weights[i] - max_lw);
  return SampleDiscrete(rng, w);
}

size_t SampleDiscreteLog(Rng* rng, std::span<const double> log_weights,
                         std::vector<double>* scratch) {
  return SampleDiscreteLogUniform(rng->NextDouble(), log_weights, scratch);
}

size_t SampleDiscreteLogUniform(double u, std::span<const double> log_weights,
                                std::vector<double>* scratch) {
  PIPERISK_CHECK(!log_weights.empty()) << "empty log-weight vector";
  double max_lw = kNegInf;
  for (double lw : log_weights) max_lw = std::max(max_lw, lw);
  PIPERISK_CHECK(max_lw > kNegInf) << "all log-weights are -inf";
  scratch->resize(log_weights.size());
  double total = 0.0;
  for (size_t i = 0; i < log_weights.size(); ++i) {
    // exp(-inf) is exactly +0, so skipping it leaves total and scan unchanged.
    const double w =
        log_weights[i] == kNegInf ? 0.0 : std::exp(log_weights[i] - max_lw);
    (*scratch)[i] = w;
    total += w;
  }
  PIPERISK_CHECK(total > 0.0) << "all-zero weight vector";
  double target = u * total;
  double acc = 0.0;
  for (size_t i = 0; i < scratch->size(); ++i) {
    acc += (*scratch)[i];
    if (target < acc) return i;
  }
  return scratch->size() - 1;  // guard against rounding at the top end
}

double LogPdfNormal(double x, double mu, double sigma) {
  double z = (x - mu) / sigma;
  return -0.5 * z * z - std::log(sigma) - 0.5 * std::log(2.0 * M_PI);
}

double LogPdfGamma(double x, double shape, double rate) {
  if (x <= 0.0) return kNegInf;
  return shape * std::log(rate) + (shape - 1.0) * std::log(x) - rate * x -
         LogGamma(shape);
}

double LogPdfBeta(double x, double a, double b) {
  if (x <= 0.0 || x >= 1.0) {
    // Allow boundary only when the exponent there is zero.
    if ((x == 0.0 && a == 1.0) || (x == 1.0 && b == 1.0)) return -LogBeta(a, b);
    return kNegInf;
  }
  return (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x) - LogBeta(a, b);
}

double LogPmfBernoulli(int x, double p) {
  if (x == 1) return p > 0.0 ? std::log(p) : kNegInf;
  if (x == 0) return p < 1.0 ? std::log1p(-p) : kNegInf;
  return kNegInf;
}

double LogPmfPoisson(int k, double lambda) {
  if (k < 0) return kNegInf;
  if (lambda == 0.0) return k == 0 ? 0.0 : kNegInf;
  return k * std::log(lambda) - lambda - LogGamma(k + 1.0);
}

double LogPmfBinomial(int k, int n, double p) {
  if (k < 0 || k > n) return kNegInf;
  double log_choose = LogGamma(n + 1.0) - LogGamma(k + 1.0) -
                      LogGamma(n - k + 1.0);
  double term = 0.0;
  if (k > 0) term += (p > 0.0 ? k * std::log(p) : kNegInf);
  if (k < n) term += (p < 1.0 ? (n - k) * std::log1p(-p) : kNegInf);
  return log_choose + term;
}

double LogPdfWeibull(double x, double shape, double scale) {
  if (x <= 0.0) return kNegInf;
  double z = x / scale;
  return std::log(shape / scale) + (shape - 1.0) * std::log(z) -
         std::pow(z, shape);
}

double LogBetaBinomial(int k, int n, double a, double b) {
  if (k < 0 || k > n) return kNegInf;
  double log_choose = LogGamma(n + 1.0) - LogGamma(k + 1.0) -
                      LogGamma(n - k + 1.0);
  return log_choose + LogBeta(a + k, b + n - k) - LogBeta(a, b);
}

}  // namespace stats
}  // namespace piperisk
