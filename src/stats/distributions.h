#ifndef PIPERISK_STATS_DISTRIBUTIONS_H_
#define PIPERISK_STATS_DISTRIBUTIONS_H_

#include <span>
#include <vector>

#include "stats/rng.h"

namespace piperisk {
namespace stats {

/// Hand-rolled samplers and densities for every distribution the inference
/// code touches. All samplers take the library Rng so experiment outputs are
/// reproducible bit-for-bit from a seed; all densities are returned on the
/// log scale (the natural scale for MCMC accept ratios).

// --- Sampling ---------------------------------------------------------------

/// Standard normal draw (Marsaglia polar method).
double SampleNormal(Rng* rng);

/// Normal(mu, sigma) draw; sigma > 0.
double SampleNormal(Rng* rng, double mu, double sigma);

/// Gamma(shape, 1) draw. Marsaglia–Tsang squeeze for shape >= 1, boosting
/// trick for shape < 1. shape > 0.
double SampleGamma(Rng* rng, double shape);

/// Gamma(shape, rate) draw (mean shape/rate).
double SampleGamma(Rng* rng, double shape, double rate);

/// Beta(a, b) draw via two gammas; a, b > 0.
double SampleBeta(Rng* rng, double a, double b);

/// Bernoulli(p) draw; p in [0, 1].
bool SampleBernoulli(Rng* rng, double p);

/// Binomial(n, p) draw by inversion for small n*p, otherwise by summing
/// Bernoullis (n is small everywhere we use this).
int SampleBinomial(Rng* rng, int n, double p);

/// Poisson(lambda) draw; Knuth for lambda < 30, PTRS-lite (normal
/// approximation with rejection) above.
int SamplePoisson(Rng* rng, double lambda);

/// Exponential(rate) draw; rate > 0.
double SampleExponential(Rng* rng, double rate);

/// Weibull(shape k, scale lambda) draw.
double SampleWeibull(Rng* rng, double shape, double scale);

/// Dirichlet draw over `alpha.size()` categories.
std::vector<double> SampleDirichlet(Rng* rng, const std::vector<double>& alpha);

/// Draws an index in [0, weights.size()) proportional to `weights`
/// (non-negative, not all zero).
size_t SampleDiscrete(Rng* rng, const std::vector<double>& weights);

/// Draws an index proportional to exp(log_weights - max) — stable for MCMC.
size_t SampleDiscreteLog(Rng* rng, const std::vector<double>& log_weights);

/// Allocation-free overload for hot loops: the exponentiated weights are
/// written into `*scratch` (resized on first use, reused afterwards).
/// Consumes the RNG identically to the allocating overload, so both draw
/// the same index from the same generator state.
size_t SampleDiscreteLog(Rng* rng, std::span<const double> log_weights,
                         std::vector<double>* scratch);

/// The scratch overload's draw given its uniform `u` in [0, 1) up front:
/// SampleDiscreteLog(rng, w, s) == SampleDiscreteLogUniform(
/// rng->NextDouble(), w, s), bit for bit. Lets a caller draw its uniforms
/// ahead of the weights they will select from.
size_t SampleDiscreteLogUniform(double u, std::span<const double> log_weights,
                                std::vector<double>* scratch);

// --- Log densities ----------------------------------------------------------

/// log N(x | mu, sigma).
double LogPdfNormal(double x, double mu, double sigma);

/// log Gamma(x | shape, rate).
double LogPdfGamma(double x, double shape, double rate);

/// log Beta(x | a, b).
double LogPdfBeta(double x, double a, double b);

/// log Bernoulli(x | p) for x in {0,1}.
double LogPmfBernoulli(int x, double p);

/// log Poisson(k | lambda).
double LogPmfPoisson(int k, double lambda);

/// log Binomial(k | n, p).
double LogPmfBinomial(int k, int n, double p);

/// log Weibull(x | shape, scale).
double LogPdfWeibull(double x, double shape, double scale);

/// log Beta-Binomial marginal: probability of k successes in n Bernoulli
/// trials whose rate was integrated against Beta(a, b). This is the collapsed
/// likelihood at the heart of the HBP/DPMHBP samplers.
double LogBetaBinomial(int k, int n, double a, double b);

}  // namespace stats
}  // namespace piperisk

#endif  // PIPERISK_STATS_DISTRIBUTIONS_H_
