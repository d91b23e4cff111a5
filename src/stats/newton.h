#ifndef PIPERISK_STATS_NEWTON_H_
#define PIPERISK_STATS_NEWTON_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "stats/linalg.h"

namespace piperisk {
namespace stats {

/// Ridge-penalised Newton ascent shared by the generalised linear models
/// (core::PoissonRegression, baselines::LogisticRegression).

/// Row-major copy of a design: the layout the solver's row loops and the
/// WeightedGram kernel stream.
struct Design {
  std::vector<double> x;
  std::size_t rows = 0;
  std::size_t cols = 0;

  const double* row(std::size_t i) const { return x.data() + i * cols; }
};

/// Flattens `rows`; InvalidArgument when they are ragged or any value is NaN
/// or infinite.
Result<Design> FlattenDesign(const std::vector<std::vector<double>>& rows);

struct NewtonConfig {
  double ridge = 0.0;        ///< L2 penalty on the weights (not intercept)
  int max_iterations = 0;    ///< cap on Newton iterations
  double tolerance = 1e-8;   ///< gradient-norm stop, relative to 1 + |ll|
};

/// Adds one fit's work to the registry counters `stats.newton.iterations`
/// (gradient + Hessian builds) and `stats.newton.loglik_evals`.
void RecordNewtonWork(std::int64_t iterations, std::int64_t loglik_evals);

/// Maximises  sum_i row_loglik(i, eta_i) - ridge/2 ||w||^2  over the
/// intercept b0 and weights w, with eta_i = b0 + w' x_i summed left to
/// right. `row_score(i, eta, &resid)` returns the Hessian weight of row i
/// and sets d ll_i / d eta. Each iteration solves the penalised Newton
/// system (Hessian from WeightedGram plus ridge and a 1e-9 floor) and
/// halves the step, at most 30 times, until the objective does not drop.
/// It stops when the gradient norm falls under tolerance * (1 + |ll|), when
/// no halving helps, or at max_iterations. `intercept` and `weights` carry
/// the start point in and the fit out. Returns the iterations that moved
/// the fit; fails only when the Newton system is not positive definite.
template <typename RowLogLik, typename RowScore>
Result<int> NewtonGlm(const Design& design, const NewtonConfig& config,
                      const RowLogLik& row_loglik, const RowScore& row_score,
                      double* intercept, std::vector<double>* weights) {
  const std::size_t n = design.rows;
  const std::size_t d = design.cols;
  std::int64_t hessians = 0, evals = 0;
  std::vector<double> eta(n);
  auto loglik = [&](double b0, const std::vector<double>& w) {
    ++evals;
    LinearPredictors(design.x.data(), n, d, b0, w.data(), eta.data());
    double ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) ll += row_loglik(i, eta[i]);
    for (double wc : w) ll -= 0.5 * config.ridge * wc * wc;
    return ll;
  };

  double current_ll = loglik(*intercept, *weights);
  std::vector<double> hess_weight(n);
  int iter = 0;
  for (; iter < config.max_iterations; ++iter) {
    ++hessians;
    std::vector<double> grad(d + 1, 0.0);
    LinearPredictors(design.x.data(), n, d, *intercept, weights->data(),
                     eta.data());
    for (std::size_t i = 0; i < n; ++i) {
      double resid = 0.0;
      hess_weight[i] = row_score(i, eta[i], &resid);
      const double* xi = design.row(i);
      for (std::size_t c = 0; c < d; ++c) grad[c] += resid * xi[c];
      grad[d] += resid;
    }
    SymmetricMatrix hess =
        WeightedGram(design.x.data(), n, d, hess_weight.data());
    for (std::size_t c = 0; c < d; ++c) {
      grad[c] -= config.ridge * (*weights)[c];
      hess.at(c, c) += config.ridge;
    }
    hess.AddDiagonal(1e-9);  // numerical floor

    if (Norm2(grad) < config.tolerance * (1.0 + std::fabs(current_ll))) break;

    auto step = CholeskySolve(hess, grad);
    if (!step.ok()) {
      RecordNewtonWork(hessians, evals);
      return step.status();
    }

    // Step halving to guarantee ascent.
    double scale = 1.0;
    bool improved = false;
    for (int half = 0; half < 30; ++half) {
      std::vector<double> w_try = *weights;
      for (std::size_t c = 0; c < d; ++c) w_try[c] += scale * (*step)[c];
      double b0_try = *intercept + scale * (*step)[d];
      double ll_try = loglik(b0_try, w_try);
      if (ll_try > current_ll - 1e-12) {
        *weights = std::move(w_try);
        *intercept = b0_try;
        current_ll = ll_try;
        improved = true;
        break;
      }
      scale *= 0.5;
    }
    if (!improved) break;  // converged to numerical precision
  }
  RecordNewtonWork(hessians, evals);
  return iter;
}

}  // namespace stats
}  // namespace piperisk

#endif  // PIPERISK_STATS_NEWTON_H_
