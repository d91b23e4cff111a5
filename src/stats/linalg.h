#ifndef PIPERISK_STATS_LINALG_H_
#define PIPERISK_STATS_LINALG_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace piperisk {
namespace stats {

/// Minimal dense linear algebra for the Newton solvers (Cox partial
/// likelihood, Poisson/logistic regression, Weibull NHPP). Matrices are
/// row-major square and small (feature dimension ~ dozens), so simple
/// O(d^3) routines are the right tool.

/// Dense symmetric positive-definite matrix in packed row-major form.
class SymmetricMatrix {
 public:
  explicit SymmetricMatrix(std::size_t dim) : dim_(dim), data_(dim * dim, 0.0) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * dim_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * dim_ + c]; }
  std::size_t dim() const { return dim_; }

  /// Adds `value` to both (r,c) and (c,r) halves (or the diagonal once).
  void AddSymmetric(std::size_t r, std::size_t c, double value);

  /// Adds `value` to every diagonal element (ridge).
  void AddDiagonal(double value);

 private:
  std::size_t dim_;
  std::vector<double> data_;
};

/// Weighted Gram matrix of a design with an intercept column: the Hessian of
/// every GLM Newton solver in the tree. For a row-major n x d design `x` and
/// row weights `w`, returns the (d+1) x (d+1) matrix (intercept last)
///   h(r, c) = sum_i w_i x_ir x_ic,  h(r, d) = sum_i w_i x_ir,
///   h(d, d) = sum_i w_i.
/// Bit-identity contract: each entry is summed over rows in index order as
/// h += (w_i * x_ir) * x_ic, starting from +0, exactly as the scalar
/// AddSymmetric loop it replaced. The speed comes from layout only: the
/// upper triangle is filled four rows per pass over `h` and mirrored once.
SymmetricMatrix WeightedGram(const double* x, std::size_t n, std::size_t d,
                             const double* w);

/// Linear predictors eta_i = b0 + w' x_i of a row-major n x d design into
/// `eta` (length n). Each row is summed left to right from b0, as the
/// scalar loop; four rows run side by side so their sums overlap.
void LinearPredictors(const double* x, std::size_t n, std::size_t d,
                      double b0, const double* w, double* eta);

/// Solves A x = b for symmetric positive-definite A via Cholesky; fails when
/// A is not positive definite (within a tolerance) or a pivot is NaN.
Result<std::vector<double>> CholeskySolve(const SymmetricMatrix& a,
                                          const std::vector<double>& b);

/// Dot product; vectors must be the same length.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double Norm2(const std::vector<double>& a);

/// y += alpha * x (in place).
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y);

}  // namespace stats
}  // namespace piperisk

#endif  // PIPERISK_STATS_LINALG_H_
