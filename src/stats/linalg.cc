#include "stats/linalg.h"

#include <cmath>

#include "common/logging.h"

namespace piperisk {
namespace stats {

void SymmetricMatrix::AddSymmetric(std::size_t r, std::size_t c, double value) {
  at(r, c) += value;
  if (r != c) at(c, r) += value;
}

void SymmetricMatrix::AddDiagonal(double value) {
  for (std::size_t i = 0; i < dim_; ++i) at(i, i) += value;
}

SymmetricMatrix WeightedGram(const double* x, std::size_t n, std::size_t d,
                             const double* w) {
  SymmetricMatrix h(d + 1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* x0 = x + i * d;
    const double* x1 = x0 + d;
    const double* x2 = x1 + d;
    const double* x3 = x2 + d;
    for (std::size_t r = 0; r < d; ++r) {
      const double a0 = w[i] * x0[r], a1 = w[i + 1] * x1[r],
                   a2 = w[i + 2] * x2[r], a3 = w[i + 3] * x3[r];
      double* hr = &h.at(r, 0);
      for (std::size_t c = r; c < d; ++c) {
        double s = hr[c];
        s += a0 * x0[c];
        s += a1 * x1[c];
        s += a2 * x2[c];
        s += a3 * x3[c];
        hr[c] = s;
      }
      double s = hr[d];
      s += a0;
      s += a1;
      s += a2;
      s += a3;
      hr[d] = s;
    }
    double s = h.at(d, d);
    s += w[i];
    s += w[i + 1];
    s += w[i + 2];
    s += w[i + 3];
    h.at(d, d) = s;
  }
  for (; i < n; ++i) {
    const double* xi = x + i * d;
    for (std::size_t r = 0; r < d; ++r) {
      const double ar = w[i] * xi[r];
      double* hr = &h.at(r, 0);
      for (std::size_t c = r; c < d; ++c) hr[c] += ar * xi[c];
      hr[d] += ar;
    }
    h.at(d, d) += w[i];
  }
  for (std::size_t r = 0; r <= d; ++r) {
    for (std::size_t c = r + 1; c <= d; ++c) h.at(c, r) = h.at(r, c);
  }
  return h;
}

void LinearPredictors(const double* x, std::size_t n, std::size_t d,
                      double b0, const double* w, double* eta) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* x0 = x + i * d;
    const double* x1 = x0 + d;
    const double* x2 = x1 + d;
    const double* x3 = x2 + d;
    double e0 = b0, e1 = b0, e2 = b0, e3 = b0;
    for (std::size_t c = 0; c < d; ++c) {
      e0 += w[c] * x0[c];
      e1 += w[c] * x1[c];
      e2 += w[c] * x2[c];
      e3 += w[c] * x3[c];
    }
    eta[i] = e0;
    eta[i + 1] = e1;
    eta[i + 2] = e2;
    eta[i + 3] = e3;
  }
  for (; i < n; ++i) {
    const double* xi = x + i * d;
    double e = b0;
    for (std::size_t c = 0; c < d; ++c) e += w[c] * xi[c];
    eta[i] = e;
  }
}

Result<std::vector<double>> CholeskySolve(const SymmetricMatrix& a,
                                          const std::vector<double>& b) {
  const std::size_t n = a.dim();
  if (b.size() != n) {
    return Status::InvalidArgument("rhs length does not match matrix dim");
  }
  // Lower-triangular factor L with A = L L'.
  std::vector<double> l(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        if (!(sum > 1e-300)) {
          return Status::NumericalError(
              "matrix not positive definite in Cholesky");
        }
        l[i * n + i] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
  // Forward solve L y = b.
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * y[k];
    y[i] = sum / l[i * n + i];
  }
  // Back solve L' x = y.
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l[k * n + ii] * x[k];
    x[ii] = sum / l[ii * n + ii];
  }
  return x;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  PIPERISK_CHECK(a.size() == b.size()) << "dot length mismatch";
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y) {
  PIPERISK_CHECK(x.size() == y->size()) << "axpy length mismatch";
  for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

}  // namespace stats
}  // namespace piperisk
