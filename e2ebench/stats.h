#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

// Order statistics for the end-to-end benchmark. Every summary carries the
// number of samples it was computed from, so a reported percentile can be
// judged by how many observations lie beyond it.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

namespace piperisk {
namespace e2e {

/// Median and quartiles of a sample. The quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads computed here match the ones a Python harness computes from the
/// same numbers.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t count = 0;
};

/// The highest percentile that still has at least `min_beyond` samples
/// strictly above its rank: the tail a sample of this size can support.
struct Tail {
  double percentile = 0.0;  ///< in (0, 100)
  double value = 0.0;
  std::size_t count = 0;    ///< samples in the whole set
  std::size_t beyond = 0;   ///< samples ranked above `value`
};

inline double SortedMedian(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/// Median of an unsorted sample; 0 for an empty one.
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return SortedMedian(values);
}

/// Quartiles of an unsorted sample. A single value is its own quartiles;
/// an empty sample yields all zeros with count 0.
inline Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.median = SortedMedian(values);
  const std::size_t n = values.size();
  if (n == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles, method="exclusive": m = n + 1, cut point i of 4
  // sits at position i * m / 4 (1-based), clamped to [1, n - 1] and then
  // interpolated (or, after clamping, extrapolated) from its two neighbours.
  const long long ln = static_cast<long long>(n);
  const long long m = ln + 1;
  auto cut = [&](long long i) {
    const long long j = std::clamp<long long>(i * m / 4, 1, ln - 1);
    const long long delta = i * m - j * 4;
    const std::size_t hi = static_cast<std::size_t>(j);
    return (values[hi - 1] * static_cast<double>(4 - delta) +
            values[hi] * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = cut(1);
  out.q3 = cut(3);
  return out;
}

/// Interpolated quantile q in [0, 1] of a sorted sample (linear between the
/// closest ranks); 0 for an empty sample.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// The highest percentile of a sorted sample with at least `min_beyond`
/// samples above it: the value at 0-based rank n - min_beyond - 1, reported
/// as percentile 100 * (n - min_beyond) / n. Empty when the sample has no
/// more than `min_beyond` values.
inline std::optional<Tail> SortedTail(const std::vector<double>& sorted,
                                      std::size_t min_beyond = 10) {
  const std::size_t n = sorted.size();
  if (n <= min_beyond) return std::nullopt;
  Tail tail;
  tail.count = n;
  tail.beyond = min_beyond;
  tail.value = sorted[n - min_beyond - 1];
  tail.percentile = 100.0 * static_cast<double>(n - min_beyond) /
                    static_cast<double>(n);
  return tail;
}

}  // namespace e2e
}  // namespace piperisk

#endif  // E2EBENCH_STATS_H_
