#ifndef PIPERISK_CORE_SUFFSTATS_H_
#define PIPERISK_CORE_SUFFSTATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace piperisk {
namespace core {

/// Sufficient-statistic deduplication for the collapsed beta–Bernoulli
/// likelihood at the heart of the HBP/DPMHBP samplers.
///
/// A segment (or pipe) enters the collapsed likelihood only through its
/// triple (k, n, multiplier): rows with identical triples are exchangeable
/// and have bit-identical log marginals under ANY group rate q. Real
/// networks have far fewer distinct triples than rows (k is a small count,
/// n a handful of observation years, and the covariate multiplier is shared
/// by segments with identical features), so the samplers evaluate the
/// expensive `lgamma` ladder once per equivalence class instead of once per
/// row.
///
/// The class also pre-computes, per class, the rate-independent part of the
/// log marginal: with the (mean, concentration) parameterisation a + b is
/// always the shared concentration c, so
///   lgamma(a + b) - lgamma(a + b + n) = lgamma(c) - lgamma(c + n)
/// is constant in q and is hoisted out of the inner loop, cutting the
/// per-evaluation cost from six lgammas to four.
class SuffStatClasses {
 public:
  SuffStatClasses() = default;

  /// Builds the equivalence classes of the rows (k[i], n[i], multiplier[i])
  /// under shared lower-level concentration `c`. Class ids are assigned in
  /// order of first appearance, so the layout is deterministic. The tilted
  /// prior mean clamp(q * multiplier) uses [mean_floor, mean_ceil], matching
  /// the samplers' TiltedMean.
  static SuffStatClasses Build(const std::vector<double>& k,
                               const std::vector<double>& n,
                               const std::vector<double>& multiplier, double c,
                               double mean_floor = 1e-7,
                               double mean_ceil = 1.0 - 1e-7);

  size_t num_classes() const { return k_.size(); }
  size_t num_rows() const { return row_class_.size(); }

  /// Equivalence class of a row.
  size_t row_class(size_t row) const { return row_class_[row]; }
  /// Number of rows collapsed into a class.
  int class_rows(size_t cls) const { return class_rows_[cls]; }

  double class_k(size_t cls) const { return k_[cls]; }
  double class_n(size_t cls) const { return n_[cls]; }
  double class_multiplier(size_t cls) const { return multiplier_[cls]; }

  /// Collapsed log marginal of class `cls` under group rate q, equal (up to
  /// floating-point re-association) to
  ///   LogMarginalNoBinom(k, n, c * mean, c * (1 - mean)),
  ///   mean = clamp(q * multiplier)
  /// but using the hoisted per-class constant (4 lgammas, not 6). Classes
  /// whose k is a small integer — every real failure history — use the
  /// rising-factorial identity lgamma(a + k) - lgamma(a) = sum_j log(a + j),
  /// which costs k plain logs, leaving 2 lgammas (and none of them for the
  /// failure-free k = 0 majority).
  double ClassLogLik(size_t cls, double q) const;

  /// Fills out[cls] = ClassLogLik(cls, q) for every class. `out` is resized
  /// once and reused by callers (no per-call allocation after warm-up).
  /// Scalar reference implementation — FillColumnBatch is pinned against it
  /// bit-for-bit.
  void FillColumn(double q, std::vector<double>* out) const;

  /// Reusable per-thread scratch for FillColumnBatch: the cumulative
  /// rising-factorial ladder and the memoised per-offset lgamma table. One
  /// instance per calling thread; contents are call-local.
  struct ColumnScratch {
    std::vector<double> rising;
    std::vector<double> lgamma_off;
    std::vector<double> slow;
  };

  /// Batched FillColumn: walks classes grouped by exact multiplier bits, so
  /// each group shares one (a, b) pair, one lgamma(b), one cumulative
  /// rising-factorial ladder (exactly the scalar ladder's left-to-right
  /// partial sums), and one memoised lgamma(b + offset) entry per distinct
  /// offset = n - k. The final combine is a pure gather + three IEEE
  /// adds/subs per class, and every element is bit-identical to FillColumn.
  void FillColumnBatch(double q, std::vector<double>* out,
                       ColumnScratch* scratch) const;

 private:
  /// Classes sharing one exact multiplier value: one tilted mean per group.
  struct MultGroup {
    double multiplier = 1.0;
    std::size_t begin = 0, end = 0;            // range in grouped_* arrays
    std::size_t off_begin = 0, off_end = 0;    // range in offsets_
    std::size_t slow_begin = 0, slow_end = 0;  // range in slow_* arrays
    int max_ki = 0;  // widest rising-factorial ladder in the group
  };

  std::vector<double> k_;
  std::vector<double> n_;
  std::vector<double> multiplier_;
  /// Hoisted lgamma(c) - lgamma(c + n) per class.
  std::vector<double> log_norm_const_;
  /// k as a small integer for the rising-factorial fast path, or -1 when k
  /// is fractional / too large and the 4-lgamma form must be used.
  std::vector<int> k_int_;
  std::vector<int> class_rows_;
  std::vector<size_t> row_class_;
  double c_ = 1.0;
  double mean_floor_ = 1e-7;
  double mean_ceil_ = 1.0 - 1e-7;

  /// Batch layout (built once in Build): SoA views of the integer-k classes
  /// grouped by multiplier, plus the fractional-k stragglers per group.
  std::vector<MultGroup> mult_groups_;
  std::vector<std::uint32_t> grouped_cls_;   // absolute class id
  std::vector<std::int32_t> grouped_ki_;     // integer k (ladder index)
  std::vector<std::uint32_t> grouped_oidx_;  // group-relative offset index
  std::vector<double> grouped_lnc_;          // hoisted log-norm constant
  std::vector<double> offsets_;              // distinct n - k per group
  std::vector<std::uint32_t> slow_cls_;      // classes with fractional k
  std::vector<double> slow_k_;
  std::vector<double> slow_n_;
  std::vector<double> slow_lnc_;
};

/// Versioned per-sweep likelihood cache: one column of class log-likelihoods
/// per sampler group, keyed by the group's rate version. A column is
/// recomputed only when the group's version differs from the cached one —
/// i.e. only when a Metropolis step actually moved the rate or a new table
/// was seated — so groups whose rate did not change pay zero lgammas on the
/// next CRP sweep.
class GroupLikelihoodCache {
 public:
  explicit GroupLikelihoodCache(const SuffStatClasses* classes)
      : classes_(classes) {}

  /// The column for group `g` whose current rate is `q`, identified by
  /// `version` (bump the version whenever the group's rate changes). Grows
  /// to accommodate new groups on demand.
  const std::vector<double>& Column(size_t g, std::uint64_t version, double q) {
    if (g < slots_.size() && slots_[g].version == version) {
      ++hits_;  // plain member: the cache is chain-confined, see hits()
      return slots_[g].col;
    }
    return Refresh(g, version, q);
  }

  /// Lookup statistics since construction. The cache is confined to one
  /// sampler chain, so these are plain (free) increments; chains flush them
  /// into the process-wide telemetry registry when the fit completes.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  // --- Parallel prefetch API (within-chain sweep partitioning) ---
  //
  // The serial coordinator calls EnsureSlots + NeedsRefresh, hands the stale
  // groups to ParallelFor where each block calls RefreshSlot for DISTINCT g
  // with its own scratch, then tallies the hit/miss split serially. Slots
  // never move during the parallel section, so concurrent RefreshSlot calls
  // touch disjoint memory.

  /// Grows the slot table to cover groups [0, count). Serial only.
  void EnsureSlots(size_t count) {
    if (count > slots_.size()) slots_.resize(count);
  }

  /// True when group g's cached column is not at `version`.
  bool NeedsRefresh(size_t g, std::uint64_t version) const {
    return g >= slots_.size() || slots_[g].version != version;
  }

  /// Recomputes group g's column at (version, q) via the batch kernel.
  /// Thread-safe for distinct g after EnsureSlots; does NOT touch the
  /// hit/miss tallies (use TallyLookups from the serial section).
  void RefreshSlot(size_t g, std::uint64_t version, double q,
                   SuffStatClasses::ColumnScratch* scratch) {
    classes_->FillColumnBatch(q, &slots_[g].col, scratch);
    slots_[g].version = version;
  }

  /// Read-only access to a column known to be fresh.
  const std::vector<double>& PeekColumn(size_t g) const {
    return slots_[g].col;
  }

  /// Serial accounting for lookups served by the parallel prefetch.
  void TallyLookups(std::uint64_t hits, std::uint64_t misses) {
    hits_ += hits;
    misses_ += misses;
  }

 private:
  static constexpr std::uint64_t kEmpty =
      std::numeric_limits<std::uint64_t>::max();

  const std::vector<double>& Refresh(size_t g, std::uint64_t version, double q);

  struct Slot {
    std::uint64_t version = kEmpty;
    std::vector<double> col;
  };
  const SuffStatClasses* classes_;
  std::vector<Slot> slots_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Scratch for the serial Refresh path (the cache is chain-confined).
  SuffStatClasses::ColumnScratch serial_scratch_;
};

}  // namespace core
}  // namespace piperisk

#endif  // PIPERISK_CORE_SUFFSTATS_H_
