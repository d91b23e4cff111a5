#include "core/suffstats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/telemetry.h"
#include "core/beta_bernoulli.h"
#include "stats/special.h"

namespace piperisk {
namespace core {

SuffStatClasses SuffStatClasses::Build(const std::vector<double>& k,
                                       const std::vector<double>& n,
                                       const std::vector<double>& multiplier,
                                       double c, double mean_floor,
                                       double mean_ceil) {
  PIPERISK_CHECK(k.size() == n.size() && k.size() == multiplier.size())
      << "suffstat input size mismatch";
  PIPERISK_CHECK(c > 0.0) << "concentration must be positive";
  SuffStatClasses out;
  out.c_ = c;
  out.mean_floor_ = mean_floor;
  out.mean_ceil_ = mean_ceil;
  out.row_class_.resize(k.size());
  // Exact bit-level keying: two rows share a class only when their triples
  // are identical doubles, so a class's log marginal is exactly every
  // member's log marginal. Class ids follow first appearance in row order.
  std::map<std::array<double, 3>, size_t> ids;
  for (size_t row = 0; row < k.size(); ++row) {
    std::array<double, 3> key{k[row], n[row], multiplier[row]};
    auto [it, inserted] = ids.emplace(key, out.k_.size());
    if (inserted) {
      out.k_.push_back(k[row]);
      out.n_.push_back(n[row]);
      out.multiplier_.push_back(multiplier[row]);
      out.class_rows_.push_back(0);
    }
    out.row_class_[row] = it->second;
    out.class_rows_[it->second] += 1;
  }
  out.log_norm_const_.resize(out.k_.size());
  out.k_int_.resize(out.k_.size());
  const double lgamma_c = stats::LogGamma(c);
  for (size_t cls = 0; cls < out.k_.size(); ++cls) {
    out.log_norm_const_[cls] = lgamma_c - stats::LogGamma(c + out.n_[cls]);
    const double kd = out.k_[cls];
    const bool small_integer =
        kd >= 0.0 && kd <= 64.0 && kd == std::floor(kd) && kd <= out.n_[cls];
    out.k_int_[cls] = small_integer ? static_cast<int>(kd) : -1;
  }
  // Batch layout: group classes by exact multiplier bits so one tilted mean
  // (and hence one (a, b) pair, one lgamma(b), one rising ladder, one
  // memoised offset table) serves every class in the group. Group ids follow
  // first appearance in class order; output order is irrelevant because each
  // class writes its own slot.
  {
    std::map<double, size_t> gid;
    std::vector<std::vector<std::uint32_t>> members;
    for (size_t cls = 0; cls < out.k_.size(); ++cls) {
      auto [it, inserted] = gid.emplace(out.multiplier_[cls], members.size());
      if (inserted) members.emplace_back();
      members[it->second].push_back(static_cast<std::uint32_t>(cls));
    }
    for (const auto& group : members) {
      MultGroup mg;
      mg.multiplier = out.multiplier_[group.front()];
      mg.begin = out.grouped_cls_.size();
      mg.off_begin = out.offsets_.size();
      mg.slow_begin = out.slow_cls_.size();
      std::map<double, std::uint32_t> off_idx;
      for (std::uint32_t cls : group) {
        const int ki = out.k_int_[cls];
        if (ki < 0) {
          out.slow_cls_.push_back(cls);
          out.slow_k_.push_back(out.k_[cls]);
          out.slow_n_.push_back(out.n_[cls]);
          out.slow_lnc_.push_back(out.log_norm_const_[cls]);
          continue;
        }
        // The scalar path's lgamma argument is b + (n - ki) with n - ki
        // computed first; memoise on those exact offset bits.
        const double offset = out.n_[cls] - ki;
        auto [oit, oinserted] =
            off_idx.emplace(offset, static_cast<std::uint32_t>(off_idx.size()));
        if (oinserted) out.offsets_.push_back(offset);
        out.grouped_cls_.push_back(cls);
        out.grouped_ki_.push_back(ki);
        out.grouped_oidx_.push_back(oit->second);
        out.grouped_lnc_.push_back(out.log_norm_const_[cls]);
        mg.max_ki = std::max(mg.max_ki, ki);
      }
      mg.end = out.grouped_cls_.size();
      mg.off_end = out.offsets_.size();
      mg.slow_end = out.slow_cls_.size();
      out.mult_groups_.push_back(mg);
    }
  }
  {
    auto& registry = telemetry::Registry::Global();
    static telemetry::Counter* const builds =
        registry.GetCounter("suffstats.builds");
    static telemetry::Counter* const rows =
        registry.GetCounter("suffstats.rows");
    static telemetry::Counter* const classes =
        registry.GetCounter("suffstats.classes");
    builds->Increment();
    rows->Add(static_cast<std::int64_t>(out.num_rows()));
    classes->Add(static_cast<std::int64_t>(out.num_classes()));
  }
  return out;
}

double SuffStatClasses::ClassLogLik(size_t cls, double q) const {
  const double mean =
      std::clamp(q * multiplier_[cls], mean_floor_, mean_ceil_);
  const int ki = k_int_[cls];
  if (ki < 0) {
    return LogMarginalNoBinomHoisted(k_[cls], n_[cls], c_ * mean,
                                     c_ * (1.0 - mean), log_norm_const_[cls]);
  }
  // Rising-factorial fast path: exact for integer k, and k is a count of
  // failure years so it is almost always 0 and never large.
  const double a = c_ * mean;
  const double b = c_ * (1.0 - mean);
  double rising = 0.0;
  for (int j = 0; j < ki; ++j) rising += std::log(a + j);
  return rising + stats::LogGamma(b + (n_[cls] - ki)) - stats::LogGamma(b) +
         log_norm_const_[cls];
}

void SuffStatClasses::FillColumn(double q, std::vector<double>* out) const {
  out->resize(num_classes());
  for (size_t cls = 0; cls < num_classes(); ++cls) {
    (*out)[cls] = ClassLogLik(cls, q);
  }
}

void SuffStatClasses::FillColumnBatch(double q, std::vector<double>* out,
                                      ColumnScratch* scratch) const {
  out->resize(num_classes());
  double* const o = out->data();
  for (const MultGroup& mg : mult_groups_) {
    const double mean = std::clamp(q * mg.multiplier, mean_floor_, mean_ceil_);
    const double a = c_ * mean;
    const double b = c_ * (1.0 - mean);
    const double lgamma_b = stats::LogGamma(b);
    // Cumulative rising factorial: rising[j] is exactly the scalar ladder's
    // left-to-right partial sum after j terms, so rising[ki] is bit-equal to
    // the scalar loop's accumulator for class k = ki.
    scratch->rising.resize(static_cast<size_t>(mg.max_ki) + 1);
    scratch->rising[0] = 0.0;
    for (int j = 0; j < mg.max_ki; ++j) {
      scratch->rising[static_cast<size_t>(j) + 1] =
          scratch->rising[static_cast<size_t>(j)] + std::log(a + j);
    }
    // Memoised lgamma table: one entry per distinct n - k in the group —
    // the "integer arguments that dominate" (a handful of exposure totals),
    // so the whole group pays O(distinct offsets) lgammas, not O(classes).
    scratch->lgamma_off.resize(mg.off_end - mg.off_begin);
    for (size_t oi = mg.off_begin; oi < mg.off_end; ++oi) {
      scratch->lgamma_off[oi - mg.off_begin] = stats::LogGamma(b + offsets_[oi]);
    }
    // Combine: a pure gather + three IEEE adds/subs per class, associated
    // exactly as the scalar ClassLogLik.
    const double* rising = scratch->rising.data();
    const double* lgamma_off = scratch->lgamma_off.data();
    for (std::size_t i = mg.begin; i < mg.end; ++i) {
      o[grouped_cls_[i]] =
          ((rising[grouped_ki_[i]] + lgamma_off[grouped_oidx_[i]]) -
           lgamma_b) +
          grouped_lnc_[i];
    }
    // Fractional-k stragglers: the 4-lgamma hoisted form, batched with
    // lgamma(a)/lgamma(b) lifted out of the loop.
    const std::size_t slow_count = mg.slow_end - mg.slow_begin;
    if (slow_count > 0) {
      scratch->slow.resize(slow_count);
      LogMarginalNoBinomHoistedBatch(
          slow_k_.data() + mg.slow_begin, slow_n_.data() + mg.slow_begin, a, b,
          slow_lnc_.data() + mg.slow_begin, scratch->slow.data(), slow_count);
      for (std::size_t i = 0; i < slow_count; ++i) {
        o[slow_cls_[mg.slow_begin + i]] = scratch->slow[i];
      }
    }
  }
}

const std::vector<double>& GroupLikelihoodCache::Refresh(size_t g,
                                                         std::uint64_t version,
                                                         double q) {
  ++misses_;
  if (g >= slots_.size()) slots_.resize(g + 1);
  classes_->FillColumnBatch(q, &slots_[g].col, &serial_scratch_);
  slots_[g].version = version;
  return slots_[g].col;
}

}  // namespace core
}  // namespace piperisk
