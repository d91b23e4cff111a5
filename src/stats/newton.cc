#include "stats/newton.h"

#include "common/telemetry.h"

namespace piperisk {
namespace stats {

Result<Design> FlattenDesign(const std::vector<std::vector<double>>& rows) {
  Design design;
  design.rows = rows.size();
  design.cols = rows.empty() ? 0 : rows[0].size();
  design.x.reserve(design.rows * design.cols);
  for (const auto& row : rows) {
    if (row.size() != design.cols) {
      return Status::InvalidArgument("ragged feature rows");
    }
    for (double v : row) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite feature value");
      }
    }
    design.x.insert(design.x.end(), row.begin(), row.end());
  }
  return design;
}

void RecordNewtonWork(std::int64_t iterations, std::int64_t loglik_evals) {
  struct Counters {
    telemetry::Counter* iterations;
    telemetry::Counter* loglik_evals;
  };
  static const Counters counters = [] {
    auto& registry = telemetry::Registry::Global();
    return Counters{registry.GetCounter("stats.newton.iterations"),
                    registry.GetCounter("stats.newton.loglik_evals")};
  }();
  counters.iterations->Add(iterations);
  counters.loglik_evals->Add(loglik_evals);
}

}  // namespace stats
}  // namespace piperisk
