// Microbenchmarks for the inference core: full model fits on a small region
// plus the per-sweep cost of the DPMHBP sampler. These quantify the claim
// that the Metropolis-within-Gibbs sampler "handles large-scale datasets".

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "baselines/cox.h"
#include "baselines/logistic.h"
#include "baselines/rank_model.h"
#include "baselines/rsf.h"
#include "baselines/weibull.h"
#include "core/beta_bernoulli.h"
#include "core/covariates.h"
#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "core/suffstats.h"
#include "data/failure_simulator.h"

using namespace piperisk;

namespace {

/// Shared fixture data built once (generation excluded from timings).
struct Fixture {
  data::RegionDataset dataset;
  core::ModelInput input;
};

const Fixture& GetFixture() {
  static Fixture* fixture = [] {
    auto f = new Fixture();
    data::RegionConfig config = data::RegionConfig::Tiny(3);
    config.num_pipes = 1500;
    config.target_failures_all = 900.0;
    config.target_failures_cwm = 140.0;
    auto dataset = data::GenerateRegion(config);
    f->dataset = std::move(*dataset);
    auto input = core::ModelInput::Build(
        f->dataset, data::TemporalSplit::Paper(),
        net::PipeCategory::kCriticalMain, net::FeatureConfig::DrinkingWater());
    f->input = std::move(*input);
    return f;
  }();
  return *fixture;
}

/// Region A's CWM design (the calibrated paper region: 3 793 rows, 33
/// features) with HBP-style pipe counts: training failure-years over years
/// observed. The Newton-solver benchmarks fit on it.
struct RegionAFixture {
  data::RegionDataset dataset;
  core::ModelInput input;
  std::vector<double> failure_years;
  std::vector<double> years;
};

const RegionAFixture& GetRegionAFixture() {
  static RegionAFixture* fixture = [] {
    auto f = new RegionAFixture();
    auto dataset = data::GenerateRegion(data::RegionConfig::RegionA());
    f->dataset = std::move(*dataset);
    auto input = core::ModelInput::Build(
        f->dataset, data::TemporalSplit::Paper(),
        net::PipeCategory::kCriticalMain, net::FeatureConfig::DrinkingWater());
    f->input = std::move(*input);
    for (const core::PipeCounts& c : core::BuildPipeCounts(f->input)) {
      f->failure_years.push_back(static_cast<double>(c.k));
      f->years.push_back(std::max(1.0, static_cast<double>(c.n)));
    }
    return f;
  }();
  return *fixture;
}

/// Sufficient-statistic classes of the fixture's segments plus a realistic
/// spread of group rates, shared by the likelihood-kernel benchmarks.
struct SuffStatFixture {
  core::SuffStatClasses classes;
  std::vector<double> multipliers;
  std::vector<double> group_rates;
};

const SuffStatFixture& GetSuffStatFixture() {
  static SuffStatFixture* fixture = [] {
    const Fixture& f = GetFixture();
    auto s = new SuffStatFixture();
    core::HierarchyConfig h;
    s->multipliers = core::FitSegmentMultipliers(f.input, h);
    const size_t n = f.input.num_segments();
    std::vector<double> ks(n), ns(n);
    for (size_t row = 0; row < n; ++row) {
      ks[row] = f.input.segment_counts[row].k;
      ns[row] = f.input.segment_counts[row].n;
    }
    s->classes = core::SuffStatClasses::Build(ks, ns, s->multipliers, h.c);
    for (int g = 0; g < 12; ++g) {
      s->group_rates.push_back(0.005 + 0.004 * g);
    }
    return s;
  }();
  return *fixture;
}

/// The use_covariates=false configuration: every multiplier is 1.0, so all
/// classes share one (a, b) pair per rate and the batch kernel's shared
/// lgamma ladder / memoised offsets amortise maximally. With fitted
/// covariates (the fixture above) multipliers are near-distinct per class
/// and the batch layout degenerates to scalar-equivalent work — keep both
/// so the recorded numbers show the whole envelope, not the best case.
const SuffStatFixture& GetNoCovariateSuffStatFixture() {
  static SuffStatFixture* fixture = [] {
    const Fixture& f = GetFixture();
    auto s = new SuffStatFixture();
    core::HierarchyConfig h;
    const size_t n = f.input.num_segments();
    s->multipliers.assign(n, 1.0);
    std::vector<double> ks(n), ns(n);
    for (size_t row = 0; row < n; ++row) {
      ks[row] = f.input.segment_counts[row].k;
      ns[row] = f.input.segment_counts[row].n;
    }
    s->classes = core::SuffStatClasses::Build(ks, ns, s->multipliers, h.c);
    for (int g = 0; g < 12; ++g) {
      s->group_rates.push_back(0.005 + 0.004 * g);
    }
    return s;
  }();
  return *fixture;
}

}  // namespace

static void BM_GenerateTinyRegion(benchmark::State& state) {
  for (auto _ : state) {
    auto dataset = data::GenerateRegion(data::RegionConfig::Tiny(7));
    benchmark::DoNotOptimize(dataset.ok());
  }
}
BENCHMARK(BM_GenerateTinyRegion)->Unit(benchmark::kMillisecond);

// --- Likelihood kernels -----------------------------------------------------

static void BM_LogMarginalNoBinom(benchmark::State& state) {
  // Representative (k, n) spread for a segment history, mean tilted by a
  // varying multiplier: the exact call pattern of the naive CRP weight loop.
  const double c = 12.0;
  int i = 0;
  for (auto _ : state) {
    double mean = 0.002 + 0.00003 * (i & 255);
    double k = i & 3;
    benchmark::DoNotOptimize(
        core::LogMarginalNoBinom(k, 12.0, c * mean, c * (1.0 - mean)));
    ++i;
  }
}
BENCHMARK(BM_LogMarginalNoBinom);

static void BM_ClassLogLik(benchmark::State& state) {
  // The deduplicated kernel: same marginal, but with the rate-independent
  // lgamma(c) - lgamma(c + n) normaliser hoisted into a per-class constant.
  const SuffStatFixture& s = GetSuffStatFixture();
  const size_t num_classes = s.classes.num_classes();
  size_t cls = 0;
  int i = 0;
  for (auto _ : state) {
    double q = 0.002 + 0.00003 * (i & 255);
    benchmark::DoNotOptimize(s.classes.ClassLogLik(cls, q));
    cls = (cls + 1) % num_classes;
    ++i;
  }
}
BENCHMARK(BM_ClassLogLik);

static void BM_FillColumnScalar(benchmark::State& state) {
  // The scalar reference column kernel: one ClassLogLik per class, no
  // batching. Baseline for the SoA batch speedup claim.
  const SuffStatFixture& s = GetSuffStatFixture();
  std::vector<double> col;
  int i = 0;
  for (auto _ : state) {
    double q = s.group_rates[static_cast<size_t>(i) % s.group_rates.size()];
    s.classes.FillColumn(q, &col);
    benchmark::DoNotOptimize(col.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(s.classes.num_classes()));
}
BENCHMARK(BM_FillColumnScalar);

static void BM_FillColumnBatch(benchmark::State& state) {
  // The batched column kernel (bit-identical to the scalar one): shared
  // lgamma ladder + memoised offsets per multiplier group, combine loop
  // vectorised. simd_off=1 forces the portable combine loop, isolating the
  // batching win from the AVX2 win.
  const SuffStatFixture& s = GetSuffStatFixture();
  core::SetSimdMode(state.range(0) == 0 ? core::SimdMode::kAuto
                                        : core::SimdMode::kOff);
  std::vector<double> col;
  core::SuffStatClasses::ColumnScratch scratch;
  int i = 0;
  for (auto _ : state) {
    double q = s.group_rates[static_cast<size_t>(i) % s.group_rates.size()];
    s.classes.FillColumnBatch(q, &col, &scratch);
    benchmark::DoNotOptimize(col.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(s.classes.num_classes()));
  core::SetSimdMode(core::SimdMode::kAuto);
}
BENCHMARK(BM_FillColumnBatch)->ArgNames({"simd_off"})->Arg(0)->Arg(1);

static void BM_FillColumnScalarNoCov(benchmark::State& state) {
  const SuffStatFixture& s = GetNoCovariateSuffStatFixture();
  std::vector<double> col;
  int i = 0;
  for (auto _ : state) {
    double q = s.group_rates[static_cast<size_t>(i) % s.group_rates.size()];
    s.classes.FillColumn(q, &col);
    benchmark::DoNotOptimize(col.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(s.classes.num_classes()));
}
BENCHMARK(BM_FillColumnScalarNoCov);

static void BM_FillColumnBatchNoCov(benchmark::State& state) {
  const SuffStatFixture& s = GetNoCovariateSuffStatFixture();
  core::SetSimdMode(state.range(0) == 0 ? core::SimdMode::kAuto
                                        : core::SimdMode::kOff);
  std::vector<double> col;
  core::SuffStatClasses::ColumnScratch scratch;
  int i = 0;
  for (auto _ : state) {
    double q = s.group_rates[static_cast<size_t>(i) % s.group_rates.size()];
    s.classes.FillColumnBatch(q, &col, &scratch);
    benchmark::DoNotOptimize(col.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(s.classes.num_classes()));
  core::SetSimdMode(core::SimdMode::kAuto);
}
BENCHMARK(BM_FillColumnBatchNoCov)->ArgNames({"simd_off"})->Arg(0)->Arg(1);

// --- CRP weight sweep: naive vs deduplicated --------------------------------

/// One full CRP weight evaluation over every segment and group, the way the
/// pre-dedup sampler did it: LogMarginalNoBinom per (row, group).
static void BM_CrpWeightLoopNaive(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const SuffStatFixture& s = GetSuffStatFixture();
  const size_t n = f.input.num_segments();
  const double c = 12.0;
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t row = 0; row < n; ++row) {
      const auto& counts = f.input.segment_counts[row];
      for (double q : s.group_rates) {
        double mean = std::clamp(q * s.multipliers[row], 1e-7, 1.0 - 1e-7);
        acc += core::LogMarginalNoBinom(counts.k, counts.n, c * mean,
                                        c * (1.0 - mean));
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n) *
                          static_cast<long>(s.group_rates.size()));
}
BENCHMARK(BM_CrpWeightLoopNaive)->Unit(benchmark::kMillisecond);

/// The deduplicated equivalent: fill one likelihood column per group, then
/// look rows up through their class ids (the cached-sweep fast path).
static void BM_CrpWeightLoopDedup(benchmark::State& state) {
  const Fixture& f = GetFixture();
  const SuffStatFixture& s = GetSuffStatFixture();
  const size_t n = f.input.num_segments();
  std::vector<std::vector<double>> columns(s.group_rates.size());
  for (auto _ : state) {
    for (size_t g = 0; g < s.group_rates.size(); ++g) {
      s.classes.FillColumn(s.group_rates[g], &columns[g]);
    }
    double acc = 0.0;
    for (size_t row = 0; row < n; ++row) {
      const size_t cls = s.classes.row_class(row);
      for (const auto& col : columns) acc += col[cls];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n) *
                          static_cast<long>(s.group_rates.size()));
}
BENCHMARK(BM_CrpWeightLoopDedup)->Unit(benchmark::kMillisecond);

// --- Full sampler fits: deduplicated (default) vs reference -----------------

static void BM_DpmhbpSweeps(benchmark::State& state) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    core::DpmhbpConfig config;
    config.hierarchy.burn_in = static_cast<int>(state.range(0));
    config.hierarchy.samples = static_cast<int>(state.range(0));
    core::DpmhbpModel model(config);
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0) *
                          static_cast<long>(f.input.num_segments()));
}
BENCHMARK(BM_DpmhbpSweeps)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

static void BM_DpmhbpSweepsNaive(benchmark::State& state) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    core::DpmhbpConfig config;
    config.hierarchy.dedup_suffstats = false;
    config.hierarchy.burn_in = static_cast<int>(state.range(0));
    config.hierarchy.samples = static_cast<int>(state.range(0));
    core::DpmhbpModel model(config);
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0) *
                          static_cast<long>(f.input.num_segments()));
}
BENCHMARK(BM_DpmhbpSweepsNaive)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

static void BM_DpmhbpSweepThreads(benchmark::State& state) {
  // Single-chain sweep throughput with within-chain partitioning.
  // Deterministic mode: scores are bit-identical to sweep_threads=1 (the
  // wall-clock win is the only difference).
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    core::DpmhbpConfig config;
    config.hierarchy.burn_in = 20;
    config.hierarchy.samples = 20;
    config.hierarchy.sweep_threads = static_cast<int>(state.range(0));
    core::DpmhbpModel model(config);
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
  state.SetItemsProcessed(state.iterations() * 40 *
                          static_cast<long>(f.input.num_segments()));
}
BENCHMARK(BM_DpmhbpSweepThreads)
    ->ArgNames({"sweep_threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_DpmhbpFastSweeps(benchmark::State& state) {
  // Fast mode on top: the CRP pass itself is sharded (deterministic per
  // (seed, sweep_threads), statistically gated against the serial sampler).
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    core::DpmhbpConfig config;
    config.hierarchy.burn_in = 20;
    config.hierarchy.samples = 20;
    config.hierarchy.sweep_threads = static_cast<int>(state.range(0));
    config.hierarchy.fast_sweeps = true;
    core::DpmhbpModel model(config);
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
  state.SetItemsProcessed(state.iterations() * 40 *
                          static_cast<long>(f.input.num_segments()));
}
BENCHMARK(BM_DpmhbpFastSweeps)
    ->ArgNames({"sweep_threads"})
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_HbpFit(benchmark::State& state) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    core::HbpModel model(core::GroupingScheme::kMaterial);
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
}
BENCHMARK(BM_HbpFit)->Unit(benchmark::kMillisecond);

static void BM_HbpFitNaive(benchmark::State& state) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    core::HierarchyConfig h;
    h.dedup_suffstats = false;
    core::HbpModel model(core::GroupingScheme::kMaterial, h);
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
}
BENCHMARK(BM_HbpFitNaive)->Unit(benchmark::kMillisecond);

static void BM_CoxFit(benchmark::State& state) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    baselines::CoxModel model;
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
}
BENCHMARK(BM_CoxFit)->Unit(benchmark::kMillisecond);

static void BM_WeibullFit(benchmark::State& state) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    baselines::WeibullModel model;
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
}
BENCHMARK(BM_WeibullFit)->Unit(benchmark::kMillisecond);

static void BM_RsfFit(benchmark::State& state) {
  // The compare suite's forest (default config) on region A's CWM pipes.
  // The fitted forest is bit-identical at every fit_threads.
  const RegionAFixture& f = GetRegionAFixture();
  for (auto _ : state) {
    baselines::RsfConfig config;
    config.num_fit_threads = static_cast<int>(state.range(0));
    baselines::RsfModel model(config);
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
}
BENCHMARK(BM_RsfFit)
    ->ArgNames({"fit_threads"})
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_PoissonRegressionFit(benchmark::State& state) {
  const RegionAFixture& f = GetRegionAFixture();
  for (auto _ : state) {
    auto fit = core::PoissonRegression::Fit(f.input.pipe_features,
                                            f.failure_years, f.years, {});
    benchmark::DoNotOptimize(fit.ok());
  }
}
BENCHMARK(BM_PoissonRegressionFit)->Unit(benchmark::kMillisecond);

static void BM_LogisticFit(benchmark::State& state) {
  const RegionAFixture& f = GetRegionAFixture();
  for (auto _ : state) {
    baselines::LogisticModel model;
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
}
BENCHMARK(BM_LogisticFit)->Unit(benchmark::kMillisecond);

static void BM_RankHingeFit(benchmark::State& state) {
  const Fixture& f = GetFixture();
  for (auto _ : state) {
    baselines::RankModelConfig config;
    config.epochs = 10;
    baselines::RankModel model(config);
    benchmark::DoNotOptimize(model.Fit(f.input).ok());
  }
}
BENCHMARK(BM_RankHingeFit)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("piperisk_build_type", bench::BuildType());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::MaybeWriteBenchMetrics("core");
  return 0;
}
