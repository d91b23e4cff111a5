// Tests for the classical baselines: Cox proportional hazards, Weibull
// NHPP, the age-only curves, Poisson and logistic regression. Parameter
// recovery is checked on data generated from each model's own assumptions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "baselines/age_models.h"
#include "baselines/cox.h"
#include "baselines/survival.h"
#include "baselines/logistic.h"
#include "baselines/weibull.h"
#include "common/telemetry.h"
#include "core/covariates.h"
#include "stats/distributions.h"
#include "stats/special.h"
#include "stats/rng.h"
#include "tests/test_util.h"

namespace piperisk {
namespace baselines {
namespace {

using testutil::FastHierarchy;
using testutil::GetSharedRegion;
using testutil::ScoreAuc;

// Bit pattern of a double: the goldens below pin fitted values exactly
// (EXPECT_DOUBLE_EQ would allow 4 ULPs of drift).
std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

#define EXPECT_BITS_EQ(actual, expected) \
  EXPECT_EQ(Bits(actual), Bits(expected)) << (actual) << " vs " << (expected)

void ExpectWeightBits(const std::vector<double>& actual,
                      const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t c = 0; c < actual.size(); ++c) {
    SCOPED_TRACE(c);
    EXPECT_BITS_EQ(actual[c], expected[c]);
  }
}

// --- Poisson regression (core::PoissonRegression) -------------------------------

TEST(PoissonRegressionTest, RecoversCoefficients) {
  stats::Rng rng(21);
  const size_t n = 4000;
  const double b0 = -2.0, b1 = 0.8, b2 = -0.5;
  std::vector<std::vector<double>> rows(n, std::vector<double>(2));
  std::vector<double> counts(n), exposure(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    rows[i][0] = stats::SampleNormal(&rng);
    rows[i][1] = stats::SampleNormal(&rng);
    double mu = std::exp(b0 + b1 * rows[i][0] + b2 * rows[i][1]);
    counts[i] = stats::SamplePoisson(&rng, mu);
  }
  core::PoissonRegressionConfig config;
  config.ridge = 1e-4;
  auto fit = core::PoissonRegression::Fit(rows, counts, exposure, config);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->intercept(), b0, 0.1);
  EXPECT_NEAR(fit->weights()[0], b1, 0.1);
  EXPECT_NEAR(fit->weights()[1], b2, 0.1);
}

TEST(PoissonRegressionTest, ExposureActsAsOffset) {
  stats::Rng rng(22);
  const size_t n = 3000;
  std::vector<std::vector<double>> rows(n, std::vector<double>(1, 0.0));
  std::vector<double> counts(n), exposure(n);
  for (size_t i = 0; i < n; ++i) {
    exposure[i] = 1.0 + (i % 10);
    counts[i] = stats::SamplePoisson(&rng, 0.3 * exposure[i]);
  }
  auto fit = core::PoissonRegression::Fit(rows, counts, exposure, {});
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(std::exp(fit->intercept()), 0.3, 0.03);
}

TEST(PoissonRegressionTest, ValidatesInputs) {
  EXPECT_FALSE(core::PoissonRegression::Fit({}, {}, {}, {}).ok());
  EXPECT_FALSE(
      core::PoissonRegression::Fit({{1.0}}, {1.0}, {0.0}, {}).ok());
  EXPECT_FALSE(
      core::PoissonRegression::Fit({{1.0}}, {-1.0}, {1.0}, {}).ok());
  EXPECT_FALSE(
      core::PoissonRegression::Fit({{1.0}, {1.0, 2.0}}, {1, 1}, {1, 1}, {})
          .ok());
}

TEST(PoissonRegressionTest, GoldenFitIsBitExact) {
  // n % 4 != 0 so the Gram kernel's single-row tail is part of the pin.
  stats::Rng rng(1401);
  const size_t n = 1003, d = 5;
  std::vector<std::vector<double>> rows(n, std::vector<double>(d));
  std::vector<double> counts(n), exposure(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c + 1 < d; ++c) rows[i][c] = stats::SampleNormal(&rng);
    rows[i][d - 1] = stats::SampleBernoulli(&rng, 0.3) ? 1.0 : 0.0;
    exposure[i] = 0.5 + 0.75 * static_cast<double>(i % 7);
    double eta = -1.5 + 0.4 * rows[i][0] - 0.3 * rows[i][1] +
                 0.2 * rows[i][2] + 0.5 * rows[i][4];
    counts[i] = stats::SamplePoisson(&rng, exposure[i] * std::exp(eta));
  }
  core::PoissonRegressionConfig config;
  config.ridge = 0.1;
  auto fit = core::PoissonRegression::Fit(rows, counts, exposure, config);
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ(fit->iterations_used(), 5);
  EXPECT_BITS_EQ(fit->intercept(), -0x1.90964731a54ffp+0);
  ExpectWeightBits(fit->weights(),
                   {0x1.99d5fddddce0fp-2, -0x1.2cb6dcf39a31ap-2,
                    0x1.9678061bc00f5p-3, 0x1.3927a01a239d1p-4,
                    0x1.092bbf4b8ef22p-1});
}

TEST(PoissonRegressionTest, RejectsNonFiniteFeature) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto fit = core::PoissonRegression::Fit({{1.0}, {nan}}, {1.0, 0.0},
                                          {1.0, 1.0}, {});
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

TEST(PoissonRegressionTest, RejectsNonFiniteCount) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto fit = core::PoissonRegression::Fit({{1.0}, {0.5}}, {nan, 0.0},
                                          {1.0, 1.0}, {});
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

TEST(PoissonRegressionTest, RejectsNonFiniteExposure) {
  const double inf = std::numeric_limits<double>::infinity();
  auto fit = core::PoissonRegression::Fit({{1.0}, {0.5}}, {1.0, 0.0},
                                          {1.0, inf}, {});
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

TEST(PoissonRegressionTest, NormalisedMultipliersMeanOne) {
  stats::Rng rng(23);
  std::vector<std::vector<double>> rows(500, std::vector<double>(2));
  std::vector<double> counts(500), exposure(500, 2.0);
  for (auto& r : rows) {
    r[0] = stats::SampleNormal(&rng);
    r[1] = stats::SampleNormal(&rng);
  }
  for (auto& c : counts) c = stats::SamplePoisson(&rng, 0.5);
  auto fit = core::PoissonRegression::Fit(rows, counts, exposure, {});
  ASSERT_TRUE(fit.ok());
  auto mult = core::NormalisedMultipliers(*fit, rows, 0.1, 10.0);
  double mean = 0.0;
  for (double m : mult) {
    EXPECT_GE(m, 0.1);
    EXPECT_LE(m, 10.0);
    mean += m;
  }
  EXPECT_NEAR(mean / mult.size(), 1.0, 0.2);
}

// --- Cox -----------------------------------------------------------------------

TEST(CoxTest, RecoversCoefficientSignsOnSyntheticPh) {
  // Generate survival data from a proportional hazards model with known
  // betas through the real data pipeline is heavy; instead verify on the
  // shared region that Fit converges and known-risky attributes get
  // positive effect.
  const auto& shared = GetSharedRegion();
  CoxModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  EXPECT_GT(model.iterations_used(), 0);
  ASSERT_EQ(model.coefficients().size(), shared.cwm_input.feature_dim());
  // Severe soil corrosion must carry a higher coefficient than low.
  int c_severe = -1, c_low = -1;
  for (size_t c = 0; c < shared.cwm_input.feature_names.size(); ++c) {
    if (shared.cwm_input.feature_names[c] == "soil_corr=severe") {
      c_severe = static_cast<int>(c);
    }
    if (shared.cwm_input.feature_names[c] == "soil_corr=low") {
      c_low = static_cast<int>(c);
    }
  }
  ASSERT_GE(c_severe, 0);
  ASSERT_GE(c_low, 0);
  EXPECT_GT(model.coefficients()[static_cast<size_t>(c_severe)],
            model.coefficients()[static_cast<size_t>(c_low)]);
}

TEST(CoxTest, BaselineHazardIsMonotone) {
  const auto& shared = GetSharedRegion();
  CoxModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  double prev = 0.0;
  for (double age = 0.0; age <= 120.0; age += 5.0) {
    double h = model.BaselineCumulativeHazard(age);
    EXPECT_GE(h, prev - 1e-12) << "age " << age;
    prev = h;
  }
}

TEST(CoxTest, ScoresHaveRankingSkill) {
  const auto& shared = GetSharedRegion();
  CoxModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto scores = model.ScorePipes(shared.cwm_input);
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) EXPECT_GT(s, 0.0);
  EXPECT_GT(ScoreAuc(shared.cwm_input, *scores), 0.55);
}

TEST(CoxTest, ScoreBeforeFitFails) {
  const auto& shared = GetSharedRegion();
  CoxModel model;
  EXPECT_FALSE(model.ScorePipes(shared.cwm_input).ok());
}

TEST(CoxTest, PartialLogLikMatchesHandComputedTiedFixture) {
  // Four subjects, one scalar covariate: A and B share an event at t=2,
  // C fails at t=3, D is censored at t=4.
  //   risk set at t=2: {A,B,C,D}  S = 2 e^b + 2,  tied-event sum D = e^b + 1
  //   risk set at t=3: {C,D}      e^b + 1
  // Breslow: ll = 2b - 2 log(S) - log(e^b + 1)
  // Efron:   ll = 2b - log(S) - log(S - D/2) - log(e^b + 1)
  std::vector<SurvivalObservation> obs{
      {0, 2, true}, {0, 2, true}, {0, 3, true}, {0, 4, false}};
  std::vector<std::vector<double>> z{{1.0}, {0.0}, {1.0}, {0.0}};
  for (double b : {0.0, 0.5, -0.7, 1.3}) {
    double eb = std::exp(b);
    double s = 2.0 * eb + 2.0;
    double tied_sum = eb + 1.0;
    double t3 = std::log(eb + 1.0);
    double breslow = 2.0 * b - 2.0 * std::log(s) - t3;
    double efron =
        2.0 * b - std::log(s) - std::log(s - 0.5 * tied_sum) - t3;
    EXPECT_NEAR(CoxPartialLogLik(obs, z, {b}, CoxTies::kBreslow), breslow,
                1e-12)
        << "beta " << b;
    EXPECT_NEAR(CoxPartialLogLik(obs, z, {b}, CoxTies::kEfron), efron, 1e-12)
        << "beta " << b;
  }
}

TEST(CoxTest, EfronEqualsBreslowWithoutTies) {
  // With distinct event times every tied set has size 1 and the Efron
  // correction term vanishes: the two likelihoods must coincide.
  stats::Rng rng(47);
  std::vector<SurvivalObservation> obs;
  std::vector<std::vector<double>> z;
  for (int i = 0; i < 200; ++i) {
    double x = stats::SampleNormal(&rng);
    double t = stats::SampleExponential(&rng, 0.1 * std::exp(0.4 * x)) +
               1e-7 * (i + 1);
    obs.push_back({0.0, t, rng.NextDouble() < 0.7});
    z.push_back({x});
  }
  for (double b : {0.0, 0.4, -0.3}) {
    EXPECT_NEAR(CoxPartialLogLik(obs, z, {b}, CoxTies::kEfron),
                CoxPartialLogLik(obs, z, {b}, CoxTies::kBreslow), 1e-10)
        << "beta " << b;
  }
}

TEST(CoxTest, EfronAndBreslowFitsDivergeOnTiedAges) {
  // Integer pipe ages tie heavily, so the two corrections land on
  // different coefficients — and each fitted vector must (weakly) beat the
  // other's under its own partial likelihood. Small slack covers the ridge
  // penalty the fit optimises but the naive likelihood omits.
  const auto& shared = GetSharedRegion();
  CoxConfig efron_config;
  efron_config.ties = CoxTies::kEfron;
  CoxConfig breslow_config;
  breslow_config.ties = CoxTies::kBreslow;
  CoxModel efron(efron_config);
  CoxModel breslow(breslow_config);
  ASSERT_TRUE(efron.Fit(shared.cwm_input).ok());
  ASSERT_TRUE(breslow.Fit(shared.cwm_input).ok());
  double max_diff = 0.0;
  ASSERT_EQ(efron.coefficients().size(), breslow.coefficients().size());
  for (size_t c = 0; c < efron.coefficients().size(); ++c) {
    max_diff = std::max(
        max_diff, std::abs(efron.coefficients()[c] - breslow.coefficients()[c]));
  }
  EXPECT_GT(max_diff, 1e-6);
  auto obs = BuildPipeSurvival(shared.cwm_input);
  const auto& feats = shared.cwm_input.pipe_features;
  double e_at_e =
      CoxPartialLogLik(obs, feats, efron.coefficients(), CoxTies::kEfron);
  double e_at_b =
      CoxPartialLogLik(obs, feats, breslow.coefficients(), CoxTies::kEfron);
  double b_at_e =
      CoxPartialLogLik(obs, feats, efron.coefficients(), CoxTies::kBreslow);
  double b_at_b =
      CoxPartialLogLik(obs, feats, breslow.coefficients(), CoxTies::kBreslow);
  EXPECT_GT(e_at_e, e_at_b - 1e-6);
  EXPECT_GT(b_at_b, b_at_e - 1e-6);
}

// --- Weibull --------------------------------------------------------------------

TEST(WeibullTest, RecoversShapeOnPowerLawCounts) {
  // Build a miniature input whose counts follow a pure Weibull process in
  // age: mu = alpha (b^beta - a^beta) with beta = 1.8, alpha = 0.004.
  data::RegionDataset dataset;
  dataset.network = net::Network(net::RegionInfo{"wb", 0, 0});
  stats::Rng rng(31);
  const double kTrueBeta = 1.8, kTrueAlpha = 0.004;
  for (int i = 0; i < 1500; ++i) {
    net::Pipe p;
    p.id = i;
    p.category = net::PipeCategory::kCriticalMain;
    p.material = net::Material::kCicl;
    p.diameter_mm = 450;
    p.laid_year = 1925 + (i % 70);
    ASSERT_TRUE(dataset.network.AddPipe(p).ok());
    net::PipeSegment s;
    s.id = i;
    s.pipe_id = i;
    s.start = {static_cast<double>(i), 0};
    s.end = {static_cast<double>(i), 100};
    ASSERT_TRUE(dataset.network.AddSegment(s).ok());
    double a = std::max(0, 1998 - p.laid_year);
    double b = 2009 - p.laid_year;
    double mu =
        kTrueAlpha * (std::pow(b, kTrueBeta) - std::pow(a, kTrueBeta));
    int failures = stats::SamplePoisson(&rng, mu);
    // Spread failures uniformly over the window (train part only matters).
    for (int f = 0; f < failures; ++f) {
      net::FailureRecord r;
      r.pipe_id = i;
      r.segment_id = i;
      r.year = 1998 + static_cast<int>(rng.NextBounded(11));  // train years
      r.location = s.Midpoint();
      dataset.failures.Add(r);
    }
  }
  dataset.config.observe_first = 1998;
  dataset.config.observe_last = 2009;
  auto input = core::ModelInput::Build(dataset, data::TemporalSplit::Paper(),
                                       net::PipeCategory::kCriticalMain,
                                       net::FeatureConfig::AttributesOnly());
  ASSERT_TRUE(input.ok());
  WeibullModel model;
  ASSERT_TRUE(model.Fit(*input).ok());
  // Counts were generated over ages [a, b] with b at 2009, but training
  // only sees 11 of 12 window years; accept beta within a broad band
  // around the truth.
  EXPECT_NEAR(model.beta(), kTrueBeta, 0.5);
  EXPECT_GT(model.alpha(), 0.0);
}

TEST(WeibullTest, ExpectedFailuresMonotoneInInterval) {
  const auto& shared = GetSharedRegion();
  WeibullModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  std::vector<double> z(shared.cwm_input.feature_dim(), 0.0);
  double m1 = model.ExpectedFailures(z, 10, 11);
  double m2 = model.ExpectedFailures(z, 10, 12);
  EXPECT_GT(m2, m1);
  EXPECT_GE(model.ExpectedFailures(z, 5, 5), 0.0);
}

TEST(WeibullTest, ScoresHaveRankingSkill) {
  const auto& shared = GetSharedRegion();
  WeibullModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto scores = model.ScorePipes(shared.cwm_input);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(ScoreAuc(shared.cwm_input, *scores), 0.55);
}

TEST(WeibullTest, GoldenFitIsBitExact) {
  const auto& shared = GetSharedRegion();
  WeibullModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  EXPECT_BITS_EQ(model.alpha(), 0x1.2c0afa968665fp-5);
  EXPECT_BITS_EQ(model.beta(), 0x1.19204334ab985p-1);
  ExpectWeightBits(
      model.coefficients(),
      {0x1.86cf1c9de246p-3,   -0x1.acabefa1e8245p-2, 0x1.22eee9ecb0687p-3,
       0x1.323ff6dbb6ccfp-5,  -0x1.8a647a4d46c95p-3, 0x1.0e094c46f571ep-3,
       0x1.ee8fe760a66b7p-1,  -0x1.adb738970a2bcp-5, 0x1.35fee3c644a27p-5,
       0x1.be0d644808207p-2,  -0x1.e9bd6eb7a379p-2,  0x1.085709f76d945p-3,
       0x0p+0,                0x0p+0,                -0x1.b64393adde5dep-2,
       0x1.41ec888fdc393p-2,  0x1.8fa110dd67e63p-10, 0x1.32dcd812c1dcfp-3,
       -0x1.c5d533deb7c1ap-5, -0x1.b9c0946f288d5p-4, 0x1.3a4d02e439f41p-3,
       0x1.cdf9d38a4084fp-6,  -0x1.088199488a22dp-2, 0x1.b3ab52f314a7bp-6,
       0x1.e3259f657fb5bp-4,  0x1.62f14666bb5c2p-2,  0x0p+0,
       0x1.b5092fe8763e7p-5,  -0x1.f8d9fa8dbb14fp-7, 0x1.2a1651ecbfa48p-4,
       -0x1.4e3232afc127fp-3, 0x0p+0,                0x1.0ae69ab5c2864p-2});
}

TEST(WeibullTest, FitAdvancesNewtonCounters) {
  auto& registry = telemetry::Registry::Global();
  telemetry::Counter* iterations =
      registry.GetCounter("stats.newton.iterations");
  telemetry::Counter* evals = registry.GetCounter("stats.newton.loglik_evals");
  const std::int64_t iterations_before = iterations->Value();
  const std::int64_t evals_before = evals->Value();
  WeibullModel model;
  ASSERT_TRUE(model.Fit(GetSharedRegion().cwm_input).ok());
  const std::int64_t fit_iterations = iterations->Value() - iterations_before;
  const std::int64_t fit_evals = evals->Value() - evals_before;
  EXPECT_GT(fit_iterations, 0);
  EXPECT_GE(fit_evals, fit_iterations);
}

TEST(WeibullTest, ScoreRejectsMismatchedFeatureDimension) {
  // Fit on the DrinkingWater feature schema, then try to score an input
  // built with AttributesOnly (fewer columns): both scoring paths must
  // refuse instead of silently truncating the dot product.
  const auto& shared = GetSharedRegion();
  WeibullModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto narrow = core::ModelInput::Build(
      shared.dataset, data::TemporalSplit::Paper(),
      net::PipeCategory::kCriticalMain, net::FeatureConfig::AttributesOnly());
  ASSERT_TRUE(narrow.ok());
  ASSERT_NE(narrow->feature_dim(), shared.cwm_input.feature_dim());
  EXPECT_FALSE(model.ScorePipes(*narrow).ok());
  core::ScoreOptions options;
  options.num_threads = 2;
  EXPECT_FALSE(model.ScorePipes(*narrow, options).ok());
}

TEST(WeibullTest, ExpectedFailuresSignalsLengthMismatchWithNan) {
  const auto& shared = GetSharedRegion();
  WeibullModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  std::vector<double> z(shared.cwm_input.feature_dim() + 3, 0.0);
  // Wrong length through the raw-pointer overload: NaN, not a truncated
  // (and silently wrong) estimate.
  EXPECT_TRUE(std::isnan(
      model.ExpectedFailures(z.data(), z.size(), 10.0, 11.0)));
  EXPECT_TRUE(std::isnan(model.ExpectedFailures(z.data(), 0, 10.0, 11.0)));
  // Correct length still works.
  EXPECT_GE(model.ExpectedFailures(z.data(), shared.cwm_input.feature_dim(),
                                   10.0, 11.0),
            0.0);
}

// --- Age-only curves --------------------------------------------------------------

TEST(AgeModelTest, AllCurvesFitAndScore) {
  const auto& shared = GetSharedRegion();
  for (auto curve : {AgeCurve::kTimeExponential, AgeCurve::kTimePower,
                     AgeCurve::kTimeLinear}) {
    AgeOnlyModel model(curve);
    ASSERT_TRUE(model.Fit(shared.cwm_input).ok()) << ToString(curve);
    auto scores = model.ScorePipes(shared.cwm_input);
    ASSERT_TRUE(scores.ok());
    for (double s : *scores) EXPECT_GE(s, 0.0);
    // Age-only with length exposure should still beat coin flipping a bit.
    EXPECT_GT(ScoreAuc(shared.cwm_input, *scores), 0.5) << ToString(curve);
  }
}

TEST(AgeModelTest, ExponentialRateIncreasesWithAgeOnAgingNetwork) {
  const auto& shared = GetSharedRegion();
  AgeOnlyModel model(AgeCurve::kTimeExponential);
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  EXPECT_GT(model.param_b(), 0.0);  // wear-out dominates on this substrate
  EXPECT_GT(model.RateAt(80.0), model.RateAt(20.0));
}

TEST(AgeModelTest, NamesAreStable) {
  EXPECT_EQ(AgeOnlyModel(AgeCurve::kTimePower).name(), "time-power");
  EXPECT_EQ(AgeOnlyModel(AgeCurve::kTimeLinear).name(), "time-linear");
}

// --- Logistic -------------------------------------------------------------------

TEST(LogisticTest, RecoversSeparationDirection) {
  stats::Rng rng(41);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 3000; ++i) {
    double x = stats::SampleNormal(&rng);
    rows.push_back({x});
    double p = stats::Sigmoid(-1.0 + 2.0 * x);
    labels.push_back(stats::SampleBernoulli(&rng, p) ? 1 : 0);
  }
  LogisticConfig config;
  config.ridge = 1e-4;
  auto fit = LogisticRegression::Fit(rows, labels, config);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->weights()[0], 2.0, 0.25);
  EXPECT_NEAR(fit->intercept(), -1.0, 0.2);
  EXPECT_GT(fit->Probability({2.0}), fit->Probability({-2.0}));
}

TEST(LogisticTest, ModelAdapterWorksEndToEnd) {
  const auto& shared = GetSharedRegion();
  LogisticModel model;
  ASSERT_TRUE(model.Fit(shared.cwm_input).ok());
  auto scores = model.ScorePipes(shared.cwm_input);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(ScoreAuc(shared.cwm_input, *scores), 0.55);
  EXPECT_NE(model.fitted(), nullptr);
}

TEST(LogisticTest, GoldenFitIsBitExact) {
  stats::Rng rng(1402);
  const size_t n = 1001, d = 3;
  std::vector<std::vector<double>> rows(n, std::vector<double>(d));
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) rows[i][c] = stats::SampleNormal(&rng);
    double p = stats::Sigmoid(-0.7 + 1.2 * rows[i][0] - 0.6 * rows[i][1]);
    labels[i] = stats::SampleBernoulli(&rng, p) ? 1 : 0;
  }
  auto fit = LogisticRegression::Fit(rows, labels, LogisticConfig());
  ASSERT_TRUE(fit.ok());
  EXPECT_BITS_EQ(fit->intercept(), -0x1.7381bad835a44p-1);
  ExpectWeightBits(fit->weights(), {0x1.4d2658301a624p+0,
                                    -0x1.589fdcfcf8c6fp-1,
                                    0x1.38c0374c35ee3p-4});
}

TEST(LogisticTest, RejectsNonFiniteFeature) {
  auto fit = LogisticRegression::Fit(
      {{1.0}, {std::numeric_limits<double>::infinity()}}, {1, 0},
      LogisticConfig());
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

TEST(LogisticTest, ValidatesInputs) {
  EXPECT_FALSE(LogisticRegression::Fit({}, {}, {}).ok());
  EXPECT_FALSE(LogisticRegression::Fit({{1.0}}, {1, 0}, {}).ok());
}

}  // namespace
}  // namespace baselines
}  // namespace piperisk
