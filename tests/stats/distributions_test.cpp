#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace cloudcr::stats {
namespace {

// ---------------------------------------------------------------------------
// Generic distribution properties, run over every family (TEST_P sweep).
// ---------------------------------------------------------------------------

struct DistCase {
  const char* label;
  std::shared_ptr<const Distribution> dist;
  double q_lo;  // support probe below which cdf should be ~0
};

class DistributionProperty : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionProperty, CdfIsMonotoneNondecreasing) {
  const auto& d = *GetParam().dist;
  double prev = -1.0;
  for (double p = 0.02; p <= 0.98; p += 0.02) {
    const double x = d.quantile(p);
    const double c = d.cdf(x);
    EXPECT_GE(c + 1e-12, prev) << "at p=" << p;
    prev = c;
  }
}

TEST_P(DistributionProperty, QuantileInvertsCdf) {
  const auto& d = *GetParam().dist;
  for (double p = 0.05; p <= 0.95; p += 0.05) {
    const double x = d.quantile(p);
    EXPECT_NEAR(d.cdf(x), p, 0.02) << "at p=" << p;
  }
}

TEST_P(DistributionProperty, PdfIsNonNegative) {
  const auto& d = *GetParam().dist;
  for (double p = 0.05; p <= 0.95; p += 0.05) {
    EXPECT_GE(d.pdf(d.quantile(p)), 0.0);
  }
}

TEST_P(DistributionProperty, SampleMeanMatchesAnalyticMean) {
  const auto& d = *GetParam().dist;
  if (!std::isfinite(d.mean())) GTEST_SKIP() << "infinite mean";
  if (!std::isfinite(d.variance())) {
    // Infinite variance: the sample mean converges too slowly (heavy tail)
    // for a fixed-sample assertion to be meaningful.
    GTEST_SKIP() << "infinite variance";
  }
  Rng rng(99);
  constexpr int kN = 200000;
  double acc = 0.0;
  for (int i = 0; i < kN; ++i) acc += d.sample(rng);
  const double tolerance =
      0.05 * std::max(1.0, std::abs(d.mean())) +
      (std::isfinite(d.variance()) ? 4.0 * std::sqrt(d.variance() / kN) : 1.0);
  EXPECT_NEAR(acc / kN, d.mean(), tolerance);
}

TEST_P(DistributionProperty, SamplesLieInSupport) {
  const auto& d = *GetParam().dist;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double x = d.sample(rng);
    // CDF at a sampled point must be in (0, 1]; below-support draws would
    // give cdf == 0 with pdf == 0.
    EXPECT_GT(d.cdf(x) + d.pdf(x), 0.0);
  }
}

TEST_P(DistributionProperty, CloneBehavesIdentically) {
  const auto& d = *GetParam().dist;
  const auto copy = d.clone();
  for (double p = 0.1; p <= 0.9; p += 0.1) {
    EXPECT_DOUBLE_EQ(copy->quantile(p), d.quantile(p));
  }
  EXPECT_EQ(copy->name(), d.name());
}

TEST_P(DistributionProperty, EmpiricalCdfConvergesToModelCdf) {
  const auto& d = *GetParam().dist;
  Rng rng(31);
  constexpr int kN = 50000;
  const double x_med = d.quantile(0.5);
  int below = 0;
  for (int i = 0; i < kN; ++i) {
    if (d.sample(rng) <= x_med) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / kN, 0.5, 0.02);
}

DistCase cases[] = {
    {"exponential", std::make_shared<Exponential>(0.00423445), 0.0},
    {"exponential_fast", std::make_shared<Exponential>(2.5), 0.0},
    {"pareto_heavy", std::make_shared<Pareto>(1.2, 100.0), 100.0},
    {"pareto_light", std::make_shared<Pareto>(3.5, 1.0), 1.0},
    {"weibull_sub", std::make_shared<Weibull>(0.7, 200.0), 0.0},
    {"weibull_super", std::make_shared<Weibull>(2.0, 50.0), 0.0},
    {"normal", std::make_shared<Normal>(10.0, 3.0), -1e9},
    {"lognormal", std::make_shared<LogNormal>(6.0, 1.0), 0.0},
    {"laplace", std::make_shared<Laplace>(5.0, 2.0), -1e9},
};

INSTANTIATE_TEST_SUITE_P(AllFamilies, DistributionProperty,
                         ::testing::ValuesIn(cases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.label);
                         });

// ---------------------------------------------------------------------------
// Family-specific facts.
// ---------------------------------------------------------------------------

TEST(Exponential, MatchesClosedForms) {
  const Exponential d(0.5);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.variance(), 4.0);
  EXPECT_NEAR(d.cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(d.pdf(0.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(d.cdf(-1.0), 0.0);
}

TEST(Exponential, RejectsNonPositiveRate) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(Pareto, HeavyTailHasInfiniteMoments) {
  const Pareto d(0.9, 10.0);
  EXPECT_TRUE(std::isinf(d.mean()));
  const Pareto d2(1.5, 10.0);
  EXPECT_TRUE(std::isfinite(d2.mean()));
  EXPECT_TRUE(std::isinf(d2.variance()));
}

TEST(Pareto, SupportStartsAtXm) {
  const Pareto d(2.0, 42.0);
  EXPECT_DOUBLE_EQ(d.cdf(41.9), 0.0);
  EXPECT_DOUBLE_EQ(d.pdf(41.9), 0.0);
  EXPECT_GT(d.pdf(42.1), 0.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(d.sample(rng), 42.0);
}

TEST(Pareto, MeanClosedForm) {
  const Pareto d(3.0, 6.0);
  EXPECT_DOUBLE_EQ(d.mean(), 9.0);  // alpha*xm/(alpha-1)
}

TEST(Weibull, ShapeOneIsExponential) {
  const Weibull w(1.0, 100.0);
  const Exponential e(0.01);
  for (double x : {1.0, 50.0, 100.0, 500.0}) {
    EXPECT_NEAR(w.cdf(x), e.cdf(x), 1e-12);
  }
}

TEST(Normal, SymmetryAboutMean) {
  const Normal d(5.0, 2.0);
  EXPECT_NEAR(d.cdf(5.0), 0.5, 1e-12);
  EXPECT_NEAR(d.cdf(3.0) + d.cdf(7.0), 1.0, 1e-12);
  EXPECT_NEAR(d.quantile(0.5), 5.0, 1e-9);
}

TEST(Normal, QuantileAccuracy) {
  const Normal d(0.0, 1.0);
  // Known standard normal quantiles.
  EXPECT_NEAR(d.quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(d.quantile(0.84134), 1.0, 1e-3);
  EXPECT_NEAR(d.quantile(0.5), 0.0, 1e-9);
}

TEST(LogNormal, MedianIsExpMu) {
  const LogNormal d(3.0, 0.8);
  EXPECT_NEAR(d.quantile(0.5), std::exp(3.0), 1e-6);
}

TEST(Laplace, HeavierTailThanNormalSameVariance) {
  const Laplace lap(0.0, 1.0);            // var 2
  const Normal norm(0.0, std::sqrt(2.0)); // var 2
  EXPECT_GT(1.0 - lap.cdf(5.0), 1.0 - norm.cdf(5.0));
}

TEST(Geometric, PmfSumsToOne) {
  const Geometric d(0.3);
  double acc = 0.0;
  for (int k = 1; k <= 200; ++k) acc += d.pdf(k);
  EXPECT_NEAR(acc, 1.0, 1e-9);
}

TEST(Geometric, MeanAndSamples) {
  const Geometric d(0.25);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  Rng rng(3);
  double acc = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = d.sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_EQ(v, std::round(v));
    acc += v;
  }
  EXPECT_NEAR(acc / kN, 4.0, 0.05);
}

TEST(Geometric, DegenerateP1AlwaysOne) {
  const Geometric d(1.0);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 1.0);
}

TEST(Truncated, MassIsRenormalized) {
  const Truncated t(std::make_unique<Exponential>(0.01), 0.0, 1000.0);
  EXPECT_NEAR(t.cdf(1000.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.cdf(-1.0), 0.0);
  EXPECT_GT(t.pdf(500.0), Exponential(0.01).pdf(500.0));
}

TEST(Truncated, SamplesStayInRange) {
  const Truncated t(std::make_unique<LogNormal>(6.0, 1.0), 30.0, 21600.0);
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    const double x = t.sample(rng);
    EXPECT_GE(x, 30.0);
    EXPECT_LE(x, 21600.0);
  }
}

TEST(Truncated, NumericMeanMatchesSampleMean) {
  const Truncated t(std::make_unique<Normal>(0.0, 1.0), -1.0, 2.0);
  Rng rng(29);
  constexpr int kN = 200000;
  double acc = 0.0;
  for (int i = 0; i < kN; ++i) acc += t.sample(rng);
  EXPECT_NEAR(acc / kN, t.mean(), 0.01);
}

TEST(Truncated, RejectsEmptyMassWindow) {
  // Pareto(2, 100) puts no mass below its scale of 100.
  EXPECT_THROW(Truncated(std::make_unique<Pareto>(2.0, 100.0), 5.0, 6.0),
               std::invalid_argument);
}

TEST(StdNormalHelpers, CdfQuantileRoundTrip) {
  for (double p = 0.001; p < 1.0; p += 0.05) {
    EXPECT_NEAR(std_normal_cdf(std_normal_quantile(p)), p, 1e-7);
  }
}

}  // namespace
}  // namespace cloudcr::stats
