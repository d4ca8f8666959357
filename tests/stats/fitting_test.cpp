#include "stats/fitting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace cloudcr::stats {
namespace {

// ---------------------------------------------------------------------------
// Parameter-recovery properties: fitting samples drawn from a known family
// must recover its parameters (the core MLE correctness property).
// ---------------------------------------------------------------------------

TEST(FitExponential, RecoversLambda) {
  Rng rng(11);
  const double lambda = 0.00423445;  // the paper's fitted Google rate
  const Exponential d(lambda);
  const auto fit = fit_exponential(d.sample_n(rng, 50000));
  ASSERT_NE(fit.dist, nullptr);
  const auto* e = dynamic_cast<const Exponential*>(fit.dist.get());
  ASSERT_NE(e, nullptr);
  EXPECT_NEAR(e->lambda(), lambda, 0.05 * lambda);
  EXPECT_LT(fit.ks_statistic, 0.02);
}

TEST(FitNormal, RecoversMuSigma) {
  Rng rng(13);
  const Normal d(42.0, 7.0);
  const auto fit = fit_normal(d.sample_n(rng, 50000));
  const auto* n = dynamic_cast<const Normal*>(fit.dist.get());
  ASSERT_NE(n, nullptr);
  EXPECT_NEAR(n->mu(), 42.0, 0.2);
  EXPECT_NEAR(n->sigma(), 7.0, 0.2);
}

TEST(FitLaplace, RecoversMuB) {
  Rng rng(17);
  const Laplace d(-3.0, 2.5);
  const auto fit = fit_laplace(d.sample_n(rng, 50000));
  const auto* l = dynamic_cast<const Laplace*>(fit.dist.get());
  ASSERT_NE(l, nullptr);
  EXPECT_NEAR(l->mu(), -3.0, 0.1);
  EXPECT_NEAR(l->b(), 2.5, 0.1);
}

TEST(FitPareto, RecoversAlpha) {
  Rng rng(19);
  const Pareto d(1.3, 50.0);
  const auto fit = fit_pareto(d.sample_n(rng, 50000));
  const auto* p = dynamic_cast<const Pareto*>(fit.dist.get());
  ASSERT_NE(p, nullptr);
  EXPECT_NEAR(p->alpha(), 1.3, 0.05);
  EXPECT_NEAR(p->xm(), 50.0, 1.0);
}

TEST(FitGeometric, RecoversP) {
  Rng rng(23);
  const Geometric d(0.2);
  const auto fit = fit_geometric(d.sample_n(rng, 50000));
  const auto* g = dynamic_cast<const Geometric*>(fit.dist.get());
  ASSERT_NE(g, nullptr);
  EXPECT_NEAR(g->p(), 0.2, 0.01);
}

TEST(FitWeibull, RecoversShapeScale) {
  Rng rng(29);
  const Weibull d(1.7, 300.0);
  const auto fit = fit_weibull(d.sample_n(rng, 50000));
  const auto* w = dynamic_cast<const Weibull*>(fit.dist.get());
  ASSERT_NE(w, nullptr);
  EXPECT_NEAR(w->shape(), 1.7, 0.05);
  EXPECT_NEAR(w->scale(), 300.0, 5.0);
}

TEST(FitLogNormal, RecoversMuSigma) {
  Rng rng(31);
  const LogNormal d(5.5, 0.9);
  const auto fit = fit_lognormal(d.sample_n(rng, 50000));
  const auto* l = dynamic_cast<const LogNormal*>(fit.dist.get());
  ASSERT_NE(l, nullptr);
  EXPECT_NEAR(l->mu(), 5.5, 0.05);
  EXPECT_NEAR(l->sigma(), 0.9, 0.05);
}

// ---------------------------------------------------------------------------
// Model selection (the Fig 5 scenario).
// ---------------------------------------------------------------------------

TEST(FitAll, ExponentialDataSelectsExponential) {
  Rng rng(37);
  const Exponential d(0.004);
  const auto fits = fit_all(d.sample_n(rng, 20000));
  ASSERT_FALSE(fits.empty());
  EXPECT_EQ(fits.front().family, "exponential");
}

TEST(FitAll, ParetoDataSelectsPareto) {
  Rng rng(41);
  const Pareto d(1.1, 100.0);
  const auto fits = fit_all(d.sample_n(rng, 20000));
  ASSERT_FALSE(fits.empty());
  EXPECT_EQ(fits.front().family, "pareto");
}

TEST(FitAll, ResultsSortedByKs) {
  Rng rng(43);
  const Exponential d(0.01);
  const auto fits = fit_all(d.sample_n(rng, 5000));
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_LE(fits[i - 1].ks_statistic, fits[i].ks_statistic);
  }
}

TEST(FitAll, CoversTheFigure5Families) {
  Rng rng(47);
  const Exponential d(0.01);
  const auto fits = fit_all(d.sample_n(rng, 2000));
  ASSERT_EQ(fits.size(), 5u);
  std::set<std::string> families;
  for (const auto& f : fits) families.insert(f.family);
  EXPECT_TRUE(families.contains("exponential"));
  EXPECT_TRUE(families.contains("geometric"));
  EXPECT_TRUE(families.contains("laplace"));
  EXPECT_TRUE(families.contains("normal"));
  EXPECT_TRUE(families.contains("pareto"));
}

/// Seeded, unsorted intervals with ties (every third value rounded up to a
/// multiple of 10) and values below 1 (every seventh, which geometric clamps
/// to one slot).
std::vector<double> tied_unsorted_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto samples = Exponential(0.01).sample_n(rng, n);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i % 3 == 0) samples[i] = std::ceil(samples[i] / 10.0) * 10.0;
    if (i % 7 == 0) samples[i] *= 0.004;
  }
  return samples;
}

void expect_same_fit(const FitResult& got, const FitResult& want) {
  EXPECT_EQ(got.family, want.family);
  ASSERT_EQ(got.dist == nullptr, want.dist == nullptr);
  EXPECT_EQ(got.log_likelihood, want.log_likelihood);
  EXPECT_EQ(got.aic, want.aic);
  EXPECT_EQ(got.ks_statistic, want.ks_statistic);
  if (want.dist == nullptr) return;
  EXPECT_EQ(got.dist->name(), want.dist->name());
  for (const double x : {0.002, 1.0, 7.5, 100.0, 1000.0, 1e5}) {
    EXPECT_EQ(got.dist->cdf(x), want.dist->cdf(x));
    EXPECT_EQ(got.dist->pdf(x), want.dist->pdf(x));
  }
}

TEST(FitAll, SortedCopyPathEqualsStandaloneFits) {
  for (const std::size_t n : {2000u, 2001u}) {  // both median branches
    SCOPED_TRACE(n);
    const auto samples = tied_unsorted_samples(n, 71 + n);
    ASSERT_FALSE(std::is_sorted(samples.begin(), samples.end()));
    auto sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_NE(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    ASSERT_LT(sorted.front(), 1.0);
    std::vector<double> rounded;
    for (const double v : samples) {
      rounded.push_back(std::max(1.0, std::ceil(v)));
    }

    std::map<std::string, FitResult> standalone;
    standalone.emplace("exponential", fit_exponential(samples));
    standalone.emplace("geometric", fit_geometric(samples));
    standalone.emplace("laplace", fit_laplace(samples));
    standalone.emplace("normal", fit_normal(samples));
    standalone.emplace("pareto", fit_pareto(samples));

    const auto check = [&](const std::vector<FitResult>& fits) {
      ASSERT_EQ(fits.size(), standalone.size());
      for (const FitResult& f : fits) {
        SCOPED_TRACE(f.family);
        ASSERT_TRUE(standalone.contains(f.family));
        expect_same_fit(f, standalone.at(f.family));
        ASSERT_NE(f.dist, nullptr);
        // Geometric is scored against the rounded samples.
        EXPECT_EQ(f.ks_statistic,
                  ks_statistic(f.family == "geometric" ? rounded : samples,
                               *f.dist));
      }
    };
    check(fit_all(samples));
    check(fit_all(samples, sorted));
  }
}

TEST(FitAll, RejectsMismatchedSortedCopy) {
  const std::vector<double> samples{3.0, 1.0, 2.0};
  const std::vector<double> short_copy{1.0, 2.0};
  EXPECT_THROW((void)fit_all(samples, short_copy), std::invalid_argument);
  EXPECT_THROW((void)fit_all({}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Goodness-of-fit measures.
// ---------------------------------------------------------------------------

TEST(KsStatistic, ZeroForPerfectStep) {
  // KS of a distribution against its own large sample should be small...
  Rng rng(53);
  const Normal d(0.0, 1.0);
  const auto samples = d.sample_n(rng, 20000);
  EXPECT_LT(ks_statistic(samples, d), 0.02);
}

TEST(KsStatistic, LargeForWrongModel) {
  Rng rng(59);
  const Exponential data(0.001);
  const auto samples = data.sample_n(rng, 5000);
  const Normal wrong(0.0, 1.0);
  EXPECT_GT(ks_statistic(samples, wrong), 0.5);
}

TEST(KsStatistic, BoundedByOne) {
  const Pareto d(2.0, 100.0);  // no mass below 100
  const std::vector<double> samples{0.0, 1.0, 2.0};
  const double ks = ks_statistic(samples, d);
  EXPECT_GT(ks, 0.9);
  EXPECT_LE(ks, 1.0);
}

TEST(LogLikelihood, HigherForTrueModel) {
  Rng rng(61);
  const Exponential true_model(0.01);
  const Exponential wrong_model(1.0);
  const auto samples = true_model.sample_n(rng, 2000);
  EXPECT_GT(log_likelihood(samples, true_model),
            log_likelihood(samples, wrong_model));
}

TEST(LogLikelihood, MinusInfinityOutsideSupport) {
  const Pareto d(2.0, 10.0);
  const std::vector<double> samples{5.0};  // below xm
  EXPECT_TRUE(std::isinf(log_likelihood(samples, d)));
  EXPECT_LT(log_likelihood(samples, d), 0.0);
}

TEST(Aic, PenalizesParameterCount) {
  Rng rng(67);
  const Exponential d(0.01);
  const auto samples = d.sample_n(rng, 5000);
  const auto exp_fit = fit_exponential(samples);
  // AIC = 2k - 2logL with k=1 for exponential.
  EXPECT_NEAR(exp_fit.aic, 2.0 - 2.0 * exp_fit.log_likelihood, 1e-9);
}

TEST(Fitting, RejectsEmptyInput) {
  EXPECT_THROW(fit_exponential({}), std::invalid_argument);
  EXPECT_THROW(fit_normal({}), std::invalid_argument);
  EXPECT_THROW(fit_pareto({}), std::invalid_argument);
}

TEST(Fitting, DegenerateInputsFailGracefully) {
  // All-equal samples: normal/laplace fits have zero scale -> failed fit.
  const std::vector<double> flat(100, 5.0);
  EXPECT_EQ(fit_normal(flat).dist, nullptr);
  EXPECT_EQ(fit_laplace(flat).dist, nullptr);
  EXPECT_EQ(fit_pareto(flat).dist, nullptr);
  // Failed fits carry worst-case GOF values.
  EXPECT_EQ(fit_normal(flat).ks_statistic, 1.0);
}

}  // namespace
}  // namespace cloudcr::stats
