#include "stats/fitting.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/distributions.hpp"

namespace cloudcr::stats {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void require_nonempty(std::span<const double> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("fitting: empty sample set");
  }
}

double sample_mean(std::span<const double> samples) {
  double acc = 0.0;
  for (double v : samples) acc += v;
  return acc / static_cast<double>(samples.size());
}

std::vector<double> sorted_copy(std::span<const double> samples) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// ks_statistic over samples already in ascending order.
double ks_sorted(std::span<const double> sorted, const Distribution& dist) {
  const double n = static_cast<double>(sorted.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = dist.cdf(sorted[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(f - lo), std::abs(f - hi)});
  }
  return d;
}

/// Scores one fitted family: log-likelihood over `samples` in their own
/// order, KS over `sorted` (the same samples, ascending).
FitResult score(std::string family, DistributionPtr dist, int n_params,
                std::span<const double> samples,
                std::span<const double> sorted) {
  FitResult r;
  r.family = std::move(family);
  if (dist == nullptr) {
    r.dist = nullptr;
    r.log_likelihood = -kInf;
    r.aic = kInf;
    r.ks_statistic = 1.0;
    return r;
  }
  r.log_likelihood = log_likelihood(samples, *dist);
  r.aic = 2.0 * n_params - 2.0 * r.log_likelihood;
  r.ks_statistic = ks_sorted(sorted, *dist);
  r.dist = std::move(dist);
  return r;
}

/// score() for a standalone fit, which sorts its own copy.
FitResult finish(std::string family, DistributionPtr dist,
                 std::span<const double> samples, int n_params) {
  if (dist == nullptr) {
    return score(std::move(family), nullptr, n_params, samples, {});
  }
  return score(std::move(family), std::move(dist), n_params, samples,
               sorted_copy(samples));
}

// The MLE steps of the Fig-5 families, null when the fit fails. fit_all
// scores them against one shared sorted copy; fit_<family> sorts its own.

DistributionPtr mle_exponential(std::span<const double> samples) {
  const double m = sample_mean(samples);
  if (m <= 0.0) return nullptr;
  return std::make_unique<Exponential>(1.0 / m);
}

DistributionPtr mle_normal(std::span<const double> samples) {
  const double m = sample_mean(samples);
  double ss = 0.0;
  for (double v : samples) ss += (v - m) * (v - m);
  const double sigma =
      std::sqrt(ss / static_cast<double>(samples.size()));
  if (sigma <= 0.0) return nullptr;
  return std::make_unique<Normal>(m, sigma);
}

/// Median and mean absolute deviation, both read from the ascending copy.
DistributionPtr mle_laplace(std::span<const double> sorted) {
  const std::size_t n = sorted.size();
  const double median = (n % 2 == 1)
                            ? sorted[n / 2]
                            : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  double mad = 0.0;
  for (double v : sorted) mad += std::abs(v - median);
  mad /= static_cast<double>(n);
  if (mad <= 0.0) return nullptr;
  return std::make_unique<Laplace>(median, mad);
}

DistributionPtr mle_pareto(std::span<const double> samples) {
  const double xm = *std::min_element(samples.begin(), samples.end());
  if (xm <= 0.0) return nullptr;
  double acc = 0.0;
  for (double v : samples) acc += std::log(v / xm);
  if (acc <= 0.0) return nullptr;
  const double alpha = static_cast<double>(samples.size()) / acc;
  return std::make_unique<Pareto>(alpha, xm);
}

/// Interprets a (continuous) interval as a whole number of unit slots.
double round_up(double v) { return std::max(1.0, std::ceil(v)); }

/// Rounds every sample up, in order. The rounding is monotone, so the
/// rounded copy of an ascending sequence is ascending too.
std::vector<double> round_up(std::span<const double> samples) {
  std::vector<double> rounded;
  rounded.reserve(samples.size());
  for (double v : samples) rounded.push_back(round_up(v));
  return rounded;
}

DistributionPtr mle_geometric(std::span<const double> samples) {
  double acc = 0.0;
  for (double v : samples) acc += round_up(v);
  const double m = acc / static_cast<double>(samples.size());
  const double p = 1.0 / m;
  if (p <= 0.0 || p > 1.0) return nullptr;
  return std::make_unique<Geometric>(p);
}

/// Geometric is discrete: KS and logL read the rounded samples.
FitResult score_geometric(std::span<const double> samples,
                          std::span<const double> sorted) {
  auto dist = mle_geometric(samples);
  if (dist == nullptr) return score("geometric", nullptr, 1, samples, sorted);
  return score("geometric", std::move(dist), 1, round_up(samples),
               round_up(sorted));
}

}  // namespace

double ks_statistic(std::span<const double> samples,
                    const Distribution& dist) {
  require_nonempty(samples);
  return ks_sorted(sorted_copy(samples), dist);
}

double log_likelihood(std::span<const double> samples,
                      const Distribution& dist) {
  double acc = 0.0;
  for (double v : samples) {
    const double p = dist.pdf(v);
    if (p <= 0.0) return -kInf;
    acc += std::log(p);
  }
  return acc;
}

FitResult fit_exponential(std::span<const double> samples) {
  require_nonempty(samples);
  return finish("exponential", mle_exponential(samples), samples, 1);
}

FitResult fit_normal(std::span<const double> samples) {
  require_nonempty(samples);
  return finish("normal", mle_normal(samples), samples, 2);
}

FitResult fit_laplace(std::span<const double> samples) {
  require_nonempty(samples);
  const auto sorted = sorted_copy(samples);
  return score("laplace", mle_laplace(sorted), 2, samples, sorted);
}

FitResult fit_pareto(std::span<const double> samples) {
  require_nonempty(samples);
  return finish("pareto", mle_pareto(samples), samples, 2);
}

FitResult fit_geometric(std::span<const double> samples) {
  require_nonempty(samples);
  return score_geometric(samples, sorted_copy(samples));
}

FitResult fit_weibull(std::span<const double> samples) {
  require_nonempty(samples);
  for (double v : samples) {
    if (v <= 0.0) return finish("weibull", nullptr, samples, 2);
  }
  // Newton iteration on g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0.
  double mean_ln = 0.0;
  for (double v : samples) mean_ln += std::log(v);
  mean_ln /= static_cast<double>(samples.size());

  double k = 1.0;
  for (int iter = 0; iter < 100; ++iter) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    for (double v : samples) {
      const double xk = std::pow(v, k);
      const double lx = std::log(v);
      s0 += xk;
      s1 += xk * lx;
      s2 += xk * lx * lx;
    }
    const double g = s1 / s0 - 1.0 / k - mean_ln;
    const double gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
    if (gp == 0.0) break;
    const double next = k - g / gp;
    if (!(next > 0.0) || !std::isfinite(next)) break;
    if (std::abs(next - k) < 1e-10 * k) {
      k = next;
      break;
    }
    k = next;
  }
  if (!(k > 0.0) || !std::isfinite(k)) {
    return finish("weibull", nullptr, samples, 2);
  }
  double sk = 0.0;
  for (double v : samples) sk += std::pow(v, k);
  const double scale =
      std::pow(sk / static_cast<double>(samples.size()), 1.0 / k);
  return finish("weibull", std::make_unique<Weibull>(k, scale), samples, 2);
}

FitResult fit_lognormal(std::span<const double> samples) {
  require_nonempty(samples);
  for (double v : samples) {
    if (v <= 0.0) return finish("lognormal", nullptr, samples, 2);
  }
  double m = 0.0;
  for (double v : samples) m += std::log(v);
  m /= static_cast<double>(samples.size());
  double ss = 0.0;
  for (double v : samples) {
    const double d = std::log(v) - m;
    ss += d * d;
  }
  const double sigma = std::sqrt(ss / static_cast<double>(samples.size()));
  if (sigma <= 0.0) return finish("lognormal", nullptr, samples, 2);
  return finish("lognormal", std::make_unique<LogNormal>(m, sigma), samples, 2);
}

std::vector<FitResult> fit_all(std::span<const double> samples) {
  return fit_all(samples, sorted_copy(samples));
}

std::vector<FitResult> fit_all(std::span<const double> samples,
                               std::span<const double> sorted) {
  require_nonempty(samples);
  if (sorted.size() != samples.size()) {
    throw std::invalid_argument("fit_all: sorted copy has " +
                                std::to_string(sorted.size()) +
                                " samples, expected " +
                                std::to_string(samples.size()));
  }
  std::vector<FitResult> fits;
  fits.push_back(score("exponential", mle_exponential(samples), 1, samples,
                       sorted));
  fits.push_back(score_geometric(samples, sorted));
  fits.push_back(score("laplace", mle_laplace(sorted), 2, samples, sorted));
  fits.push_back(score("normal", mle_normal(samples), 2, samples, sorted));
  fits.push_back(score("pareto", mle_pareto(samples), 2, samples, sorted));
  std::sort(fits.begin(), fits.end(),
            [](const FitResult& a, const FitResult& b) {
              return a.ks_statistic < b.ks_statistic;
            });
  return fits;
}

}  // namespace cloudcr::stats
