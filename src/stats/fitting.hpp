#pragma once

/// \file fitting.hpp
/// \brief Maximum-likelihood fitting of the families the paper compares in
/// Fig 5, plus goodness-of-fit measures (Kolmogorov-Smirnov, log-likelihood,
/// AIC).
///
/// The paper fits exponential, geometric, Laplace, normal and Pareto
/// distributions to Google task failure intervals and reports that Pareto
/// wins overall while exponential wins on the <=1000 s window with
/// lambda ~= 0.0042. `fit_all` reproduces that model-selection table.

#include <span>
#include <string>
#include <vector>

#include "stats/distribution.hpp"

namespace cloudcr::stats {

/// Result of fitting one family to a sample set.
struct FitResult {
  std::string family;       ///< e.g. "exponential"
  DistributionPtr dist;     ///< fitted distribution, null if the fit failed
  double log_likelihood;    ///< sum of log pdf over the samples
  double aic;               ///< 2k - 2*logL
  double ks_statistic;      ///< sup |F_n(x) - F(x)| over the samples
};

/// MLE for Exponential: lambda = 1 / mean. Requires positive samples.
FitResult fit_exponential(std::span<const double> samples);

/// MLE for Normal: mu = mean, sigma = sqrt(biased variance).
FitResult fit_normal(std::span<const double> samples);

/// MLE for Laplace: mu = median, b = mean absolute deviation from median.
FitResult fit_laplace(std::span<const double> samples);

/// MLE for Pareto: xm = min sample, alpha = n / sum(log(x/xm)).
FitResult fit_pareto(std::span<const double> samples);

/// MLE for Geometric on {1,2,...} after rounding samples up to integers:
/// p = 1 / mean.
FitResult fit_geometric(std::span<const double> samples);

/// MLE for Weibull via Newton iteration on the shape equation.
FitResult fit_weibull(std::span<const double> samples);

/// MLE for LogNormal: normal fit of log-samples. Requires positive samples.
FitResult fit_lognormal(std::span<const double> samples);

/// Kolmogorov-Smirnov statistic of `dist` against the empirical CDF of
/// `samples`: sup over sample points of |F_n - F|.
double ks_statistic(std::span<const double> samples, const Distribution& dist);

/// Sum of log pdf; returns -infinity if any sample has zero density.
double log_likelihood(std::span<const double> samples,
                      const Distribution& dist);

/// Fits every Fig-5 family (exponential, geometric, Laplace, normal, Pareto)
/// and returns results sorted by ascending KS statistic (best fit first).
/// Each result equals the standalone fit_<family>(samples), field for field;
/// the samples are sorted once for all five.
std::vector<FitResult> fit_all(std::span<const double> samples);

/// fit_all for a caller that already holds `sorted`, the ascending copy of
/// `samples` (e.g. EmpiricalCdf::sorted_samples()): every KS statistic and
/// Laplace's median read it, so nothing is sorted again. Parameters and
/// log-likelihoods still sum over `samples` in their own order. Throws
/// std::invalid_argument if the sizes differ.
std::vector<FitResult> fit_all(std::span<const double> samples,
                               std::span<const double> sorted);

}  // namespace cloudcr::stats
