#pragma once

/// \file distributions.hpp
/// \brief Concrete distribution families used throughout the reproduction.
///
/// The families mirror the ones the paper fits to Google failure intervals in
/// Fig 5 (exponential, geometric, Laplace, normal, Pareto) plus Weibull and
/// lognormal, which are standard for failure modelling, and a truncation
/// wrapper used by workload synthesis.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/distribution.hpp"

namespace cloudcr::stats {

/// Exponential(lambda): pdf lambda*exp(-lambda x), x >= 0. MTBF = 1/lambda.
class Exponential final : public Distribution {
 public:
  explicit Exponential(double lambda);

  [[nodiscard]] double lambda() const noexcept { return lambda_; }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  double lambda_;
};

/// Pareto(alpha, xm): pdf alpha*xm^alpha / x^(alpha+1), x >= xm.
///
/// The heavy tail of this family is what inflates MTBF estimates in the
/// Google trace (Section 5.2) and makes Young's formula mispredict.
class Pareto final : public Distribution {
 public:
  Pareto(double alpha, double xm);

  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] double xm() const noexcept { return xm_; }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  double alpha_;
  double xm_;
};

/// Weibull(shape k, scale lambda): classic failure-interval family.
class Weibull final : public Distribution {
 public:
  Weibull(double shape, double scale);

  [[nodiscard]] double shape() const noexcept { return shape_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  double shape_;
  double scale_;
};

/// Normal(mu, sigma).
class Normal final : public Distribution {
 public:
  Normal(double mu, double sigma);

  [[nodiscard]] double mu() const noexcept { return mu_; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  double mu_;
  double sigma_;
};

/// LogNormal(mu, sigma) of the underlying normal.
class LogNormal final : public Distribution {
 public:
  LogNormal(double mu, double sigma);

  [[nodiscard]] double mu() const noexcept { return mu_; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  double mu_;
  double sigma_;
};

/// Laplace(mu, b): pdf exp(-|x-mu|/b) / (2b).
class Laplace final : public Distribution {
 public:
  Laplace(double mu, double b);

  [[nodiscard]] double mu() const noexcept { return mu_; }
  [[nodiscard]] double b() const noexcept { return b_; }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  double mu_;
  double b_;
};

/// Geometric(p) on {1, 2, 3, ...}: number of unit trials until first success.
/// Treated as a distribution over the reals with point masses at integers;
/// pdf() returns the mass at round(x).
class Geometric final : public Distribution {
 public:
  explicit Geometric(double p);

  [[nodiscard]] double p() const noexcept { return p_; }

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double prob) const override;
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  double p_;
};

/// A distribution truncated to [lo, hi], renormalized.
class Truncated final : public Distribution {
 public:
  Truncated(DistributionPtr base, double lo, double hi);

  Truncated(const Truncated& other);
  Truncated& operator=(const Truncated&) = delete;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double pdf(double x) const override;
  [[nodiscard]] double cdf(double x) const override;
  [[nodiscard]] double quantile(double p) const override;
  /// Mean/variance computed numerically via quantile sampling (adaptive
  /// Simpson over the quantile function).
  [[nodiscard]] double mean() const override;
  [[nodiscard]] double variance() const override;
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] DistributionPtr clone() const override;

 private:
  DistributionPtr base_;
  double lo_;
  double hi_;
  double cdf_lo_;
  double cdf_hi_;
};

/// Standard normal CDF helper (shared by Normal/LogNormal and fitters).
double std_normal_cdf(double z);
/// Standard normal quantile (Acklam's rational approximation, |err|<1.15e-9).
double std_normal_quantile(double p);

}  // namespace cloudcr::stats
