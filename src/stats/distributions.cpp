#include "stats/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

namespace cloudcr::stats {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

std::string fmt(const char* family, std::initializer_list<double> params) {
  std::ostringstream os;
  os << family << '(';
  bool first = true;
  for (double p : params) {
    if (!first) os << ", ";
    os << p;
    first = false;
  }
  os << ')';
  return os.str();
}

}  // namespace

std::vector<double> Distribution::sample_n(Rng& rng, std::size_t n) const {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(sample(rng));
  return out;
}

// ---------------------------------------------------------------- Exponential

Exponential::Exponential(double lambda) : lambda_(lambda) {
  require(lambda > 0.0 && std::isfinite(lambda),
          "Exponential: lambda must be positive and finite");
}

std::string Exponential::name() const { return fmt("exponential", {lambda_}); }

double Exponential::pdf(double x) const {
  return x < 0.0 ? 0.0 : lambda_ * std::exp(-lambda_ * x);
}

double Exponential::cdf(double x) const {
  return x < 0.0 ? 0.0 : 1.0 - std::exp(-lambda_ * x);
}

double Exponential::quantile(double p) const {
  require(p >= 0.0 && p <= 1.0, "Exponential::quantile: p out of [0,1]");
  if (p >= 1.0) return kInf;
  return -std::log1p(-p) / lambda_;
}

double Exponential::mean() const { return 1.0 / lambda_; }

double Exponential::variance() const { return 1.0 / (lambda_ * lambda_); }

double Exponential::sample(Rng& rng) const {
  return -std::log1p(-rng.uniform()) / lambda_;
}

DistributionPtr Exponential::clone() const {
  return std::make_unique<Exponential>(*this);
}

// --------------------------------------------------------------------- Pareto

Pareto::Pareto(double alpha, double xm) : alpha_(alpha), xm_(xm) {
  require(alpha > 0.0 && std::isfinite(alpha),
          "Pareto: alpha must be positive and finite");
  require(xm > 0.0 && std::isfinite(xm),
          "Pareto: xm must be positive and finite");
}

std::string Pareto::name() const { return fmt("pareto", {alpha_, xm_}); }

double Pareto::pdf(double x) const {
  if (x < xm_) return 0.0;
  return alpha_ * std::pow(xm_, alpha_) / std::pow(x, alpha_ + 1.0);
}

double Pareto::cdf(double x) const {
  if (x < xm_) return 0.0;
  return 1.0 - std::pow(xm_ / x, alpha_);
}

double Pareto::quantile(double p) const {
  require(p >= 0.0 && p <= 1.0, "Pareto::quantile: p out of [0,1]");
  if (p >= 1.0) return kInf;
  return xm_ / std::pow(1.0 - p, 1.0 / alpha_);
}

double Pareto::mean() const {
  return alpha_ > 1.0 ? alpha_ * xm_ / (alpha_ - 1.0) : kInf;
}

double Pareto::variance() const {
  if (alpha_ <= 2.0) return kInf;
  const double a = alpha_;
  return xm_ * xm_ * a / ((a - 1.0) * (a - 1.0) * (a - 2.0));
}

double Pareto::sample(Rng& rng) const {
  return xm_ / std::pow(1.0 - rng.uniform(), 1.0 / alpha_);
}

DistributionPtr Pareto::clone() const {
  return std::make_unique<Pareto>(*this);
}

// -------------------------------------------------------------------- Weibull

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  require(shape > 0.0 && std::isfinite(shape),
          "Weibull: shape must be positive and finite");
  require(scale > 0.0 && std::isfinite(scale),
          "Weibull: scale must be positive and finite");
}

std::string Weibull::name() const { return fmt("weibull", {shape_, scale_}); }

double Weibull::pdf(double x) const {
  if (x < 0.0) return 0.0;
  const double z = x / scale_;
  return (shape_ / scale_) * std::pow(z, shape_ - 1.0) *
         std::exp(-std::pow(z, shape_));
}

double Weibull::cdf(double x) const {
  if (x < 0.0) return 0.0;
  return 1.0 - std::exp(-std::pow(x / scale_, shape_));
}

double Weibull::quantile(double p) const {
  require(p >= 0.0 && p <= 1.0, "Weibull::quantile: p out of [0,1]");
  if (p >= 1.0) return kInf;
  return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}

double Weibull::mean() const {
  return scale_ * std::tgamma(1.0 + 1.0 / shape_);
}

double Weibull::variance() const {
  const double g1 = std::tgamma(1.0 + 1.0 / shape_);
  const double g2 = std::tgamma(1.0 + 2.0 / shape_);
  return scale_ * scale_ * (g2 - g1 * g1);
}

double Weibull::sample(Rng& rng) const {
  return scale_ * std::pow(-std::log1p(-rng.uniform()), 1.0 / shape_);
}

DistributionPtr Weibull::clone() const {
  return std::make_unique<Weibull>(*this);
}

// --------------------------------------------------------------------- Normal

double std_normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double std_normal_quantile(double p) {
  // Acklam's algorithm.
  if (p <= 0.0) return -kInf;
  if (p >= 1.0) return kInf;
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double q, r, x;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    q = p - 0.5;
    r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  return x;
}

Normal::Normal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  require(std::isfinite(mu), "Normal: mu must be finite");
  require(sigma > 0.0 && std::isfinite(sigma),
          "Normal: sigma must be positive and finite");
}

std::string Normal::name() const { return fmt("normal", {mu_, sigma_}); }

double Normal::pdf(double x) const {
  const double z = (x - mu_) / sigma_;
  return std::exp(-0.5 * z * z) / (sigma_ * std::sqrt(2.0 * M_PI));
}

double Normal::cdf(double x) const {
  return std_normal_cdf((x - mu_) / sigma_);
}

double Normal::quantile(double p) const {
  require(p >= 0.0 && p <= 1.0, "Normal::quantile: p out of [0,1]");
  return mu_ + sigma_ * std_normal_quantile(p);
}

double Normal::mean() const { return mu_; }

double Normal::variance() const { return sigma_ * sigma_; }

double Normal::sample(Rng& rng) const { return mu_ + sigma_ * rng.normal(); }

DistributionPtr Normal::clone() const {
  return std::make_unique<Normal>(*this);
}

// ------------------------------------------------------------------ LogNormal

LogNormal::LogNormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  require(std::isfinite(mu), "LogNormal: mu must be finite");
  require(sigma > 0.0 && std::isfinite(sigma),
          "LogNormal: sigma must be positive and finite");
}

std::string LogNormal::name() const { return fmt("lognormal", {mu_, sigma_}); }

double LogNormal::pdf(double x) const {
  if (x <= 0.0) return 0.0;
  const double z = (std::log(x) - mu_) / sigma_;
  return std::exp(-0.5 * z * z) / (x * sigma_ * std::sqrt(2.0 * M_PI));
}

double LogNormal::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return std_normal_cdf((std::log(x) - mu_) / sigma_);
}

double LogNormal::quantile(double p) const {
  require(p >= 0.0 && p <= 1.0, "LogNormal::quantile: p out of [0,1]");
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return kInf;
  return std::exp(mu_ + sigma_ * std_normal_quantile(p));
}

double LogNormal::mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double LogNormal::variance() const {
  const double s2 = sigma_ * sigma_;
  return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}

double LogNormal::sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * rng.normal());
}

DistributionPtr LogNormal::clone() const {
  return std::make_unique<LogNormal>(*this);
}

// -------------------------------------------------------------------- Laplace

Laplace::Laplace(double mu, double b) : mu_(mu), b_(b) {
  require(std::isfinite(mu), "Laplace: mu must be finite");
  require(b > 0.0 && std::isfinite(b),
          "Laplace: b must be positive and finite");
}

std::string Laplace::name() const { return fmt("laplace", {mu_, b_}); }

double Laplace::pdf(double x) const {
  return std::exp(-std::abs(x - mu_) / b_) / (2.0 * b_);
}

double Laplace::cdf(double x) const {
  if (x < mu_) return 0.5 * std::exp((x - mu_) / b_);
  return 1.0 - 0.5 * std::exp(-(x - mu_) / b_);
}

double Laplace::quantile(double p) const {
  require(p >= 0.0 && p <= 1.0, "Laplace::quantile: p out of [0,1]");
  if (p <= 0.0) return -kInf;
  if (p >= 1.0) return kInf;
  if (p < 0.5) return mu_ + b_ * std::log(2.0 * p);
  return mu_ - b_ * std::log(2.0 * (1.0 - p));
}

double Laplace::mean() const { return mu_; }

double Laplace::variance() const { return 2.0 * b_ * b_; }

double Laplace::sample(Rng& rng) const { return quantile(rng.uniform()); }

DistributionPtr Laplace::clone() const {
  return std::make_unique<Laplace>(*this);
}

// ------------------------------------------------------------------ Geometric

Geometric::Geometric(double p) : p_(p) {
  require(p > 0.0 && p <= 1.0, "Geometric: p must be in (0,1]");
}

std::string Geometric::name() const { return fmt("geometric", {p_}); }

double Geometric::pdf(double x) const {
  const double k = std::round(x);
  if (k < 1.0 || std::abs(x - k) > 1e-9) return 0.0;
  return p_ * std::pow(1.0 - p_, k - 1.0);
}

double Geometric::cdf(double x) const {
  if (x < 1.0) return 0.0;
  const double k = std::floor(x);
  return 1.0 - std::pow(1.0 - p_, k);
}

double Geometric::quantile(double prob) const {
  require(prob >= 0.0 && prob <= 1.0, "Geometric::quantile: p out of [0,1]");
  if (prob <= 0.0) return 1.0;
  if (prob >= 1.0) return kInf;
  if (p_ >= 1.0) return 1.0;
  return std::ceil(std::log1p(-prob) / std::log1p(-p_));
}

double Geometric::mean() const { return 1.0 / p_; }

double Geometric::variance() const { return (1.0 - p_) / (p_ * p_); }

double Geometric::sample(Rng& rng) const {
  if (p_ >= 1.0) return 1.0;
  return std::max(1.0, std::ceil(std::log1p(-rng.uniform()) / std::log1p(-p_)));
}

DistributionPtr Geometric::clone() const {
  return std::make_unique<Geometric>(*this);
}

// ------------------------------------------------------------------ Truncated

Truncated::Truncated(DistributionPtr base, double lo, double hi)
    : base_(std::move(base)), lo_(lo), hi_(hi) {
  require(base_ != nullptr, "Truncated: null base distribution");
  require(lo < hi, "Truncated: requires lo < hi");
  cdf_lo_ = base_->cdf(lo_);
  cdf_hi_ = base_->cdf(hi_);
  require(cdf_hi_ > cdf_lo_,
          "Truncated: base distribution has no mass in [lo, hi]");
}

Truncated::Truncated(const Truncated& other)
    : base_(other.base_->clone()),
      lo_(other.lo_),
      hi_(other.hi_),
      cdf_lo_(other.cdf_lo_),
      cdf_hi_(other.cdf_hi_) {}

std::string Truncated::name() const {
  std::ostringstream os;
  os << "truncated[" << base_->name() << ", " << lo_ << ", " << hi_ << ']';
  return os.str();
}

double Truncated::pdf(double x) const {
  if (x < lo_ || x > hi_) return 0.0;
  return base_->pdf(x) / (cdf_hi_ - cdf_lo_);
}

double Truncated::cdf(double x) const {
  if (x < lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (base_->cdf(x) - cdf_lo_) / (cdf_hi_ - cdf_lo_);
}

double Truncated::quantile(double p) const {
  require(p >= 0.0 && p <= 1.0, "Truncated::quantile: p out of [0,1]");
  return base_->quantile(cdf_lo_ + p * (cdf_hi_ - cdf_lo_));
}

double Truncated::mean() const {
  // 129-point composite Simpson over the quantile function: E[X] = ∫ Q(p) dp.
  constexpr int kN = 128;
  double acc = 0.0;
  for (int i = 0; i <= kN; ++i) {
    const double p = static_cast<double>(i) / kN;
    const double w = (i == 0 || i == kN) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    acc += w * quantile(p);
  }
  return acc / (3.0 * kN);
}

double Truncated::variance() const {
  constexpr int kN = 128;
  const double m = mean();
  double acc = 0.0;
  for (int i = 0; i <= kN; ++i) {
    const double p = static_cast<double>(i) / kN;
    const double w = (i == 0 || i == kN) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    const double d = quantile(p) - m;
    acc += w * d * d;
  }
  return acc / (3.0 * kN);
}

double Truncated::sample(Rng& rng) const {
  return base_->quantile(cdf_lo_ + rng.uniform() * (cdf_hi_ - cdf_lo_));
}

DistributionPtr Truncated::clone() const {
  return std::make_unique<Truncated>(*this);
}

}  // namespace cloudcr::stats
