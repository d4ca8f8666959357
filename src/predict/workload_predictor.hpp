#pragma once

/// \file workload_predictor.hpp
/// \brief Task workload (Te) prediction, as performed by the paper's job
/// parser before scheduling.
///
/// The checkpoint planner consumes a *predicted* productive length; the
/// paper names two practical sources — polynomial regression on the task's
/// input parameters [22] and estimation from historical runs of the same
/// service [25]. Both are provided, plus biased/noisy oracles for ablation;
/// exact prediction is sim::SimConfig::length_predictor left null. Each
/// class plugs into that hook through a lambda calling its predict().
/// Formula (3) is remarkably tolerant of misprediction because the optimal
/// interval scales with sqrt(Te): a 2x length error moves the interval by
/// only ~41% (see bench_ablation_prediction).

#include <cstdint>
#include <map>
#include <span>

#include "predict/polynomial.hpp"
#include "stats/rng.hpp"
#include "trace/records.hpp"

namespace cloudcr::predict {

/// Multiplies the exact length by a fixed factor — the ablation knob for
/// systematic over/under-prediction.
class BiasedPredictor {
 public:
  explicit BiasedPredictor(double factor);
  [[nodiscard]] double predict(const trace::TaskRecord& task) const;

 private:
  double factor_;
};

/// Multiplies the exact length by lognormal noise with the given sigma —
/// models an unbiased but imperfect parser.
class NoisyPredictor {
 public:
  NoisyPredictor(double sigma, std::uint64_t seed);
  [[nodiscard]] double predict(const trace::TaskRecord& task) const;

 private:
  double sigma_;
  mutable stats::Rng rng_;
};

/// History-based estimator [25]: per key (e.g. the service the task
/// instantiates) keep a running mean of completed lengths and predict it for
/// the next instance. Falls back to the global mean, then to `default_s`.
class HistoryPredictor {
 public:
  explicit HistoryPredictor(double default_s = 600.0);

  /// Records a completed run of `key` with productive length `length_s`.
  void observe(std::uint64_t key, double length_s);

  /// Keys tasks by their job's id modulo nothing — callers usually wrap
  /// this class and pass their own key; this overload keys on priority as a
  /// coarse service class.
  [[nodiscard]] double predict(const trace::TaskRecord& task) const;
  /// Keyed prediction for callers with a real service identifier.
  [[nodiscard]] double predict_key(std::uint64_t key) const;

  [[nodiscard]] std::size_t observed_keys() const noexcept {
    return means_.size();
  }

 private:
  struct Running {
    double mean = 0.0;
    std::size_t n = 0;
  };
  double default_s_;
  std::map<std::uint64_t, Running> means_;
  Running global_;
};

/// Regression-based estimator [22]: learns length = f(input size) from
/// (input, length) training pairs and predicts from the task's input size.
class RegressionPredictor {
 public:
  /// Fits a polynomial of the given degree to the training set. Predictions
  /// are clamped to [min_s, inf).
  RegressionPredictor(std::span<const double> input_sizes,
                      std::span<const double> lengths, std::size_t degree,
                      double min_s = 1.0);

  [[nodiscard]] double predict(const trace::TaskRecord& task) const;
  [[nodiscard]] const PolynomialRegression& model() const noexcept {
    return model_;
  }

 private:
  PolynomialRegression model_;
  double min_s_;
};

}  // namespace cloudcr::predict
