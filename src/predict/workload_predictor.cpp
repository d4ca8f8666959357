#include "predict/workload_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cloudcr::predict {

BiasedPredictor::BiasedPredictor(double factor) : factor_(factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("BiasedPredictor: factor must be > 0");
  }
}

double BiasedPredictor::predict(const trace::TaskRecord& task) const {
  return task.length_s * factor_;
}

NoisyPredictor::NoisyPredictor(double sigma, std::uint64_t seed)
    : sigma_(sigma), rng_(seed) {
  if (sigma < 0.0) {
    throw std::invalid_argument("NoisyPredictor: sigma must be >= 0");
  }
}

double NoisyPredictor::predict(const trace::TaskRecord& task) const {
  return task.length_s * std::exp(sigma_ * rng_.normal());
}

HistoryPredictor::HistoryPredictor(double default_s) : default_s_(default_s) {
  if (!(default_s > 0.0)) {
    throw std::invalid_argument("HistoryPredictor: default must be > 0");
  }
}

void HistoryPredictor::observe(std::uint64_t key, double length_s) {
  if (!(length_s > 0.0)) {
    throw std::invalid_argument("HistoryPredictor: length must be > 0");
  }
  auto bump = [length_s](Running& r) {
    ++r.n;
    r.mean += (length_s - r.mean) / static_cast<double>(r.n);
  };
  bump(means_[key]);
  bump(global_);
}

double HistoryPredictor::predict(const trace::TaskRecord& task) const {
  return predict_key(static_cast<std::uint64_t>(task.priority));
}

double HistoryPredictor::predict_key(std::uint64_t key) const {
  const auto it = means_.find(key);
  if (it != means_.end() && it->second.n > 0) return it->second.mean;
  if (global_.n > 0) return global_.mean;
  return default_s_;
}

RegressionPredictor::RegressionPredictor(std::span<const double> input_sizes,
                                         std::span<const double> lengths,
                                         std::size_t degree, double min_s)
    : model_(input_sizes, lengths, degree), min_s_(min_s) {
  if (!(min_s > 0.0)) {
    throw std::invalid_argument("RegressionPredictor: min_s must be > 0");
  }
}

double RegressionPredictor::predict(const trace::TaskRecord& task) const {
  return std::max(min_s_, model_.predict(task.input_size));
}

}  // namespace cloudcr::predict
