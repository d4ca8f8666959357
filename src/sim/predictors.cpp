#include "sim/predictors.hpp"

#include <memory>

namespace cloudcr::sim {

namespace {

trace::GroupedEstimator estimator_over(const trace::Trace& trace,
                                       double length_limit) {
  trace::GroupedEstimator estimator(length_limit);
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) estimator.observe(task);
  }
  return estimator;
}

core::FailureStats failure_stats(const trace::GroupStats& group) {
  return core::FailureStats{group.mnof, group.mtbf};
}

}  // namespace

StatsPredictor make_oracle_predictor() {
  return [](const trace::TaskRecord& task, int /*current_priority*/) {
    core::FailureStats stats;
    stats.mnof = trace::oracle_mnof(task);
    stats.mtbf_s = trace::oracle_mtbf(task);
    return stats;
  };
}

StatsPredictor make_grouped_predictor(trace::GroupedEstimator estimator) {
  auto est = std::make_shared<const trace::GroupedEstimator>(estimator);
  return [est](const trace::TaskRecord& /*task*/, int current_priority) {
    return failure_stats(est->query(current_priority));
  };
}

StatsPredictor make_submission_priority_predictor(
    trace::GroupedEstimator estimator) {
  auto est = std::make_shared<const trace::GroupedEstimator>(estimator);
  return [est](const trace::TaskRecord& task, int /*current_priority*/) {
    return failure_stats(est->query(task.priority));
  };
}

StatsPredictor make_grouped_predictor(const trace::Trace& trace,
                                      double length_limit) {
  return make_grouped_predictor(estimator_over(trace, length_limit));
}

StatsPredictor make_submission_priority_predictor(const trace::Trace& trace,
                                                  double length_limit) {
  return make_submission_priority_predictor(
      estimator_over(trace, length_limit));
}

}  // namespace cloudcr::sim
