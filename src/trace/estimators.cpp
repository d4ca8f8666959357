#include "trace/estimators.hpp"

#include <stdexcept>

namespace cloudcr::trace {

namespace {

bool structure_matches(const JobRecord& job, StructureFilter filter) {
  switch (filter) {
    case StructureFilter::kAll:
      return true;
    case StructureFilter::kSequentialOnly:
      return job.structure == JobStructure::kSequentialTasks;
    case StructureFilter::kBagOfTasksOnly:
      return job.structure == JobStructure::kBagOfTasks;
  }
  return false;
}

}  // namespace

GroupedEstimator::GroupedEstimator(double length_limit)
    : length_limit_(length_limit) {
  if (!(length_limit > 0.0)) {
    throw std::invalid_argument("GroupedEstimator: length limit must be > 0");
  }
}

void GroupedEstimator::observe(const TaskRecord& task) {
  if (task.length_s > length_limit_) return;
  if (task.priority < kMinPriority || task.priority > kMaxPriority) {
    throw std::out_of_range("GroupedEstimator: priority out of [1,12]");
  }
  Sums& group = groups_[static_cast<std::size_t>(task.priority - 1)];
  const std::size_t failures = task.failures_within(task.length_s);
  ++group.tasks;
  group.failures += failures;
  ++overall_.tasks;
  overall_.failures += failures;
  task.for_each_uninterrupted_interval(task.length_s, [&](double v) {
    group.interval_sum += v;
    ++group.interval_count;
    overall_.interval_sum += v;
    ++overall_.interval_count;
  });
}

const GroupedEstimator::Sums& GroupedEstimator::sums_of(int priority) const {
  if (priority < kMinPriority || priority > kMaxPriority) {
    throw std::out_of_range("GroupedEstimator: priority out of [1,12]");
  }
  return groups_[static_cast<std::size_t>(priority - 1)];
}

GroupStats GroupedEstimator::stats_of(const Sums& sums) {
  GroupStats g;
  g.task_count = sums.tasks;
  g.failure_count = sums.failures;
  if (sums.tasks > 0) {
    g.mnof =
        static_cast<double>(sums.failures) / static_cast<double>(sums.tasks);
  }
  if (sums.interval_count > 0) {
    g.mtbf = sums.interval_sum / static_cast<double>(sums.interval_count);
  }
  return g;
}

GroupStats GroupedEstimator::group(int priority) const {
  return stats_of(sums_of(priority));
}

GroupStats GroupedEstimator::query(int priority) const {
  const Sums& sums = sums_of(priority);
  return stats_of(sums.tasks > 0 ? sums : overall_);
}

std::array<GroupStats, kMaxPriority> estimate_by_priority(
    const Trace& trace, double length_limit, StructureFilter filter) {
  GroupedEstimator estimator(length_limit);
  for (const auto& job : trace.jobs) {
    if (!structure_matches(job, filter)) continue;
    for (const auto& task : job.tasks) estimator.observe(task);
  }
  std::array<GroupStats, kMaxPriority> groups{};
  for (int p = kMinPriority; p <= kMaxPriority; ++p) {
    groups[static_cast<std::size_t>(p - 1)] = estimator.group(p);
  }
  return groups;
}

std::array<GroupStats, kMaxPriority> estimate_by_priority(
    const Trace& trace, double length_limit) {
  return estimate_by_priority(trace, length_limit, StructureFilter::kAll);
}

std::map<int, std::vector<double>> intervals_by_priority(const Trace& trace) {
  std::map<int, std::vector<double>> out;
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) {
      auto& bucket = out[task.priority];
      task.for_each_uninterrupted_interval(
          task.length_s, [&bucket](double v) { bucket.push_back(v); });
    }
  }
  return out;
}

std::vector<double> uninterrupted_interval_pool(const Trace& trace,
                                                double limit) {
  std::vector<double> out;
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) {
      task.for_each_uninterrupted_interval(task.length_s, [&](double v) {
        if (v <= limit) out.push_back(v);
      });
    }
  }
  return out;
}

double oracle_mnof(const TaskRecord& task) {
  return static_cast<double>(task.failures_within(task.length_s));
}

double oracle_mtbf(const TaskRecord& task) {
  double acc = 0.0;
  std::size_t count = 0;
  task.for_each_uninterrupted_interval(task.length_s, [&](double v) {
    acc += v;
    ++count;
  });
  if (count == 0) return task.length_s;
  return acc / static_cast<double>(count);
}

}  // namespace cloudcr::trace
