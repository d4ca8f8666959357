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

std::array<GroupStats, kMaxPriority> estimate_by_priority(
    const Trace& trace, double length_limit, StructureFilter filter) {
  std::array<GroupStats, kMaxPriority> groups{};
  std::array<double, kMaxPriority> interval_sum{};
  std::array<std::size_t, kMaxPriority> interval_count{};

  for (const auto& job : trace.jobs) {
    if (!structure_matches(job, filter)) continue;
    for (const auto& task : job.tasks) {
      if (task.length_s > length_limit) continue;
      const auto idx = static_cast<std::size_t>(task.priority - 1);
      if (idx >= groups.size()) {
        throw std::out_of_range("estimate_by_priority: bad priority");
      }
      GroupStats& g = groups[idx];
      ++g.task_count;
      g.failure_count += task.failures_within(task.length_s);
      task.for_each_uninterrupted_interval(task.length_s, [&](double v) {
        interval_sum[idx] += v;
        ++interval_count[idx];
      });
    }
  }

  for (std::size_t i = 0; i < groups.size(); ++i) {
    GroupStats& g = groups[i];
    if (g.task_count > 0) {
      g.mnof = static_cast<double>(g.failure_count) /
               static_cast<double>(g.task_count);
    }
    if (interval_count[i] > 0) {
      g.mtbf = interval_sum[i] / static_cast<double>(interval_count[i]);
    }
  }
  return groups;
}

std::array<GroupStats, kMaxPriority> estimate_by_priority(
    const Trace& trace, double length_limit) {
  return estimate_by_priority(trace, length_limit, StructureFilter::kAll);
}

GroupStats estimate_overall(const Trace& trace, double length_limit) {
  const auto groups = estimate_by_priority(trace, length_limit);
  GroupStats all;
  double weighted_mtbf = 0.0;
  std::size_t mtbf_tasks = 0;
  for (const auto& g : groups) {
    all.task_count += g.task_count;
    all.failure_count += g.failure_count;
    weighted_mtbf += g.mtbf * static_cast<double>(g.task_count);
    if (g.task_count > 0) mtbf_tasks += g.task_count;
  }
  if (all.task_count > 0) {
    all.mnof = static_cast<double>(all.failure_count) /
               static_cast<double>(all.task_count);
  }
  if (mtbf_tasks > 0) {
    all.mtbf = weighted_mtbf / static_cast<double>(mtbf_tasks);
  }
  return all;
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

std::vector<double> failure_intervals(const Trace& trace, double limit) {
  std::vector<double> out;
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) {
      double prev = 0.0;
      for (double date : task.failure_dates) {
        if (date > task.length_s) break;
        const double gap = date - prev;
        prev = date;
        if (gap <= limit) out.push_back(gap);
      }
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
