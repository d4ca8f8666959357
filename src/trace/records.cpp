#include "trace/records.hpp"

#include <algorithm>

namespace cloudcr::trace {

const char* structure_name(JobStructure s) noexcept {
  return s == JobStructure::kSequentialTasks ? "ST" : "BoT";
}

std::size_t TaskRecord::failures_within(double active_horizon) const {
  const auto it = std::upper_bound(failure_dates.begin(), failure_dates.end(),
                                   active_horizon);
  return static_cast<std::size_t>(it - failure_dates.begin());
}

double JobRecord::total_length() const {
  double acc = 0.0;
  for (const auto& t : tasks) acc += t.length_s;
  return acc;
}

double JobRecord::critical_path() const {
  if (structure == JobStructure::kSequentialTasks) return total_length();
  double longest = 0.0;
  for (const auto& t : tasks) longest = std::max(longest, t.length_s);
  return longest;
}

double JobRecord::max_task_memory() const {
  double largest = 0.0;
  for (const auto& t : tasks) largest = std::max(largest, t.memory_mb);
  return largest;
}

double JobRecord::total_memory() const {
  double acc = 0.0;
  for (const auto& t : tasks) acc += t.memory_mb;
  return acc;
}

std::size_t JobRecord::failed_task_count() const {
  std::size_t n = 0;
  for (const auto& t : tasks) {
    if (t.failures_within(t.length_s) > 0) ++n;
  }
  return n;
}

std::size_t Trace::task_count() const {
  std::size_t n = 0;
  for (const auto& j : jobs) n += j.tasks.size();
  return n;
}

Trace restrict_length(const Trace& trace, double limit_s) {
  Trace out;
  out.horizon_s = trace.horizon_s;
  for (const auto& job : trace.jobs) {
    const bool ok = std::all_of(
        job.tasks.begin(), job.tasks.end(),
        [limit_s](const TaskRecord& task) { return task.length_s <= limit_s; });
    if (ok) out.jobs.push_back(job);
  }
  return out;
}

}  // namespace cloudcr::trace
