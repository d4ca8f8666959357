#pragma once

/// \file records.hpp
/// \brief Trace records: jobs, tasks, and their pre-sampled failure events.
///
/// Mirrors the structure of the Google cluster trace the paper replays: each
/// job is either a chain of sequential tasks (ST) or a bag-of-tasks (BoT);
/// each task carries its productive length, memory footprint, priority, and
/// the kill/evict events that strike it.
///
/// Failure dates are expressed in the task's *active time* — the clock that
/// runs only while the task occupies a VM. Replaying the same trace under
/// different checkpoint policies therefore delivers identical kill sequences,
/// which is how the paper obtains paired per-job comparisons (Fig 13).

#include <cstdint>
#include <limits>
#include <vector>

namespace cloudcr::trace {

/// Job structure, as in the Google trace (paper Section 5.1).
enum class JobStructure : std::uint8_t {
  kSequentialTasks,  ///< tasks run one after another (ST)
  kBagOfTasks,       ///< tasks run in parallel (BoT)
};

/// Returns "ST" or "BoT".
const char* structure_name(JobStructure s) noexcept;

/// Priorities span 1..12 as in the Google trace.
inline constexpr int kMinPriority = 1;
inline constexpr int kMaxPriority = 12;

/// Sentinel for "no priority change scheduled".
inline constexpr double kNoPriorityChange = -1.0;

/// One cloud task: an instance of a service running inside a VM.
struct TaskRecord {
  std::uint64_t job_id = 0;
  std::uint32_t index_in_job = 0;

  /// Productive execution time Te (s): the time to process the workload with
  /// no failures and no fault-tolerance overhead.
  double length_s = 0.0;

  /// Memory footprint (MB); determines checkpoint/restart costs and gates VM
  /// placement (VMs hold 1 GB).
  double memory_mb = 0.0;

  /// Abstract input-parameter size the job parser sees at submission;
  /// correlated with length_s so that regression-based workload prediction
  /// (paper ref [22]) has signal to learn from.
  double input_size = 0.0;

  /// Priority at submission, 1 (lowest) .. 12 (highest).
  int priority = kMinPriority;

  /// Kill/evict dates in active time, strictly increasing.
  std::vector<double> failure_dates;

  /// If >= 0: active-time instant at which the task's priority changes to
  /// `new_priority` (used by the Fig 14 dynamic-vs-static experiment).
  /// `failure_dates` are already sampled consistently with the change.
  double priority_change_time = kNoPriorityChange;
  int new_priority = 0;

  /// True if the record schedules a mid-execution priority change.
  [[nodiscard]] bool has_priority_change() const noexcept {
    return priority_change_time >= 0.0;
  }

  /// Priority in effect at the given active-time instant.
  [[nodiscard]] int priority_at(double active_time) const noexcept {
    return (has_priority_change() && active_time >= priority_change_time)
               ? new_priority
               : priority;
  }

  /// Number of failure events that strike within the first `active_horizon`
  /// seconds of active time (the trace-recorded failure count).
  [[nodiscard]] std::size_t failures_within(double active_horizon) const;

  /// Calls `fn(interval)` for each uninterrupted work interval observed
  /// during `active_horizon` of active time, in order: the gaps between
  /// consecutive failures, then the trailing censored interval from the last
  /// failure (or start) to the horizon. This is what the paper plots in
  /// Fig 4 and feeds MTBF estimation; it builds no container, so the
  /// estimators can walk every task without allocating.
  template <typename Fn>
  void for_each_uninterrupted_interval(double active_horizon, Fn&& fn) const {
    double prev = 0.0;
    for (double date : failure_dates) {
      if (date > active_horizon) break;
      fn(date - prev);
      prev = date;
    }
    if (active_horizon > prev) fn(active_horizon - prev);  // censored tail
  }
};

/// One user request: a set of tasks with a common structure.
struct JobRecord {
  std::uint64_t id = 0;
  JobStructure structure = JobStructure::kSequentialTasks;
  double arrival_s = 0.0;
  std::vector<TaskRecord> tasks;

  /// Sum of task productive lengths — for ST this is also the critical path;
  /// for BoT the critical path is the longest task.
  [[nodiscard]] double total_length() const;
  /// Length of the job's critical path given its structure.
  [[nodiscard]] double critical_path() const;
  /// Largest single-task memory footprint.
  [[nodiscard]] double max_task_memory() const;
  /// Sum of task memory footprints.
  [[nodiscard]] double total_memory() const;
  /// Number of tasks with at least one failure within their own length.
  [[nodiscard]] std::size_t failed_task_count() const;
  /// The paper's sample-job rule (Section 5.1): at least half of the job's
  /// tasks fail within their own length.
  [[nodiscard]] bool is_sample_job() const {
    return 2 * failed_task_count() >= tasks.size();
  }
};

/// A full synthetic trace: jobs ordered by arrival plus the horizon covered.
struct Trace {
  std::vector<JobRecord> jobs;
  double horizon_s = 0.0;

  [[nodiscard]] std::size_t job_count() const noexcept { return jobs.size(); }
  [[nodiscard]] std::size_t task_count() const;
};

/// Restricts a trace to jobs whose every task is at most `limit_s` long
/// (the paper's "restricted length" RL experiments and the <= 6 h replay
/// envelope of Fig 8). An infinite limit returns the trace unchanged.
Trace restrict_length(const Trace& trace, double limit_s);

}  // namespace cloudcr::trace
