#pragma once

/// \file estimators.hpp
/// \brief Historical MNOF/MTBF estimation from traces (paper Table 7) and
/// interval extraction for the CDF figures (Figs 4-5).
///
/// MNOF (mean number of failures per task) and MTBF (mean time between
/// failures) are the two statistics the competing formulas consume: the
/// paper's Formula (3) needs MNOF, Young's formula needs MTBF. Both are
/// estimated from history, grouped by priority and optionally restricted to
/// tasks below a length limit — reproducing the exact structure of Table 7.
/// GroupedEstimator is the one estimator: Table 7, trace profiles and the
/// grouped/submission replay predictors all read it, so the statistics a
/// replay plans with are the ones Table 7 reports.

#include <array>
#include <cstddef>
#include <limits>
#include <map>
#include <vector>

#include "trace/records.hpp"

namespace cloudcr::trace {

/// Group statistics for one (priority, length-limit) cell of Table 7.
struct GroupStats {
  std::size_t task_count = 0;     ///< tasks in the group
  std::size_t failure_count = 0;  ///< total failures across the group
  double mnof = 0.0;              ///< mean failures per task
  double mtbf = 0.0;              ///< mean uninterrupted interval (s)

  [[nodiscard]] bool empty() const noexcept { return task_count == 0; }
};

/// No length restriction (the Table 7 "<= +inf" rows).
inline constexpr double kNoLengthLimit =
    std::numeric_limits<double>::infinity();

/// Accumulates MNOF/MTBF per priority, one task at a time, over tasks with
/// `length_s <= length_limit`.
///
/// A task's failure count is the number of kill events within its own
/// productive length; its observed uninterrupted intervals are the gaps
/// between consecutive kills plus the trailing censored interval (a task
/// that never fails contributes its full length as one interval). This is
/// how a trace consumer would measure both statistics from history, and it
/// reproduces the paper's observation that MTBF inflates with the length
/// limit while MNOF stays comparatively stable. The limit is the paper's
/// "MTBF (as well as MNOF) are estimated using corresponding short tasks
/// based on priorities" (Fig 11).
///
/// State is per-priority sums only, so estimating from a stream holds O(1)
/// memory. Estimates are bit-identical for the same tasks in the same order.
class GroupedEstimator {
 public:
  /// Throws std::invalid_argument unless `length_limit` > 0.
  explicit GroupedEstimator(double length_limit = kNoLengthLimit);

  /// Adds `task` to its priority's group and to the pooled overall group;
  /// skips it when it is longer than the limit. Throws std::out_of_range for
  /// a priority outside 1..12. Allocates nothing.
  void observe(const TaskRecord& task);

  /// The statistics of one priority's group (empty when it saw no task).
  /// Throws std::out_of_range outside 1..12.
  [[nodiscard]] GroupStats group(int priority) const;

  /// group(priority), or the pooled overall group when that priority has no
  /// observations — the grouped predictors' answer for a task.
  [[nodiscard]] GroupStats query(int priority) const;

  /// The pooled overall group: every observed task and interval, weighted
  /// alike.
  [[nodiscard]] GroupStats overall() const { return stats_of(overall_); }

 private:
  struct Sums {
    std::size_t tasks = 0;
    std::size_t failures = 0;
    double interval_sum = 0.0;
    std::size_t interval_count = 0;
  };

  [[nodiscard]] static GroupStats stats_of(const Sums& sums);
  [[nodiscard]] const Sums& sums_of(int priority) const;

  double length_limit_;
  std::array<Sums, kMaxPriority> groups_{};
  Sums overall_{};
};

/// The twelve per-priority groups of a GroupedEstimator that observed every
/// task of `trace`.
std::array<GroupStats, kMaxPriority> estimate_by_priority(
    const Trace& trace, double length_limit = kNoLengthLimit);

/// Filter for the per-structure breakdown of Table 7.
enum class StructureFilter { kAll, kSequentialOnly, kBagOfTasksOnly };

/// Per-priority estimation restricted to one job structure.
std::array<GroupStats, kMaxPriority> estimate_by_priority(
    const Trace& trace, double length_limit, StructureFilter filter);

/// All uninterrupted work intervals observed per priority (Fig 4's CDFs).
std::map<int, std::vector<double>> intervals_by_priority(const Trace& trace);

/// All *uninterrupted work intervals* pooled over every task: gaps between
/// consecutive failures plus each task's trailing censored interval. This is
/// the Fig 5 sample set ("task failure intervals"): the bulk is short burst
/// gaps, the tail is the full length of tasks that never fail — which is why
/// a Pareto fits the whole set while an exponential wins the <=1000 s
/// window. Intervals above `limit` are dropped when a finite limit is given.
std::vector<double> uninterrupted_interval_pool(
    const Trace& trace, double limit = kNoLengthLimit);

/// Per-task expected-failure oracle: the realized number of failures within
/// the task's own productive length. Used by the "precise prediction"
/// experiments (Table 6), where both formulas receive exact per-task values.
double oracle_mnof(const TaskRecord& task);

/// Per-task MTBF oracle: mean observed uninterrupted interval of this task.
double oracle_mtbf(const TaskRecord& task);

}  // namespace cloudcr::trace
