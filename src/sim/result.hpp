#pragma once

/// \file result.hpp
/// \brief Aggregated results of one simulation run.

#include <cstddef>
#include <vector>

#include "metrics/wpr.hpp"
#include "obs/probe.hpp"

namespace cloudcr::sim {

/// Outcome of replaying one trace under one policy configuration.
struct SimResult {
  /// One entry per *completed* job, in completion order.
  std::vector<metrics::JobOutcome> outcomes;

  std::size_t incomplete_jobs = 0;   ///< jobs not finished when queue drained
  std::size_t total_checkpoints = 0;
  std::size_t total_failures = 0;
  std::size_t total_unschedulable = 0;  ///< tasks rejected at admission
  std::size_t events_dispatched = 0;
  double makespan_s = 0.0;           ///< last event or later write end

  // -- scheduling-stage aggregates (all zero under fcfs / no scheduler) -----
  double total_sched_wait_s = 0.0;   ///< summed scheduler hold time of jobs
  std::size_t backfilled_jobs = 0;   ///< jobs released ahead of an earlier one
  std::size_t preempted_tasks = 0;   ///< task evictions by the scheduler

  /// Time-series probe samples, one per SimConfig::probe_interval_s of
  /// simulated time; empty unless probing was enabled. Purely additive:
  /// every other field is bit-identical with probing on or off.
  std::vector<obs::ProbeSample> probes;

  [[nodiscard]] double average_wpr() const {
    return metrics::average_wpr(outcomes);
  }
};

}  // namespace cloudcr::sim
