#pragma once

/// \file profile.hpp
/// \brief Trace characterization: the shape summary that validates an
/// ingested workload against the paper's published marginals.
///
/// Before replaying an external log it is worth checking that what came out
/// of ingestion actually looks like the paper's workload: arrival rate
/// (~0.116 jobs/s for the Google month), the priority mix (mass at the low
/// end, priorities 4/8/11/12 rare — Fig 8), the memory distribution (small
/// footprints, < 1 GB), and per-priority MTBF (Fig 4 / Table 7). profile()
/// computes all of these from any trace::Trace — ingested or synthetic —
/// print_profile() renders them as one report.

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "ingest/source.hpp"
#include "stats/summary.hpp"
#include "trace/estimators.hpp"
#include "trace/records.hpp"

namespace cloudcr::ingest {

/// Shape summary of one trace.
struct TraceProfile {
  std::size_t jobs = 0;
  std::size_t tasks = 0;
  std::size_t st_jobs = 0;   ///< sequential-task jobs
  std::size_t bot_jobs = 0;  ///< bag-of-tasks jobs
  double horizon_s = 0.0;

  /// Mean job arrival rate (jobs/s over the horizon; 0 for an empty
  /// horizon).
  double arrival_rate = 0.0;

  stats::Summary task_length_s;
  stats::Summary task_memory_mb;

  /// Task count per priority 1..12 (index 0 = priority 1).
  std::array<std::size_t, trace::kMaxPriority> priority_tasks{};

  /// Per-priority MNOF/MTBF over the full trace (trace::GroupedEstimator
  /// with no length limit) — the Fig 4 / Table 7 view.
  std::array<trace::GroupStats, trace::kMaxPriority> by_priority{};

  /// The estimator's pooled overall group: MNOF/MTBF over every task and
  /// interval, the statistics a grouped predictor answers for a priority
  /// with no tasks.
  trace::GroupStats overall;

  /// Tasks whose length is a censored accrued-execution tail (only known
  /// when the profile was computed from an IngestResult; the trace alone
  /// cannot tell a censored length from a completed one).
  std::size_t censored_tails = 0;
};

/// Computes the profile, estimator included, in one pass over the trace.
TraceProfile profile(const trace::Trace& trace);

/// Like profile(trace) but also carries the ingestion report's
/// censored-tail count, so print_profile can flag how many task lengths
/// are lower bounds rather than completed runs.
TraceProfile profile(const IngestResult& ingested);

/// Prints the profile as an ASCII report: shape line, length/memory
/// summaries, and a per-priority table (tasks, share, MNOF, MTBF). Empty
/// priorities are omitted from the table.
void print_profile(std::ostream& os, const TraceProfile& profile,
                   const std::string& title = "trace profile");

}  // namespace cloudcr::ingest
