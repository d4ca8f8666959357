#include "ingest/profile.hpp"

#include <ostream>

#include "metrics/report.hpp"

namespace cloudcr::ingest {

TraceProfile profile(const trace::Trace& trace) {
  TraceProfile p;
  p.jobs = trace.job_count();
  p.horizon_s = trace.horizon_s;
  trace::GroupedEstimator estimator;
  for (const auto& job : trace.jobs) {
    (job.structure == trace::JobStructure::kBagOfTasks ? p.bot_jobs
                                                       : p.st_jobs)++;
    for (const auto& task : job.tasks) {
      ++p.tasks;
      p.task_length_s.add(task.length_s);
      p.task_memory_mb.add(task.memory_mb);
      if (task.priority >= trace::kMinPriority &&
          task.priority <= trace::kMaxPriority) {
        ++p.priority_tasks[static_cast<std::size_t>(task.priority - 1)];
      }
      estimator.observe(task);
    }
  }
  if (p.horizon_s > 0.0) {
    p.arrival_rate = static_cast<double>(p.jobs) / p.horizon_s;
  }
  for (int prio = trace::kMinPriority; prio <= trace::kMaxPriority; ++prio) {
    p.by_priority[static_cast<std::size_t>(prio - 1)] = estimator.group(prio);
  }
  p.overall = estimator.overall();
  return p;
}

TraceProfile profile(const IngestResult& ingested) {
  TraceProfile p = profile(ingested.trace);
  p.censored_tails = ingested.report.censored_tail_count;
  return p;
}

void print_profile(std::ostream& os, const TraceProfile& profile,
                   const std::string& title) {
  metrics::print_banner(os, title);
  os << "jobs: " << profile.jobs << " (" << profile.st_jobs << " ST, "
     << profile.bot_jobs << " BoT), tasks: " << profile.tasks
     << ", horizon: " << metrics::fmt(profile.horizon_s / 3600.0, 2)
     << " h, arrival rate: " << metrics::fmt(profile.arrival_rate, 4)
     << " jobs/s\n";
  if (profile.tasks == 0) return;
  os << "task length (s): min " << metrics::fmt(profile.task_length_s.min(), 1)
     << " / mean " << metrics::fmt(profile.task_length_s.mean(), 1)
     << " / max " << metrics::fmt(profile.task_length_s.max(), 1);
  if (profile.censored_tails > 0) {
    os << " (" << profile.censored_tails << " censored tails)";
  }
  os << "\n";
  os << "task memory (MB): min "
     << metrics::fmt(profile.task_memory_mb.min(), 1) << " / mean "
     << metrics::fmt(profile.task_memory_mb.mean(), 1) << " / max "
     << metrics::fmt(profile.task_memory_mb.max(), 1) << "\n";
  os << "overall MNOF " << metrics::fmt(profile.overall.mnof, 3)
     << ", MTBF " << metrics::fmt(profile.overall.mtbf, 1) << " s\n";

  metrics::Table table({"priority", "tasks", "share", "MNOF", "MTBF (s)"});
  for (int prio = trace::kMinPriority; prio <= trace::kMaxPriority; ++prio) {
    const auto idx = static_cast<std::size_t>(prio - 1);
    const std::size_t count = profile.priority_tasks[idx];
    if (count == 0) continue;
    const auto& stats = profile.by_priority[idx];
    table.add_row({std::to_string(prio), std::to_string(count),
                   metrics::fmt(static_cast<double>(count) /
                                    static_cast<double>(profile.tasks),
                                3),
                   metrics::fmt(stats.mnof, 3),
                   metrics::fmt(stats.mtbf, 1)});
  }
  table.print(os);
}

}  // namespace cloudcr::ingest
