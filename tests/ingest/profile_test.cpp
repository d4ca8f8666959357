// Trace characterization: counts, arrival rate, priority mix, memory
// distribution, and per-priority MTBF.

#include "ingest/profile.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "trace/generator.hpp"

namespace cloudcr::ingest {
namespace {

trace::Trace tiny_trace() {
  trace::Trace t;
  t.horizon_s = 100.0;

  trace::JobRecord a;
  a.id = 1;
  a.arrival_s = 0.0;
  a.structure = trace::JobStructure::kSequentialTasks;
  trace::TaskRecord a0;
  a0.length_s = 50.0;
  a0.memory_mb = 100.0;
  a0.priority = 1;
  a0.failure_dates = {10.0, 30.0};  // two failures within the length
  a.tasks.push_back(a0);
  t.jobs.push_back(a);

  trace::JobRecord b;
  b.id = 2;
  b.arrival_s = 40.0;
  b.structure = trace::JobStructure::kBagOfTasks;
  trace::TaskRecord b0;
  b0.length_s = 20.0;
  b0.memory_mb = 300.0;
  b0.priority = 5;
  b.tasks.push_back(b0);
  b.tasks.push_back(b0);
  t.jobs.push_back(b);
  return t;
}

TEST(Profile, ComputesShapeAndMarginals) {
  const TraceProfile p = profile(tiny_trace());
  EXPECT_EQ(p.jobs, 2u);
  EXPECT_EQ(p.tasks, 3u);
  EXPECT_EQ(p.st_jobs, 1u);
  EXPECT_EQ(p.bot_jobs, 1u);
  EXPECT_DOUBLE_EQ(p.horizon_s, 100.0);
  EXPECT_DOUBLE_EQ(p.arrival_rate, 0.02);  // 2 jobs / 100 s

  EXPECT_DOUBLE_EQ(p.task_length_s.min(), 20.0);
  EXPECT_DOUBLE_EQ(p.task_length_s.max(), 50.0);
  EXPECT_DOUBLE_EQ(p.task_memory_mb.mean(), (100.0 + 300.0 + 300.0) / 3.0);

  EXPECT_EQ(p.priority_tasks[0], 1u);  // priority 1
  EXPECT_EQ(p.priority_tasks[4], 2u);  // priority 5
  EXPECT_EQ(p.priority_tasks[11], 0u);

  // Priority 1: one task, two failures.
  EXPECT_EQ(p.by_priority[0].task_count, 1u);
  EXPECT_DOUBLE_EQ(p.by_priority[0].mnof, 2.0);
  // Priority 5: two clean tasks -> MTBF is the censored full length.
  EXPECT_DOUBLE_EQ(p.by_priority[4].mnof, 0.0);
  EXPECT_DOUBLE_EQ(p.by_priority[4].mtbf, 20.0);
  EXPECT_EQ(p.overall.task_count, 3u);
  // The pooled overall group a grouped predictor answers for an empty
  // priority: every interval weighted alike, (10 + 20 + 20 + 20 + 20) / 5.
  EXPECT_EQ(p.overall.failure_count, 2u);
  EXPECT_DOUBLE_EQ(p.overall.mtbf, 18.0);
}

TEST(Profile, EmptyTraceIsSafe) {
  const TraceProfile p = profile(trace::Trace{});
  EXPECT_EQ(p.jobs, 0u);
  EXPECT_EQ(p.tasks, 0u);
  EXPECT_DOUBLE_EQ(p.arrival_rate, 0.0);
  std::ostringstream os;
  print_profile(os, p);  // must not crash or divide by zero
  EXPECT_NE(os.str().find("jobs: 0"), std::string::npos);
}

TEST(Profile, PrintsPerPriorityTable) {
  std::ostringstream os;
  print_profile(os, profile(tiny_trace()), "tiny");
  const std::string out = os.str();
  EXPECT_NE(out.find("== tiny =="), std::string::npos);
  EXPECT_NE(out.find("arrival rate: 0.0200 jobs/s"), std::string::npos);
  EXPECT_NE(out.find("overall MNOF 0.667, MTBF 18.0 s"), std::string::npos);
  // Only the populated priorities appear.
  EXPECT_NE(out.find("|        1 |"), std::string::npos);
  EXPECT_NE(out.find("|        5 |"), std::string::npos);
  EXPECT_EQ(out.find("|       12 |"), std::string::npos);
}

TEST(Profile, SyntheticTraceLandsNearPaperMarginals) {
  // The generator's defaults reproduce Fig 8's shape; the profile of a
  // generated day should land near the configured arrival density and keep
  // memory under the 1 GB VM size.
  trace::GeneratorConfig cfg;
  cfg.seed = 9;
  cfg.horizon_s = 86400.0;
  cfg.sample_job_filter = false;
  const TraceProfile p = profile(trace::TraceGenerator(cfg).generate());
  EXPECT_NEAR(p.arrival_rate, 0.116, 0.02);
  EXPECT_LE(p.task_memory_mb.max(), 1024.0);
  EXPECT_GT(p.overall.mtbf, 0.0);
}

}  // namespace
}  // namespace cloudcr::ingest
