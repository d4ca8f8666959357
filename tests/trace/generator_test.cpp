#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

namespace cloudcr::trace {
namespace {

GeneratorConfig small_config() {
  GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.horizon_s = 7200.0;  // two hours
  cfg.arrival_rate = 0.1;
  return cfg;
}

TEST(TraceGenerator, RejectsBadConfig) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    double arrival_rate;
    double horizon_s;
    std::size_t max_jobs;
    const char* field;  ///< the message must name it
  };
  const Case cases[] = {
      {0.0, 86400.0, 0, "arrival_rate"},
      {kNaN, 86400.0, 0, "arrival_rate"},
      {kInf, 86400.0, 50, "arrival_rate"},  // every arrival at t = 0
      {0.116, -1.0, 0, "horizon_s"},
      {0.116, kNaN, 0, "horizon_s"},
      {0.116, kNaN, 50, "horizon_s"},
      {0.116, kInf, 0, "horizon_s"},  // no arrival ever passes it
  };
  for (const Case& c : cases) {
    GeneratorConfig cfg;
    cfg.arrival_rate = c.arrival_rate;
    cfg.horizon_s = c.horizon_s;
    cfg.max_jobs = c.max_jobs;
    SCOPED_TRACE(std::to_string(c.arrival_rate) + " / " +
                 std::to_string(c.horizon_s));
    try {
      (void)TraceGenerator{cfg};
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }

  // An infinite horizon is fine when max_jobs ends the stream.
  GeneratorConfig capped;
  capped.horizon_s = kInf;
  capped.max_jobs = 50;
  EXPECT_EQ(TraceGenerator{capped}.generate().job_count(), 50u);
}

TEST(TraceGenerator, DeterministicForSameSeed) {
  const TraceGenerator g1(small_config());
  const TraceGenerator g2(small_config());
  const auto t1 = g1.generate();
  const auto t2 = g2.generate();
  ASSERT_EQ(t1.job_count(), t2.job_count());
  for (std::size_t j = 0; j < t1.jobs.size(); ++j) {
    EXPECT_DOUBLE_EQ(t1.jobs[j].arrival_s, t2.jobs[j].arrival_s);
    ASSERT_EQ(t1.jobs[j].tasks.size(), t2.jobs[j].tasks.size());
    for (std::size_t i = 0; i < t1.jobs[j].tasks.size(); ++i) {
      EXPECT_EQ(t1.jobs[j].tasks[i].failure_dates,
                t2.jobs[j].tasks[i].failure_dates);
    }
  }
}

TEST(TraceGenerator, DifferentSeedsDiffer) {
  auto cfg1 = small_config();
  auto cfg2 = small_config();
  cfg2.seed = 8;
  const auto t1 = TraceGenerator(cfg1).generate();
  const auto t2 = TraceGenerator(cfg2).generate();
  // Nearly impossible to coincide.
  bool differs = t1.job_count() != t2.job_count();
  if (!differs && t1.job_count() > 0) {
    differs = t1.jobs[0].arrival_s != t2.jobs[0].arrival_s;
  }
  EXPECT_TRUE(differs);
}

TEST(TraceGenerator, ArrivalsSortedWithinHorizon) {
  const auto trace = TraceGenerator(small_config()).generate();
  double prev = 0.0;
  for (const auto& job : trace.jobs) {
    EXPECT_GE(job.arrival_s, prev);
    EXPECT_LE(job.arrival_s, trace.horizon_s);
    prev = job.arrival_s;
  }
}

TEST(TraceGenerator, SampleJobFilterKeepsFailingJobs) {
  auto cfg = small_config();
  cfg.sample_job_filter = true;
  const auto trace = TraceGenerator(cfg).generate();
  ASSERT_GT(trace.job_count(), 0u);
  for (const auto& job : trace.jobs) {
    EXPECT_GE(2 * job.failed_task_count(), job.tasks.size())
        << "job " << job.id;
  }
}

TEST(TraceGenerator, FilterOffKeepsMoreJobs) {
  auto with = small_config();
  with.sample_job_filter = true;
  auto without = small_config();
  without.sample_job_filter = false;
  EXPECT_GT(TraceGenerator(without).generate().job_count(),
            TraceGenerator(with).generate().job_count());
}

TEST(TraceGenerator, JobIdsAreUniqueAndTasksLinked) {
  const auto trace = TraceGenerator(small_config()).generate();
  std::set<std::uint64_t> ids;
  for (const auto& job : trace.jobs) {
    EXPECT_TRUE(ids.insert(job.id).second);
    for (const auto& task : job.tasks) {
      EXPECT_EQ(task.job_id, job.id);
    }
  }
}

TEST(TraceGenerator, MaxJobsCapRespected) {
  auto cfg = small_config();
  cfg.horizon_s = 864000.0;
  cfg.max_jobs = 25;
  const auto trace = TraceGenerator(cfg).generate();
  EXPECT_LE(trace.job_count(), 25u);
}

TEST(TraceGenerator, PriorityChangeMidwaySetsAllTasks) {
  auto cfg = small_config();
  cfg.priority_change_midway = true;
  cfg.sample_job_filter = false;
  const auto trace = TraceGenerator(cfg).generate();
  ASSERT_GT(trace.job_count(), 0u);
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) {
      ASSERT_TRUE(task.has_priority_change());
      EXPECT_DOUBLE_EQ(task.priority_change_time, 0.5 * task.length_s);
      EXPECT_GE(task.new_priority, kMinPriority);
      EXPECT_LE(task.new_priority, kMaxPriority);
    }
  }
}

TEST(TraceGenerator, NoPriorityChangeByDefault) {
  const auto trace = TraceGenerator(small_config()).generate();
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) {
      EXPECT_FALSE(task.has_priority_change());
    }
  }
}

TEST(TraceGenerator, FailureDatesSorted) {
  const auto trace = TraceGenerator(small_config()).generate();
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) {
      EXPECT_TRUE(std::is_sorted(task.failure_dates.begin(),
                                 task.failure_dates.end()));
    }
  }
}

TEST(TraceGenerator, ArrivalRateMatchesExpectation) {
  GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.arrival_rate = 0.05;
  cfg.horizon_s = 100000.0;
  cfg.sample_job_filter = false;
  const auto trace = TraceGenerator(cfg).generate();
  // Expected ~5000 arrivals; Poisson sd ~71.
  EXPECT_NEAR(static_cast<double>(trace.job_count()), 5000.0, 300.0);
}

}  // namespace
}  // namespace cloudcr::trace
