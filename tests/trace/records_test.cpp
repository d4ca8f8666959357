#include "trace/records.hpp"

#include <gtest/gtest.h>

namespace cloudcr::trace {
namespace {

TaskRecord make_task(double length, std::vector<double> failures) {
  TaskRecord t;
  t.length_s = length;
  t.failure_dates = std::move(failures);
  return t;
}

/// What for_each_uninterrupted_interval yields, in order.
std::vector<double> visited(const TaskRecord& t, double horizon) {
  std::vector<double> out;
  t.for_each_uninterrupted_interval(horizon,
                                    [&out](double v) { out.push_back(v); });
  return out;
}

TEST(TaskRecord, FailuresWithinCountsInclusive) {
  const auto t = make_task(100.0, {10.0, 50.0, 99.0, 150.0});
  EXPECT_EQ(t.failures_within(100.0), 3u);
  EXPECT_EQ(t.failures_within(50.0), 2u);  // inclusive upper bound
  EXPECT_EQ(t.failures_within(9.0), 0u);
  EXPECT_EQ(t.failures_within(1000.0), 4u);
}

TEST(TaskRecord, UninterruptedIntervalsWithTrailingCensor) {
  const auto t = make_task(100.0, {10.0, 30.0});
  const auto intervals = visited(t, 100.0);
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_DOUBLE_EQ(intervals[0], 10.0);
  EXPECT_DOUBLE_EQ(intervals[1], 20.0);
  EXPECT_DOUBLE_EQ(intervals[2], 70.0);  // censored tail
}

TEST(TaskRecord, NoFailuresYieldsFullLengthInterval) {
  const auto t = make_task(420.0, {});
  const auto intervals = visited(t, 420.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0], 420.0);
}

TEST(TaskRecord, IntervalsIgnoreFailuresBeyondHorizon) {
  const auto t = make_task(100.0, {40.0, 200.0});
  const auto intervals = visited(t, 100.0);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0], 40.0);
  EXPECT_DOUBLE_EQ(intervals[1], 60.0);
}

TEST(TaskRecord, FailureExactlyAtHorizonHasNoTrailingInterval) {
  const auto t = make_task(100.0, {100.0});
  const auto intervals = visited(t, 100.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0], 100.0);
}

TEST(TaskRecord, PriorityAtRespectsChangePoint) {
  TaskRecord t;
  t.priority = 2;
  t.priority_change_time = 50.0;
  t.new_priority = 9;
  EXPECT_TRUE(t.has_priority_change());
  EXPECT_EQ(t.priority_at(0.0), 2);
  EXPECT_EQ(t.priority_at(49.9), 2);
  EXPECT_EQ(t.priority_at(50.0), 9);
  EXPECT_EQ(t.priority_at(1000.0), 9);
}

TEST(TaskRecord, NoChangeScheduledByDefault) {
  TaskRecord t;
  t.priority = 5;
  EXPECT_FALSE(t.has_priority_change());
  EXPECT_EQ(t.priority_at(1e9), 5);
}

TEST(JobRecord, LengthAndMemoryAggregates) {
  JobRecord j;
  j.structure = JobStructure::kBagOfTasks;
  j.tasks.push_back(make_task(100.0, {}));
  j.tasks.push_back(make_task(300.0, {}));
  j.tasks[0].memory_mb = 64.0;
  j.tasks[1].memory_mb = 128.0;
  EXPECT_DOUBLE_EQ(j.total_length(), 400.0);
  EXPECT_DOUBLE_EQ(j.critical_path(), 300.0);  // BoT: longest task
  EXPECT_DOUBLE_EQ(j.max_task_memory(), 128.0);
  EXPECT_DOUBLE_EQ(j.total_memory(), 192.0);

  j.structure = JobStructure::kSequentialTasks;
  EXPECT_DOUBLE_EQ(j.critical_path(), 400.0);  // ST: sum
}

TEST(JobRecord, FailedTaskCount) {
  JobRecord j;
  j.tasks.push_back(make_task(100.0, {50.0}));
  j.tasks.push_back(make_task(100.0, {150.0}));  // fails after completion
  j.tasks.push_back(make_task(100.0, {}));
  EXPECT_EQ(j.failed_task_count(), 1u);
}

TEST(Trace, TaskCountSumsJobs) {
  Trace trace;
  trace.jobs.resize(3);
  trace.jobs[0].tasks.resize(2);
  trace.jobs[1].tasks.resize(5);
  trace.jobs[2].tasks.resize(1);
  EXPECT_EQ(trace.task_count(), 8u);
  EXPECT_EQ(trace.job_count(), 3u);
}

TEST(StructureName, Labels) {
  EXPECT_STREQ(structure_name(JobStructure::kSequentialTasks), "ST");
  EXPECT_STREQ(structure_name(JobStructure::kBagOfTasks), "BoT");
}

}  // namespace
}  // namespace cloudcr::trace
