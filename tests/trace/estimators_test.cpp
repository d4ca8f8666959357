#include "trace/estimators.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "trace/generator.hpp"

namespace cloudcr::trace {
namespace {

TaskRecord make_task(int priority, double length,
                     std::vector<double> failure_dates) {
  TaskRecord t;
  t.priority = priority;
  t.length_s = length;
  t.failure_dates = std::move(failure_dates);
  return t;
}

Trace controlled_trace() {
  // Hand-built trace: priority 1 tasks fail often; priority 12 never.
  Trace trace;
  JobRecord job;
  job.id = 1;
  job.structure = JobStructure::kBagOfTasks;

  TaskRecord harassed;
  harassed.priority = 1;
  harassed.length_s = 100.0;
  harassed.failure_dates = {20.0, 40.0};  // intervals 20, 20, tail 60

  TaskRecord safe;
  safe.priority = 12;
  safe.length_s = 400.0;  // one censored interval of 400

  job.tasks = {harassed, safe};
  trace.jobs.push_back(job);
  return trace;
}

TEST(Estimators, MnofAndMtbfOnControlledInput) {
  const auto trace = controlled_trace();
  const auto groups = estimate_by_priority(trace);
  EXPECT_EQ(groups[0].task_count, 1u);
  EXPECT_DOUBLE_EQ(groups[0].mnof, 2.0);
  EXPECT_NEAR(groups[0].mtbf, (20.0 + 20.0 + 60.0) / 3.0, 1e-12);
  EXPECT_EQ(groups[11].task_count, 1u);
  EXPECT_DOUBLE_EQ(groups[11].mnof, 0.0);
  EXPECT_DOUBLE_EQ(groups[11].mtbf, 400.0);
}

TEST(Estimators, LengthLimitExcludesLongTasks) {
  const auto trace = controlled_trace();
  const auto groups = estimate_by_priority(trace, 200.0);
  EXPECT_EQ(groups[0].task_count, 1u);   // 100 s task kept
  EXPECT_EQ(groups[11].task_count, 0u);  // 400 s task dropped
}

TEST(Estimators, StructureFilterSeparatesStAndBot) {
  Trace trace = controlled_trace();
  JobRecord st_job;
  st_job.id = 2;
  st_job.structure = JobStructure::kSequentialTasks;
  TaskRecord t;
  t.priority = 1;
  t.length_s = 50.0;
  t.failure_dates = {10.0};
  st_job.tasks = {t};
  trace.jobs.push_back(st_job);

  const auto bot = estimate_by_priority(trace, kNoLengthLimit,
                                        StructureFilter::kBagOfTasksOnly);
  const auto st = estimate_by_priority(trace, kNoLengthLimit,
                                       StructureFilter::kSequentialOnly);
  EXPECT_EQ(bot[0].task_count, 1u);
  EXPECT_EQ(st[0].task_count, 1u);
  EXPECT_DOUBLE_EQ(st[0].mnof, 1.0);
}

TEST(Estimators, OverallAggregatesGroups) {
  const auto trace = controlled_trace();
  GroupedEstimator estimator;
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) estimator.observe(task);
  }
  const auto all = estimator.overall();
  EXPECT_EQ(all.task_count, 2u);
  EXPECT_EQ(all.failure_count, 2u);
  EXPECT_DOUBLE_EQ(all.mnof, 1.0);  // 2 failures over 2 tasks
  // The pooled interval mean (20 + 20 + 60 + 400) / 4, every interval
  // weighted alike — not the task-weighted mean of the group MTBFs,
  // (100/3 + 400) / 2.
  EXPECT_DOUBLE_EQ(all.mtbf, 125.0);
}

TEST(Estimators, IntervalsByPriorityCollectsEverything) {
  const auto trace = controlled_trace();
  const auto by_prio = intervals_by_priority(trace);
  ASSERT_TRUE(by_prio.contains(1));
  ASSERT_TRUE(by_prio.contains(12));
  EXPECT_EQ(by_prio.at(1).size(), 3u);
  EXPECT_EQ(by_prio.at(12).size(), 1u);
}

TEST(Estimators, UninterruptedPoolIncludesCensoredTails) {
  const auto trace = controlled_trace();
  // harassed: 20, 20, 60 (tail); safe: 400 (tail) -> four intervals total.
  const auto pool = uninterrupted_interval_pool(trace);
  EXPECT_EQ(pool.size(), 4u);
  const auto short_pool = uninterrupted_interval_pool(trace, 100.0);
  EXPECT_EQ(short_pool.size(), 3u);  // the 400 s tail is dropped
}

TEST(Estimators, OracleValuesMatchTaskHistory) {
  const auto trace = controlled_trace();
  const auto& harassed = trace.jobs[0].tasks[0];
  const auto& safe = trace.jobs[0].tasks[1];
  EXPECT_DOUBLE_EQ(oracle_mnof(harassed), 2.0);
  EXPECT_NEAR(oracle_mtbf(harassed), 100.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(oracle_mnof(safe), 0.0);
  EXPECT_DOUBLE_EQ(oracle_mtbf(safe), 400.0);
}

// The headline structural property (Table 7): on a generated trace, MTBF
// inflates sharply when long tasks enter the estimation while MNOF moves far
// less. This is the fact that makes Formula (3) robust and Young's fragile.
TEST(Estimators, Table7Structure_MtbfInflatesMnofStays) {
  GeneratorConfig cfg;
  cfg.seed = 31;
  cfg.horizon_s = 86400.0;
  cfg.arrival_rate = 0.1;
  cfg.sample_job_filter = false;
  const auto trace = TraceGenerator(cfg).generate();

  const auto short_groups = estimate_by_priority(trace, 1000.0);
  const auto all_groups = estimate_by_priority(trace, kNoLengthLimit);

  // Aggregate over the busy priorities to avoid small-sample noise.
  double short_mtbf = 0.0, all_mtbf = 0.0;
  double short_mnof = 0.0, all_mnof = 0.0;
  int cells = 0;
  for (int p : {1, 2, 3}) {
    const auto& s = short_groups[static_cast<std::size_t>(p - 1)];
    const auto& a = all_groups[static_cast<std::size_t>(p - 1)];
    if (s.task_count < 50 || a.task_count < 50) continue;
    short_mtbf += s.mtbf;
    all_mtbf += a.mtbf;
    short_mnof += s.mnof;
    all_mnof += a.mnof;
    ++cells;
  }
  ASSERT_GT(cells, 0);
  // MTBF at least doubles with the unrestricted set...
  EXPECT_GT(all_mtbf, 2.0 * short_mtbf);
  // ...while MNOF grows by far less than MTBF does (relative inflation).
  const double mtbf_inflation = all_mtbf / short_mtbf;
  const double mnof_inflation = all_mnof / short_mnof;
  EXPECT_LT(mnof_inflation, 0.5 * mtbf_inflation);
}

TEST(GroupedEstimator, EmptyReturnsZeros) {
  const GroupedEstimator est;
  for (const GroupStats& s : {est.group(1), est.query(1)}) {
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mnof, 0.0);
    EXPECT_DOUBLE_EQ(s.mtbf, 0.0);
  }
}

TEST(GroupedEstimator, SingleGroupStatistics) {
  GroupedEstimator est;
  est.observe(make_task(3, 100.0, {20.0, 50.0}));  // intervals 20, 30, 50
  est.observe(make_task(3, 200.0, {}));            // one censored 200
  const auto s = est.query(3);
  EXPECT_EQ(s.task_count, 2u);
  EXPECT_EQ(s.failure_count, 2u);
  EXPECT_DOUBLE_EQ(s.mnof, 1.0);                    // 2 failures / 2 tasks
  EXPECT_DOUBLE_EQ(s.mtbf, (100.0 + 200.0) / 4.0);  // 4 intervals
}

TEST(GroupedEstimator, FallsBackToPooledOverall) {
  GroupedEstimator est;
  est.observe(make_task(1, 100.0, {25.0, 50.0, 75.0, 100.0}));  // 4 x 25
  est.observe(make_task(2, 400.0, {}));                         // 1 x 400
  // Priority 7 has no data; the pooled overall group answers: every
  // interval weighs the same, (4 * 25 + 400) / 5.
  EXPECT_TRUE(est.group(7).empty());
  const auto s = est.query(7);
  EXPECT_EQ(s.task_count, 2u);
  EXPECT_DOUBLE_EQ(s.mnof, 2.0);
  EXPECT_DOUBLE_EQ(s.mtbf, 100.0);
  // A populated priority answers with its own group.
  EXPECT_DOUBLE_EQ(est.query(1).mtbf, 25.0);
}

TEST(GroupedEstimator, LengthLimitFiltersObservations) {
  GroupedEstimator est(150.0);
  est.observe(make_task(2, 100.0, {50.0}));  // intervals 50, 50
  est.observe(make_task(2, 1000.0, {100.0, 200.0, 300.0, 400.0, 500.0,
                                    600.0, 700.0, 800.0, 900.0}));  // dropped
  const auto s = est.query(2);
  EXPECT_EQ(s.task_count, 1u);
  EXPECT_DOUBLE_EQ(s.mnof, 1.0);
  EXPECT_DOUBLE_EQ(s.mtbf, 50.0);
}

TEST(GroupedEstimator, PrioritiesAreIndependent) {
  GroupedEstimator est;
  est.observe(make_task(1, 100.0, {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0,
                                   80.0, 90.0, 95.0}));
  est.observe(make_task(12, 100.0, {}));
  EXPECT_DOUBLE_EQ(est.query(1).mnof, 10.0);
  EXPECT_DOUBLE_EQ(est.query(12).mnof, 0.0);
}

TEST(GroupedEstimator, RejectsBadPriority) {
  GroupedEstimator est;
  EXPECT_THROW(est.observe(make_task(0, 1.0, {})), std::out_of_range);
  EXPECT_THROW(est.observe(make_task(13, 1.0, {})), std::out_of_range);
  EXPECT_THROW((void)est.query(0), std::out_of_range);
  EXPECT_THROW((void)est.query(13), std::out_of_range);
  EXPECT_THROW((void)est.group(0), std::out_of_range);
  EXPECT_THROW((void)est.group(13), std::out_of_range);
}

TEST(GroupedEstimator, RejectsBadLimit) {
  for (double limit : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    try {
      GroupedEstimator est(limit);
      ADD_FAILURE() << "limit " << limit << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "GroupedEstimator: length limit must be > 0");
    }
  }
}

TEST(GroupedEstimator, MtbfInflationScenario) {
  // The Table 7 phenomenon in miniature: short harassed tasks plus long safe
  // tasks blow up MTBF while MNOF moves modestly.
  GroupedEstimator all_est;
  GroupedEstimator short_est(1000.0);
  const auto short_task = make_task(2, 500.0, {100.0, 250.0});
  const auto long_task = make_task(2, 20000.0, {});
  for (int i = 0; i < 100; ++i) {
    all_est.observe(short_task);
    short_est.observe(short_task);
    all_est.observe(long_task);
    short_est.observe(long_task);  // filtered out by the limit
  }
  const auto s_short = short_est.query(2);
  const auto s_all = all_est.query(2);
  EXPECT_GT(s_all.mtbf, 10.0 * s_short.mtbf);
  EXPECT_LT(s_all.mnof / s_short.mnof, 1.01);
}

}  // namespace
}  // namespace cloudcr::trace

