#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include "sim/predictors.hpp"
#include "trace/generator.hpp"

namespace cloudcr::sim {
namespace {

using trace::JobRecord;
using trace::JobStructure;
using trace::TaskRecord;
using trace::Trace;

TaskRecord make_task(double length, double mem, int priority,
                     std::vector<double> failures = {}) {
  TaskRecord t;
  t.length_s = length;
  t.memory_mb = mem;
  t.priority = priority;
  t.failure_dates = std::move(failures);
  return t;
}

Trace one_job(JobStructure structure, std::vector<TaskRecord> tasks,
              double arrival = 0.0) {
  Trace trace;
  JobRecord job;
  job.id = 1;
  job.structure = structure;
  job.arrival_s = arrival;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].job_id = 1;
    tasks[i].index_in_job = static_cast<std::uint32_t>(i);
  }
  job.tasks = std::move(tasks);
  trace.jobs.push_back(std::move(job));
  trace.horizon_s = 10000.0;
  return trace;
}

StatsPredictor fixed_stats(double mnof, double mtbf) {
  return [mnof, mtbf](const TaskRecord&, int) {
    return core::FailureStats{mnof, mtbf};
  };
}

SimConfig default_config() {
  SimConfig cfg;
  cfg.seed = 1;
  return cfg;
}

TEST(Simulation, FailureFreeTaskHasOnlyCheckpointOverhead) {
  const auto trace =
      one_job(JobStructure::kSequentialTasks, {make_task(400.0, 160.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(2.0, 200.0));
  const auto res = sim.run(trace);

  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(res.incomplete_jobs, 0u);
  EXPECT_EQ(out.failures, 0u);
  EXPECT_GT(out.checkpoints, 0u);
  EXPECT_DOUBLE_EQ(out.workload_s, 400.0);
  EXPECT_DOUBLE_EQ(out.rollback_s, 0.0);
  EXPECT_DOUBLE_EQ(out.restart_s, 0.0);
  // Wall-clock = work + checkpoint costs exactly (no queueing at arrival).
  EXPECT_NEAR(out.wallclock_s, 400.0 + out.checkpoint_s, 1e-6);
  EXPECT_LT(out.wpr(), 1.0);
  EXPECT_GT(out.wpr(), 0.9);
}

TEST(Simulation, NoFailuresZeroMnofMeansNoCheckpoints) {
  const auto trace =
      one_job(JobStructure::kSequentialTasks, {make_task(400.0, 160.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_EQ(res.outcomes.front().checkpoints, 0u);
  EXPECT_DOUBLE_EQ(res.outcomes.front().wallclock_s, 400.0);
  EXPECT_DOUBLE_EQ(res.outcomes.front().wpr(), 1.0);
}

TEST(Simulation, ConservationOfWallclock) {
  // Wall-clock = work + checkpoints + rollbacks + restarts + queueing for a
  // single ST job (no inter-task overlap).
  const auto trace = one_job(
      JobStructure::kSequentialTasks,
      {make_task(400.0, 160.0, 2, {100.0, 250.0})});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(2.0, 150.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(out.failures, 2u);
  EXPECT_NEAR(out.wallclock_s,
              out.workload_s + out.checkpoint_s + out.rollback_s +
                  out.restart_s + out.queue_s,
              1e-6);
}

TEST(Simulation, FailureCausesRollbackAndRestartCost) {
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(400.0, 160.0, 2, {200.0})});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(1.0, 200.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(out.failures, 1u);
  EXPECT_GT(out.rollback_s, 0.0);
  EXPECT_GT(out.restart_s, 0.0);
  EXPECT_EQ(res.total_failures, 1u);
}

TEST(Simulation, NoCheckpointPolicyLosesAllProgressOnFailure) {
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(400.0, 160.0, 2, {300.0})});
  const core::NoCheckpointPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(1.0, 200.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(out.checkpoints, 0u);
  // The kill at active time 300 destroys all 300 s of progress.
  EXPECT_NEAR(out.rollback_s, 300.0, 1.0);
}

TEST(Simulation, CheckpointBoundsRollbackLoss) {
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(400.0, 160.0, 2, {300.0})});
  const core::FixedIntervalPolicy policy(50.0);
  Simulation sim(default_config(), policy, fixed_stats(1.0, 200.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  // With checkpoints every 50 s of work, at most ~50 s + one checkpoint
  // period can be lost.
  EXPECT_LT(res.outcomes.front().rollback_s, 55.0);
}

TEST(Simulation, SequentialTasksRunInOrder) {
  const auto trace = one_job(
      JobStructure::kSequentialTasks,
      {make_task(100.0, 160.0, 2), make_task(100.0, 160.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  // Two sequential 100 s tasks -> 200 s wall-clock.
  EXPECT_NEAR(res.outcomes.front().wallclock_s, 200.0, 1e-6);
}

TEST(Simulation, BagOfTasksRunsInParallel) {
  const auto trace = one_job(
      JobStructure::kBagOfTasks,
      {make_task(100.0, 160.0, 2), make_task(100.0, 160.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  // Parallel tasks complete together.
  EXPECT_NEAR(res.outcomes.front().wallclock_s, 100.0, 1e-6);
}

TEST(Simulation, MemoryPressureQueuesTasks) {
  // Cluster with one 1 GB VM; two 600 MB tasks must serialize.
  SimConfig cfg = default_config();
  cfg.cluster.hosts = 1;
  cfg.cluster.vms_per_host = 1;
  const auto trace = one_job(
      JobStructure::kBagOfTasks,
      {make_task(100.0, 600.0, 2), make_task(100.0, 600.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(cfg, policy, fixed_stats(0.0, 0.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_NEAR(res.outcomes.front().wallclock_s, 200.0, 1e-6);
  EXPECT_NEAR(res.outcomes.front().queue_s, 100.0, 1e-6);
}

TEST(Simulation, OversizedTaskIsRecordedAsUnschedulable) {
  // A 2 GB demand can never fit a 1 GB VM: the task is rejected once at
  // admission (the old engine re-scanned it on every event, forever) and the
  // job completes with the rejection on record.
  SimConfig cfg = default_config();
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(100.0, 2048.0, 2)});
  const core::MnofPolicy policy;
  Simulation sim(cfg, policy, fixed_stats(0.0, 0.0));
  const auto res = sim.run(trace);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_EQ(res.incomplete_jobs, 0u);
  EXPECT_EQ(res.total_unschedulable, 1u);
  const auto& out = res.outcomes.front();
  EXPECT_EQ(out.unschedulable_tasks, 1u);
  EXPECT_DOUBLE_EQ(out.workload_s, 0.0);
  EXPECT_DOUBLE_EQ(out.wpr(), 0.0);
}

TEST(Simulation, UnschedulableTaskDoesNotBlockSiblingsOrSuccessors) {
  // BoT: the oversized member is dropped, the others run normally.
  {
    const auto trace = one_job(
        JobStructure::kBagOfTasks,
        {make_task(100.0, 160.0, 2), make_task(100.0, 4096.0, 2),
         make_task(100.0, 160.0, 2)});
    const core::MnofPolicy policy;
    Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
    const auto res = sim.run(trace);
    ASSERT_EQ(res.outcomes.size(), 1u);
    const auto& out = res.outcomes.front();
    EXPECT_EQ(out.unschedulable_tasks, 1u);
    EXPECT_DOUBLE_EQ(out.workload_s, 200.0);
    EXPECT_NEAR(out.wallclock_s, 100.0, 1e-6);
  }
  // ST: an oversized head must not starve its successors.
  {
    const auto trace = one_job(
        JobStructure::kSequentialTasks,
        {make_task(100.0, 4096.0, 2), make_task(100.0, 160.0, 2)});
    const core::MnofPolicy policy;
    Simulation sim(default_config(), policy, fixed_stats(0.0, 0.0));
    const auto res = sim.run(trace);
    ASSERT_EQ(res.outcomes.size(), 1u);
    const auto& out = res.outcomes.front();
    EXPECT_EQ(out.unschedulable_tasks, 1u);
    EXPECT_DOUBLE_EQ(out.workload_s, 100.0);
    EXPECT_NEAR(out.wallclock_s, 100.0, 1e-6);
  }
}

TEST(Simulation, RunIsReusableAndWorkspacePoolingIsBitIdentical) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 31;
  gcfg.horizon_s = 3600.0;
  gcfg.arrival_rate = 0.08;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  const core::MnofPolicy policy;

  const auto fresh = Simulation(default_config(), policy,
                                make_grouped_predictor(trace))
                         .run(trace);

  // Same Simulation object, run twice: the second replay must match the
  // first bit-for-bit (engine, RNG, cluster, and backends all reset).
  Simulation reused(default_config(), policy, make_grouped_predictor(trace));
  (void)reused.run(trace);
  const auto second = reused.run(trace);

  // Shared workspace, previously used by a different scenario.
  ReplayWorkspace ws;
  SimConfig other = default_config();
  other.placement = PlacementMode::kForceShared;
  (void)Simulation(other, policy, make_grouped_predictor(trace), &ws)
      .run(trace);
  const auto pooled = Simulation(default_config(), policy,
                                 make_grouped_predictor(trace), &ws)
                          .run(trace);

  ASSERT_EQ(fresh.outcomes.size(), second.outcomes.size());
  ASSERT_EQ(fresh.outcomes.size(), pooled.outcomes.size());
  EXPECT_EQ(fresh.events_dispatched, second.events_dispatched);
  EXPECT_EQ(fresh.events_dispatched, pooled.events_dispatched);
  for (std::size_t i = 0; i < fresh.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(fresh.outcomes[i].wallclock_s,
                     second.outcomes[i].wallclock_s);
    EXPECT_DOUBLE_EQ(fresh.outcomes[i].wallclock_s,
                     pooled.outcomes[i].wallclock_s);
    EXPECT_EQ(fresh.outcomes[i].checkpoints, pooled.outcomes[i].checkpoints);
    EXPECT_EQ(fresh.outcomes[i].failures, pooled.outcomes[i].failures);
  }
}

TEST(Simulation, DetectionDelayExtendsWallclock) {
  const auto mk_trace = [] {
    return one_job(JobStructure::kSequentialTasks,
                   {make_task(200.0, 160.0, 2, {100.0})});
  };
  const core::MnofPolicy policy;
  SimConfig instant = default_config();
  SimConfig delayed = default_config();
  delayed.detection_delay_s = 30.0;
  const auto r0 =
      Simulation(instant, policy, fixed_stats(1.0, 100.0)).run(mk_trace());
  const auto r1 =
      Simulation(delayed, policy, fixed_stats(1.0, 100.0)).run(mk_trace());
  ASSERT_EQ(r0.outcomes.size(), 1u);
  ASSERT_EQ(r1.outcomes.size(), 1u);
  EXPECT_NEAR(r1.outcomes.front().wallclock_s,
              r0.outcomes.front().wallclock_s + 30.0, 1.0);
}

TEST(Simulation, PriorityChangeTriggersAdaptiveReplanning) {
  // Priority flips mid-task; adaptive and static controllers must diverge in
  // checkpoint counts when the new stats differ wildly.
  auto mk_trace = [] {
    auto task = make_task(1000.0, 160.0, 2);
    task.priority_change_time = 500.0;
    task.new_priority = 10;
    return one_job(JobStructure::kSequentialTasks, {task});
  };
  // Predictor keyed on current priority: calm for p2, stormy for p10.
  auto predictor = [](const TaskRecord&, int current_priority) {
    return current_priority == 10 ? core::FailureStats{20.0, 40.0}
                                  : core::FailureStats{1.0, 800.0};
  };
  const core::MnofPolicy policy;
  SimConfig adaptive = default_config();
  adaptive.adaptation = core::AdaptationMode::kAdaptive;
  SimConfig static_cfg = default_config();
  static_cfg.adaptation = core::AdaptationMode::kStatic;

  const auto ra = Simulation(adaptive, policy, predictor).run(mk_trace());
  const auto rs = Simulation(static_cfg, policy, predictor).run(mk_trace());
  ASSERT_EQ(ra.outcomes.size(), 1u);
  ASSERT_EQ(rs.outcomes.size(), 1u);
  // Adaptive reacts to the 20x MNOF by checkpointing far more often.
  EXPECT_GT(ra.outcomes.front().checkpoints,
            rs.outcomes.front().checkpoints + 5);
}

TEST(Simulation, PlacementModesChangeDeviceCosts) {
  const auto mk_trace = [] {
    return one_job(JobStructure::kSequentialTasks,
                   {make_task(400.0, 160.0, 2, {200.0})});
  };
  const core::MnofPolicy policy;
  SimConfig local = default_config();
  local.placement = PlacementMode::kForceLocal;
  SimConfig shared = default_config();
  shared.placement = PlacementMode::kForceShared;
  const auto rl =
      Simulation(local, policy, fixed_stats(1.0, 200.0)).run(mk_trace());
  const auto rs =
      Simulation(shared, policy, fixed_stats(1.0, 200.0)).run(mk_trace());
  ASSERT_EQ(rl.outcomes.size(), 1u);
  ASSERT_EQ(rs.outcomes.size(), 1u);
  // Restart from local ramdisk pays migration type A (3.22 s at 160 MB) vs
  // type B (1.45 s).
  EXPECT_NEAR(rl.outcomes.front().restart_s, 3.22, 1e-6);
  EXPECT_NEAR(rs.outcomes.front().restart_s, 1.45, 1e-6);
}

// One 10 MB task of 100.05 s checkpointed at 100 s on the shared NFS server:
// the write costs the task 0.25 s but holds the server for 0.32775 s, so the
// job ends at 100.3 s while the write still runs. The run ends, and the
// final probe drain keeps sampling, until the write has left its server.
SimResult run_write_outlasting_task(double probe_interval_s) {
  const auto trace =
      one_job(JobStructure::kSequentialTasks, {make_task(100.05, 10.0, 2)});
  const core::FixedIntervalPolicy policy(100.0);
  SimConfig cfg = default_config();
  cfg.placement = PlacementMode::kForceShared;
  cfg.shared_kind = storage::DeviceKind::kSharedNfs;
  cfg.probe_interval_s = probe_interval_s;
  return Simulation(cfg, policy, make_oracle_predictor()).run(trace);
}

TEST(Simulation, MakespanWaitsForAWriteThatOutlastsTheLastTask) {
  const auto res = run_write_outlasting_task(0.0);
  ASSERT_EQ(res.outcomes.size(), 1u);
  EXPECT_EQ(res.total_checkpoints, 1u);
  EXPECT_DOUBLE_EQ(res.outcomes.front().checkpoint_s, 0.25);
  EXPECT_DOUBLE_EQ(res.outcomes.front().wallclock_s, 100.3);
  EXPECT_EQ(res.makespan_s, 100.32774999999999);
}

TEST(Simulation, FinalProbeDrainSamplesWhileAWriteIsInFlight) {
  // A tick before the write ends, or exactly at its end, is sampled; a
  // tick after it is not. The write begins during the final drain.
  for (const double interval : {100.31, 100.32774999999999}) {
    SCOPED_TRACE(interval);
    const auto res = run_write_outlasting_task(interval);
    ASSERT_EQ(res.probes.size(), 1u);
    EXPECT_EQ(res.probes.front().t_s, interval);
    EXPECT_EQ(res.probes.front().completed_jobs, 1u);
    EXPECT_EQ(res.makespan_s, 100.32774999999999);
  }
  EXPECT_TRUE(run_write_outlasting_task(100.33).probes.empty());
}

// A fixed interval too small to move the clock (t + interval == t) would
// checkpoint forever at zero progress inside one event. The run throws
// instead, naming the interval, both in the ramdisk's inline checkpoint run
// and on a contended shared device.
TEST(Simulation, CheckpointPlanThatCannotAdvanceTheClockThrows) {
  const auto trace = one_job(JobStructure::kSequentialTasks,
                             {make_task(400.0, 160.0, 2)}, 100.0);
  const core::FixedIntervalPolicy policy(1e-300);
  for (const PlacementMode placement :
       {PlacementMode::kForceLocal, PlacementMode::kForceShared}) {
    SimConfig cfg = default_config();
    cfg.placement = placement;
    Simulation sim(cfg, policy, fixed_stats(1.0, 200.0));
    try {
      (void)sim.run(trace);
      ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint interval 1e-300 s"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Simulation, DeterministicAcrossRuns) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 21;
  gcfg.horizon_s = 3600.0;
  gcfg.arrival_rate = 0.05;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  const core::MnofPolicy policy;
  const auto r1 = Simulation(default_config(), policy,
                             make_grouped_predictor(trace))
                      .run(trace);
  const auto r2 = Simulation(default_config(), policy,
                             make_grouped_predictor(trace))
                      .run(trace);
  ASSERT_EQ(r1.outcomes.size(), r2.outcomes.size());
  for (std::size_t i = 0; i < r1.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.outcomes[i].wallclock_s, r2.outcomes[i].wallclock_s);
    EXPECT_EQ(r1.outcomes[i].checkpoints, r2.outcomes[i].checkpoints);
  }
}

TEST(Simulation, WprIsAlwaysInUnitInterval) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 23;
  gcfg.horizon_s = 7200.0;
  gcfg.arrival_rate = 0.05;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  const core::MnofPolicy policy;
  Simulation sim(default_config(), policy, make_grouped_predictor(trace));
  const auto res = sim.run(trace);
  ASSERT_GT(res.outcomes.size(), 0u);
  for (const auto& out : res.outcomes) {
    EXPECT_GT(out.wpr(), 0.0);
    EXPECT_LE(out.wpr(), 1.0 + 1e-9);
  }
}

TEST(Simulation, RequiresPredictor) {
  const core::MnofPolicy policy;
  EXPECT_THROW(Simulation(default_config(), policy, nullptr),
               std::invalid_argument);
}

TEST(Simulation, OracleBeatsWrongStatsOnAverage) {
  trace::GeneratorConfig gcfg;
  gcfg.seed = 29;
  gcfg.horizon_s = 14400.0;
  gcfg.arrival_rate = 0.05;
  const auto trace = trace::TraceGenerator(gcfg).generate();
  const core::MnofPolicy policy;
  const auto oracle =
      Simulation(default_config(), policy, make_oracle_predictor()).run(trace);
  // Deliberately terrible stats: hugely overestimated MNOF wastes time on
  // excess checkpoints.
  const auto wrong =
      Simulation(default_config(), policy, fixed_stats(500.0, 1.0)).run(trace);
  ASSERT_GT(oracle.outcomes.size(), 0u);
  EXPECT_GT(oracle.average_wpr(), wrong.average_wpr());
}

}  // namespace
}  // namespace cloudcr::sim
