// BatchRunner: the determinism property (parallel == serial, bit-identical),
// artifact ordering, trace sharing (also through a caller-owned TraceCache),
// error propagation, one run per distinct scenario — and ScenarioRunner
// equivalence with a hand-wired Simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/artifact_io.hpp"
#include "api/batch.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "obs/stats.hpp"
#include "sim/predictors.hpp"
#include "sim/simulation.hpp"

namespace cloudcr::api {
namespace {

TraceSpec small_trace(std::uint64_t seed) {
  TraceSpec t;
  t.seed = seed;
  t.horizon_s = 2.0 * 3600.0;
  t.arrival_rate = 0.08;
  t.long_service_fraction = 0.0;
  return t;
}

/// A grid diverse enough to exercise every policy family, both placements,
/// the adaptation modes, all estimation sources, and distinct seeds.
std::vector<ScenarioSpec> property_grid() {
  std::vector<ScenarioSpec> specs;

  ScenarioSpec a;
  a.name = "f3_auto";
  a.trace = small_trace(4242);
  a.policy = "formula3";
  specs.push_back(a);

  ScenarioSpec b = a;
  b.name = "young_shared";
  b.policy = "young";
  b.placement = sim::PlacementMode::kForceShared;
  specs.push_back(b);

  ScenarioSpec c = a;
  c.name = "daly_nfs_noise";
  c.policy = "daly";
  c.placement = sim::PlacementMode::kForceShared;
  c.shared_device = storage::DeviceKind::kSharedNfs;
  c.storage_noise = 0.1;
  c.sim_seed = 777;
  specs.push_back(c);

  ScenarioSpec d = a;
  d.name = "fixed_oracle_other_seed";
  d.trace = small_trace(515151);
  d.policy = "fixed:90";
  d.predictor = "oracle";
  specs.push_back(d);

  ScenarioSpec e = a;
  e.name = "none_full_estimation";
  e.policy = "none";
  e.estimation = EstimationSource::kFull;
  specs.push_back(e);

  ScenarioSpec f = a;
  f.name = "static_history";
  f.predictor = "submission";
  f.adaptation = core::AdaptationMode::kStatic;
  f.estimation = EstimationSource::kHistory;
  f.history = small_trace(606060);
  specs.push_back(f);

  return specs;
}

void expect_identical(const RunArtifact& x, const RunArtifact& y) {
  SCOPED_TRACE(x.spec.name);
  EXPECT_EQ(x.spec, y.spec);
  EXPECT_EQ(x.trace_jobs, y.trace_jobs);
  EXPECT_EQ(x.trace_tasks, y.trace_tasks);
  const auto& rx = x.result;
  const auto& ry = y.result;
  EXPECT_EQ(rx.incomplete_jobs, ry.incomplete_jobs);
  EXPECT_EQ(rx.total_checkpoints, ry.total_checkpoints);
  EXPECT_EQ(rx.total_failures, ry.total_failures);
  EXPECT_EQ(rx.events_dispatched, ry.events_dispatched);
  EXPECT_EQ(rx.makespan_s, ry.makespan_s);  // bit-exact, not NEAR
  ASSERT_EQ(rx.outcomes.size(), ry.outcomes.size());
  for (std::size_t i = 0; i < rx.outcomes.size(); ++i) {
    const auto& ox = rx.outcomes[i];
    const auto& oy = ry.outcomes[i];
    EXPECT_EQ(ox.job_id, oy.job_id);
    EXPECT_EQ(ox.wallclock_s, oy.wallclock_s);
    EXPECT_EQ(ox.task_wallclock_s, oy.task_wallclock_s);
    EXPECT_EQ(ox.workload_s, oy.workload_s);
    EXPECT_EQ(ox.checkpoint_s, oy.checkpoint_s);
    EXPECT_EQ(ox.rollback_s, oy.rollback_s);
    EXPECT_EQ(ox.restart_s, oy.restart_s);
    EXPECT_EQ(ox.queue_s, oy.queue_s);
    EXPECT_EQ(ox.checkpoints, oy.checkpoints);
    EXPECT_EQ(ox.failures, oy.failures);
  }
}

TEST(BatchRunnerProperty, ParallelIsBitIdenticalToSerial) {
  const auto specs = property_grid();

  BatchOptions serial;
  serial.threads = 1;
  const auto serial_artifacts = BatchRunner(serial).run(specs);

  BatchOptions parallel;
  parallel.threads = 4;
  const auto parallel_artifacts = BatchRunner(parallel).run(specs);

  ASSERT_EQ(serial_artifacts.size(), specs.size());
  ASSERT_EQ(parallel_artifacts.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(serial_artifacts[i], parallel_artifacts[i]);
  }
}

TEST(BatchRunnerProperty, TraceSharingDoesNotChangeResults) {
  // Each standalone run reads its own trace cursor; the batch shares one
  // cached trace per workload.
  const auto specs = property_grid();
  BatchOptions shared;
  shared.threads = 3;
  const auto batch = BatchRunner(shared).run(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(batch[i], run_scenario(specs[i]));
  }
}

TEST(BatchRunnerProperty, CallerOwnedTraceCacheIsSharedAndUnchanged) {
  const auto specs = property_grid();
  TraceCache traces;
  const auto full_before = traces.get_full(specs[0].trace);
  const auto replay_before = traces.get_replay(specs[0].trace);

  BatchOptions options;
  options.threads = 3;
  const auto owned = BatchRunner(options).run(specs, {}, &traces);
  const auto local = BatchRunner(options).run(specs);
  ASSERT_EQ(owned.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(owned[i], local[i]);
  }
  // The batch read the caller's entries instead of building its own, and
  // left them in place for the caller.
  EXPECT_EQ(traces.get_full(specs[0].trace), full_before);
  EXPECT_EQ(traces.get_replay(specs[0].trace), replay_before);
}

TEST(BatchRunner, ArtifactsArriveInSpecOrder) {
  auto specs = property_grid();
  BatchOptions options;
  options.threads = 4;
  const auto artifacts = BatchRunner(options).run(specs);
  ASSERT_EQ(artifacts.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(artifacts[i].spec.name, specs[i].name);
  }
}

TEST(BatchRunner, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(BatchRunner().run({}).empty());
}

TEST(BatchRunner, WorkerErrorsPropagateToCaller) {
  auto specs = property_grid();
  specs[2].policy = "not_a_policy";
  BatchOptions options;
  options.threads = 4;
  EXPECT_THROW((void)BatchRunner(options).run(specs), std::invalid_argument);
}

// -- one run per distinct scenario -------------------------------------------

/// Three specs that differ only in their name, and one distinct spec.
std::vector<ScenarioSpec> name_only_twins() {
  ScenarioSpec twin;
  twin.name = "twin_a";
  twin.trace = small_trace(4242);
  ScenarioSpec other = twin;
  other.name = "other";
  other.policy = "young";
  std::vector<ScenarioSpec> specs = {twin, other, twin, twin};
  specs[2].name = "twin_b";
  specs[3].name = "twin_c";
  return specs;
}

/// The artifact as JSON (spec, summary, probes and outcomes) with the
/// host-side fields a copy does not share with a run zeroed.
std::string without_host_fields(RunArtifact artifact) {
  artifact.wall_time_s = 0.0;
  artifact.estimation_wall_s = 0.0;
  artifact.peak_rss_mb = 0.0;
  artifact.trace_reads = 0;
  artifact.rows_read = 0;
  std::ostringstream os;
  write_artifact_json(os, artifact);
  return os.str();
}

std::uint64_t events_popped() {
  for (const obs::StatValue& v : obs::stats_snapshot()) {
    if (v.name == "sim.events_popped") return v.value;
  }
  return 0;
}

TEST(BatchRunnerRunOnce, NameOnlyTwinsEqualStandaloneRuns) {
  const auto specs = name_only_twins();
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    BatchOptions options;
    options.threads = threads;
    const auto artifacts = BatchRunner(options).run(specs);
    ASSERT_EQ(artifacts.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const RunArtifact alone = ScenarioRunner(specs[i]).run();
      EXPECT_EQ(artifacts[i].spec, specs[i]);
      EXPECT_EQ(without_host_fields(artifacts[i]), without_host_fields(alone));
      const auto& r = artifacts[i].result;
      EXPECT_EQ(r.total_unschedulable, alone.result.total_unschedulable);
      EXPECT_EQ(r.total_sched_wait_s, alone.result.total_sched_wait_s);
      EXPECT_EQ(r.backfilled_jobs, alone.result.backfilled_jobs);
      EXPECT_EQ(r.preempted_tasks, alone.result.preempted_tasks);
    }
    // The twins after the first were copied, not run.
    EXPECT_GT(artifacts[0].wall_time_s, 0.0);
    EXPECT_EQ(artifacts[2].wall_time_s, 0.0);
    EXPECT_EQ(artifacts[3].wall_time_s, 0.0);
  }
}

TEST(BatchRunnerRunOnce, MergedRegistryCountsEachDistinctRunOnce) {
  auto specs = name_only_twins();
  for (auto& spec : specs) spec.obs.stats = true;
  obs::reset_stats();
  (void)ScenarioRunner(specs[0]).run();
  (void)ScenarioRunner(specs[1]).run();
  const std::uint64_t distinct = events_popped();
  ASSERT_GT(distinct, 0u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    obs::reset_stats();
    BatchOptions options;
    options.threads = threads;
    (void)BatchRunner(options).run(specs);
    EXPECT_EQ(events_popped(), distinct);
  }
  obs::reset_stats();
}

TEST(BatchRunnerRunOnce, ProgressFiresOncePerSpec) {
  const auto specs = name_only_twins();
  std::vector<std::string> expected;
  for (const auto& spec : specs) expected.push_back(spec.name);
  std::sort(expected.begin(), expected.end());
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::vector<std::string> names;
    std::vector<std::size_t> done_counts;
    BatchOptions options;
    options.threads = threads;
    options.progress = [&](const RunArtifact& artifact, std::size_t done,
                           std::size_t total) {
      names.push_back(artifact.spec.name);
      done_counts.push_back(done);
      EXPECT_EQ(total, specs.size());
    };
    (void)BatchRunner(options).run(specs);
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, expected);
    EXPECT_EQ(done_counts, (std::vector<std::size_t>{1, 2, 3, 4}));
  }
}

TEST(BatchRunnerRunOnce, TracedTwinsEachRunAndWriteTheirFile) {
  namespace fs = std::filesystem;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const fs::path dir = fs::path(testing::TempDir()) /
                         ("run_once_traced_" + std::to_string(threads));
    fs::remove_all(dir);
    fs::create_directories(dir);
    ScenarioSpec spec;
    spec.trace = small_trace(4242);
    spec.obs.trace_path = (dir / "{name}.json").string();
    std::vector<ScenarioSpec> specs = {spec, spec};
    specs[0].name = "traced_a";
    specs[1].name = "traced_b";
    BatchOptions options;
    options.threads = threads;
    const auto artifacts = BatchRunner(options).run(specs);
    ASSERT_EQ(artifacts.size(), 2u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_GT(artifacts[i].wall_time_s, 0.0) << specs[i].name;
      EXPECT_TRUE(fs::exists(dir / (specs[i].name + ".json")))
          << specs[i].name;
    }
    fs::remove_all(dir);
  }
}

TEST(ScenarioRunner, MatchesHandWiredSimulation) {
  ScenarioSpec spec;
  spec.name = "reference";
  spec.trace = small_trace(4242);
  spec.policy = "formula3";
  spec.predictor = "grouped";
  spec.placement = sim::PlacementMode::kForceShared;

  const auto artifact = run_scenario(spec);

  // The same run, wired by hand against the raw simulation layer.
  const auto trace = make_replay_trace(spec.trace);
  const core::MnofPolicy policy;
  sim::Simulation simulation(to_sim_config(spec), policy,
                             sim::make_grouped_predictor(trace));
  const auto reference = simulation.run(trace);

  ASSERT_EQ(artifact.result.outcomes.size(), reference.outcomes.size());
  EXPECT_EQ(artifact.result.events_dispatched, reference.events_dispatched);
  EXPECT_EQ(artifact.result.total_checkpoints, reference.total_checkpoints);
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    EXPECT_EQ(artifact.result.outcomes[i].wallclock_s,
              reference.outcomes[i].wallclock_s);
  }
  EXPECT_EQ(artifact.trace_jobs, trace.job_count());
  EXPECT_EQ(artifact.trace_tasks, trace.task_count());
  EXPECT_GE(artifact.wall_time_s, 0.0);
}

TEST(ScenarioRunner, HooksReplaceGeneratedTraceAndPredictor) {
  ScenarioSpec spec;
  spec.name = "hooked";
  spec.policy = "fixed:50";
  spec.placement = sim::PlacementMode::kForceShared;

  // Single 300 s task with one failure at 100 s of active time.
  trace::Trace story;
  trace::JobRecord job;
  job.id = 7;
  trace::TaskRecord task;
  task.job_id = 7;
  task.length_s = 300.0;
  task.memory_mb = 128.0;
  task.priority = 3;
  task.failure_dates = {100.0};
  job.tasks.push_back(task);
  story.jobs.push_back(job);
  story.horizon_s = 1e6;

  RunHooks hooks;
  hooks.replay_trace = &story;
  hooks.predictor_override = [](const trace::TaskRecord&, int) {
    return core::FailureStats{1.0, 150.0};
  };
  const auto artifact = ScenarioRunner(spec).run(hooks);
  ASSERT_EQ(artifact.result.outcomes.size(), 1u);
  EXPECT_EQ(artifact.result.outcomes[0].job_id, 7u);
  EXPECT_EQ(artifact.result.outcomes[0].failures, 1u);
  EXPECT_EQ(artifact.trace_jobs, 1u);
}

TEST(ScenarioRunner, LengthPredictorHookReachesThePlanner) {
  // With fixed 100 s intervals and a planner that believes the task is only
  // 50 s long, no checkpoint is ever scheduled.
  ScenarioSpec spec;
  spec.policy = "fixed:100";
  spec.placement = sim::PlacementMode::kForceShared;

  trace::Trace story;
  trace::JobRecord job;
  job.id = 1;
  trace::TaskRecord task;
  task.job_id = 1;
  task.length_s = 400.0;
  task.memory_mb = 64.0;
  task.priority = 2;
  job.tasks.push_back(task);
  story.jobs.push_back(job);
  story.horizon_s = 1e6;

  RunHooks hooks;
  hooks.replay_trace = &story;
  hooks.predictor_override = [](const trace::TaskRecord&, int) {
    return core::FailureStats{1.0, 100.0};
  };
  const auto baseline = ScenarioRunner(spec).run(hooks);
  ASSERT_EQ(baseline.result.outcomes.size(), 1u);
  EXPECT_GT(baseline.result.outcomes[0].checkpoints, 0u);

  hooks.length_predictor = [](const trace::TaskRecord&) { return 50.0; };
  const auto clipped = ScenarioRunner(spec).run(hooks);
  ASSERT_EQ(clipped.result.outcomes.size(), 1u);
  EXPECT_EQ(clipped.result.outcomes[0].checkpoints, 0u);
}

}  // namespace
}  // namespace cloudcr::api
