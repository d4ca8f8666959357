// Property: the streamed replay is bit-identical to the materialized one.
// ScenarioRunner::run_streamed over the spec's cursor (lazy admission,
// per-chunk post-processing, builder-observed estimation) must produce
// byte-identical artifacts to the same runner fed a caller-materialized
// replay trace (hooks.replay_trace) across every built-in source kind,
// seeds, policies, estimation modes, and — since the PredictorBuilder
// observation contract — custom registered predictors, serial and from
// four threads against a cached serial BatchRunner. This is what makes the
// memory-bounded month-scale path trustworthy: streaming can change the
// footprint, never the results. The suite also pins the SharedTraceCursor
// pass accounting (single-pass sources serve estimation and replay from
// one read) and the observation-order property (streamed observe_task
// order == the materialized trace's job/task order).

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "api/stream.hpp"
#include "core/estimator.hpp"
#include "ingest/google_source.hpp"
#include "metrics/export.hpp"
#include "sim/predictors.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

namespace cloudcr::api {
namespace {

/// Deterministic render of artifacts: every field the engine computes
/// except host wall time.
std::string render(const std::vector<RunArtifact>& artifacts) {
  std::ostringstream os;
  for (const auto& a : artifacts) {
    os << a.spec.name << " jobs=" << a.trace_jobs << " tasks=" << a.trace_tasks
       << " events=" << a.result.events_dispatched
       << " makespan=" << metrics::json_double(a.result.makespan_s)
       << " incomplete=" << a.result.incomplete_jobs
       << " checkpoints=" << a.result.total_checkpoints
       << " failures=" << a.result.total_failures
       << " unschedulable=" << a.result.total_unschedulable << "\n";
    for (const auto& outcome : a.result.outcomes) {
      metrics::write_outcome_json(os, outcome);
      os << "\n";
    }
  }
  return os.str();
}

std::string render_one(const RunArtifact& artifact) {
  return render({artifact});
}

/// A predictor registered through the public observation API only — the
/// "any predictor at any scale" acceptance case. Equivalent in spirit to
/// the builtin grouped predictor but built entirely out of user-facing
/// pieces, so the grid proves a custom registration streams bit-identically
/// with no access to registry internals.
void register_custom_grouped() {
  class CustomGroupedBuilder final : public PredictorBuilder {
   public:
    explicit CustomGroupedBuilder(double limit) : estimator_(limit) {}
    void observe_task(const trace::TaskRecord& task) override {
      sim::observe_task(estimator_, task);
    }
    [[nodiscard]] sim::StatsPredictor finalize() override {
      return sim::make_grouped_predictor(std::move(estimator_));
    }

   private:
    core::GroupedEstimator estimator_;
  };
  PredictorRegistry::instance().add(
      "custom_grouped",
      [](const std::string& arg) -> PredictorBuilderPtr {
        const double limit =
            arg.empty() ? trace::kNoLengthLimit : std::stod(arg);
        return std::make_unique<CustomGroupedBuilder>(limit);
      },
      "custom_grouped[:max_len_s]");
}

trace::Trace fixture_trace(std::uint64_t seed) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.horizon_s = 2.0 * 3600.0;
  cfg.arrival_rate = 0.05;
  cfg.sample_job_filter = false;
  cfg.workload.long_service_fraction = 0.0;
  return trace::TraceGenerator(cfg).generate();
}

/// One scenario per built-in source kind (fixtures written per seed), with
/// varied policies and estimation modes.
std::vector<ScenarioSpec> grid(std::uint64_t seed) {
  register_custom_grouped();
  const std::string tag = std::to_string(seed);
  const std::string google_path =
      "stream_det_google_" + tag + "_task_events.csv";
  {
    std::ofstream os(google_path);
    ingest::write_task_events(os, fixture_trace(seed));
  }
  const std::string csv_path = "stream_det_native_" + tag + ".csv";
  trace::write_csv_file(csv_path, fixture_trace(seed + 1000));

  std::vector<ScenarioSpec> specs;
  {
    ScenarioSpec spec;
    spec.name = "stream_det_synthetic_" + tag;
    spec.trace.seed = seed;
    spec.trace.horizon_s = 2.0 * 3600.0;
    spec.trace.arrival_rate = 0.08;
    spec.policy = "formula3";
    spec.estimation = EstimationSource::kFull;
    specs.push_back(spec);
  }
  {
    // Exercise the replay length restriction across chunk boundaries.
    ScenarioSpec spec;
    spec.name = "stream_det_synthetic_rl_" + tag;
    spec.trace.seed = seed;
    spec.trace.horizon_s = 2.0 * 3600.0;
    spec.trace.arrival_rate = 0.08;
    spec.trace.long_service_fraction = 0.08;
    spec.trace.replay_max_task_length_s = 6.0 * 3600.0;
    spec.policy = "young";
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "stream_det_google_" + tag;
    spec.trace.source = "google:" + google_path;
    spec.trace.sample_job_filter = true;
    spec.policy = "daly";
    spec.predictor = "submission";
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "stream_det_csv_" + tag;
    spec.trace.source = "csv:" + csv_path;
    spec.trace.sample_job_filter = true;
    spec.trace.max_jobs = 40;  // the cap crosses chunk boundaries too
    spec.policy = "none";
    spec.predictor = "oracle";
    specs.push_back(spec);
  }
  // A custom registered predictor on every source kind: the observation
  // contract must stream bit-identically wherever the built-ins do.
  {
    ScenarioSpec spec;
    spec.name = "stream_det_custom_syn_" + tag;
    spec.trace.seed = seed;
    spec.trace.horizon_s = 2.0 * 3600.0;
    spec.trace.arrival_rate = 0.08;
    spec.policy = "formula3";
    spec.predictor = "custom_grouped";
    spec.estimation = EstimationSource::kFull;
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "stream_det_custom_google_" + tag;
    spec.trace.source = "google:" + google_path;
    spec.trace.sample_job_filter = true;
    spec.policy = "daly";
    spec.predictor = "custom_grouped";
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "stream_det_custom_csv_" + tag;
    spec.trace.source = "csv:" + csv_path;
    spec.trace.sample_job_filter = true;
    spec.trace.max_jobs = 40;
    spec.policy = "young";
    spec.predictor = "custom_grouped:7200";
    specs.push_back(spec);
  }
  // Scheduling-stage points: each scheduler on both a generated and an
  // ingested source, under a small cluster so jobs really queue. Streaming
  // admits jobs lazily — the held-job queue and reservation wakeups must
  // not care when the arrival events were materialized.
  for (const char* sched :
       {"backfill:easy", "backfill:conservative", "preempt:requeue"}) {
    {
      ScenarioSpec spec;
      spec.name = std::string("stream_det_sched_syn_") + sched + "_" + tag;
      spec.trace.seed = seed;
      spec.trace.horizon_s = 2.0 * 3600.0;
      spec.trace.arrival_rate = 0.08;
      spec.policy = "formula3";
      spec.sched = sched;
      spec.cluster.hosts = 4;
      spec.cluster.vms_per_host = 2;
      specs.push_back(spec);
    }
    {
      ScenarioSpec spec;
      spec.name = std::string("stream_det_sched_csv_") + sched + "_" + tag;
      spec.trace.source = "csv:" + csv_path;
      spec.trace.sample_job_filter = true;
      spec.policy = "young";
      spec.sched = sched;
      spec.cluster.hosts = 4;
      spec.cluster.vms_per_host = 2;
      specs.push_back(spec);
    }
  }
  return specs;
}

class StreamedEqualsMaterialized
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamedEqualsMaterialized, AcrossSourcesPoliciesAndBatchSizes) {
  const auto specs = grid(GetParam());
  for (const auto& spec : specs) {
    const ScenarioRunner runner(spec);
    const trace::Trace replay = make_replay_trace(spec.trace);
    RunHooks hooks;
    hooks.replay_trace = &replay;
    const std::string materialized = render_one(runner.run(hooks));
    // Chunk size must be invisible: per-job pulls, a mid-size batch, and
    // one chunk far larger than the trace.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1} << 20}) {
      const std::string streamed =
          render_one(runner.run_streamed({}, batch));
      EXPECT_EQ(materialized, streamed)
          << spec.name << " diverged at batch_jobs=" << batch;
    }
    // run() is the same streamed path at the default chunk size.
    EXPECT_EQ(materialized, render_one(runner.run())) << spec.name;
  }
}

TEST_P(StreamedEqualsMaterialized, ThreadedBatchWithStreamCursors) {
  const auto specs = grid(GetParam());

  BatchOptions cached;
  cached.threads = 1;
  const std::string materialized = render(BatchRunner(cached).run(specs));

  // Four threads, each run with its own stream cursors, in small chunks.
  std::vector<RunArtifact> artifacts(specs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        artifacts[i] = ScenarioRunner(specs[i]).run_streamed({}, 16);
      }
    });
  }
  for (auto& thread : pool) thread.join();

  EXPECT_EQ(materialized, render(artifacts))
      << "threaded stream-cursor runs diverged from the cached serial batch";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamedEqualsMaterialized,
                         ::testing::Values(11u, 12u, 13u));

// The observation-order property: a builder fed by the streaming runner
// sees exactly the job/task sequence of the materialized estimation view,
// in its order — the invariant that lets any order-sensitive custom
// estimator stream safely.
TEST(PredictorObservationOrder, StreamedFeedMatchesMaterializedTraceOrder) {
  using Seen = std::vector<std::pair<std::uint64_t, double>>;
  const auto recorded = std::make_shared<Seen>();

  class OrderProbeBuilder final : public PredictorBuilder {
   public:
    explicit OrderProbeBuilder(std::shared_ptr<Seen> out)
        : out_(std::move(out)) {}
    void observe_task(const trace::TaskRecord& task) override {
      out_->emplace_back(task.job_id, task.length_s);
    }
    [[nodiscard]] sim::StatsPredictor finalize() override {
      return [](const trace::TaskRecord&, int) {
        return core::FailureStats{1.0, 100.0};
      };
    }

   private:
    std::shared_ptr<Seen> out_;
  };
  PredictorRegistry::instance().add(
      "order_probe", [recorded](const std::string&) -> PredictorBuilderPtr {
        return std::make_unique<OrderProbeBuilder>(recorded);
      });

  const std::string google_path = "stream_order_google_task_events.csv";
  {
    std::ofstream os(google_path);
    ingest::write_task_events(os, fixture_trace(21));
  }
  const std::string csv_path = "stream_order_native.csv";
  trace::write_csv_file(csv_path, fixture_trace(22));

  std::vector<ScenarioSpec> specs;
  {
    ScenarioSpec spec;
    spec.name = "order_syn";
    spec.trace.seed = 21;
    spec.trace.horizon_s = 2.0 * 3600.0;
    spec.trace.arrival_rate = 0.05;
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "order_google";
    spec.trace.source = "google:" + google_path;
    spec.trace.sample_job_filter = true;
    specs.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "order_csv";
    spec.trace.source = "csv:" + csv_path;
    spec.trace.max_jobs = 30;
    specs.push_back(spec);
  }
  for (auto& spec : specs) {
    spec.predictor = "order_probe";  // estimation view: kReplay (default)
    Seen expected;
    for (const auto& job : make_replay_trace(spec.trace).jobs) {
      for (const auto& task : job.tasks) {
        expected.emplace_back(task.job_id, task.length_s);
      }
    }
    ASSERT_FALSE(expected.empty()) << spec.name;

    recorded->clear();
    (void)ScenarioRunner(spec).run_streamed();
    EXPECT_EQ(*recorded, expected) << spec.name << " (streamed feed)";

    recorded->clear();
    const trace::Trace replay = make_replay_trace(spec.trace);
    RunHooks hooks;
    hooks.replay_trace = &replay;
    (void)ScenarioRunner(spec).run(hooks);
    EXPECT_EQ(*recorded, expected) << spec.name << " (materialized feed)";
  }
}

// SharedTraceCursor pass accounting: a lazy source pays one pass per phase
// that touches it; a single-pass source serves estimation AND replay from
// one parse; a no-observation predictor never triggers the estimation pass.
TEST(SingleCursor, ReadAccountingPerSourceKind) {
  register_custom_grouped();
  const std::string csv_path = "stream_reads_native.csv";
  trace::write_csv_file(csv_path, fixture_trace(23));

  ScenarioSpec synthetic;
  synthetic.name = "reads_syn";
  synthetic.trace.seed = 23;
  synthetic.trace.horizon_s = 2.0 * 3600.0;
  synthetic.trace.arrival_rate = 0.05;
  synthetic.predictor = "custom_grouped";

  ScenarioSpec csv = synthetic;
  csv.name = "reads_csv";
  csv.trace.source = "csv:" + csv_path;

  // Lazy source, estimating predictor: one generation pass per phase.
  const RunArtifact syn_streamed = ScenarioRunner(synthetic).run_streamed();
  EXPECT_EQ(syn_streamed.trace_reads, 2u);
  EXPECT_EQ(syn_streamed.rows_read, 2 * syn_streamed.trace_tasks);

  // Lazy source, oracle: the estimation pass disappears entirely.
  ScenarioSpec oracle = synthetic;
  oracle.predictor = "oracle";
  const RunArtifact oracle_streamed = ScenarioRunner(oracle).run_streamed();
  EXPECT_EQ(oracle_streamed.trace_reads, 1u);
  EXPECT_EQ(oracle_streamed.rows_read, oracle_streamed.trace_tasks);

  // Single-pass source (csv parses whole-input): estimation + replay share
  // ONE read even for a custom registered predictor — the tee.
  const RunArtifact csv_streamed = ScenarioRunner(csv).run_streamed();
  EXPECT_EQ(csv_streamed.trace_reads, 1u);
  EXPECT_GE(csv_streamed.rows_read, csv_streamed.trace_tasks);

  // run() is the same cursor path: one read.
  const RunArtifact csv_unified = ScenarioRunner(csv).run();
  EXPECT_EQ(csv_unified.trace_reads, 1u);

  // A caller's trace costs no read: the replay and (estimation=replay) the
  // estimation pass both observe it in place.
  const trace::Trace syn_trace = make_replay_trace(synthetic.trace);
  RunHooks hooks;
  hooks.replay_trace = &syn_trace;
  const RunArtifact syn_materialized = ScenarioRunner(synthetic).run(hooks);
  EXPECT_EQ(syn_materialized.trace_reads, 0u);

  // With a predictor override as well, no phase reads the spec's source,
  // so it is never resolved: an unregistered scheme does not throw.
  ScenarioSpec unresolved = synthetic;
  unresolved.trace.source = "no_such_scheme:x";
  hooks.predictor_override = sim::make_oracle_predictor();
  EXPECT_EQ(ScenarioRunner(unresolved).run(hooks).trace_reads, 0u);
}

TEST(StreamChunkBoundaries, TiedArrivalsAcrossChunkBoundaries) {
  // Jobs with *identical* arrival timestamps straddling every chunk
  // boundary (batch_jobs = 1 splits each tie): arrivals must keep beating
  // same-time dynamic events and admit in job order, exactly as when every
  // arrival event was scheduled up front.
  trace::Trace trace;
  trace.horizon_s = 4000.0;
  auto add_job = [&trace](std::uint64_t id, double arrival, double length,
                          std::vector<double> failures) {
    trace::JobRecord job;
    job.id = id;
    job.arrival_s = arrival;
    trace::TaskRecord task;
    task.job_id = id;
    task.length_s = length;
    task.memory_mb = 100.0;
    task.priority = 5;
    task.failure_dates = std::move(failures);
    job.tasks.push_back(task);
    trace.jobs.push_back(job);
    return trace.jobs.size() - 1;
  };
  add_job(1, 10.0, 100.0, {40.0});
  // Three jobs tied at t=110 — and job 1's task completes at exactly
  // t=110 + restart effects aside, its clean path would finish at 110+40
  // rollback... regardless, the tie among arrivals themselves is the edge.
  add_job(2, 110.0, 50.0, {});
  add_job(3, 110.0, 50.0, {});
  add_job(4, 110.0, 200.0, {25.0, 90.0});
  add_job(5, 500.0, 300.0, {});

  const core::PolicyPtr policy = PolicyRegistry::instance().make("formula3");
  sim::SimConfig config;
  auto fresh_sim = [&] {
    return sim::Simulation(config, *policy, sim::make_oracle_predictor());
  };

  const sim::SimResult materialized = fresh_sim().run(trace);
  ASSERT_EQ(materialized.outcomes.size(), trace.jobs.size());

  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{2}, std::size_t{100}}) {
    sim::TraceJobSource source(trace);
    const sim::SimResult streamed = fresh_sim().run_stream(source, batch);
    std::vector<RunArtifact> a(2);
    a[0].result = materialized;
    a[1].result = streamed;
    EXPECT_EQ(render({a[0]}), render({a[1]}))
        << "tied arrivals diverged at batch_jobs=" << batch;
  }

  // The same jobs listed out of arrival order (job 1 last) replay
  // identically: TraceJobSource admits them stably sorted by arrival, so
  // the tie at t=110 keeps its trace order.
  trace::Trace unsorted = trace;
  std::rotate(unsorted.jobs.begin(), unsorted.jobs.begin() + 1,
              unsorted.jobs.end());
  std::vector<RunArtifact> a(2);
  a[0].result = materialized;
  a[1].result = fresh_sim().run(unsorted);
  EXPECT_EQ(render({a[0]}), render({a[1]})) << "unsorted trace diverged";
}

}  // namespace
}  // namespace cloudcr::api
