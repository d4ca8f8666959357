#include "api/runner.hpp"

#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <utility>

#include "api/registry.hpp"
#include "api/stream.hpp"
#include "ingest/registry.hpp"
#include "ingest/source.hpp"
#include "obs/hooks.hpp"
#include "obs/probe.hpp"
#include "obs/trace_writer.hpp"
#include "sched/registry.hpp"
#include "sim/simulation.hpp"
#include "trace/generator.hpp"

namespace cloudcr::api {

namespace {

#if CLOUDCR_OBS_ENABLED
/// Expands every "{name}" in an obs trace path to the scenario's name, so a
/// batch of scenarios can share one obs= value without colliding on output.
std::string expand_trace_path(std::string path, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = path.find("{name}", pos)) != std::string::npos) {
    path.replace(pos, 6, name);
    pos += name.size();
  }
  return path;
}
#endif

/// Per-run tracer: owns the TraceWriter when the spec requests tracing,
/// wires it into the SimConfig, and writes the JSON on finish(). In a build
/// without the instrumentation hooks a trace request degrades to a stderr
/// notice (results are unaffected either way).
struct RunTracer {
  explicit RunTracer(const ScenarioSpec& spec) {
#if CLOUDCR_OBS_ENABLED
    if (spec.obs.trace_path.empty()) return;
    obs::TraceWriterOptions opt;
    opt.ring_capacity = static_cast<std::size_t>(spec.obs.trace_ring);
    opt.window_begin_s = spec.obs.trace_window_begin_s;
    opt.window_end_s = spec.obs.trace_window_end_s;
    if (!spec.obs.trace_categories.empty()) {
      opt.categories = obs::parse_trace_categories(spec.obs.trace_categories);
    }
    writer_.emplace(opt);
    out_path_ = expand_trace_path(spec.obs.trace_path, spec.name);
#else
    if (!spec.obs.trace_path.empty()) {
      std::cerr << "obs: trace requested (" << spec.obs.trace_path
                << ") but the instrumentation hooks are compiled out; "
                   "rebuild with -DCLOUDCR_OBS=ON\n";
    }
#endif
  }

  [[nodiscard]] obs::TraceWriter* get() noexcept {
#if CLOUDCR_OBS_ENABLED
    return writer_ ? &*writer_ : nullptr;
#else
    return nullptr;
#endif
  }

  void host_span(const char* name,
                 std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) {
    if (obs::TraceWriter* w = get()) w->host_span(name, t0, t1);
  }

  void finish() {
#if CLOUDCR_OBS_ENABLED
    if (writer_) writer_->write_json_file(out_path_);
#endif
  }

#if CLOUDCR_OBS_ENABLED
 private:
  std::optional<obs::TraceWriter> writer_;
  std::string out_path_;
#endif
};

/// Flushes the api-layer phase timers into the counter registry (hooks
/// builds only; a no-op expression otherwise keeps the callsites branchless).
void flush_api_timers(const ScenarioSpec& spec, double estimation_s,
                      double replay_s) {
#if CLOUDCR_OBS_ENABLED
  if (!spec.obs.stats) return;
  obs::st::api_estimation_ns.add(
      static_cast<std::uint64_t>(estimation_s * 1e9));
  obs::st::api_replay_ns.add(static_cast<std::uint64_t>(replay_s * 1e9));
#else
  (void)spec;
  (void)estimation_s;
  (void)replay_s;
#endif
}

}  // namespace

trace::Trace make_trace(const TraceSpec& spec) {
  // The generator path stays direct (it applies the sample-job filter and
  // job cap during generation); external sources ingest the raw log first
  // and get the same post-processing applied on top, so a TraceSpec means
  // the same thing whatever its workload origin.
  if (spec.source == "synthetic") {
    return trace::TraceGenerator(to_generator_config(spec)).generate();
  }
  ingest::SourceEnv env;
  env.generator = to_generator_config(spec);
  auto source = with_key_context("trace.source", spec.source, [&] {
    return ingest::TraceSourceRegistry::instance().make(spec.source, env);
  });
  ingest::IngestResult result = source->load();
  // Recoverable row skips must stay visible on this path too — results
  // were computed on a partial workload. One stderr line keeps stdout
  // (bench tables, determinism diffs) untouched.
  if (result.report.rows_skipped > 0) {
    std::cerr << "warning: ingest skipped rows: " << result.report.summary()
              << "\n";
  }
  trace::Trace trace = std::move(result.trace);
  if (spec.sample_job_filter) ingest::apply_sample_job_filter(trace);
  ingest::cap_jobs(trace, spec.max_jobs);
  return trace;
}

trace::Trace make_replay_trace(const TraceSpec& spec) {
  auto full = make_trace(spec);
  if (std::isinf(spec.replay_max_task_length_s)) return full;
  return trace::restrict_length(full, spec.replay_max_task_length_s);
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}

RunArtifact ScenarioRunner::run(const RunHooks& hooks) const {
  // One entry point, two shapes: stream whenever the source yields jobs
  // without materializing the workload (and nothing was pre-materialized
  // by the caller), replay the whole trace otherwise. Bit-identical either
  // way (tests/api/stream_determinism_test.cpp), so this only picks the
  // memory/IO shape.
  if (hooks.replay_trace == nullptr && spec_streams_lazily(spec_.trace)) {
    return run_streamed(hooks);
  }
  return run_materialized(hooks);
}

RunArtifact ScenarioRunner::run_materialized(const RunHooks& hooks) const {
  // The unrestricted trace of spec_.trace, generated at most once per run:
  // both the replay set (restricted view) and kFull estimation derive from
  // it, and generation is the expensive step.
  std::size_t trace_reads = 0;
  std::size_t rows_read = 0;
  std::optional<trace::Trace> owned_full;
  auto full_trace = [this, &owned_full, &trace_reads,
                     &rows_read]() -> const trace::Trace& {
    if (!owned_full) {
      owned_full = make_trace(spec_.trace);
      ++trace_reads;
      rows_read += owned_full->task_count();
    }
    return *owned_full;
  };

  // Replay set: borrowed from the hooks or generated from the spec.
  std::optional<trace::Trace> owned_replay;
  const trace::Trace* replay = hooks.replay_trace;
  if (replay == nullptr) {
    if (std::isinf(spec_.trace.replay_max_task_length_s)) {
      replay = &full_trace();
    } else {
      owned_replay = trace::restrict_length(
          full_trace(), spec_.trace.replay_max_task_length_s);
      replay = &*owned_replay;
    }
  }

  // Predictor: override > hook trace > the spec's estimation source, fed
  // through the PredictorBuilder observation contract. The builder only
  // borrows each record during observe_job, so the estimation view needs
  // no lifetime past finalize(): a kHistory trace is released before the
  // replay starts, and a predictor that wants no observations (oracle)
  // skips its estimation read entirely.
  RunTracer tracer(spec_);
  sim::StatsPredictor predictor = hooks.predictor_override;
  double estimation_wall_s = 0.0;
  if (!predictor) {
    const auto est_start = std::chrono::steady_clock::now();
    PredictorBuilderPtr builder =
        with_key_context("predictor", spec_.predictor, [&] {
          return PredictorRegistry::instance().make_builder(spec_.predictor);
        });
    if (builder->wants_observations()) {
      if (hooks.estimation_trace != nullptr) {
        observe_trace(*builder, *hooks.estimation_trace);
      } else {
        switch (spec_.estimation) {
          case EstimationSource::kReplay:
            observe_trace(*builder, *replay);
            break;
          case EstimationSource::kFull:
            observe_trace(*builder, full_trace());
            break;
          case EstimationSource::kHistory: {
            const trace::Trace history = make_replay_trace(spec_.history);
            ++trace_reads;
            rows_read += history.task_count();
            observe_trace(*builder, history);
            break;
          }
        }
      }
    }
    predictor = with_key_context("predictor", spec_.predictor,
                                 [&] { return builder->finalize(); });
    const auto est_end = std::chrono::steady_clock::now();
    estimation_wall_s =
        std::chrono::duration<double>(est_end - est_start).count();
    tracer.host_span("estimation", est_start, est_end);
  }

  // The policy and scheduler must outlive the Simulation (held by
  // reference/pointer); they live on this frame for the whole replay.
  const core::PolicyPtr policy = with_key_context(
      "policy", spec_.policy,
      [&] { return PolicyRegistry::instance().make(spec_.policy); });
  const sched::SchedulerPtr scheduler = with_key_context(
      "sched", spec_.sched,
      [&] { return sched::SchedulerRegistry::instance().make(spec_.sched); });

  sim::SimConfig config = to_sim_config(spec_);
  config.length_predictor = hooks.length_predictor;
  config.scheduler = scheduler.get();
  config.tracer = tracer.get();

  RunArtifact artifact;
  artifact.spec = spec_;
  artifact.trace_jobs = replay->job_count();
  artifact.trace_tasks = replay->task_count();
  artifact.estimation_wall_s = estimation_wall_s;
  artifact.trace_reads = trace_reads;
  artifact.rows_read = rows_read;

  const auto start = std::chrono::steady_clock::now();
  sim::Simulation simulation(std::move(config), *policy, std::move(predictor),
                             hooks.workspace);
  artifact.result = simulation.run(*replay);
  artifact.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  artifact.peak_rss_mb = obs::peak_rss_mb();
  flush_api_timers(spec_, artifact.estimation_wall_s, artifact.wall_time_s);
  tracer.finish();
  return artifact;
}

RunArtifact ScenarioRunner::run_streamed(const RunHooks& hooks,
                                         std::size_t batch_jobs) const {
  // A caller-materialized replay trace leaves nothing to stream.
  if (hooks.replay_trace != nullptr) return run_materialized(hooks);

  // One cursor serves estimation and replay: a single-pass source is
  // parsed once and shared by both phases; a lazy source opens one
  // bounded-memory pass per phase that touches it. Every predictor —
  // builtin or registered — estimates through the PredictorBuilder
  // observation contract, so nothing on this path materializes O(trace)
  // memory for a lazy source.
  RunTracer tracer(spec_);
  SharedTraceCursor cursor(spec_.trace);
  std::size_t history_reads = 0;
  std::size_t history_rows = 0;
  sim::StatsPredictor predictor = hooks.predictor_override;
  double artifact_estimation_wall_s = 0.0;
  if (!predictor) {
    const auto est_start = std::chrono::steady_clock::now();
    PredictorBuilderPtr builder =
        with_key_context("predictor", spec_.predictor, [&] {
          return PredictorRegistry::instance().make_builder(spec_.predictor);
        });
    if (builder->wants_observations()) {
      const auto observe = [&builder](const trace::JobRecord& job) {
        builder->observe_job(job);
      };
      if (hooks.estimation_trace != nullptr) {
        observe_trace(*builder, *hooks.estimation_trace);
      } else if (spec_.estimation == EstimationSource::kHistory) {
        SharedTraceCursor history(spec_.history);
        history.feed_estimation(/*replay_view=*/true, observe);
        history_reads = history.reads();
        history_rows = history.rows_read();
      } else {
        cursor.feed_estimation(
            spec_.estimation == EstimationSource::kReplay, observe);
      }
    }
    predictor = with_key_context("predictor", spec_.predictor,
                                 [&] { return builder->finalize(); });
    const auto est_end = std::chrono::steady_clock::now();
    artifact_estimation_wall_s =
        std::chrono::duration<double>(est_end - est_start).count();
    tracer.host_span("estimation", est_start, est_end);
  }

  const core::PolicyPtr policy = with_key_context(
      "policy", spec_.policy,
      [&] { return PolicyRegistry::instance().make(spec_.policy); });
  const sched::SchedulerPtr scheduler = with_key_context(
      "sched", spec_.sched,
      [&] { return sched::SchedulerRegistry::instance().make(spec_.sched); });
  sim::SimConfig config = to_sim_config(spec_);
  config.length_predictor = hooks.length_predictor;
  config.scheduler = scheduler.get();
  config.tracer = tracer.get();

  RunArtifact artifact;
  artifact.spec = spec_;
  artifact.estimation_wall_s = artifact_estimation_wall_s;

  auto stream = cursor.open_replay_stream();
  StreamJobSource source(*stream);
  const auto start = std::chrono::steady_clock::now();
  sim::Simulation simulation(std::move(config), *policy, std::move(predictor),
                             hooks.workspace);
  artifact.result = simulation.run_stream(source, batch_jobs);
  artifact.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  artifact.peak_rss_mb = obs::peak_rss_mb();
  flush_api_timers(spec_, artifact.estimation_wall_s, artifact.wall_time_s);
  tracer.finish();
  artifact.trace_jobs = source.jobs();
  artifact.trace_tasks = source.tasks();
  artifact.trace_reads = cursor.reads() + history_reads;
  // A lazy cursor hands the replay stream off before its rows are pulled;
  // a single-pass cursor already counted the parse.
  artifact.rows_read = cursor.rows_read() + history_rows +
                       (cursor.streams_lazily() ? source.tasks() : 0);
  // Recoverable row skips stay visible on the streaming path too (the
  // report is complete once the stream is drained).
  if (stream->report().rows_skipped > 0) {
    std::cerr << "warning: ingest skipped rows: "
              << stream->report().summary() << "\n";
  }
  return artifact;
}

RunArtifact run_scenario(const ScenarioSpec& spec, const RunHooks& hooks) {
  return ScenarioRunner(spec).run(hooks);
}

}  // namespace cloudcr::api
