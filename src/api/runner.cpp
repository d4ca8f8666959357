#include "api/runner.hpp"

#include <chrono>
#include <cmath>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "api/stream.hpp"
#include "ingest/registry.hpp"
#include "ingest/source.hpp"
#include "obs/probe.hpp"
#include "obs/stats.hpp"
#include "obs/trace_writer.hpp"
#include "sched/registry.hpp"
#include "sim/simulation.hpp"
#include "trace/generator.hpp"

namespace cloudcr::api {

namespace {

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

/// Per-run tracer: owns the TraceWriter when the spec requests tracing,
/// wires it into the SimConfig, and writes the JSON on finish().
struct RunTracer {
  explicit RunTracer(const ScenarioSpec& spec) {
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
  }

  [[nodiscard]] obs::TraceWriter* get() noexcept {
    return writer_ ? &*writer_ : nullptr;
  }

  void host_span(const char* name,
                 std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) {
    if (obs::TraceWriter* w = get()) w->host_span(name, t0, t1);
  }

  /// Throws when the trace file cannot be written, so a run never reports
  /// success for output it did not produce.
  void finish() {
    if (writer_ && !writer_->write_json_file(out_path_)) {
      throw std::runtime_error("cannot write trace output '" + out_path_ +
                               "'");
    }
  }

 private:
  std::optional<obs::TraceWriter> writer_;
  std::string out_path_;
};

/// Flushes the api-layer phase timers into the counter registry when the
/// spec asked for stats.
void flush_api_timers(const ScenarioSpec& spec, double estimation_s,
                      double replay_s) {
  if (!spec.obs.stats) return;
  obs::st::api_estimation_ns.add(
      static_cast<std::uint64_t>(estimation_s * 1e9));
  obs::st::api_replay_ns.add(static_cast<std::uint64_t>(replay_s * 1e9));
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
  return run_streamed(hooks);
}

RunArtifact ScenarioRunner::run_streamed(const RunHooks& hooks,
                                         std::size_t batch_jobs) const {
  RunTracer tracer(spec_);
  ParkedReplay parked;  // lives for this call only
  RunArtifact artifact = replay(parked, hooks, batch_jobs, {}, tracer.get());
  tracer.finish();
  return artifact;
}

RunArtifact ScenarioRunner::run_parked(ParkedReplay& parked,
                                       const sim::RunControl& control) const {
  return replay(parked, {}, sim::Simulation::kDefaultBatchJobs, control,
                nullptr);
}

RunArtifact ScenarioRunner::replay(ParkedReplay& parked, const RunHooks& hooks,
                                   std::size_t batch_jobs,
                                   const sim::RunControl& control,
                                   obs::TraceWriter* tracer) const {
  // One cursor serves estimation and replay: a single-pass source is
  // parsed once and shared by both phases; a lazy source opens one
  // bounded-memory pass per phase that touches it. It is opened only when
  // a phase reads it — up front when it feeds the replay, so a bad source
  // is reported before any other key.
  std::optional<SharedTraceCursor> cursor;
  if (hooks.replay_trace == nullptr) cursor.emplace(spec_.trace);

  RunArtifact artifact;
  artifact.spec = spec_;
  if (!parked.simulation) {
    // Predictor: override, or the spec's builder fed through the
    // observation contract. The builder only borrows each record during
    // observe_job, so no estimation view outlives finalize(), and a
    // predictor that wants no observations (oracle) skips the pass.
    sim::StatsPredictor predictor = hooks.predictor_override;
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
          artifact.trace_reads = history.reads();
          artifact.rows_read = history.rows_read();
        } else if (spec_.estimation == EstimationSource::kReplay &&
                   hooks.replay_trace != nullptr) {
          observe_trace(*builder, *hooks.replay_trace);
        } else {
          if (!cursor) cursor.emplace(spec_.trace);
          cursor->feed_estimation(
              spec_.estimation == EstimationSource::kReplay, observe);
        }
      }
      predictor = with_key_context("predictor", spec_.predictor,
                                   [&] { return builder->finalize(); });
      const auto est_end = std::chrono::steady_clock::now();
      artifact.estimation_wall_s =
          std::chrono::duration<double>(est_end - est_start).count();
      if (tracer != nullptr) {
        tracer->host_span("estimation", est_start, est_end);
      }
    }

    // The policy and scheduler must outlive the Simulation (held by
    // reference/pointer); the parked replay keeps all three together.
    parked.policy = with_key_context("policy", spec_.policy, [&] {
      return PolicyRegistry::instance().make(spec_.policy);
    });
    parked.scheduler = with_key_context("sched", spec_.sched, [&] {
      return sched::SchedulerRegistry::instance().make(spec_.sched);
    });
    sim::SimConfig config = to_sim_config(spec_);
    config.length_predictor = hooks.length_predictor;
    config.scheduler = parked.scheduler.get();
    config.tracer = tracer;
    parked.simulation = std::make_unique<sim::Simulation>(
        std::move(config), *parked.policy, std::move(predictor),
        hooks.workspace);
  }

  sim::Simulation& simulation = *parked.simulation;
  const auto start = std::chrono::steady_clock::now();
  if (hooks.replay_trace != nullptr) {
    sim::TraceJobSource source(*hooks.replay_trace);
    artifact.result = simulation.run_stream(source, batch_jobs, control);
    artifact.trace_jobs = hooks.replay_trace->job_count();
    artifact.trace_tasks = hooks.replay_trace->task_count();
  } else {
    auto stream = cursor->open_replay_stream();
    StreamJobSource source(*stream);
    artifact.result = simulation.run_stream(source, batch_jobs, control);
    artifact.trace_jobs = source.jobs();
    artifact.trace_tasks = source.tasks();
    // A lazy cursor hands the replay stream off before its rows are pulled;
    // a single-pass cursor already counted the parse.
    if (cursor->streams_lazily()) artifact.rows_read += source.tasks();
    // Recoverable row skips stay visible: results were computed on a
    // partial workload (the report is complete once the stream is drained).
    // One stderr line keeps stdout (bench tables, determinism diffs) clean.
    if (stream->report().rows_skipped > 0) {
      std::cerr << "warning: ingest skipped rows: "
                << stream->report().summary() << "\n";
    }
  }
  artifact.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  artifact.peak_rss_mb = obs::peak_rss_mb();
  if (cursor) {
    artifact.trace_reads += cursor->reads();
    artifact.rows_read += cursor->rows_read();
  }
  flush_api_timers(spec_, artifact.estimation_wall_s, artifact.wall_time_s);
  return artifact;
}

RunArtifact run_scenario(const ScenarioSpec& spec, const RunHooks& hooks) {
  return ScenarioRunner(spec).run(hooks);
}

}  // namespace cloudcr::api
