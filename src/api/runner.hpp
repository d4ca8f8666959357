#pragma once

/// \file runner.hpp
/// \brief Executes one ScenarioSpec end-to-end and returns a RunArtifact.
///
/// The runner owns every lifetime the raw simulation layer leaves to the
/// caller: it builds the policy from the PolicyRegistry (and keeps it alive
/// across the replay — Simulation holds the policy by reference, which made
/// the old hand-wired call sites dangling-reference-prone), generates or
/// borrows the traces, builds the predictor, and times the run.
///
/// Everything a run needs is in the spec; RunHooks exists for the few
/// experiment shapes that are genuinely not serializable (a hand-crafted
/// story trace, a custom failure-history lambda, a workload-length
/// predictor) and for batch-level trace sharing.

#include <cstddef>
#include <functional>
#include <memory>

#include "api/scenario.hpp"
#include "core/policy.hpp"
#include "sched/policy.hpp"
#include "sim/result.hpp"
#include "sim/simulation.hpp"
#include "trace/records.hpp"

namespace cloudcr::api {

/// Everything one run produced: the spec echo (for provenance — artifacts
/// are self-describing and re-runnable), the aggregated simulation result,
/// replay-set shape, and wall time.
struct RunArtifact {
  ScenarioSpec spec;
  sim::SimResult result;
  std::size_t trace_jobs = 0;   ///< jobs in the replay set
  std::size_t trace_tasks = 0;  ///< tasks in the replay set
  double wall_time_s = 0.0;     ///< host wall time of the replay

  // -- host-side observability (never fed back into results) -----------------
  /// Host wall time of the estimation pass (predictor construction,
  /// including its trace generation or streaming estimator pass); 0 when a
  /// pre-built predictor was handed in via hooks.
  double estimation_wall_s = 0.0;
  /// Process-wide peak RSS (MB) sampled after the replay; 0 when the
  /// platform offers no getrusage. Monotone across a batch — per-artifact
  /// values reflect the process high-water at that point, not this run's
  /// isolated footprint.
  double peak_rss_mb = 0.0;
  /// Passes over trace sources this run performed (estimation + replay;
  /// history counts too). A single-pass source serves both phases from 1;
  /// a lazy source pays 1 per phase that touches it; 0 when every trace
  /// came in via hooks.
  std::size_t trace_reads = 0;
  /// Task rows those passes produced (post-processed view). The one-cursor
  /// path halves this relative to two independent reads.
  std::size_t rows_read = 0;
};

/// Non-serializable extension points. All pointers are borrowed and must
/// outlive the run() call.
struct RunHooks {
  /// Replay this trace instead of generating one from spec.trace.
  const trace::Trace* replay_trace = nullptr;

  /// Estimate failure statistics from this trace instead of the one implied
  /// by spec.estimation.
  const trace::Trace* estimation_trace = nullptr;

  /// Bypass the PredictorRegistry entirely (custom failure histories).
  sim::StatsPredictor predictor_override;

  /// Workload-length predictor handed to the planner (SimConfig's
  /// length_predictor hook; the ablation_prediction sweeps).
  std::function<double(const trace::TaskRecord&)> length_predictor;

  /// Pooled replay buffers (task tables, event queue slab) reused across
  /// runs: a batch worker replays spec after spec with no steady-state
  /// allocation. Contents are reset at the start of every run, so pooling
  /// can never change results (pinned by tests/api/determinism_test.cpp).
  /// Not thread-safe: one workspace per concurrent run.
  sim::ReplayWorkspace* workspace = nullptr;
};

/// Materializes the unrestricted trace of `spec` (estimation view): the
/// synthetic generator for source "synthetic", otherwise ingestion through
/// ingest::TraceSourceRegistry (with the spec's sample-job filter and job
/// cap applied on top).
trace::Trace make_trace(const TraceSpec& spec);

/// The replay set of `spec`: the unrestricted trace filtered to jobs within
/// replay_max_task_length_s.
trace::Trace make_replay_trace(const TraceSpec& spec);

/// A replay kept alive between ScenarioRunner::run_parked calls, so a later
/// call can resume the snapshot an earlier one captured. Everything the
/// parked Simulation borrows by reference or raw pointer lives here; it is
/// declared last, so it is destroyed first.
struct ParkedReplay {
  core::PolicyPtr policy;
  sched::SchedulerPtr scheduler;
  std::unique_ptr<sim::Simulation> simulation;  ///< built on first use
};

/// Runs one scenario. Deterministic: the artifact depends only on the spec
/// (and hooks), never on thread schedule or host state.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

  /// Runs the scenario: run_streamed at the default chunk size.
  [[nodiscard]] RunArtifact run(const RunHooks& hooks = {}) const;

  /// Runs the scenario through the one replay loop
  /// (sim::Simulation::run_stream). The replay source is hooks.replay_trace
  /// through sim::TraceJobSource, or else the spec's SharedTraceCursor,
  /// pulled chunk by chunk. Every predictor — builtin or registered —
  /// estimates through the PredictorBuilder observation contract: from
  /// hooks.estimation_trace when set, a history cursor for
  /// estimation=history, the caller's replay trace in place for
  /// estimation=replay, and the spec's cursor otherwise (oracle skips the
  /// pass). The spec's source is resolved only when a phase reads it, so a
  /// lazily-streaming source replays in memory bounded by the active task
  /// set for any predictor. Reusable and const: each call builds a fresh
  /// Simulation.
  [[nodiscard]] RunArtifact run_streamed(
      const RunHooks& hooks = {},
      std::size_t batch_jobs = sim::Simulation::kDefaultBatchJobs) const;

  /// run_streamed into a replay that outlives the call, under `control`
  /// (snapshot capture or resume). The first call on `parked` estimates
  /// and builds its Simulation; later calls reuse it and skip estimation,
  /// so a resume must follow the capture on the same ParkedReplay. Parked
  /// runs take no hooks and stay untraced: SimConfig::tracer lives inside
  /// the parked Simulation and would dangle on the next call.
  [[nodiscard]] RunArtifact run_parked(ParkedReplay& parked,
                                       const sim::RunControl& control) const;

 private:
  RunArtifact replay(ParkedReplay& parked, const RunHooks& hooks,
                     std::size_t batch_jobs, const sim::RunControl& control,
                     obs::TraceWriter* tracer) const;

  ScenarioSpec spec_;
};

/// One-shot convenience wrapper around ScenarioRunner.
RunArtifact run_scenario(const ScenarioSpec& spec, const RunHooks& hooks = {});

}  // namespace cloudcr::api
