#pragma once

// Outside-in tracing of the cloudcr layers. Nothing here changes src/: the
// benchmark times calls into each layer's public functions from its own
// files.
//
//   - Registry delegates. The checkpoint-policy, predictor and scheduler
//     registries are process-wide and accept replacement factories, so the
//     traced run re-registers every built-in name with a factory that wraps
//     the built-in object in a timing delegate. Every caller that resolves a
//     spec key (ScenarioRunner, BatchRunner, report::run_report, SimService)
//     then runs through the delegates with unchanged spec text, so artifacts
//     stay byte-identical. While tracing is off the factories hand out the
//     built-in objects themselves.
//   - Tallies. Boundaries crossed a million times or more (predictor
//     lookups, next_interval, decide) keep only a count and a summed time,
//     in a per-thread slot, so batch workers never share a cache line.
//   - Spans. Coarse boundaries (a pass, estimation, each arrival chunk, each
//     artifact or service request) are recorded as spans in memory and
//     written as JSON when the run ends.

#include <cstdint>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "api/stream.hpp"
#include "bench.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

/// Counts and summed nanoseconds at the delegate boundaries, one slot per
/// thread, cache-line aligned so no two threads write one line.
struct alignas(64) LayerTally {
  std::uint64_t pull_calls = 0, pull_ns = 0, rows = 0;
  std::uint64_t observe_calls = 0, observe_ns = 0, finalize_ns = 0;
  std::uint64_t predictor_calls = 0, predictor_ns = 0;
  std::uint64_t policy_calls = 0, policy_ns = 0;
  std::uint64_t sched_calls = 0, sched_ns = 0, released = 0, evicted = 0;

  LayerTally& operator+=(const LayerTally& o);
};

/// This thread's tally slot (created on first use, owned process-wide).
LayerTally& local_tally();
/// Sum over every thread's slot. Call only while no traced work runs.
LayerTally total_tally();
/// Zeroes every slot. Call only while no traced work runs.
void reset_tallies();

/// Installs the registry delegates (once) and switches them on or off.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// One recorded span. Times are seconds since the process's first span.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;          ///< index into the log, -1 for a root
  std::uint64_t id = 0;     ///< run or request id shared by its spans
};

/// In-memory span log (single writer per instance).
class SpanLog {
 public:
  /// Opens a span now; returns its index for end()/children.
  int begin(std::string name, std::uint64_t id, int parent = -1);
  void end(int index);
  /// Records a span with explicit bounds.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          std::uint64_t id, int parent = -1);
  void append(const SpanLog& other);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes {"spans":[...]} to `path`; false when it cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// sim::JobSource delegate: times every next_jobs call, counts rows, and
/// records one span per arrival chunk.
class TimedJobSource final : public cloudcr::sim::JobSource {
 public:
  TimedJobSource(cloudcr::sim::JobSource& inner, SpanLog& log,
                 std::uint64_t id, int parent)
      : inner_(&inner), log_(&log), id_(id), parent_(parent) {}

  std::size_t next_jobs(std::size_t max_jobs,
                        std::vector<cloudcr::trace::JobRecord>& out) override;

  [[nodiscard]] std::uint64_t chunks() const noexcept { return chunks_; }

 private:
  cloudcr::sim::JobSource* inner_;
  SpanLog* log_;
  std::uint64_t id_;
  int parent_;
  std::uint64_t chunks_ = 0;
};

/// Host-side breakdown of one traced replay (seconds).
struct ReplayTimes {
  double pass_s = 0.0;        ///< whole call
  double ingest_open_s = 0.0; ///< cursor set-up, parse and estimation feed,
                              ///< minus the observe callbacks
  double estimation_s = 0.0;  ///< PredictorBuilder observe + finalize
  double run_stream_s = 0.0;  ///< Simulation::run_stream
  double tail_s = 0.0;        ///< artifact assembly after the replay
  std::uint64_t chunks = 0;
};

/// ScenarioRunner::run_streamed rebuilt from public pieces
/// (SharedTraceCursor, the three registries, to_sim_config,
/// Simulation::run_stream) with a timing delegate at each boundary. The
/// returned artifact matches run_streamed() field for field, apart from the
/// host timings. Tracing must be on for the registry delegates to time.
cloudcr::api::RunArtifact traced_run_streamed(
    const cloudcr::api::ScenarioSpec& spec,
    cloudcr::sim::ReplayWorkspace* workspace, SpanLog& log, std::uint64_t id,
    ReplayTimes& times);

/// Mean microseconds per api::scenario_cache_key call, cycling `specs`
/// until at least `min_calls` calls were made.
double cache_key_us(const std::vector<cloudcr::api::ScenarioSpec>& specs,
                    std::size_t min_calls = 2000);

/// The per-layer table of one traced pass.
struct LayerReport {
  LayerTally tally;
  std::uint64_t rows = 0;  ///< task rows the pass read
  double ingest_pull_s = 0.0;
  double ingest_parse_s = 0.0;
  double estimation_s = 0.0;
  double sim_self_s = 0.0;
  double cache_key_us = 0.0;
  double batch_busy_s = 0.0;
  double batch_efficiency = 0.0;
  double tail_s = 0.0;
  double wall_s = 0.0;
  double untimed_s = 0.0;
  double overhead_s = 0.0;
  std::uint64_t events = 0, checkpoints = 0, failures = 0;
  std::uint64_t task_rows_high_water = 0, job_slots_high_water = 0;
  std::uint64_t artifacts = 0, entries_passed = 0, chunks = 0, spans = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, evictions = 0;
  std::uint64_t snapshot_resumes = 0, snapshot_bytes = 0;
  double hit_ratio = 0.0;
};

/// The report whose wall_s is closest to the median wall_s of `reports`; a
/// default report when there is none.
LayerReport median_report(const std::vector<LayerReport>& reports);

/// Adds the simulation work counts of `result` to the report.
void add_result_counts(LayerReport& report,
                       const cloudcr::sim::SimResult& result);

/// Every per-layer metric of BENCHMARK.json, in table order.
std::vector<Metric> layer_metrics(const LayerReport& report);

}  // namespace perfbench
