#pragma once

/// \file bench_args.hpp
/// \brief The CLI flags every bench binary shares.
///
/// `repro_report` and the hand-rolled benches (bench/bench_ablation_*)
/// accept the same overrides instead of per-binary constants:
///   --seed N        trace seed
///   --horizon S     trace horizon in seconds
///   --jobs N        cap on generated jobs (0 = unlimited)
///   --trace SPEC    trace source ("synthetic", "csv:<path>",
///                   "google:<path>"); replays an ingested workload instead
///                   of the synthetic generator
///   --threads N     BatchRunner worker threads (0 = hardware)
///   --artifacts-json PATH  export RunArtifacts as JSON
///   --artifacts-csv PATH   export RunArtifact summary rows as CSV
///   --stats         collect + print the obs counter registry
///   --probe-interval S  sample a time-series probe every S simulated
///                   seconds into each artifact
///   --trace-out PATH  write a Chrome trace-event JSON per scenario
///                   ("{name}" expands to the scenario name)
///
/// There is one parser: consume() takes one shared flag off argv, so a
/// binary with flags of its own (repro_report) hands every argument it does
/// not know to consume(), and parse() is the whole loop for a bench with no
/// flags of its own. Flags a binary does not consult are still parsed (so
/// `--threads 8` never errors); each bench applies the subset that makes
/// sense via the apply()/ *_or() helpers.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "api/scenario.hpp"

namespace cloudcr::report {

struct BenchArgs {
  std::optional<std::uint64_t> seed;
  std::optional<double> horizon_s;
  std::optional<std::size_t> jobs;
  std::optional<std::string> trace_source;
  std::optional<std::size_t> threads;
  std::string json_path;
  std::string csv_path;

  // Observability (all off by default; purely additive to results).
  bool stats = false;
  double probe_interval_s = 0.0;
  std::string trace_out;

  [[nodiscard]] std::size_t threads_or(std::size_t fallback) const {
    return threads.value_or(fallback);
  }

  /// True when any trace-level flag was given.
  [[nodiscard]] bool overrides_trace() const {
    return seed || horizon_s || jobs || trace_source;
  }

  /// True when --artifacts-json or --artifacts-csv was given.
  [[nodiscard]] bool exports_artifacts() const {
    return !json_path.empty() || !csv_path.empty();
  }

  /// Applies the trace-level overrides to a TraceSpec.
  void apply(api::TraceSpec& spec) const {
    if (seed) spec.seed = *seed;
    if (horizon_s) spec.horizon_s = *horizon_s;
    if (jobs) spec.max_jobs = *jobs;
    if (trace_source) spec.source = *trace_source;
  }

  /// Lowers the obs flags into a scenario's ObsSpec (additive: fields the
  /// flags don't cover keep whatever the spec already carried).
  void apply_obs(api::ScenarioSpec& spec) const {
    if (stats) spec.obs.stats = true;
    if (probe_interval_s > 0.0) spec.obs.probe_interval_s = probe_interval_s;
    if (!trace_out.empty()) spec.obs.trace_path = trace_out;
  }

  [[nodiscard]] bool obs_enabled() const {
    return stats || probe_interval_s > 0.0 || !trace_out.empty();
  }

  /// The obs= grammar equivalent of the flags (for ReportOptions::obs; ""
  /// when none were given).
  [[nodiscard]] std::string obs_value() const;

  /// Prints the merged counter registry to `os` when --stats was given
  /// (text form, timers included).
  void print_stats(std::ostream& os) const;

  /// Writes artifacts to --artifacts-json/--artifacts-csv when given;
  /// prints where they went. Returns false (after reporting to stderr) when
  /// a requested export could not be written, so main() can exit nonzero.
  [[nodiscard]] bool export_artifacts(
      const std::vector<api::RunArtifact>& artifacts) const;

  /// Consumes argv[i] when it is one of the shared flags above, advancing
  /// `i` past its value, and returns true; returns false (`i` untouched)
  /// for any other argument. A missing or malformed value prints a
  /// diagnostic and exits 2.
  bool consume(int argc, char** argv, int& i);

  /// The shared flags' usage synopsis; benches that produce no
  /// RunArtifacts pass `exports = false` to leave the export flags out.
  static std::string usage(bool exports);

  /// Parses the whole argv with consume(); prints usage and exits on
  /// -h/--help or malformed input. Benches that produce no RunArtifacts
  /// pass `exports = false`: --artifacts-json/--artifacts-csv then exit 2
  /// instead of being silently dropped.
  static BenchArgs parse(int argc, char** argv, bool exports = true);
};

}  // namespace cloudcr::report
