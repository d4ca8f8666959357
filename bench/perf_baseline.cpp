// perf_baseline: the month-scale replay and its peak-RSS gate.
//
// Replays a ~1M-task synthetic month and reports wall time, peak RSS, the
// replay workspace's high-water marks and the trace-read accounting. Peak
// RSS is process-wide and monotone, so each run replays one mode in its own
// process. Replay *work* is gated exactly by tests/obs/work_counters_test;
// wall time is measured by perfbench/ in interleaved parent/change pairs.
//
// Usage:
//   perf_baseline --month-scale streamed       streaming replay of a ~1M-task
//                                              synthetic month
//   perf_baseline --month-scale materialized   the same month, materialized
//   perf_baseline --month-scale streamed --max-rss-mb 128
//                                              hard peak-RSS ceiling (exit 1
//                                              when exceeded) — the CI
//                                              month-scale gate
//   ... --predictor KEY                        month predictor (default
//                                              "oracle"; "custom_grouped" is
//                                              registered here through the
//                                              public observation API — the
//                                              CI gate that proves custom
//                                              predictors stay memory-bounded)
//   ... --json OUT.json                        schema cloudcr-month-scale/1
//   ... --obs SPEC                             instrument the month run with
//                                              an obs= value (ScenarioSpec
//                                              grammar, e.g.
//                                              "stats+probe:3600+trace:m.json")
//   ... --probe-csv OUT.csv                    write the month run's probe
//                                              series as CSV
//
// Exit codes: 0 done (and under the ceiling), 1 ceiling exceeded, 2 CLI or
// I/O error.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "metrics/export.hpp"
#include "obs/probe.hpp"
#include "obs/spec.hpp"
#include "obs/stats.hpp"
#include "sim/predictors.hpp"

namespace {

using namespace cloudcr;
using Clock = std::chrono::steady_clock;

constexpr const char* kMonthSchema = "cloudcr-month-scale/1";

/// The month-scale scenario: ~1M tasks of synthetic arrivals over 30 days
/// (no sample-job filter, no service-class tails, so the row count is the
/// full arrival volume and the replay horizon stays the trace horizon).
api::ScenarioSpec month_spec() {
  api::ScenarioSpec spec;
  spec.name = "perf_month";
  spec.trace.seed = 20130917;
  spec.trace.horizon_s = 30.0 * 86400.0;
  spec.trace.arrival_rate = 0.116;
  spec.trace.sample_job_filter = false;
  spec.trace.long_service_fraction = 0.0;
  // Default predictor: the oracle reads per-task records only, so its
  // estimation needs no trace read at all and the memory comparison is
  // purely replay-side. --predictor swaps in an estimating predictor
  // (grouped, submission, custom_grouped) to exercise the estimation pass
  // too — the streamed footprint must stay bounded either way.
  spec.predictor = "oracle";
  return spec;
}

/// A month-capable predictor registered through the *public* observation
/// API only (no registry internals): aggregates the estimation view into a
/// GroupedEstimator one task at a time. The CI month-scale gate streams
/// with it to prove custom registrations can never reintroduce an O(trace)
/// estimation path.
void register_custom_grouped() {
  class CustomGroupedBuilder final : public api::PredictorBuilder {
   public:
    void observe_task(const trace::TaskRecord& task) override {
      estimator_.observe(task);
    }
    [[nodiscard]] sim::StatsPredictor finalize() override {
      return sim::make_grouped_predictor(estimator_);
    }

   private:
    trace::GroupedEstimator estimator_;
  };
  api::PredictorRegistry::instance().add(
      "custom_grouped", [](const std::string&) -> api::PredictorBuilderPtr {
        return std::make_unique<CustomGroupedBuilder>();
      });
}

/// --month-scale MODE: replays the month spec through the requested path
/// and reports wall time, peak RSS, and the workspace high-water marks
/// (allocation counters: task rows and job slots ever resident). With
/// --max-rss-mb, exits nonzero when peak RSS exceeds the ceiling — the CI
/// month-scale smoke gate. Runs one mode per process: peak RSS is
/// monotone, so streamed-after-materialized would inherit the larger
/// footprint.
int run_month_scale(const std::string& mode, const std::string& predictor,
                    double max_rss_mb, const std::string& json_path,
                    const std::string& obs_value,
                    const std::string& probe_csv_path) {
  if (mode != "streamed" && mode != "materialized") {
    std::cerr << "--month-scale wants 'streamed' or 'materialized', got '"
              << mode << "'\n";
    return 2;
  }
  api::ScenarioSpec spec = month_spec();
  if (!predictor.empty()) spec.predictor = predictor;
  if (!obs_value.empty()) {
    try {
      spec.obs = obs::parse_obs(obs_value);
    } catch (const std::invalid_argument& e) {
      std::cerr << "--obs: " << e.what() << "\n";
      return 2;
    }
  }
  const api::ScenarioRunner runner(spec);
  sim::ReplayWorkspace workspace;
  api::RunHooks hooks;
  hooks.workspace = &workspace;

  const auto start = Clock::now();
  // The materialized mode generates the whole replay set up front and
  // hands it to the runner as the caller's trace; the streamed mode pulls
  // it from the spec's cursor.
  std::optional<trace::Trace> replay;
  if (mode == "materialized") {
    replay = api::make_replay_trace(spec.trace);
    hooks.replay_trace = &*replay;
  }
  const api::RunArtifact artifact = runner.run(hooks);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  const double rss_mb = obs::peak_rss_mb();
  // The workspace is cleared at the *start* of a run, so after it the table
  // sizes are the run's high-water marks: O(active + recycling pools) in
  // both modes, since every replay recycles retired rows. The materialized
  // mode's O(trace) footprint is the trace itself.
  const std::size_t task_rows = workspace.tasks.size();
  const std::size_t job_slots = workspace.jobs.size();

  std::printf("month-scale %s (predictor=%s): %zu jobs, %zu tasks, "
              "%zu events\n",
              mode.c_str(), spec.predictor.c_str(), artifact.trace_jobs,
              artifact.trace_tasks, artifact.result.events_dispatched);
  std::printf("  wall            %10.2f s\n", wall_s);
  std::printf("  estimation      %10.2f s\n", artifact.estimation_wall_s);
  std::printf("  peak RSS        %10.1f MB\n", rss_mb);
  std::printf("  task rows       %10zu (high water)\n", task_rows);
  std::printf("  job slots       %10zu (high water)\n", job_slots);
  std::printf("  trace reads     %10zu (source passes: estimation+replay)\n",
              artifact.trace_reads);
  std::printf("  rows read       %10zu (task rows those passes produced)\n",
              artifact.rows_read);
  std::printf("  completed jobs  %10zu\n", artifact.result.outcomes.size());

  if (!probe_csv_path.empty()) {
    if (artifact.result.probes.empty()) {
      std::cerr << "--probe-csv given but the run sampled no probes (add "
                   "probe:<interval> to --obs)\n";
      return 2;
    }
    std::ofstream os(probe_csv_path);
    if (os) {
      obs::write_probe_csv(os, artifact.result.probes);
      os.flush();  // a full device fails only once the buffer drains
    }
    if (!os) {
      std::cerr << "cannot write " << probe_csv_path << "\n";
      return 2;
    }
    std::cout << "# wrote " << probe_csv_path << " ("
              << artifact.result.probes.size() << " probe samples)\n";
  }
  if (spec.obs.stats) {
    std::cout << "# obs stats (merged registry):\n";
    obs::write_stats_text(std::cout);
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    os << "{\"schema\":" << metrics::json_quote(kMonthSchema)
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"mode\":" << metrics::json_quote(mode)
       << ",\"predictor\":" << metrics::json_quote(spec.predictor)
       << ",\"jobs\":" << artifact.trace_jobs
       << ",\"tasks\":" << artifact.trace_tasks
       << ",\"events\":" << artifact.result.events_dispatched
       << ",\"wall_s\":" << metrics::json_double(wall_s)
       << ",\"estimation_wall_s\":"
       << metrics::json_double(artifact.estimation_wall_s)
       << ",\"peak_rss_mb\":" << metrics::json_double(rss_mb)
       << ",\"task_rows_high_water\":" << task_rows
       << ",\"job_slots_high_water\":" << job_slots
       << ",\"trace_reads\":" << artifact.trace_reads
       << ",\"rows_read\":" << artifact.rows_read
       << ",\"max_rss_mb\":" << metrics::json_double(max_rss_mb) << "}\n";
    os.flush();
    if (!os) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    std::cout << "# wrote " << json_path << "\n";
  }

  if (max_rss_mb > 0.0 && rss_mb > max_rss_mb) {
    std::cerr << "peak RSS " << rss_mb << " MB exceeds the ceiling "
              << max_rss_mb << " MB — failing the month-scale gate\n";
    return 1;
  }
  if (max_rss_mb > 0.0) {
    std::cout << "month-scale RSS gate passed (" << rss_mb << " MB <= "
              << max_rss_mb << " MB)\n";
  }
  return 0;
}

constexpr const char* kUsage =
    "usage: perf_baseline --month-scale streamed|materialized "
    "[--predictor KEY] [--max-rss-mb M] [--json OUT] [--obs SPEC] "
    "[--probe-csv OUT]\n";

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string month_mode;
  std::string month_predictor;
  std::string obs_value;
  std::string probe_csv_path;
  double max_rss_mb = 0.0;  // 0: no ceiling

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = value();
    } else if (arg == "--month-scale") {
      month_mode = value();
    } else if (arg == "--predictor") {
      month_predictor = value();
    } else if (arg == "--obs") {
      obs_value = value();
    } else if (arg == "--probe-csv") {
      probe_csv_path = value();
    } else if (arg == "--max-rss-mb") {
      const std::string text = value();
      try {
        max_rss_mb = api::parse_checked_double(arg, text);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
      // A ceiling that is not a positive finite number would switch the
      // gate off instead of failing.
      if (!(std::isfinite(max_rss_mb) && max_rss_mb > 0.0)) {
        std::cerr << "--max-rss-mb must be finite and > 0, got '" << text
                  << "'\n";
        return 2;
      }
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }

  if (month_mode.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  register_custom_grouped();
  return run_month_scale(month_mode, month_predictor, max_rss_mb, json_path,
                         obs_value, probe_csv_path);
}
