// perf_baseline: the pinned engine-performance scenario matrix, and the
// regression gate CI runs against the checked-in baseline.
//
// Every metric replays a fully deterministic workload (fixed seeds, fixed
// specs), so run-to-run variation is hardware noise only. Results are
// written as a schema-versioned JSON document (BENCH_engine.json); --check
// compares the current run against a baseline file and exits nonzero when
// any tracked metric's wall time regresses beyond the tolerance.
//
// Usage:
//   perf_baseline                         run + print table
//   perf_baseline --json OUT.json         also write the JSON document
//   perf_baseline --check BASE.json       gate: fail on >tolerance regression
//   perf_baseline --update BASE.json      rewrite the baseline in place
//   perf_baseline --tolerance 0.20        relative slowdown allowed by --check
//   perf_baseline --reps N                timed repetitions per metric (def 5)
//   perf_baseline --only SUBSTR           run only matrix metrics whose name
//                                         contains SUBSTR (the CI obs-overhead
//                                         A/B uses --only replay_hour; not
//                                         combinable with --check)
//
// Month-scale memory mode (separate from the wall-time matrix — peak RSS is
// process-wide and monotone, so each mode needs its own process):
//   perf_baseline --month-scale streamed       streaming replay of a ~1M-task
//                                              synthetic month
//   perf_baseline --month-scale materialized   the same month, materialized
//   perf_baseline --month-scale streamed --max-rss-mb 512
//                                              hard peak-RSS ceiling (exit 1
//                                              when exceeded) — the CI
//                                              month-scale smoke job
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
// Refreshing the checked-in baseline after an intended perf change:
//   ./perf_baseline --update ../bench/BENCH_engine.baseline.json
//
// Baselines are machine-relative: refresh on the same class of machine the
// gate runs on (CI refreshes from a CI run's uploaded artifact).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "core/estimator.hpp"
#include "ingest/google_source.hpp"
#include "ingest/registry.hpp"
#include "metrics/export.hpp"
#include "obs/probe.hpp"
#include "obs/spec.hpp"
#include "obs/stats.hpp"
#include "sched/policies.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/predictors.hpp"
#include "trace/generator.hpp"

namespace {

using namespace cloudcr;
using Clock = std::chrono::steady_clock;

constexpr const char* kSchema = "cloudcr-perf-baseline/1";
constexpr const char* kMonthSchema = "cloudcr-month-scale/1";

/// The month-scale scenario: ~1M tasks of synthetic arrivals over 30 days
/// (the google_fixture() config stretched to a month — no sample-job
/// filter, no service-class tails, so the row count is the full arrival
/// volume and the replay horizon stays the trace horizon).
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
      sim::observe_task(estimator_, task);
    }
    [[nodiscard]] sim::StatsPredictor finalize() override {
      return sim::make_grouped_predictor(std::move(estimator_));
    }

   private:
    core::GroupedEstimator estimator_{trace::kNoLengthLimit};
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
    if (!os) {
      std::cerr << "cannot write " << probe_csv_path << "\n";
      return 2;
    }
    obs::write_probe_csv(os, artifact.result.probes);
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

struct Metric {
  std::string name;
  double wall_ms = 0.0;     ///< best (minimum) over reps
  double throughput = 0.0;  ///< items per second (unit below)
  std::string unit;         ///< "events/s", "rows/s", "jobs/s"
  std::size_t reps = 0;
};

/// Times `body` (which returns an item count) `reps` times; records the
/// *minimum* wall time and the matching throughput. Scheduling noise on a
/// shared machine only ever adds time, so the minimum is the stable
/// estimator — medians flapped the regression gate on busy runners.
Metric time_metric(const std::string& name, const std::string& unit,
                   std::size_t reps,
                   const std::function<std::size_t()>& body) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.reps = reps;
  std::vector<double> walls;
  std::size_t items = 0;
  (void)body();  // warm-up: touch caches, grow pools
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    items = body();
    walls.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
  }
  m.wall_ms = *std::min_element(walls.begin(), walls.end());
  m.throughput =
      m.wall_ms > 0.0 ? static_cast<double>(items) / (m.wall_ms / 1000.0)
                      : 0.0;
  return m;
}

api::ScenarioSpec hour_spec() {
  api::ScenarioSpec spec;
  spec.name = "perf_hour";
  spec.trace.seed = 7;
  spec.trace.horizon_s = 3600.0;
  spec.trace.arrival_rate = 0.116;
  return spec;
}

std::vector<api::ScenarioSpec> grid_specs() {
  std::vector<api::ScenarioSpec> specs;
  for (const char* policy : {"formula3", "young", "daly", "none"}) {
    auto spec = hour_spec();
    spec.name = std::string("perf_grid_") + policy;
    spec.policy = policy;
    specs.push_back(spec);
  }
  return specs;
}

/// Synthesizes the Google-format fixture once; returns its path.
std::string google_fixture() {
  static const std::string path = [] {
    trace::GeneratorConfig cfg;
    cfg.seed = 20130917;
    cfg.horizon_s = 6.0 * 3600.0;
    cfg.sample_job_filter = false;
    cfg.workload.long_service_fraction = 0.0;
    const trace::Trace trace = trace::TraceGenerator(cfg).generate();
    const std::string file = "perf_baseline_task_events.csv";
    std::ofstream os(file);
    ingest::write_task_events(os, trace);
    return file;
  }();
  return path;
}

/// Runs the matrix, restricted to metrics whose name contains `only` (empty
/// = all). The CI obs-overhead A/B times `--only replay_hour` in an ON and
/// an OFF build and compares the two JSON documents.
std::vector<Metric> run_matrix(std::size_t reps, const std::string& only) {
  std::vector<Metric> metrics;
  const auto want = [&only](const char* name) {
    return only.empty() || std::string(name).find(only) != std::string::npos;
  };

  // -- event-queue substrate -------------------------------------------------
  if (want("queue_schedule_drain_100k")) {
    metrics.push_back(time_metric(
        "queue_schedule_drain_100k", "events/s", reps, [] {
        const std::size_t n = 100000;
        sim::EventQueue q;
        for (std::size_t i = 0; i < n; ++i) {
          q.schedule(static_cast<double>((i * 7919) % n), [] {});
        }
        while (!q.empty()) q.pop();
        return n;
      }));
  }
  if (want("engine_cascade_10k")) {
    metrics.push_back(time_metric("engine_cascade_10k", "events/s", reps, [] {
      sim::Engine e;
      int count = 0;
      std::function<void()> chain = [&] {
        if (++count < 10000) e.schedule_in(1.0, chain);
      };
      e.schedule_at(0.0, chain);
      return e.run();
    }));
  }

  // -- scheduler decide() over a deep backfill queue -------------------------
  // decide() is stateless, so every round re-derives the shadow/profile
  // reservations from scratch; this pins the cost of that re-derivation
  // (EASY's shadow scan and conservative's availability profile — the
  // profile is the superlinear part, so the queue here is deep for a
  // replay but small in absolute terms) on a contended 48-deep queue
  // against a 24-job running set.
  if (want("sched_backfill_decide")) {
    metrics.push_back(time_metric(
        "sched_backfill_decide", "decides/s", reps, []() -> std::size_t {
        constexpr std::size_t kQueue = 48;
        constexpr std::size_t kRunning = 24;
        constexpr std::size_t kRounds = 40;
        std::vector<sched::PendingJob> queue(kQueue);
        for (std::size_t i = 0; i < kQueue; ++i) {
          queue[i].id = i;
          queue[i].slot = static_cast<std::uint32_t>(i);
          queue[i].arrival_s = static_cast<double>(i);
          queue[i].demand_mb = 128.0 + static_cast<double>((i * 7919) % 1024);
          queue[i].estimate_s = 60.0 + static_cast<double>((i * 104729) % 3600);
          queue[i].priority = 1 + static_cast<int>(i % 12);
        }
        std::vector<sched::RunningJob> running(kRunning);
        for (std::size_t i = 0; i < kRunning; ++i) {
          running[i].id = 100000 + i;
          running[i].slot = static_cast<std::uint32_t>(kQueue + i);
          running[i].demand_mb = 256.0 + static_cast<double>((i * 31) % 512);
          running[i].est_end_s = 30.0 + static_cast<double>((i * 613) % 7200);
          running[i].priority = 1 + static_cast<int>((i * 5) % 12);
        }
        const sched::SchedulerPtr easy = sched::make_easy_backfill();
        const sched::SchedulerPtr conservative =
            sched::make_conservative_backfill();
        sched::ResourceView view;
        view.total_capacity_mb = 32.0 * 1024.0;
        view.max_available_mb = 1024.0;
        sched::Decision decision;
        std::size_t decides = 0;
        for (std::size_t r = 0; r < kRounds; ++r) {
          view.now_s = static_cast<double>(r);
          // Sweep availability so both the saturated and the draining
          // cluster shapes get exercised.
          view.total_available_mb = static_cast<double>((r * 97) % 8192);
          for (const auto* policy : {easy.get(), conservative.get()}) {
            decision.clear();
            policy->decide(view, queue, running, decision);
            ++decides;
          }
        }
        return decides;
      }));
  }

  // -- synthetic replay, serial (pooled workspace, replay only) --------------
  if (want("replay_hour_serial")) {
    const api::ScenarioRunner runner(hour_spec());
    const auto trace = api::make_replay_trace(runner.spec().trace);
    api::RunHooks hooks;
    sim::ReplayWorkspace workspace;
    hooks.workspace = &workspace;
    hooks.replay_trace = &trace;
    hooks.predictor_override = api::PredictorRegistry::instance().make(
        "grouped", trace);
    metrics.push_back(
        time_metric("replay_hour_serial", "events/s", reps, [&] {
          return runner.run(hooks).result.events_dispatched;
        }));
  }

  // -- policy grid through the batch runner, serial and threaded -------------
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::ostringstream name;
    name << "batch_grid_threads" << threads;
    if (!want(name.str().c_str())) continue;
    api::BatchOptions options;
    options.threads = threads;
    const api::BatchRunner runner(options);
    const auto specs = grid_specs();
    metrics.push_back(time_metric(name.str(), "jobs/s", reps, [&] {
      const auto artifacts = runner.run(specs);
      std::size_t jobs = 0;
      for (const auto& a : artifacts) jobs += a.result.outcomes.size();
      return jobs;
    }));
  }

  // -- ingested Google-format workload: parse, then replay -------------------
  if (want("ingest_google_6h") || want("replay_google_6h")) {
    const std::string fixture = google_fixture();
    if (want("ingest_google_6h")) {
      metrics.push_back(time_metric(
          "ingest_google_6h", "rows/s", reps, [&]() -> std::size_t {
            const auto result =
                ingest::TraceSourceRegistry::instance()
                    .make("google:" + fixture)
                    ->load();
            return result.report.rows_used;
          }));
    }

    if (want("replay_google_6h")) {
      api::ScenarioSpec spec = hour_spec();
      spec.name = "perf_google_replay";
      spec.trace.source = "google:" + fixture;
      const api::ScenarioRunner runner(spec);
      const auto trace = api::make_replay_trace(runner.spec().trace);
      api::RunHooks hooks;
      sim::ReplayWorkspace workspace;
      hooks.workspace = &workspace;
      hooks.replay_trace = &trace;
      hooks.predictor_override = api::PredictorRegistry::instance().make(
          "grouped", trace);
      metrics.push_back(
          time_metric("replay_google_6h", "events/s", reps, [&] {
            return runner.run(hooks).result.events_dispatched;
          }));
    }
  }

  return metrics;
}

void write_json(std::ostream& os, const std::vector<Metric>& metrics) {
  os << "{\"schema\":" << metrics::json_quote(kSchema)
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"metrics\":[";
  bool first = true;
  for (const auto& m : metrics) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << metrics::json_quote(m.name)
       << ",\"wall_ms\":" << metrics::json_double(m.wall_ms)
       << ",\"throughput\":" << metrics::json_double(m.throughput)
       << ",\"unit\":" << metrics::json_quote(m.unit)
       << ",\"reps\":" << m.reps << "}";
  }
  os << "]}\n";
}

/// Minimal parser for the documents this binary writes: extracts
/// name -> wall_ms pairs. Tolerates unknown fields.
std::map<std::string, double> parse_baseline(const std::string& text) {
  std::map<std::string, double> out;
  if (text.find("\"schema\":\"" + std::string(kSchema) + "\"") ==
      std::string::npos) {
    throw std::runtime_error("baseline schema mismatch (want " +
                             std::string(kSchema) + ")");
  }
  std::size_t pos = 0;
  while (true) {
    const std::size_t name_key = text.find("\"name\":\"", pos);
    if (name_key == std::string::npos) break;
    const std::size_t name_start = name_key + 8;
    const std::size_t name_end = text.find('"', name_start);
    const std::size_t wall_key = text.find("\"wall_ms\":", name_end);
    if (name_end == std::string::npos || wall_key == std::string::npos) break;
    const std::string name = text.substr(name_start, name_end - name_start);
    out[name] = std::strtod(text.c_str() + wall_key + 10, nullptr);
    pos = wall_key;
  }
  return out;
}

int check_against(const std::vector<Metric>& metrics,
                  const std::string& baseline_path, double tolerance) {
  std::ifstream is(baseline_path);
  if (!is) {
    std::cerr << "cannot read baseline " << baseline_path << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto baseline = parse_baseline(buf.str());

  int regressions = 0;
  std::map<std::string, double> unmatched = baseline;
  for (const auto& m : metrics) {
    const auto it = baseline.find(m.name);
    if (it == baseline.end()) {
      // Additive changes are fine (visible here and in the artifact); the
      // next baseline refresh starts tracking them.
      std::cout << "  new metric (no baseline): " << m.name << "\n";
      continue;
    }
    unmatched.erase(m.name);
    const double allowed = it->second * (1.0 + tolerance);
    const double ratio = it->second > 0.0 ? m.wall_ms / it->second : 1.0;
    const bool regressed = m.wall_ms > allowed;
    std::printf("  %-28s %9.2f ms vs baseline %9.2f ms  (%.2fx)%s\n",
                m.name.c_str(), m.wall_ms, it->second, ratio,
                regressed ? "  ** REGRESSION **" : "");
    if (regressed) ++regressions;
  }
  // A baseline metric the current run no longer produces means a rename or
  // deletion slipped past the baseline refresh — the gate would silently
  // stop covering that workload. Fail loudly instead.
  if (!unmatched.empty()) {
    for (const auto& [name, wall] : unmatched) {
      std::cerr << "  baseline metric missing from this run: " << name
                << "\n";
    }
    std::cerr << "refresh the baseline (--update) when renaming or removing "
                 "metrics\n";
    return 1;
  }
  if (regressions > 0) {
    std::cerr << regressions << " metric(s) regressed more than "
              << tolerance * 100.0 << "% — failing the gate\n";
    return 1;
  }
  std::cout << "regression gate passed (tolerance "
            << tolerance * 100.0 << "%)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string check_path;
  std::string update_path;
  std::string month_mode;
  std::string month_predictor;
  std::string obs_value;
  std::string probe_csv_path;
  std::string only;
  double tolerance = 0.20;
  double max_rss_mb = 0.0;
  std::size_t reps = 5;

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
    } else if (arg == "--check") {
      check_path = value();
    } else if (arg == "--update") {
      update_path = value();
    } else if (arg == "--month-scale") {
      month_mode = value();
    } else if (arg == "--predictor") {
      month_predictor = value();
    } else if (arg == "--obs") {
      obs_value = value();
    } else if (arg == "--probe-csv") {
      probe_csv_path = value();
    } else if (arg == "--only") {
      only = value();
    } else if (arg == "--max-rss-mb") {
      max_rss_mb = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--tolerance") {
      tolerance = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--reps") {
      reps = static_cast<std::size_t>(
          std::strtoul(value().c_str(), nullptr, 10));
      if (reps == 0) reps = 1;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << "usage: perf_baseline [--json OUT] [--check BASE] "
                   "[--update BASE] [--tolerance T] [--reps N] "
                   "[--only SUBSTR]\n"
                   "       perf_baseline --month-scale streamed|materialized "
                   "[--predictor KEY] [--max-rss-mb M] [--json OUT] "
                   "[--obs SPEC] [--probe-csv OUT]\n";
      return 0;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }

  if (!month_mode.empty()) {
    register_custom_grouped();
    return run_month_scale(month_mode, month_predictor, max_rss_mb,
                           json_path, obs_value, probe_csv_path);
  }
  if (!obs_value.empty() || !probe_csv_path.empty() ||
      !month_predictor.empty()) {
    std::cerr << "--obs/--probe-csv/--predictor only apply to --month-scale "
                 "runs\n";
    return 2;
  }
  // A filtered run produces a partial document; gating it against a full
  // baseline would report every skipped metric as missing.
  if (!only.empty() && !check_path.empty()) {
    std::cerr << "--only cannot be combined with --check\n";
    return 2;
  }

  const auto metrics = run_matrix(reps, only);
  if (metrics.empty()) {
    std::cerr << "--only '" << only << "' matched no metrics\n";
    return 2;
  }

  std::printf("%-28s %12s %16s\n", "metric", "wall (ms)", "throughput");
  for (const auto& m : metrics) {
    std::printf("%-28s %12.2f %12.3g %s\n", m.name.c_str(), m.wall_ms,
                m.throughput, m.unit.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    write_json(os, metrics);
    std::cout << "# wrote " << json_path << "\n";
  }
  if (!update_path.empty()) {
    std::ofstream os(update_path);
    if (!os) {
      std::cerr << "cannot write " << update_path << "\n";
      return 2;
    }
    write_json(os, metrics);
    std::cout << "# baseline updated: " << update_path << "\n";
  }
  if (!check_path.empty()) {
    try {
      return check_against(metrics, check_path, tolerance);
    } catch (const std::exception& e) {
      std::cerr << "baseline check failed: " << e.what() << "\n";
      return 2;
    }
  }
  return 0;
}
