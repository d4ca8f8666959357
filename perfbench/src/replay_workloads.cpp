// month_stream and trace_sched: one scenario replayed through
// ScenarioRunner::run_streamed, pass after pass, for the measured seconds.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "ingest/google_source.hpp"
#include "layers.hpp"
#include "report/scenarios.hpp"
#include "trace/generator.hpp"

namespace perfbench {

namespace api = cloudcr::api;
namespace sim = cloudcr::sim;
namespace trace = cloudcr::trace;

api::ScenarioSpec month_spec(std::uint64_t seed, double horizon_s) {
  api::ScenarioSpec spec;
  spec.name = "perfbench_month";
  spec.trace.seed = mix_seed(seed) % 1000000007ULL;
  spec.trace.horizon_s = horizon_s;
  spec.trace.arrival_rate = 0.116;
  spec.trace.sample_job_filter = false;
  spec.trace.long_service_fraction = 0.0;
  spec.predictor = "oracle";
  spec.policy = "formula3";
  spec.sched = "fcfs";
  return spec;
}

std::size_t write_sched_log(const std::string& path) {
  trace::GeneratorConfig cfg;
  cfg.seed = cloudcr::report::kTraceSeed + 7;  // sched01/02's trace seed
  cfg.horizon_s = 2.0 * 86400.0;
  cfg.arrival_rate = cloudcr::report::kArrivalRate;
  cfg.sample_job_filter = false;  // the scenario filters at replay time
  cfg.workload.long_service_fraction = 0.0;
  const trace::Trace generated = trace::TraceGenerator(cfg).generate();
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::size_t rows = cloudcr::ingest::write_task_events(os, generated);
  os.close();
  if (!os) throw std::runtime_error("short write to " + path);
  return rows;
}

api::ScenarioSpec sched_spec(const std::string& log_path) {
  api::ScenarioSpec spec;
  spec.name = "perfbench_trace_sched";
  spec.trace.source = "google:" + log_path;
  spec.trace.replay_max_task_length_s = cloudcr::report::kReplayMaxTaskLength;
  spec.policy = "formula3";
  spec.predictor = "grouped";
  spec.sched = "backfill:conservative";
  spec.cluster.hosts = 4;
  spec.cluster.vms_per_host = 2;
  return spec;
}

namespace {

struct ReplayPlan {
  api::ScenarioSpec spec;
  std::function<void()> set_up;  ///< (re)makes the spec's inputs
  SetupTimer setups;             ///< the workload runs the first set-up
  std::vector<std::string> notes;
};

/// Untraced: run_streamed until the seconds are spent, setting up again
/// between passes when due; every pass must reproduce the first pass's
/// digest.
Outcome measure(const Args& args, ReplayPlan& plan) {
  Outcome out;
  out.notes = std::move(plan.notes);
  std::vector<double> walls;
  std::vector<double> rss;
  RunDigest first;
  const auto begin = Clock::now();
  do {
    while (plan.setups.due()) plan.setups.run(plan.set_up);
    ++out.attempted;
    try {
      reset_peak_rss();
      const auto t0 = Clock::now();
      api::RunArtifact artifact = api::ScenarioRunner(plan.spec).run_streamed();
      walls.push_back(seconds_since(t0));
      rss.push_back(peak_rss_mb());
      // The first pass is digested in full (artifact JSON included); later
      // passes must reproduce its summary, which needs no serialization.
      if (walls.size() == 1) {
        first = digest_of(artifact);
        out.notes.push_back("digest seed=" + std::to_string(args.seed) + " " +
                            first.str());
        if (first.jobs == 0 || first.events == 0) out.fail("empty replay");
      } else {
        RunDigest d = summary_of(artifact);
        d.json_hash = first.json_hash;
        if (!(d == first)) {
          out.fail("pass " + std::to_string(walls.size()) +
                   " differs: " + d.str());
        }
      }
    } catch (const std::exception& e) {
      out.fail(std::string("replay threw: ") + e.what());
    }
  } while (seconds_since(begin) < args.seconds);

  const double setup_s = median(plan.setups.samples());
  const double wall_s = median(walls);
  const double rss_mb = median(rss);
  out.notes.push_back("set-ups (s): " + list_values(plan.setups.samples()));
  out.notes.push_back("passes (s): " + list_values(walls));
  out.notes.push_back("pass peak RSS (MB): " + list_values(rss));
  out.metrics = {{"setup_s", setup_s, "s"},
                 {"wall_s", wall_s, "s"},
                 {"peak_rss_mb", rss_mb, "MB"}};
  return out;
}

/// Traced: alternate an untraced run_streamed pass with a traced rebuild
/// until the seconds are spent. Each pair must agree byte for byte; the
/// per-layer table comes from the traced pass of median wall time.
Outcome measure_traced(const Args& args, ReplayPlan& plan) {
  Outcome out;
  out.notes = std::move(plan.notes);
  std::vector<double> untraced_walls;
  std::vector<LayerReport> reports;
  SpanLog log;
  std::uint64_t id = 0;
  const auto begin = Clock::now();
  do {
    ++id;
    try {
      set_tracing(false);
      out.attempted += 2;
      auto t0 = Clock::now();
      api::RunArtifact plain = api::ScenarioRunner(plan.spec).run_streamed();
      untraced_walls.push_back(seconds_since(t0));
      const RunDigest plain_digest = digest_of(plain);

      set_tracing(true);
      reset_tallies();
      sim::ReplayWorkspace workspace;
      ReplayTimes times;
      api::RunArtifact traced =
          traced_run_streamed(plan.spec, &workspace, log, id, times);
      const LayerTally tally = total_tally();
      set_tracing(false);
      const RunDigest traced_digest = digest_of(traced);
      if (!(traced_digest == plain_digest)) {
        out.fail("traced pass differs from untraced: " + traced_digest.str() +
                 " vs " + plain_digest.str());
      }
      if (id == 1) {
        out.notes.push_back("digest seed=" + std::to_string(args.seed) + " " +
                            plain_digest.str());
      }

      LayerReport r;
      r.tally = tally;
      r.rows = tally.rows;
      r.ingest_pull_s = static_cast<double>(tally.pull_ns) * 1e-9;
      r.ingest_parse_s = times.ingest_open_s;
      r.estimation_s = times.estimation_s;
      const double children_s =
          static_cast<double>(tally.pull_ns + tally.predictor_ns +
                              tally.policy_ns + tally.sched_ns) *
          1e-9;
      r.sim_self_s = times.run_stream_s - children_s;
      r.batch_busy_s = traced.estimation_wall_s + traced.wall_time_s;
      r.batch_efficiency = r.batch_busy_s / times.pass_s;
      r.tail_s = times.tail_s;
      r.wall_s = times.pass_s;
      r.untimed_s = times.pass_s - times.ingest_open_s - times.estimation_s -
                    times.run_stream_s - times.tail_s;
      add_result_counts(r, traced.result);
      r.task_rows_high_water = workspace.tasks.size();
      r.job_slots_high_water = workspace.jobs.size();
      r.artifacts = 1;
      r.chunks = times.chunks;
      reports.push_back(r);
    } catch (const std::exception& e) {
      set_tracing(false);
      out.fail(std::string("replay threw: ") + e.what());
    }
  } while (seconds_since(begin) < args.seconds);

  LayerReport chosen = median_report(reports);
  chosen.overhead_s = chosen.wall_s - median(untraced_walls);
  chosen.cache_key_us = cache_key_us({plan.spec});
  chosen.spans = log.size();
  if (!args.trace_out.empty() && !log.write_json(args.trace_out)) {
    out.notes.push_back("could not write spans to " + args.trace_out);
  }
  out.metrics = layer_metrics(chosen);
  out.notes.push_back("traced passes: " + std::to_string(reports.size()) +
                      ", untraced wall median " +
                      std::to_string(median(untraced_walls)) + " s");
  return out;
}

Outcome run_plan(const Args& args, ReplayPlan& plan) {
  return args.trace ? measure_traced(args, plan) : measure(args, plan);
}

}  // namespace

Outcome run_month_stream(const Args& args) {
  ReplayPlan plan;
  plan.spec = month_spec(args.seed, 30.0 * 86400.0);
  // Set-up: warm the allocator and registries with a streamed replay of the
  // month's first day.
  plan.set_up = [day = month_spec(args.seed, 86400.0)] {
    const api::RunArtifact warm = api::ScenarioRunner(day).run_streamed();
    if (warm.trace_jobs == 0) throw std::runtime_error("empty warm-up day");
  };
  plan.setups.run(plan.set_up);
  plan.notes.push_back("input: synthetic 30-day month, trace seed " +
                       std::to_string(plan.spec.trace.seed) +
                       ", predictor oracle, sched fcfs, policy formula3");
  return run_plan(args, plan);
}

Outcome run_trace_sched(const Args& args) {
  // The log is the same for every seed. On the contended 4x2-VM cluster the
  // replay cost grows much faster than the offered load (the pending queue
  // saturates and conservative backfill re-derives every reservation on
  // each decide() call), so logs drawn per seed moved the pass time by more
  // than the largest bound the benchmark may set. Set-up still writes it.
  ReplayPlan plan;
  const std::string path =
      (std::filesystem::path(args.tmp_dir) / "task_events.csv").string();
  std::size_t rows = 0;
  plan.spec = sched_spec(path);
  plan.set_up = [&rows, path] { rows = write_sched_log(path); };
  plan.setups.run(plan.set_up);
  plan.notes.push_back("input: 2-day Google task_events log (fixed trace seed), " +
                       std::to_string(rows) +
                       " rows; predictor grouped, sched backfill:conservative, "
                       "4x2 VMs");
  Outcome out = run_plan(args, plan);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return out;
}

}  // namespace perfbench
