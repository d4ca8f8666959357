// Exact work counters of eight replays: the perf gate on replay work. The
// golden fixtures pin what a replay computes; these pin how much work it
// takes to compute it. A replay that stops compressing checkpoint runs
// (every checkpoint through the engine) writes the same fixture bytes, yet
// dispatches 14x the events of the hour replay here; one that stops reusing
// freed task spans writes them too, yet grows its task table to every task
// it admits. Every counter below is deterministic, so a mismatch is a real
// change in the work done: refresh a literal only together with the reason
// for the change. Wall time is not gated here; perfbench/ times these layers.
//
// Each case runs the hour spec (seed 7, one hour at 0.116 arrivals/s) plus a
// few keys, through ScenarioRunner with a fresh ReplayWorkspace, and pins:
//   - the registry lines of the layers a replay feeds (sim, sched, ingest):
//     events popped, inline checkpoint runs, placement scans, decide()
//     calls;
//   - the artifact's events, checkpoints, failures, trace reads, rows read;
//   - the workspace's task rows and job slots after the run. The workspace
//     is cleared at the start of a run, so these are the run's high-water
//     marks, the allocation proxy `perf_baseline --month-scale` and
//     perfbench's sim.*_high_water rows report.
//
// The cases: the plain hour; the four schedulers that hold jobs back
// (backfill EASY and conservative, preempt with requeue and with
// checkpoint) on a 4x2-VM cluster small enough to queue; DM-NFS, which
// prices each checkpoint by the writes in flight on its server, so every
// checkpoint there costs its own due event (but no event for its write's
// end: the device retires its writes itself); a 6-h Google-format log
// through the ingest parser; and a day at the hour's seed and rate,
// streamed from the generator (it stands in for the month, too slow for a
// Debug suite). The conservative literals pin today's behaviour, in which a
// running job past its estimate counts as memory free now; fixing that will
// move them.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "ingest/google_source.hpp"
#include "obs/stats.hpp"
#include "sim/simulation.hpp"
#include "trace/generator.hpp"

namespace cloudcr {
namespace {

constexpr const char* kHourSpec =
    "trace.seed=7\n"
    "trace.horizon_s=3600\n"
    "trace.arrival_rate=0.116\n"
    "obs=stats\n";

constexpr const char* kSmallCluster =
    "cluster.hosts=4\n"
    "cluster.vms_per_host=2\n";

/// Artifact-side counts of one run, and its workspace high-water marks.
struct Counts {
  std::size_t events_dispatched;
  std::size_t total_checkpoints;
  std::size_t total_failures;
  std::size_t trace_reads;
  std::size_t rows_read;
  std::size_t task_rows;
  std::size_t job_slots;
};

/// The registry's lines for the layers a replay feeds. Host timers and any
/// other layer's stats are not this test's subject.
std::string replay_registry_text() {
  std::ostringstream all;
  obs::write_stats_text(all, /*include_timers=*/false);
  std::istringstream lines(all.str());
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    for (const char* layer : {"sim.", "sched.", "ingest."}) {
      if (line.rfind(layer, 0) == 0) {
        out += line;
        out += '\n';
      }
    }
  }
  return out;
}

/// Runs kHourSpec plus `extra_spec` and compares its replay-layer registry
/// lines, artifact counts and workspace high-water marks with the pinned
/// values.
void expect_pinned(const std::string& extra_spec, const std::string& registry,
                   const Counts& counts) {
  obs::reset_stats();
  sim::ReplayWorkspace ws;
  api::RunHooks hooks;
  hooks.workspace = &ws;
  const std::string text = std::string(kHourSpec) + extra_spec;
  const auto artifact =
      api::ScenarioRunner(api::parse_scenario(text)).run(hooks);
  const std::string actual = replay_registry_text();
  obs::reset_stats();
  EXPECT_EQ(actual, registry);
  EXPECT_EQ(artifact.result.events_dispatched, counts.events_dispatched);
  EXPECT_EQ(artifact.result.total_checkpoints, counts.total_checkpoints);
  EXPECT_EQ(artifact.result.total_failures, counts.total_failures);
  EXPECT_EQ(artifact.trace_reads, counts.trace_reads);
  EXPECT_EQ(artifact.rows_read, counts.rows_read);
  EXPECT_EQ(ws.tasks.size(), counts.task_rows);
  EXPECT_EQ(ws.jobs.size(), counts.job_slots);
}

/// A Google-format task_events log of a 6-h synthetic trace (seed 20130917,
/// no sample-job filter, no long services), written once per process under
/// a name of this suite's own: ctest runs suites in parallel.
std::string google_fixture() {
  static const std::string path = [] {
    trace::GeneratorConfig cfg;
    cfg.seed = 20130917;
    cfg.horizon_s = 6.0 * 3600.0;
    cfg.sample_job_filter = false;
    cfg.workload.long_service_fraction = 0.0;
    const std::string file = "obs_work_counters_google_task_events.csv";
    std::ofstream os(file);
    ingest::write_task_events(os, trace::TraceGenerator(cfg).generate());
    return file;
  }();
  return path;
}

TEST(WorkCounters, HourReplay) {
  const std::string registry =
      "ingest.stream_batches counter 1\n"
      "sched.decide_calls counter 0\n"
      "sched.wakeups counter 0\n"
      "sim.ckpt_events_replayed counter 29\n"
      "sim.ckpt_runs_compressed counter 77530\n"
      "sim.events_popped counter 5721\n"
      "sim.placement_scans counter 1799\n"
      "sim.queue_rebuilds counter 5\n"
      "sim.rows_recycled counter 656\n";
  expect_pinned("", registry, {5721, 77559, 1495, 2, 1312, 390, 94});
}

TEST(WorkCounters, HourReplayEasyBackfill) {
  const std::string registry =
      "ingest.stream_batches counter 1\n"
      "sched.decide_calls counter 296\n"
      "sched.wakeups counter 3\n"
      "sim.ckpt_events_replayed counter 29\n"
      "sim.ckpt_runs_compressed counter 77530\n"
      "sim.events_popped counter 5724\n"
      "sim.placement_scans counter 1816\n"
      "sim.queue_rebuilds counter 5\n"
      "sim.rows_recycled counter 656\n";
  expect_pinned(std::string("sched=backfill:easy\n") + kSmallCluster, registry,
                {5724, 77559, 1495, 2, 1312, 397, 102});
}

TEST(WorkCounters, HourReplayConservativeBackfill) {
  const std::string registry =
      "ingest.stream_batches counter 1\n"
      "sched.decide_calls counter 236\n"
      "sched.wakeups counter 3\n"
      "sim.ckpt_events_replayed counter 29\n"
      "sim.ckpt_runs_compressed counter 77530\n"
      "sim.events_popped counter 5724\n"
      "sim.placement_scans counter 1846\n"
      "sim.queue_rebuilds counter 5\n"
      "sim.rows_recycled counter 656\n";
  expect_pinned(std::string("sched=backfill:conservative\n") + kSmallCluster,
                registry, {5724, 77559, 1495, 2, 1312, 397, 100});
}

TEST(WorkCounters, HourReplayPreemptRequeue) {
  const std::string registry =
      "ingest.stream_batches counter 1\n"
      "sched.decide_calls counter 229\n"
      "sched.wakeups counter 0\n"
      "sim.ckpt_events_replayed counter 29\n"
      "sim.ckpt_runs_compressed counter 80849\n"
      "sim.events_popped counter 5864\n"
      "sim.placement_scans counter 1891\n"
      "sim.queue_rebuilds counter 5\n"
      "sim.rows_recycled counter 656\n";
  expect_pinned(std::string("sched=preempt\n") + kSmallCluster, registry,
                {5864, 80878, 1513, 2, 1312, 403, 102});
}

TEST(WorkCounters, HourReplayPreemptCheckpoint) {
  const std::string registry =
      "ingest.stream_batches counter 1\n"
      "sched.decide_calls counter 229\n"
      "sched.wakeups counter 0\n"
      "sim.ckpt_events_replayed counter 29\n"
      "sim.ckpt_runs_compressed counter 77530\n"
      "sim.events_popped counter 5791\n"
      "sim.placement_scans counter 1864\n"
      "sim.queue_rebuilds counter 5\n"
      "sim.rows_recycled counter 656\n";
  expect_pinned(std::string("sched=preempt:ckpt\n") + kSmallCluster, registry,
                {5791, 77559, 1496, 2, 1312, 398, 99});
}

TEST(WorkCounters, HourReplayDmNfs) {
  const std::string spec =
      "placement=shared\n"
      "shared_device=dm_nfs\n";
  const std::string registry =
      "ingest.stream_batches counter 1\n"
      "sched.decide_calls counter 0\n"
      "sched.wakeups counter 0\n"
      "sim.ckpt_events_replayed counter 70\n"
      "sim.ckpt_runs_compressed counter 34179\n"
      "sim.events_popped counter 38199\n"
      "sim.placement_scans counter 1844\n"
      "sim.queue_rebuilds counter 6\n"
      "sim.rows_recycled counter 656\n";
  expect_pinned(spec, registry, {38199, 34249, 1540, 2, 1312, 393, 97});
}

TEST(WorkCounters, GoogleSixHourReplay) {
  // One parse of the log feeds both estimation and replay: 1 trace read.
  const std::string registry =
      "ingest.stream_batches counter 2\n"
      "sched.decide_calls counter 0\n"
      "sched.wakeups counter 0\n"
      "sim.ckpt_events_replayed counter 223\n"
      "sim.ckpt_runs_compressed counter 214459\n"
      "sim.events_popped counter 33128\n"
      "sim.placement_scans counter 9993\n"
      "sim.queue_rebuilds counter 5\n"
      "sim.rows_recycled counter 3612\n";
  expect_pinned("trace.source=google:" + google_fixture() + "\n", registry,
                {33128, 214682, 8740, 1, 6799, 537, 94});
}

TEST(WorkCounters, StreamedDayReplay) {
  const std::string registry =
      "ingest.stream_batches counter 6\n"
      "sched.decide_calls counter 0\n"
      "sched.wakeups counter 0\n"
      "sim.ckpt_events_replayed counter 915\n"
      "sim.ckpt_runs_compressed counter 1836460\n"
      "sim.events_popped counter 136107\n"
      "sim.placement_scans counter 43924\n"
      "sim.queue_rebuilds counter 9\n"
      "sim.rows_recycled counter 14620\n";
  expect_pinned("trace.horizon_s=86400\n", registry,
                {136107, 1837375, 36497, 2, 29240, 2273, 542});
}

}  // namespace
}  // namespace cloudcr
