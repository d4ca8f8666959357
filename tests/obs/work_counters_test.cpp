// Exact work counters of three hour replays. The golden fixtures pin what a
// replay computes; these pin how much work it takes to compute it. A replay
// that stops compressing checkpoint runs (every checkpoint through the
// engine) writes the same fixture bytes, yet dispatches 14x the events of
// the hour replay here. Every counter below is deterministic, so a mismatch
// is a real change in the work done: refresh a literal only together with
// the reason for the change.
//
// The hour spec is perf_baseline's replay_hour. The backfill spec drives the
// scheduler's decide() loop on a cluster small enough to hold jobs back. The
// DM-NFS spec prices each checkpoint by per-server load, so every checkpoint
// costs a device-completion event and no checkpoint run continues inline.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "obs/stats.hpp"

namespace cloudcr {
namespace {

constexpr const char* kHourSpec =
    "trace.seed=7\n"
    "trace.horizon_s=3600\n"
    "trace.arrival_rate=0.116\n"
    "obs=stats\n";

/// Artifact-side counts of one run.
struct Counts {
  std::size_t events_dispatched;
  std::size_t total_checkpoints;
  std::size_t total_failures;
  std::size_t trace_reads;
  std::size_t rows_read;
};

/// The registry's lines for the layers a replay feeds. Host timers and any
/// other layer's stats are not this test's subject.
std::string replay_registry_text() {
  std::ostringstream all;
  obs::write_stats_text(all, /*include_timers=*/false);
  std::istringstream lines(all.str());
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    for (const char* layer : {"sim.", "sched.", "ingest.", "storage."}) {
      if (line.rfind(layer, 0) == 0) {
        out += line;
        out += '\n';
      }
    }
  }
  return out;
}

/// Runs kHourSpec plus `extra_spec` and compares its replay-layer registry
/// lines and artifact counts with the pinned values.
void expect_pinned(const std::string& extra_spec, const std::string& registry,
                   const Counts& counts) {
  obs::reset_stats();
  const std::string text = std::string(kHourSpec) + extra_spec;
  const auto artifact = api::run_scenario(api::parse_scenario(text));
  const std::string actual = replay_registry_text();
  obs::reset_stats();
  EXPECT_EQ(actual, registry);
  EXPECT_EQ(artifact.result.events_dispatched, counts.events_dispatched);
  EXPECT_EQ(artifact.result.total_checkpoints, counts.total_checkpoints);
  EXPECT_EQ(artifact.result.total_failures, counts.total_failures);
  EXPECT_EQ(artifact.trace_reads, counts.trace_reads);
  EXPECT_EQ(artifact.rows_read, counts.rows_read);
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
      "sim.rows_recycled counter 656\n"
      "storage.opslab_high_water gauge 1\n";
  expect_pinned("", registry, {5721, 77559, 1495, 2, 1312});
}

TEST(WorkCounters, HourReplayEasyBackfill) {
  const std::string spec =
      "sched=backfill:easy\n"
      "cluster.hosts=4\n"
      "cluster.vms_per_host=2\n";
  const std::string registry =
      "ingest.stream_batches counter 1\n"
      "sched.decide_calls counter 296\n"
      "sched.wakeups counter 3\n"
      "sim.ckpt_events_replayed counter 29\n"
      "sim.ckpt_runs_compressed counter 77530\n"
      "sim.events_popped counter 5724\n"
      "sim.placement_scans counter 1816\n"
      "sim.queue_rebuilds counter 5\n"
      "sim.rows_recycled counter 656\n"
      "storage.opslab_high_water gauge 1\n";
  expect_pinned(spec, registry, {5724, 77559, 1495, 2, 1312});
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
      "sim.events_popped counter 72448\n"
      "sim.placement_scans counter 1844\n"
      "sim.queue_rebuilds counter 6\n"
      "sim.rows_recycled counter 656\n"
      "storage.opslab_high_water gauge 20\n";
  expect_pinned(spec, registry, {72448, 34249, 1540, 2, 1312});
}

}  // namespace
}  // namespace cloudcr
