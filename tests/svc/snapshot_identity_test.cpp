// The snapshot==replay house invariant, pinned end-to-end through the
// service layer: a what-if request with empty overrides — resume the base
// scenario from an engine snapshot parked at fork_at — must produce an
// artifact byte-identical (including every per-job outcome row) to a plain
// replay from time zero. The grid forks at five seeded-random points per
// scenario across every built-in source family (synthetic generator,
// native csv, slurm table), three simulation seeds, and all three
// scheduler families (fcfs, backfill:easy, preempt:ckpt), so the snapshot
// has to faithfully carry the event queue, task/controller state, RNG
// stream, storage-backend occupancy, and scheduler queue through the fork.
// Two more inputs make sure the event kinds that are not task wakeups cross
// a fork: a detection delay (killed tasks wait out a queued redispatch) and
// a loaded backfill cluster (a queued scheduler wake); a capture through
// ScenarioRunner::run_parked checks that some fork really holds each.
//
// A second suite pins the other direction: at fork_at=0 an *overridden*
// resume (policy / detection-delay swap) must equal a from-scratch run of
// the overridden spec — the snapshot changes where a what-if starts, never
// what its knobs mean. It also sends concurrent what-ifs at one fork key,
// which must answer exactly as the same requests sent alone.

#include <atomic>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/artifact_io.hpp"
#include "api/fingerprint.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "svc/service.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

namespace cloudcr::svc {
namespace {

/// Canonical bytes of an artifact with the host-timing fields (the only
/// nondeterministic ones) zeroed; includes the full outcome table.
std::string canonical_json(api::RunArtifact artifact) {
  artifact.wall_time_s = 0.0;
  artifact.estimation_wall_s = 0.0;
  artifact.peak_rss_mb = 0.0;
  std::ostringstream os;
  api::write_artifact_json(os, artifact, /*include_outcomes=*/true);
  return os.str();
}

std::string write_csv_fixture(std::uint64_t seed) {
  const std::string path = testing::TempDir() + "snap_identity_" +
                           std::to_string(seed) + ".csv";
  trace::GeneratorConfig cfg;
  cfg.seed = seed + 1000;
  cfg.horizon_s = 1800.0;
  cfg.arrival_rate = 0.08;
  cfg.sample_job_filter = false;
  cfg.workload.long_service_fraction = 0.0;
  trace::write_csv_file(path, trace::TraceGenerator(cfg).generate());
  return path;
}

/// A deterministic Slurm-style table: two dozen jobs spread over the first
/// 1500 s so random fork points land before, between, and after arrivals.
std::string write_slurm_fixture(std::uint64_t seed) {
  const std::string path = testing::TempDir() + "snap_identity_" +
                           std::to_string(seed) + ".slurm";
  std::mt19937_64 rng(seed * 7919);
  std::uniform_real_distribution<double> duration(45.0, 400.0);
  std::uniform_int_distribution<int> nodes(1, 2);
  std::uniform_int_distribution<int> priority(1, 9);
  std::ofstream os(path);
  os << "JOBID SUBMIT DURATION NODES MEM_MB PRIORITY\n";
  for (int i = 0; i < 24; ++i) {
    os << (100 + i) << ' ' << (i * 62.5) << ' ' << duration(rng) << ' '
       << nodes(rng) << ' ' << 256 << ' ' << priority(rng) << '\n';
  }
  return path;
}

struct SourcePoint {
  std::string tag;
  std::string source;  ///< TraceSpec::source ("" = synthetic generator)
};

struct GridParam {
  std::uint64_t sim_seed;
  std::string sched;
  double detection_delay_s = 0.0;
  double arrival_rate = 0.08;  ///< synthetic source only
  std::size_t hosts = 4;       ///< two VMs each
};

std::vector<SourcePoint> source_points(std::uint64_t sim_seed) {
  return {
      {"synthetic", ""},
      {"csv", "csv:" + write_csv_fixture(sim_seed)},
      {"slurm", "slurm:" + write_slurm_fixture(sim_seed)},
  };
}

api::ScenarioSpec make_spec(const SourcePoint& point, const GridParam& p) {
  api::ScenarioSpec spec;
  spec.name = "snap_" + point.tag + "_s" + std::to_string(p.sim_seed);
  spec.policy = "formula3";
  spec.sched = p.sched;
  spec.sim_seed = p.sim_seed;
  spec.detection_delay_s = p.detection_delay_s;
  // A small cluster so the backfill/preempt points actually queue work.
  spec.cluster.hosts = p.hosts;
  spec.cluster.vms_per_host = 2;
  if (point.source.empty()) {
    spec.trace.seed = p.sim_seed;
    spec.trace.horizon_s = 1800.0;
    spec.trace.arrival_rate = p.arrival_rate;
  } else {
    spec.trace.source = point.source;
  }
  return spec;
}

/// The five seeded fork points of one grid scenario.
std::vector<double> fork_points(const GridParam& p, const SourcePoint& point) {
  std::mt19937_64 rng(p.sim_seed ^ api::fnv1a64(point.tag + p.sched));
  std::uniform_real_distribution<double> fork_point(0.0, 1600.0);
  std::vector<double> forks;
  for (int fork = 0; fork < 5; ++fork) forks.push_back(fork_point(rng));
  return forks;
}

const GridParam kDelayPoint{11u, "fcfs", 60.0};
const GridParam kLoadPoint{13u, "backfill:easy", 0.0, 0.3, 2};

class SnapshotIdentityTest : public testing::TestWithParam<GridParam> {};

TEST_P(SnapshotIdentityTest, ForkedResumeMatchesReplayFromZero) {
  const GridParam p = GetParam();
  for (const SourcePoint& point : source_points(p.sim_seed)) {
    const api::ScenarioSpec spec = make_spec(point, p);
    const std::string reference =
        canonical_json(api::ScenarioRunner(spec).run_streamed());

    SimService service;
    for (const double fork_at : fork_points(p, point)) {
      WhatIfRequest request;
      request.base = spec;
      request.fork_at = fork_at;
      const ServiceReply reply = service.whatif(request);
      EXPECT_EQ(canonical_json(*reply.artifact), reference)
          << point.tag << " sched='" << p.sched << "' seed=" << p.sim_seed
          << " fork_at=" << request.fork_at;
    }
    // Each fork parked one snapshot and banked the base artifact once; the
    // resumed tails never re-ran the estimation pass of a fresh replay.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.snapshot_captures, 5u) << point.tag;
    EXPECT_EQ(stats.snapshot_resumes, 5u) << point.tag;
    EXPECT_GT(stats.snapshot_bytes, 0u) << point.tag;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SnapshotIdentityTest,
    testing::Values(GridParam{11u, "fcfs"}, GridParam{12u, "fcfs"},
                    GridParam{13u, "fcfs"},
                    GridParam{11u, "backfill:easy"},
                    GridParam{12u, "backfill:easy"},
                    GridParam{13u, "backfill:easy"},
                    GridParam{11u, "preempt:ckpt"},
                    GridParam{12u, "preempt:ckpt"},
                    GridParam{13u, "preempt:ckpt"},
                    kDelayPoint,
                    kLoadPoint),
    [](const testing::TestParamInfo<GridParam>& info) {
      std::string sched = info.param.sched;
      for (char& c : sched) {
        if (c == ':') c = '_';
      }
      std::string name = sched + "_seed" + std::to_string(info.param.sim_seed);
      if (info.param.detection_delay_s > 0.0) name += "_delayed";
      if (info.param.hosts != 4) name += "_loaded";
      return name;
    });

// The delay and load inputs of the grid fork with the two non-wakeup event
// kinds queued: some fork holds a killed task waiting out its detection
// delay (its redispatch is queued), and some fork holds a scheduler wake.
// Captured through the same parked replay the service resumes from, at the
// grid's own fork points.
TEST(SnapshotIdentityTest, SomeForksHoldNonWakeupEvents) {
  const auto count_forks = [](const GridParam& p, auto&& holds) {
    int forks = 0;
    for (const SourcePoint& point : source_points(p.sim_seed)) {
      const api::ScenarioRunner runner(make_spec(point, p));
      api::ParkedReplay parked;
      for (const double fork_at : fork_points(p, point)) {
        sim::SimSnapshot snap;
        sim::RunControl control;
        control.capture = &snap;
        control.fork_at = fork_at;
        (void)runner.run_parked(parked, control);
        if (holds(snap)) ++forks;
      }
    }
    return forks;
  };
  const auto killed_task_waits = [](const sim::SimSnapshot& snap) {
    for (const sim::HotRow& row : snap.tasks.hot) {
      if (row.phase == sim::TaskPhase::kNotReady &&
          (row.flags & sim::TaskTable::kPayRestart) != 0) {
        return true;
      }
    }
    return false;
  };
  const auto sched_wake_queued = [](const sim::SimSnapshot& snap) {
    return snap.sched_wake_event != sim::TaskTable::kNoEvent;
  };
  EXPECT_GT(count_forks(kDelayPoint, killed_task_waits), 0);
  EXPECT_GT(count_forks(kLoadPoint, sched_wake_queued), 0);
}

// An override applied at fork_at=0 covers the whole run, so the resumed
// artifact must match a from-scratch run of the overridden spec (modulo
// the spec echo, which a what-if reply intentionally keeps as the base).
TEST(SnapshotOverrideTest, FullSpanOverrideMatchesOverriddenSpec) {
  GridParam p{11u, "fcfs"};
  const SourcePoint synthetic{"synthetic", ""};
  const api::ScenarioSpec base = make_spec(synthetic, p);

  api::ScenarioSpec overridden = base;
  overridden.policy = "young";
  overridden.detection_delay_s = 45.0;
  api::RunArtifact reference =
      api::ScenarioRunner(overridden).run_streamed();
  reference.spec = base;  // what-if replies echo the base spec

  SimService service;
  WhatIfRequest request;
  request.base = base;
  request.fork_at = 0.0;
  request.policy = "young";
  request.detection_delay_s = 45.0;
  const ServiceReply reply = service.whatif(request);

  EXPECT_EQ(canonical_json(*reply.artifact), canonical_json(reference));
}

// Distinct override combinations at one fork resume from the *same* parked
// snapshot (one capture, many resumes) and each answer is itself cached.
TEST(SnapshotOverrideTest, OneCaptureServesManyOverrides) {
  GridParam p{12u, "fcfs"};
  const SourcePoint synthetic{"synthetic", ""};

  SimService service;
  for (const char* policy : {"young", "daly", "formula3:exact"}) {
    WhatIfRequest request;
    request.base = make_spec(synthetic, p);
    request.fork_at = 900.0;
    request.policy = policy;
    EXPECT_FALSE(service.whatif(request).cached) << policy;
    EXPECT_TRUE(service.whatif(request).cached) << policy;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_captures, 1u);
  EXPECT_EQ(stats.snapshot_resumes, 3u);
}

// Four clients send what-ifs with distinct overrides against one
// (base, fork_at) at once: one of them captures the snapshot, the others
// wait on the fork entry and resume the same parked replay in turn. Every
// reply must equal the same request answered alone by a fresh service.
TEST(SnapshotOverrideTest, ConcurrentWhatIfsOnOneForkKey) {
  GridParam p{13u, "backfill:easy"};
  const SourcePoint synthetic{"synthetic", ""};
  std::vector<WhatIfRequest> requests(4);
  const char* policies[] = {"", "young", "daly", ""};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].base = make_spec(synthetic, p);
    requests[i].fork_at = 700.0;
    requests[i].policy = policies[i];
  }
  requests[3].detection_delay_s = 30.0;

  std::vector<std::string> alone;
  for (const WhatIfRequest& request : requests) {
    SimService fresh;
    alone.push_back(canonical_json(*fresh.whatif(request).artifact));
  }

  SimService service;
  std::vector<std::string> together(requests.size());
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      together[i] = canonical_json(*service.whatif(requests[i]).artifact);
    });
  }
  go.store(true);
  for (auto& client : clients) client.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(together[i], alone[i]) << "request " << i;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_captures, 1u);
  EXPECT_EQ(stats.snapshot_resumes, 4u);
}

}  // namespace
}  // namespace cloudcr::svc
