// Golden-result harness: the replay engine's observable output is pinned
// byte-for-byte against fixtures captured from the pre-overhaul engine.
//
// The paired-comparison methodology (same kill sequence under every policy)
// only survives hot-path refactors if placement order, event ordering, RNG
// consumption, and accounting all stay bit-identical. Each fixture is one
// pinned ScenarioSpec rendered to a deterministic text document (summary
// counters + one JSON line per JobOutcome, max_digits10 doubles). Any
// engine change that alters a single bit of any outcome fails here.
//
// Refreshing (only when an output change is *intended* and reviewed):
//   CLOUDCR_UPDATE_GOLDEN=1 ./sim_golden_replay_test

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/runner.hpp"
#include "metrics/export.hpp"

#ifndef CLOUDCR_GOLDEN_DIR
#error "CLOUDCR_GOLDEN_DIR must be defined by the build"
#endif

namespace cloudcr {
namespace {

struct GoldenCase {
  const char* file;  // fixture name under tests/golden/
  api::ScenarioSpec spec;
};

api::ScenarioSpec base_spec(const char* name, std::uint64_t trace_seed) {
  api::ScenarioSpec spec;
  spec.name = name;
  spec.trace.seed = trace_seed;
  spec.trace.horizon_s = 2.0 * 3600.0;
  spec.trace.arrival_rate = 0.08;
  return spec;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;

  {
    GoldenCase c{"replay_f3_auto_adaptive.txt",
                 base_spec("f3_auto_adaptive", 101)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"replay_none_shared_nfs_delay.txt",
                 base_spec("none_shared_nfs_delay", 101)};
    c.spec.policy = "none";
    c.spec.placement = sim::PlacementMode::kForceShared;
    c.spec.shared_device = storage::DeviceKind::kSharedNfs;
    c.spec.detection_delay_s = 30.0;
    cases.push_back(c);
  }
  {
    GoldenCase c{"replay_young_local_static_prio.txt",
                 base_spec("young_local_static_prio", 202)};
    c.spec.policy = "young";
    c.spec.placement = sim::PlacementMode::kForceLocal;
    c.spec.adaptation = core::AdaptationMode::kStatic;
    c.spec.trace.priority_change_midway = true;
    cases.push_back(c);
  }
  {
    GoldenCase c{"replay_fixed_noise_full.txt",
                 base_spec("fixed_noise_full", 303)};
    c.spec.policy = "fixed:45";
    c.spec.predictor = "oracle";
    c.spec.estimation = api::EstimationSource::kFull;
    c.spec.storage_noise = 0.10;
    c.spec.sim_seed = 77;
    cases.push_back(c);
  }
  {
    GoldenCase c{"replay_daly_restricted.txt",
                 base_spec("daly_restricted", 404)};
    c.spec.policy = "daly";
    c.spec.trace.replay_max_task_length_s = 6.0 * 3600.0;
    c.spec.trace.long_service_fraction = 0.08;
    cases.push_back(c);
  }
  {
    GoldenCase c{"replay_small_cluster_pressure.txt",
                 base_spec("small_cluster_pressure", 505)};
    c.spec.cluster.hosts = 4;
    c.spec.cluster.vms_per_host = 2;
    c.spec.trace.arrival_rate = 0.05;
    cases.push_back(c);
  }
  {
    // Every checkpoint is priced by the writes in flight on a DM-NFS server
    // drawn per write, and the noise draws interleave with that load.
    GoldenCase c{"replay_dmnfs_contended.txt",
                 base_spec("dmnfs_contended", 606)};
    c.spec.placement = sim::PlacementMode::kForceShared;
    c.spec.shared_device = storage::DeviceKind::kDmNfs;
    c.spec.cluster.hosts = 4;
    c.spec.cluster.vms_per_host = 2;
    c.spec.storage_noise = 0.10;
    cases.push_back(c);
  }
  {
    // Every checkpoint contends on the one shared NFS server.
    GoldenCase c{"replay_shared_nfs_f3.txt",
                 base_spec("shared_nfs_f3", 707)};
    c.spec.policy = "formula3";
    c.spec.placement = sim::PlacementMode::kForceShared;
    c.spec.shared_device = storage::DeviceKind::kSharedNfs;
    cases.push_back(c);
  }

  return cases;
}

/// Renders everything the engine computes into one deterministic document.
/// events_dispatched is deliberately absent: it is an engine diagnostic, not
/// a paper output, and the hot path is free to elide bookkeeping events that
/// cannot influence results.
std::string render(const api::RunArtifact& artifact) {
  std::ostringstream os;
  const sim::SimResult& r = artifact.result;
  os << "scenario " << artifact.spec.name << "\n"
     << "jobs=" << artifact.trace_jobs << " tasks=" << artifact.trace_tasks
     << "\n"
     << "makespan=" << metrics::json_double(r.makespan_s)
     << " incomplete=" << r.incomplete_jobs
     << " checkpoints=" << r.total_checkpoints
     << " failures=" << r.total_failures << "\n";
  for (const auto& outcome : r.outcomes) {
    metrics::write_outcome_json(os, outcome);
    os << "\n";
  }
  return os.str();
}

std::string golden_path(const char* file) {
  return std::string(CLOUDCR_GOLDEN_DIR) + "/" + file;
}

bool update_mode() {
  const char* env = std::getenv("CLOUDCR_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

class GoldenReplay : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenReplay, MatchesFixtureByteForByte) {
  const GoldenCase& c = GetParam();
  const std::string actual = render(api::run_scenario(c.spec));
  const std::string path = golden_path(c.file);

  if (update_mode()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is) << "missing fixture " << path
                  << " (run with CLOUDCR_UPDATE_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "replay output diverged from the pinned engine behavior ("
      << c.file << ")";
}

INSTANTIATE_TEST_SUITE_P(Pinned, GoldenReplay,
                         ::testing::ValuesIn(golden_cases()),
                         [](const auto& info) {
                           return std::string(info.param.spec.name);
                         });

}  // namespace
}  // namespace cloudcr
