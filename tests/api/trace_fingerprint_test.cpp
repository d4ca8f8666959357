// The canonical workload fingerprint that both cache layers key on:
// BatchRunner's shared trace cursors and SimService's artifact LRU. The
// properties pinned here are exactly the sharing/invalidating conditions
// those caches rely on:
//
//   - spelling never splits a cache: key-order-shuffled spec text and
//     generator-only fields on a file-backed source map to one
//     fingerprint / one cache key (the regression for the old
//     spec-substring trace key, which split cursors on any textual
//     difference);
//   - content always invalidates: an edited trace file (size or mtime),
//     a different synthetic seed, or a different replay restriction maps
//     to a fresh fingerprint.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/batch.hpp"
#include "api/fingerprint.hpp"
#include "api/scenario.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

namespace cloudcr::api {
namespace {

std::string write_fixture(const std::string& name, std::uint64_t seed) {
  const std::string path = testing::TempDir() + name;
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.horizon_s = 900.0;
  cfg.arrival_rate = 0.05;
  cfg.sample_job_filter = false;
  trace::write_csv_file(path, trace::TraceGenerator(cfg).generate());
  return path;
}

TEST(TraceFingerprintTest, GeneratorFieldsAreNormalizedForFileSources) {
  const std::string path = write_fixture("fp_norm.csv", 7);

  TraceSpec a;
  a.source = "csv:" + path;
  TraceSpec b = a;
  // Generator-only knobs: a file-backed source ignores them, so they must
  // not split the cursor cache (the historical BatchRunner bug).
  b.seed = a.seed + 99;
  b.horizon_s = a.horizon_s * 2.0;
  b.arrival_rate = 0.5;
  b.long_service_fraction = 0.25;

  EXPECT_EQ(trace_fingerprint(a, true), trace_fingerprint(b, true));
  EXPECT_EQ(trace_fingerprint(a, false), trace_fingerprint(b, false));
}

TEST(TraceFingerprintTest, PostIngestionShapingStillParticipates) {
  const std::string path = write_fixture("fp_shaping.csv", 8);

  TraceSpec a;
  a.source = "csv:" + path;
  TraceSpec b = a;
  b.sample_job_filter = !a.sample_job_filter;
  EXPECT_NE(trace_fingerprint(a, true), trace_fingerprint(b, true));

  // The replay length restriction participates only in the restricted
  // view; the unrestricted (estimation) view shares one trace.
  TraceSpec c = a;
  c.replay_max_task_length_s = 3600.0;
  EXPECT_NE(trace_fingerprint(a, true), trace_fingerprint(c, true));
  EXPECT_EQ(trace_fingerprint(a, false), trace_fingerprint(c, false));
}

TEST(TraceFingerprintTest, SyntheticTupleParticipates) {
  TraceSpec a;
  a.seed = 11;
  TraceSpec b = a;
  b.seed = 12;
  EXPECT_NE(trace_fingerprint(a, true), trace_fingerprint(b, true));

  TraceSpec c = a;
  c.arrival_rate = a.arrival_rate * 2.0;
  EXPECT_NE(trace_fingerprint(a, true), trace_fingerprint(c, true));
}

TEST(TraceFingerprintTest, EditedFileChangesTheFingerprint) {
  const std::string path = write_fixture("fp_edit.csv", 9);
  TraceSpec spec;
  spec.source = "csv:" + path;
  const std::string before = trace_fingerprint(spec, true);

  // Append a byte: the size component changes even if mtime granularity
  // would miss a same-second rewrite.
  {
    std::ofstream os(path, std::ios::app);
    os << "\n";
  }
  EXPECT_NE(trace_fingerprint(spec, true), before);
}

TEST(TraceFingerprintTest, MissingFileFingerprintsAsAbsent) {
  TraceSpec spec;
  spec.source = "csv:" + testing::TempDir() + "fp_does_not_exist.csv";
  // Never throws at fingerprint time (load() reports the error later);
  // distinct missing paths still get distinct fingerprints.
  const std::string a = trace_fingerprint(spec, true);
  spec.source += ".other";
  EXPECT_NE(trace_fingerprint(spec, true), a);
}

TEST(ScenarioCacheKeyTest, KeyOrderInvariantAndSeedSensitive) {
  ScenarioSpec spec;
  spec.name = "fp_key";
  spec.policy = "daly";
  spec.trace.seed = 41;
  spec.trace.horizon_s = 1200.0;

  // Reverse the canonical line order: same spec, same key.
  const std::string canon = serialize(spec);
  std::vector<std::string> lines;
  std::istringstream is(canon);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  std::string reversed;
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
    reversed += *it + "\n";
  }
  EXPECT_EQ(scenario_cache_key(parse_scenario(reversed)),
            scenario_cache_key(spec));
  // An old artifact's retired shards= line does not split the cache.
  EXPECT_EQ(scenario_cache_key(parse_scenario(canon + "shards=4\n")),
            scenario_cache_key(spec));

  ScenarioSpec other = spec;
  other.trace.seed = 42;
  EXPECT_NE(scenario_cache_key(other), scenario_cache_key(spec));

  // The exact bytes: a hex hash of the spec text, then the decimal hash of
  // the replay fingerprint.
  EXPECT_EQ(scenario_cache_key(spec), "709ff653675b232f|13505852775174684166");
}

// Two specs pointing at the same file but spelled with different
// generator-only fields run through one BatchRunner and must share one
// cursor: with the fingerprint key the cursor cache reads the file once
// per pass, which the per-artifact read accounting exposes.
TEST(BatchFingerprintTest, SameWorkloadSpecsShareOneCursor) {
  const std::string path = write_fixture("fp_batch.csv", 10);

  std::vector<ScenarioSpec> specs(2);
  specs[0].name = "fp_batch_a";
  specs[0].policy = "formula3";
  specs[0].trace.source = "csv:" + path;
  specs[1] = specs[0];
  specs[1].name = "fp_batch_b";
  specs[1].trace.seed = 999;        // generator-only: same workload
  specs[1].trace.horizon_s = 42.0;  // generator-only: same workload

  BatchOptions options;
  options.threads = 1;
  options.stream_traces = true;
  BatchRunner runner(options);
  const std::vector<RunArtifact> artifacts = runner.run(specs);

  ASSERT_EQ(artifacts.size(), 2u);
  // Identical workload -> identical replays.
  EXPECT_EQ(artifacts[0].trace_jobs, artifacts[1].trace_jobs);
  EXPECT_EQ(artifacts[0].trace_tasks, artifacts[1].trace_tasks);
  EXPECT_EQ(artifacts[0].result.events_dispatched,
            artifacts[1].result.events_dispatched);
  EXPECT_EQ(artifacts[0].result.makespan_s, artifacts[1].result.makespan_s);
}

}  // namespace
}  // namespace cloudcr::api
