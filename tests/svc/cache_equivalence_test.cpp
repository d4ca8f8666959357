// Caching can change latency, never an answer. For every scenario in the
// experiment registry's fast subset, a cold SimService run and the warm
// rerun that follows must hand back byte-identical artifact JSON (outcome
// rows included), and the warm run must be provably free: reply.cached is
// true and the service's trace-read accounting does not move — a cache hit
// never touches a trace source, which is the whole point of fronting the
// batch layer with a memoizing service.
//
// Running over the registry (rather than a hand-picked spec list) keeps
// the property honest as experiments are added: any future fast entry is
// covered the day it lands.

#include <sstream>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "api/artifact_io.hpp"
#include "api/fingerprint.hpp"
#include "report/registry.hpp"
#include "svc/service.hpp"

namespace cloudcr::svc {
namespace {

std::string canonical_json(api::RunArtifact artifact) {
  artifact.wall_time_s = 0.0;
  artifact.estimation_wall_s = 0.0;
  artifact.peak_rss_mb = 0.0;
  std::ostringstream os;
  api::write_artifact_json(os, artifact, /*include_outcomes=*/true);
  return os.str();
}

TEST(CacheEquivalenceTest, WarmRunsAreByteIdenticalAndTraceFree) {
  SimService service({.cache_capacity = 1024});
  // Entries may share specs (and specs may alias through the fingerprint);
  // track keys so the cold-run expectation stays exact.
  std::unordered_set<std::string> seen;
  std::size_t covered = 0;

  for (const report::Experiment& entry :
       report::ExperimentRegistry::instance().entries()) {
    if (!entry.fast) continue;
    for (const api::ScenarioSpec& spec : entry.specs) {
      SCOPED_TRACE(entry.id + " / " + spec.name);
      const std::string key = api::scenario_cache_key(spec);
      const bool expect_cold_hit = !seen.insert(key).second;

      const ServiceReply cold = service.run(spec);
      EXPECT_EQ(cold.cached, expect_cold_hit);

      const ServiceStats before = service.stats();
      const ServiceReply warm = service.run(spec);
      const ServiceStats after = service.stats();

      EXPECT_TRUE(warm.cached);
      EXPECT_EQ(canonical_json(*warm.artifact), canonical_json(*cold.artifact));
      // The warm run performed zero trace passes and read zero rows.
      EXPECT_EQ(after.trace_reads, before.trace_reads);
      EXPECT_EQ(after.rows_read, before.rows_read);
      EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
      EXPECT_EQ(after.cache_misses, before.cache_misses);
      ++covered;
    }
  }
  // The fast subset must actually exercise the cache; an empty sweep would
  // make this suite vacuous.
  EXPECT_GT(covered, 0u);
}

// batch() answers a mixed cold/warm request with one executing pass: the
// second identical batch is all hits and does not touch any trace.
TEST(CacheEquivalenceTest, WarmBatchIsAllHits) {
  std::vector<api::ScenarioSpec> specs;
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    api::ScenarioSpec spec;
    spec.name = "cache_eq_batch_" + std::to_string(seed);
    spec.policy = "formula3";
    spec.trace.seed = seed;
    spec.trace.horizon_s = 900.0;
    spec.trace.arrival_rate = 0.08;
    specs.push_back(std::move(spec));
  }

  SimService service;
  std::vector<std::string> cold_bytes;
  for (const ServiceReply& reply : service.batch(specs)) {
    EXPECT_FALSE(reply.cached);
    cold_bytes.push_back(canonical_json(*reply.artifact));
  }

  const ServiceStats before = service.stats();
  const std::vector<ServiceReply> warm = service.batch(specs);
  const ServiceStats after = service.stats();

  ASSERT_EQ(warm.size(), specs.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].cached) << specs[i].name;
    EXPECT_EQ(canonical_json(*warm[i].artifact), cold_bytes[i])
        << specs[i].name;
  }
  EXPECT_EQ(after.trace_reads, before.trace_reads);
  EXPECT_EQ(after.rows_read, before.rows_read);
}

}  // namespace
}  // namespace cloudcr::svc
