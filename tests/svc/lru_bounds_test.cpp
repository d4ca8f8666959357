// The service's two caches are bounded LRUs: the artifact cache holds
// ServiceOptions::cache_capacity runs and the parked what-if engines
// snapshot_capacity forks. An evicted entry must cost a recomputation,
// never a different answer: a spec re-requested after its artifact was
// evicted misses and reproduces the first run byte for byte, and a what-if
// whose parked fork was evicted captures a fresh snapshot and answers as
// before.

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "api/artifact_io.hpp"
#include "api/scenario.hpp"
#include "svc/service.hpp"

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

api::ScenarioSpec small_spec(std::uint64_t seed) {
  api::ScenarioSpec spec;
  spec.name = "lru_bounds_" + std::to_string(seed);
  spec.trace.seed = seed;
  spec.trace.horizon_s = 900.0;
  spec.trace.arrival_rate = 0.08;
  return spec;
}

TEST(LruBoundsTest, ArtifactCacheEvictsLeastRecentlyUsed) {
  SimService service({.cache_capacity = 2});
  const api::ScenarioSpec a = small_spec(31);
  const api::ScenarioSpec b = small_spec(32);
  const api::ScenarioSpec c = small_spec(33);

  const std::string a_first = canonical_json(*service.run(a).artifact);
  EXPECT_FALSE(service.run(b).cached);
  EXPECT_EQ(service.stats().evictions, 0u);
  EXPECT_FALSE(service.run(c).cached);  // a is the least recently used
  EXPECT_EQ(service.stats().evictions, 1u);

  // The evicted spec runs again (and evicts b) with the same answer.
  const ServiceReply a_again = service.run(a);
  EXPECT_FALSE(a_again.cached);
  EXPECT_EQ(canonical_json(*a_again.artifact), a_first);
  EXPECT_EQ(service.stats().evictions, 2u);

  // c stayed resident.
  const ServiceStats before = service.stats();
  EXPECT_TRUE(service.run(c).cached);
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(after.trace_reads, before.trace_reads);
  EXPECT_EQ(after.evictions, before.evictions);
}

TEST(LruBoundsTest, FailedRequestLeavesTheCacheAsItWas) {
  // One slot holds the daly run. A malformed request opens a slot of its
  // own, through run() and through batch(), and fails; the daly entry must
  // survive both and answer the repeat without a replay.
  SimService service({.cache_capacity = 1});
  api::ScenarioSpec daly = small_spec(35);
  daly.policy = "daly";
  daly.trace.horizon_s = 600.0;
  api::ScenarioSpec malformed = daly;
  malformed.policy = "young:xyz";

  EXPECT_FALSE(service.run(daly).cached);
  EXPECT_THROW(service.run(malformed), std::invalid_argument);
  EXPECT_ANY_THROW(service.batch({malformed}));
  const ServiceStats before = service.stats();
  EXPECT_TRUE(service.run(daly).cached);
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(after.trace_reads, before.trace_reads);
}

TEST(LruBoundsTest, EvictedForkIsCapturedAgain) {
  // One parked fork at a time. Two artifact slots also let the B what-if
  // evict the first A reply (the banked base run is the other resident), so
  // the last request reaches the fork cache instead of the artifact cache.
  SimService service({.cache_capacity = 2, .snapshot_capacity = 1});
  WhatIfRequest at_a;
  at_a.base = small_spec(34);
  at_a.fork_at = 300.0;
  at_a.policy = "young";
  WhatIfRequest at_b = at_a;
  at_b.fork_at = 600.0;

  const std::string first = canonical_json(*service.whatif(at_a).artifact);
  EXPECT_FALSE(service.whatif(at_b).cached);
  const ServiceReply last = service.whatif(at_a);

  EXPECT_FALSE(last.cached);
  EXPECT_EQ(canonical_json(*last.artifact), first);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.snapshot_captures, 3u);
  EXPECT_EQ(stats.snapshot_resumes, 3u);
}

}  // namespace
}  // namespace cloudcr::svc
