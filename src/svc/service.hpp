#pragma once

/// \file service.hpp
/// \brief SimService: the in-process simulation-as-a-service broker.
///
/// A resident SimService answers scenario requests without re-running what
/// it has already computed:
///
///   - Every finished run is memoized in an LRU artifact cache keyed by
///     api::scenario_cache_key — the spec's canonical serialization hashed
///     together with the *workload identity* of its trace (file path,
///     mtime, and size for file-backed sources; the full generator tuple
///     for synthetic ones). Two requests that mean the same workload share
///     one artifact no matter how their spec text was spelled; an edited
///     trace file changes the fingerprint and misses naturally.
///
///   - A what-if request (base spec + fork_at + overrides) resumes from a
///     parked engine snapshot instead of replaying from zero. The first
///     what-if against a (base, fork_at) pair runs the base scenario once
///     through api::ScenarioRunner::run_parked with a snapshot capture,
///     parks the Simulation plus its sim::SimSnapshot, and banks the base
///     artifact; every later what-if at that fork resumes the same parked
///     replay and only replays the post-fork suffix. With empty
///     overrides the resumed artifact is byte-identical to a replay from
///     zero — the snapshot==replay house invariant, pinned by
///     tests/svc/snapshot_identity_test.cpp.
///
/// All entry points are thread-safe; concurrent requests for the same key
/// share one execution (the losers wait on the winner's future). Results
/// are deterministic functions of the spec, so caching can never change an
/// answer, only its latency — pinned by tests/svc/cache_equivalence_test.
/// The service speaks C++ structs; svc/protocol.hpp layers the NDJSON wire
/// format of the cloudcr_serve binary on top.

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/runner.hpp"
#include "api/scenario.hpp"

namespace cloudcr::svc {

struct ServiceOptions {
  /// Artifact-cache capacity (LRU entries). Each entry holds one
  /// RunArtifact including its outcome rows.
  std::size_t cache_capacity = 256;

  /// Parked what-if engines (LRU by (base, fork_at) key). Each entry pins
  /// a full Simulation + SimSnapshot, so this is the expensive cache.
  std::size_t snapshot_capacity = 8;

  /// Worker threads for batch(); 0 = hardware concurrency.
  std::size_t threads = 0;
};

/// Plain-struct service counters, available in every build (the obs-layer
/// svc.* stats mirror these in instrumented builds only).
struct ServiceStats {
  std::uint64_t cache_hits = 0;     ///< requests answered from the cache
  std::uint64_t cache_misses = 0;   ///< requests that executed a run
  std::uint64_t snapshot_captures = 0;  ///< base runs that parked a snapshot
  std::uint64_t snapshot_resumes = 0;   ///< what-ifs resumed from a snapshot
  std::uint64_t evictions = 0;      ///< artifact-cache LRU evictions
  std::uint64_t snapshot_bytes = 0;  ///< approx footprint of parked snapshots
  /// Trace-source passes performed by executed runs (cache hits add 0 —
  /// how tests/svc/cache_equivalence_test.cpp proves a warm request never
  /// touches the trace).
  std::uint64_t trace_reads = 0;
  std::uint64_t rows_read = 0;  ///< task rows those passes produced
};

/// What-if request: resume `base` at `fork_at` with the overrides applied
/// from the fork onward. Empty overrides replay the base run's tail
/// unchanged (identity).
struct WhatIfRequest {
  api::ScenarioSpec base;
  double fork_at = 0.0;
  /// PolicyRegistry key for tasks dispatched after the fork; empty keeps
  /// the base policy.
  std::string policy;
  /// Failure-detection latency from the fork onward; nullopt keeps base.
  std::optional<double> detection_delay_s;
};

/// One answered request: the artifact plus whether the cache served it.
struct ServiceReply {
  std::shared_ptr<const api::RunArtifact> artifact;
  bool cached = false;
};

class SimService {
 public:
  explicit SimService(ServiceOptions options = {});
  ~SimService();

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Runs (or recalls) one scenario.
  ServiceReply run(const api::ScenarioSpec& spec);

  /// Runs a vector of scenarios, answering cached entries immediately and
  /// executing the misses through one api::BatchRunner pool. Replies land
  /// at the index of their spec.
  std::vector<ServiceReply> batch(const std::vector<api::ScenarioSpec>& specs);

  /// Answers a what-if request from a parked snapshot (capturing one on
  /// first contact with the (base, fork_at) pair). The reply's artifact
  /// carries the *base* spec — a what-if result is keyed by base + fork +
  /// overrides, not by a standalone spec.
  ServiceReply whatif(const WhatIfRequest& request);

  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

 private:
  struct ForkEntry;

  using ArtifactPtr = std::shared_ptr<const api::RunArtifact>;
  using ArtifactFuture = std::shared_future<ArtifactPtr>;

  /// Cache probe: returns the future to wait on and whether this caller
  /// must produce its value by fulfilling `promise` (creator-outside-lock,
  /// like the batch-layer trace cache).
  ArtifactFuture lookup(const std::string& key,
                        std::promise<ArtifactPtr>& promise, bool& creator,
                        bool& hit);
  /// Inserts an already-computed artifact if the key is absent (what-if
  /// base runs bank their artifact without going through lookup()).
  void insert_ready(const std::string& key, ArtifactPtr artifact);
  /// Removes a failed creator's slot and propagates `error` to waiters.
  void abandon(const std::string& key, std::promise<ArtifactPtr>& promise,
               std::exception_ptr error);
  void account_executed(const api::RunArtifact& artifact);

  /// The parked engine for (base, fork_at), creating (and base-running) it
  /// on first use. The entry's mutex is held by the caller during resume.
  std::shared_ptr<ForkEntry> fork_entry(const api::ScenarioSpec& base,
                                        const std::string& base_key,
                                        double fork_at);
  /// Sum of parked snapshot footprints; caller holds mu_.
  [[nodiscard]] std::uint64_t parked_bytes_locked() const;

  /// Base run of `entry` through the runner's replay, parking the engine
  /// snapshot at `fork_at` in the entry (caller holds the entry mutex).
  static api::RunArtifact capture_base_run(ForkEntry& entry, double fork_at);
  /// Post-fork replay of a ready entry with the request's overrides.
  static api::RunArtifact resume_run(ForkEntry& entry,
                                     const WhatIfRequest& request);

  ServiceOptions options_;

  mutable std::mutex mu_;
  struct CacheSlot {
    std::string key;
    ArtifactFuture future;
  };
  std::list<CacheSlot> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<CacheSlot>::iterator> index_;
  std::list<std::pair<std::string, std::shared_ptr<ForkEntry>>> fork_lru_;
  std::unordered_map<
      std::string,
      std::list<std::pair<std::string, std::shared_ptr<ForkEntry>>>::iterator>
      fork_index_;
  ServiceStats stats_;
};

}  // namespace cloudcr::svc
