#include "svc/service.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "api/batch.hpp"
#include "api/fingerprint.hpp"
#include "api/registry.hpp"
#include "obs/hooks.hpp"
#include "sim/simulation.hpp"

namespace cloudcr::svc {

/// A parked what-if engine: the replay holds everything the resumed run
/// borrows by reference or raw pointer, so the SimSnapshot's captured
/// callbacks stay valid for the entry's whole lifetime.
struct SimService::ForkEntry {
  api::ScenarioSpec base;
  api::ParkedReplay replay;
  sim::SimSnapshot snapshot;
  bool ready = false;  ///< base run captured; guarded by mu
  /// snapshot.approx_bytes() once ready. Atomic so stats() can sum parked
  /// footprints without taking every entry's mutex.
  std::atomic<std::size_t> bytes{0};
  std::mutex mu;  ///< serializes capture + resumes
};

namespace {

/// fork_at rendered like the spec grammar renders doubles, so a fork key
/// is canonical.
std::string format_fork(double fork_at) {
  std::string out;
  api::append_double(out, fork_at);
  return out;
}

}  // namespace

/// Runs the base scenario of `entry` through the runner's replay, parking
/// the Simulation in the entry and capturing the snapshot at `fork_at`.
api::RunArtifact SimService::capture_base_run(ForkEntry& entry,
                                              double fork_at) {
  sim::RunControl control;
  control.capture = &entry.snapshot;
  control.fork_at = fork_at;
  return api::ScenarioRunner(entry.base).run_parked(entry.replay, control);
}

/// Replays the post-fork suffix of `entry` against a fresh pass over the
/// base trace. No estimation pass: the parked Simulation already owns its
/// predictor.
api::RunArtifact SimService::resume_run(ForkEntry& entry,
                                        const WhatIfRequest& request) {
  core::PolicyPtr override_policy;
  sim::RunControl control;
  control.resume_from = &entry.snapshot;
  if (!request.policy.empty()) {
    override_policy = api::with_key_context("policy", request.policy, [&] {
      return api::PolicyRegistry::instance().make(request.policy);
    });
    control.overrides.policy = override_policy.get();
  }
  control.overrides.detection_delay_s = request.detection_delay_s;
  return api::ScenarioRunner(entry.base).run_parked(entry.replay, control);
}

SimService::SimService(ServiceOptions options) : options_(options) {
  if (options_.cache_capacity == 0) options_.cache_capacity = 1;
  if (options_.snapshot_capacity == 0) options_.snapshot_capacity = 1;
}

SimService::~SimService() = default;

SimService::ArtifactFuture SimService::lookup(
    const std::string& key, std::promise<ArtifactPtr>& promise, bool& creator,
    bool& hit) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (auto it = index_.find(key); it != index_.end()) {
    creator = false;
    hit = true;
    ++stats_.cache_hits;
    CLOUDCR_OBS_ADD(obs::st::svc_cache_hits, 1);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->future;
  }
  creator = true;
  hit = false;
  ++stats_.cache_misses;
  CLOUDCR_OBS_ADD(obs::st::svc_cache_misses, 1);
  ArtifactFuture future = promise.get_future().share();
  lru_.push_front(CacheSlot{key, future});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > options_.cache_capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return future;
}

void SimService::insert_ready(const std::string& key, ArtifactPtr artifact) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(key) != 0) return;
  std::promise<ArtifactPtr> promise;
  promise.set_value(std::move(artifact));
  lru_.push_front(CacheSlot{key, promise.get_future().share()});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > options_.cache_capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void SimService::abandon(const std::string& key,
                         std::promise<ArtifactPtr>& promise,
                         std::exception_ptr error) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (auto it = index_.find(key); it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
  }
  promise.set_exception(std::move(error));
}

void SimService::account_executed(const api::RunArtifact& artifact) {
  const std::lock_guard<std::mutex> lock(mu_);
  stats_.trace_reads += artifact.trace_reads;
  stats_.rows_read += artifact.rows_read;
}

ServiceReply SimService::run(const api::ScenarioSpec& spec) {
  const std::string key = api::scenario_cache_key(spec);
  std::promise<ArtifactPtr> promise;
  bool creator = false;
  bool hit = false;
  ArtifactFuture future = lookup(key, promise, creator, hit);
  if (creator) {
    try {
      auto artifact = std::make_shared<api::RunArtifact>(
          api::ScenarioRunner(spec).run());
      account_executed(*artifact);
      promise.set_value(std::move(artifact));
    } catch (...) {
      abandon(key, promise, std::current_exception());
      throw;
    }
  }
  return ServiceReply{future.get(), hit};
}

std::vector<ServiceReply> SimService::batch(
    const std::vector<api::ScenarioSpec>& specs) {
  struct Pending {
    std::size_t index;
    std::string key;
    std::promise<ArtifactPtr> promise;
  };
  std::vector<ServiceReply> replies(specs.size());
  std::vector<ArtifactFuture> futures(specs.size());
  std::vector<Pending> pending;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Pending p;
    p.index = i;
    p.key = api::scenario_cache_key(specs[i]);
    bool creator = false;
    futures[i] = lookup(p.key, p.promise, creator, replies[i].cached);
    if (creator) pending.push_back(std::move(p));
  }
  if (!pending.empty()) {
    std::vector<api::ScenarioSpec> misses;
    misses.reserve(pending.size());
    for (const Pending& p : pending) misses.push_back(specs[p.index]);
    api::BatchOptions batch_options;
    batch_options.threads = options_.threads;
    try {
      std::vector<api::RunArtifact> artifacts =
          api::BatchRunner(batch_options).run(misses);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        auto artifact =
            std::make_shared<api::RunArtifact>(std::move(artifacts[i]));
        account_executed(*artifact);
        pending[i].promise.set_value(std::move(artifact));
      }
    } catch (...) {
      // All-or-nothing like BatchRunner itself: no artifact was returned,
      // so every promise this call opened propagates the failure.
      for (Pending& p : pending) {
        abandon(p.key, p.promise, std::current_exception());
      }
      throw;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    replies[i].artifact = futures[i].get();
  }
  return replies;
}

std::shared_ptr<SimService::ForkEntry> SimService::fork_entry(
    const api::ScenarioSpec& base, const std::string& base_key,
    double fork_at) {
  const std::string key = base_key + "|fork@" + format_fork(fork_at);
  const std::lock_guard<std::mutex> lock(mu_);
  if (auto it = fork_index_.find(key); it != fork_index_.end()) {
    fork_lru_.splice(fork_lru_.begin(), fork_lru_, it->second);
    return it->second->second;
  }
  auto entry = std::make_shared<ForkEntry>();
  entry->base = base;
  fork_lru_.emplace_front(key, entry);
  fork_index_.emplace(key, fork_lru_.begin());
  while (fork_lru_.size() > options_.snapshot_capacity) {
    fork_index_.erase(fork_lru_.back().first);
    fork_lru_.pop_back();
  }
  return entry;
}

std::uint64_t SimService::parked_bytes_locked() const {
  std::uint64_t total = 0;
  for (const auto& [key, entry] : fork_lru_) {
    total += entry->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

ServiceReply SimService::whatif(const WhatIfRequest& request) {
  if (!std::isfinite(request.fork_at)) {
    throw std::invalid_argument("whatif: fork_at must be finite");
  }
  const std::string base_key = api::scenario_cache_key(request.base);
  std::string key = base_key + "|fork@" + format_fork(request.fork_at) +
                    "|policy=" + request.policy + "|detection=";
  key += request.detection_delay_s ? format_fork(*request.detection_delay_s)
                                   : "base";

  std::promise<ArtifactPtr> promise;
  bool creator = false;
  bool hit = false;
  ArtifactFuture future = lookup(key, promise, creator, hit);
  if (creator) {
    try {
      auto entry = fork_entry(request.base, base_key, request.fork_at);
      const std::lock_guard<std::mutex> entry_lock(entry->mu);
      if (!entry->ready) {
        api::RunArtifact base_artifact =
            capture_base_run(*entry, request.fork_at);
        account_executed(base_artifact);
        entry->bytes.store(entry->snapshot.approx_bytes(),
                           std::memory_order_relaxed);
        entry->ready = true;
        // Bank the base run: answering the what-if also warmed its base
        // scenario (results are path-independent, so this artifact is the
        // one run(base) would have produced).
        insert_ready(base_key, std::make_shared<api::RunArtifact>(
                                   std::move(base_artifact)));
        {
          const std::lock_guard<std::mutex> lock(mu_);
          ++stats_.snapshot_captures;
          CLOUDCR_OBS_ADD(obs::st::svc_snapshot_bytes,
                          parked_bytes_locked());
        }
      }
      auto artifact =
          std::make_shared<api::RunArtifact>(resume_run(*entry, request));
      account_executed(*artifact);
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.snapshot_resumes;
        CLOUDCR_OBS_ADD(obs::st::svc_snapshot_resumes, 1);
      }
      promise.set_value(std::move(artifact));
    } catch (...) {
      abandon(key, promise, std::current_exception());
      throw;
    }
  }
  return ServiceReply{future.get(), hit};
}

ServiceStats SimService::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.snapshot_bytes = parked_bytes_locked();
  return out;
}

}  // namespace cloudcr::svc
