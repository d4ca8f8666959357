#include "api/batch.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "api/fingerprint.hpp"
#include "api/registry.hpp"
#include "api/scenario.hpp"

namespace cloudcr::api {

namespace {

/// The run-once key: scenario_cache_key of the spec with its name cleared,
/// since a name never reaches the replay. A traced spec keeps its name,
/// because each traced run writes a file named after it.
std::string run_key(const ScenarioSpec& spec) {
  if (!spec.obs.trace_path.empty()) return scenario_cache_key(spec);
  ScenarioSpec unnamed = spec;
  unnamed.name.clear();
  return scenario_cache_key(unnamed);
}

}  // namespace

template <typename Factory>
TraceCache::TracePtr TraceCache::get(const std::string& key,
                                     Factory&& factory) {
  std::promise<TracePtr> promise;
  std::shared_future<TracePtr> future;
  bool creator = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = futures_.find(key);
    if (it == futures_.end()) {
      future = promise.get_future().share();
      futures_.emplace(key, future);
      creator = true;
    } else {
      future = it->second;
    }
  }
  if (creator) {
    try {
      promise.set_value(std::make_shared<const trace::Trace>(factory()));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

TraceCache::TracePtr TraceCache::get_full(const TraceSpec& spec) {
  return get(trace_fingerprint(spec, false),
             [&spec] { return make_trace(spec); });
}

TraceCache::TracePtr TraceCache::get_replay(const TraceSpec& spec) {
  if (std::isinf(spec.replay_max_task_length_s)) return get_full(spec);
  return get(trace_fingerprint(spec, true), [this, &spec] {
    return trace::restrict_length(*get_full(spec),
                                  spec.replay_max_task_length_s);
  });
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

std::vector<RunArtifact> BatchRunner::run(
    const std::vector<ScenarioSpec>& specs, const RunHooks& hooks,
    TraceCache* traces) const {
  std::vector<RunArtifact> artifacts(specs.size());
  if (specs.empty()) return artifacts;

  // One run per distinct scenario: only the first spec of each run key goes
  // to the workers, and copies[i] lists the later indices that share its
  // artifact.
  std::vector<std::size_t> firsts;
  std::vector<std::vector<std::size_t>> copies(specs.size());
  {
    std::map<std::string, std::size_t> first_of;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto [it, inserted] = first_of.emplace(run_key(specs[i]), i);
      if (inserted) {
        firsts.push_back(i);
      } else {
        copies[it->second].push_back(i);
      }
    }
  }

  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > firsts.size()) threads = firsts.size();

  TraceCache local_cache;
  TraceCache& cache = traces != nullptr ? *traces : local_cache;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // Progress reporting: completion count + callback serialization. Purely
  // observational; artifact content and placement stay schedule-independent
  // (per-run obs counters merge into the process registry as order-free
  // sums/maxes, so even the merged registry is serial == threaded).
  std::mutex progress_mutex;
  std::size_t done = 0;
  auto report_progress = [&](const RunArtifact& artifact) {
    if (!options_.progress) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    options_.progress(artifact, ++done, specs.size());
  };

  auto worker = [&] {
    // Pooled replay buffers, reused across every spec this worker runs (the
    // big simulation tables and the event-queue slab). Reuse is reset-exact,
    // so artifacts stay bit-identical to unpooled runs.
    sim::ReplayWorkspace workspace;
    while (true) {
      // Fail fast: once any spec has thrown, the batch outcome is decided —
      // don't run the remaining (potentially long) simulations.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t n = next.fetch_add(1, std::memory_order_relaxed);
      if (n >= firsts.size()) return;
      const std::size_t i = firsts[n];
      try {
        const ScenarioSpec& spec = specs[i];
        RunHooks run_hooks = hooks;
        // Always the worker's own pool: a caller-supplied workspace would be
        // shared across workers and race.
        run_hooks.workspace = &workspace;

        // Pin the shared traces this spec needs for the duration of the run.
        std::shared_ptr<const trace::Trace> replay, estimation;
        if (run_hooks.replay_trace == nullptr) {
          replay = cache.get_replay(spec.trace);
          run_hooks.replay_trace = replay.get();
        }
        // A predictor that wants no observations (oracle) needs no
        // estimation trace pinned — probing the builder is cheap and
        // skips a whole cache entry for kFull/kHistory specs.
        const bool wants_observations =
            !run_hooks.predictor_override &&
            run_hooks.estimation_trace == nullptr &&
            with_key_context("predictor", spec.predictor, [&] {
              return PredictorRegistry::instance()
                  .make_builder(spec.predictor)
                  ->wants_observations();
            });
        if (wants_observations) {
          switch (spec.estimation) {
            case EstimationSource::kReplay:
              run_hooks.estimation_trace = run_hooks.replay_trace;
              break;
            case EstimationSource::kFull:
              estimation = cache.get_full(spec.trace);
              run_hooks.estimation_trace = estimation.get();
              break;
            case EstimationSource::kHistory:
              estimation = cache.get_replay(spec.history);
              run_hooks.estimation_trace = estimation.get();
              break;
          }
        }
        artifacts[i] = run_scenario(spec, run_hooks);
        report_progress(artifacts[i]);
        // A copy carries its own spec; nothing ran for it, so it spent no
        // host time and read no trace.
        for (const std::size_t j : copies[i]) {
          artifacts[j] = artifacts[i];
          artifacts[j].spec = specs[j];
          artifacts[j].wall_time_s = 0.0;
          artifacts[j].estimation_wall_s = 0.0;
          artifacts[j].trace_reads = 0;
          artifacts[j].rows_read = 0;
          report_progress(artifacts[j]);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return artifacts;
}

}  // namespace cloudcr::api
