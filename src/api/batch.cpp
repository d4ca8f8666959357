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

/// Cache key for a TraceSpec: the canonical workload fingerprint
/// (api/fingerprint.hpp), so key-order variants of one spec — and specs
/// differing only in fields the source ignores — share one cached trace,
/// while an edited log file keys a fresh one.
std::string trace_key(const TraceSpec& spec, bool restricted) {
  return trace_fingerprint(spec, restricted);
}

/// Memoizing trace store. The first worker to request a key generates the
/// trace (outside the lock, via a shared_future, so other keys proceed
/// concurrently); later workers block on the same future. Traces are
/// immutable after generation and safely shared across threads.
class TraceCache {
 public:
  std::shared_ptr<const trace::Trace> get_replay(const TraceSpec& spec) {
    if (std::isinf(spec.replay_max_task_length_s)) return get_full(spec);
    // Restrict the (shared) full trace rather than regenerating it, so specs
    // differing only in the replay limit pay generation once.
    return get(trace_key(spec, true), [this, &spec] {
      return trace::restrict_length(*get_full(spec),
                                    spec.replay_max_task_length_s);
    });
  }

  std::shared_ptr<const trace::Trace> get_full(const TraceSpec& spec) {
    return get(trace_key(spec, false), [&spec] { return make_trace(spec); });
  }

 private:
  using TracePtr = std::shared_ptr<const trace::Trace>;

  template <typename Factory>
  TracePtr get(const std::string& key, Factory&& factory) {
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

  std::mutex mutex_;
  std::map<std::string, std::shared_future<TracePtr>> futures_;
};

}  // namespace

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

std::vector<RunArtifact> BatchRunner::run(
    const std::vector<ScenarioSpec>& specs, const RunHooks& hooks) const {
  std::vector<RunArtifact> artifacts(specs.size());
  if (specs.empty()) return artifacts;

  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > specs.size()) threads = specs.size();

  TraceCache cache;
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
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      try {
        const ScenarioSpec& spec = specs[i];
        RunHooks run_hooks = hooks;
        // Always the worker's own pool: a caller-supplied workspace would be
        // shared across workers and race.
        run_hooks.workspace = &workspace;

        // Pin the shared traces this spec needs for the duration of the run.
        std::shared_ptr<const trace::Trace> replay, estimation;
        if (options_.share_traces) {
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
        }
        artifacts[i] = run_scenario(spec, run_hooks);
        report_progress(artifacts[i]);
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
