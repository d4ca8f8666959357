#pragma once

/// \file batch.hpp
/// \brief Parallel execution of a vector of ScenarioSpecs.
///
/// The experiment grids behind the paper's figures are embarrassingly
/// parallel: every spec is self-contained (its own trace seed, sim seed, and
/// registry names), so the batch result is a pure function of the spec
/// vector. BatchRunner exploits that with a std::thread pool while keeping
/// the output *bit-identical* to a serial loop: artifacts land at the index
/// of their spec, and nothing a worker does depends on scheduling (the
/// property test in tests/api/batch_runner_test.cpp pins this guarantee).
///
/// Identical TraceSpecs across a batch (the common "same trace, N policies"
/// paired-comparison shape) generate their trace once via a memoizing
/// TraceCache; generation is deterministic, so sharing cannot change
/// results, only wall time.
///
/// Likewise, specs that differ only in their name run once. BatchRunner keys
/// each spec by api::scenario_cache_key of a copy with the name cleared (the
/// key SimService's artifact cache uses), sends only the first spec of each
/// key to the workers, and copies its artifact to every later index with
/// that key. A copy carries its own spec, and its wall_time_s,
/// estimation_wall_s, trace_reads and rows_read are 0, since nothing ran
/// for it. A traced spec (obs trace_path set) keeps its name in the key,
/// because each traced run writes a file named after it. The paper reads
/// several figures off one experiment, so the report matrix holds such
/// twins (fig10 repeats fig09's runs, fig12 and fig13 repeat fig11's).

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/runner.hpp"

namespace cloudcr::api {

/// Memoizing, thread-safe store of materialized traces, keyed by the
/// canonical workload fingerprint (api/fingerprint.hpp): key-order variants
/// of one spec, and specs differing only in fields their source ignores,
/// share one trace, while an edited log file keys a fresh one. The first
/// caller of a key builds the trace outside the lock (other keys proceed
/// concurrently); later callers wait for it. Traces are immutable once
/// built and stay alive as long as the cache does.
class TraceCache {
 public:
  using TracePtr = std::shared_ptr<const trace::Trace>;

  /// make_trace(spec): the unrestricted (estimation) view.
  [[nodiscard]] TracePtr get_full(const TraceSpec& spec);

  /// make_replay_trace(spec): restricts the cached full trace, so specs
  /// differing only in the replay limit generate it once.
  [[nodiscard]] TracePtr get_replay(const TraceSpec& spec);

 private:
  template <typename Factory>
  TracePtr get(const std::string& key, Factory&& factory);

  std::mutex mutex_;
  std::map<std::string, std::shared_future<TracePtr>> futures_;
};

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;

  /// Optional progress callback, invoked once per finished artifact (in
  /// completion order, under an internal mutex — callers need no locking)
  /// with the artifact, the number finished so far, and the batch size.
  /// Every spec is reported once: a copy made under the run-once rule
  /// (file comment) is reported as finished right after the run it copies.
  /// Purely observational: artifacts and their order are unaffected. Keep it
  /// cheap — every worker serializes through it.
  std::function<void(const RunArtifact&, std::size_t done, std::size_t total)>
      progress;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Runs every spec and returns artifacts in spec order. Parallel results
  /// are bit-identical to a serial run. The hooks (if any) apply to every
  /// spec, except RunHooks::workspace, which is replaced by a per-worker
  /// pool (a shared one would race). Worker exceptions are rethrown on the
  /// calling thread. Traces come from `traces` when given — a caller that
  /// owns the cache can read the batch's traces after it returns — and from
  /// a cache local to this call otherwise. Specs that differ only in their
  /// name share one run (see the file comment).
  [[nodiscard]] std::vector<RunArtifact> run(
      const std::vector<ScenarioSpec>& specs, const RunHooks& hooks = {},
      TraceCache* traces = nullptr) const;

  [[nodiscard]] const BatchOptions& options() const noexcept {
    return options_;
  }

 private:
  BatchOptions options_;
};

}  // namespace cloudcr::api
