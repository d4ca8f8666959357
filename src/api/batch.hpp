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
/// paired-comparison shape) generate their trace once via an internal
/// memoizing cache; generation is deterministic, so sharing cannot change
/// results, only wall time.

#include <cstddef>
#include <functional>
#include <vector>

#include "api/runner.hpp"

namespace cloudcr::api {

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;

  /// Memoize generated traces across specs with identical TraceSpecs.
  bool share_traces = true;

  /// Optional progress callback, invoked once per finished artifact (in
  /// completion order, under an internal mutex — callers need no locking)
  /// with the artifact, the number finished so far, and the batch size.
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
  /// calling thread.
  [[nodiscard]] std::vector<RunArtifact> run(
      const std::vector<ScenarioSpec>& specs,
      const RunHooks& hooks = {}) const;

  [[nodiscard]] const BatchOptions& options() const noexcept {
    return options_;
  }

 private:
  BatchOptions options_;
};

}  // namespace cloudcr::api
