#pragma once

/// \file bench_common.hpp
/// \brief Bench-side aliases over the shared scenario skeleton.
///
/// The scenario construction that used to live here moved into the library
/// (src/report/scenarios.hpp) when the fig/tab experiments became registry
/// entries; this header re-exports it, and the shared bench CLI
/// (report::BenchArgs), for the remaining hand-rolled benches (the
/// ablations), and keeps the one helper that depends on that CLI (run_grid
/// over BenchArgs).

#include <cstdlib>
#include <exception>
#include <iostream>
#include <vector>

#include "api/batch.hpp"
#include "api/runner.hpp"
#include "metrics/report.hpp"
#include "report/bench_args.hpp"
#include "report/scenarios.hpp"

namespace cloudcr::bench {

using report::BenchArgs;

using report::kArrivalRate;
using report::kDayHorizon;
using report::kReplayMaxTaskLength;
using report::kTraceSeed;
using report::kWeekHorizon;

using report::day_trace_spec;
using report::month_trace_spec;
using report::scenario;

using report::pair_wallclocks;
using report::split_by_structure;
using report::SplitOutcomes;

/// Runs a grid of scenarios on a thread pool (respecting --threads). Run
/// failures (an ingested log going bad mid-run, an unknown registry key
/// smuggled into a spec) exit 2 with a diagnostic, like every other bench
/// CLI error, instead of aborting on an uncaught exception.
///
/// The obs flags (--stats/--probe-interval/--trace-out) are applied to
/// every spec before running and the merged registry is printed afterwards
/// — instrumentation is additive, so artifacts (and hence every figure)
/// are bit-identical with or without it.
inline std::vector<api::RunArtifact> run_grid(
    const std::vector<api::ScenarioSpec>& specs, const BenchArgs& args,
    const api::RunHooks& hooks = {}) {
  api::BatchOptions options;
  options.threads = args.threads_or(0);
  const std::vector<api::ScenarioSpec>* to_run = &specs;
  std::vector<api::ScenarioSpec> instrumented;
  if (args.obs_enabled()) {
    instrumented = specs;
    for (auto& spec : instrumented) args.apply_obs(spec);
    to_run = &instrumented;
  }
  try {
    auto artifacts = api::BatchRunner(options).run(*to_run, hooks);
    args.print_stats();
    return artifacts;
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace cloudcr::bench
