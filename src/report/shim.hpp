#pragma once

/// \file shim.hpp
/// \brief The entire main() of a per-figure bench binary.
///
/// Since the experiment definitions moved into the registry, each historical
/// `bench_fig*` / `bench_tab*` binary is a one-line shim:
///
///   #include "report/shim.hpp"
///   int main(int argc, char** argv) {
///     return cloudcr::report::bench_shim_main("fig09", argc, argv);
///   }
///
/// The shim keeps the historical CLI contract (--seed/--horizon/--jobs/
/// --trace/--threads/--json/--csv, parsed by report::BenchArgs, which the
/// hand-rolled benches share) and the historical stdout rendering, then
/// appends the expected-value comparison against
/// bench/REPRO_expected.baseline.json. Overriding the trace (any of --seed/
/// --horizon/--jobs/--trace) skips the comparison: expectations are pinned
/// to the default specs.
///
/// Exit codes: 0 on success (deviations are *reported*, not fatal — the
/// benches are exploration tools; `repro_report` is the gate), 1 when a
/// requested artifact export fails, 2 on CLI/run errors.

namespace cloudcr::report {

int bench_shim_main(const char* experiment_id, int argc, char** argv);

}  // namespace cloudcr::report
