#include "report/shim.hpp"

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "api/scenario.hpp"
#include "metrics/report.hpp"
#include "obs/stats.hpp"
#include "report/bench_args.hpp"
#include "report/compare.hpp"
#include "report/registry.hpp"
#include "report/runner.hpp"

namespace cloudcr::report {

namespace {

void print_comparisons(const EntryResult& result,
                       const std::vector<Comparison>& comparisons) {
  metrics::print_banner(std::cout, "expected-value check");
  metrics::Table table({"metric", "actual", "expected", "tol", "status"});
  for (const auto& c : comparisons) {
    const bool has_actual = c.status != ComparisonStatus::kMissing;
    const bool has_expected = c.status != ComparisonStatus::kNew;
    table.add_row({c.metric,
                   has_actual ? metrics::fmt(c.actual, 4) : "-",
                   has_expected ? metrics::fmt(c.expected, 4) : "-",
                   has_expected ? metrics::fmt(c.tolerance, 4) : "-",
                   comparison_token(c.status)});
  }
  table.print(std::cout);
  if (all_pass(comparisons)) {
    std::cout << "expected values: all within tolerance\n";
  } else {
    std::cout << "expected values: DEVIATION — rerun `repro_report --only "
              << result.experiment->id
              << "` (the gate) or refresh with --update-expected after an "
                 "intended change\n";
  }
}

}  // namespace

int bench_shim_main(const char* experiment_id, int argc, char** argv) {
  const Experiment* experiment =
      ExperimentRegistry::instance().find(experiment_id);
  if (experiment == nullptr) {
    std::cerr << argv[0] << ": experiment '" << experiment_id
              << "' is not registered\n";
    return 2;
  }
  const bool exports = !experiment->specs.empty();
  const BenchArgs args = BenchArgs::parse(argc, argv, exports);

  ReportOptions options;
  options.only = {experiment->id};
  options.threads = args.threads_or(0);
  options.human = &std::cout;
  options.obs = args.obs_value();
  if (args.overrides_trace()) {
    options.trace_override = [&args](api::TraceSpec& spec) {
      args.apply(spec);
    };
  }

  ReportResult report;
  try {
    report = run_report(options);
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    return 2;
  }
  const EntryResult& result = report.entries.front();

  if (args.stats) {
    std::cout << "# obs stats (merged registry):\n";
    obs::write_stats_text(std::cout);
  }

  if (args.overrides_trace()) {
    std::cout << "# expected-value check skipped: trace overridden "
                 "(expectations are pinned to the default specs)\n";
  } else {
    const std::string expected_path = default_expected_path();
    try {
      const ExpectedDoc doc = read_expected_file(expected_path);
      const EntryExpectations* expected = doc.find(experiment->id);
      if (expected == nullptr) {
        std::cout << "# no expected values recorded for '" << experiment->id
                  << "' yet (repro_report --update-expected)\n";
      } else {
        print_comparisons(result, compare_entry(*expected, result.metrics));
      }
    } catch (const std::exception& e) {
      std::cout << "# expected-value check skipped: " << e.what() << "\n";
    }
  }

  return args.export_artifacts(result.artifacts) ? 0 : 1;
}

}  // namespace cloudcr::report
