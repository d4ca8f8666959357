// Ablation of the design choices DESIGN.md calls out:
//  1. storage placement: Section 4.2.2 auto-selection vs forced local vs
//     forced shared;
//  2. shared device: DM-NFS vs single-server NFS under real load;
//  3. adaptation: adaptive vs static controllers on a priority-changing
//     workload;
//  4. statistic robustness: Formula (3) with group MNOF vs Young with group
//     MTBF vs both with oracle inputs.
//
// The whole ablation is one declarative scenario grid executed on the
// BatchRunner thread pool; runs sharing a trace spec generate it once.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <utility>
#include <vector>

#include "api/batch.hpp"
#include "metrics/report.hpp"
#include "report/bench_args.hpp"
#include "report/scenarios.hpp"

using namespace cloudcr;

namespace {

/// Runs the grid on a thread pool (respecting --threads). A run failure (an
/// ingested log going bad mid-run) exits 2 with a diagnostic, like every
/// other bench CLI error, instead of aborting on an uncaught exception.
///
/// The obs flags (--stats/--probe-interval/--trace-out) are applied to
/// every spec before running and the merged registry is printed afterwards
/// — instrumentation is additive, so artifacts (and hence every table) are
/// bit-identical with or without it.
std::vector<api::RunArtifact> run_grid(std::vector<api::ScenarioSpec> specs,
                                       const report::BenchArgs& args) {
  for (auto& spec : specs) args.apply_obs(spec);
  api::BatchOptions options;
  options.threads = args.threads_or(0);
  try {
    auto artifacts = api::BatchRunner(options).run(specs);
    args.print_stats(std::cerr);
    return artifacts;
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = report::BenchArgs::parse(argc, argv);

  auto day = report::day_trace_spec();
  args.apply(day);
  auto changing = report::day_trace_spec(/*priority_change=*/true);
  args.apply(changing);

  auto make = [&](const std::string& name, const std::string& policy,
                  const std::string& predictor, sim::PlacementMode placement,
                  storage::DeviceKind shared_kind,
                  core::AdaptationMode mode = core::AdaptationMode::kAdaptive,
                  bool priority_change = false) {
    auto spec = report::scenario(name, priority_change ? changing : day,
                                 policy, predictor);
    spec.placement = placement;
    spec.shared_device = shared_kind;
    spec.adaptation = mode;
    return spec;
  };

  const auto kAuto = sim::PlacementMode::kAutoSelect;
  const auto kLocal = sim::PlacementMode::kForceLocal;
  const auto kShared = sim::PlacementMode::kForceShared;
  const auto kDmNfs = storage::DeviceKind::kDmNfs;
  const auto kNfs = storage::DeviceKind::kSharedNfs;

  std::vector<api::ScenarioSpec> specs = {
      make("auto_dmnfs", "formula3", "grouped", kAuto, kDmNfs),
      make("local", "formula3", "grouped", kLocal, kDmNfs),
      make("shared_dmnfs", "formula3", "grouped", kShared, kDmNfs),
      make("shared_nfs", "formula3", "grouped", kShared, kNfs),
      make("adaptive_changing", "formula3", "grouped", kAuto, kDmNfs,
           core::AdaptationMode::kAdaptive, /*priority_change=*/true),
      make("static_changing", "formula3", "submission", kAuto, kDmNfs,
           core::AdaptationMode::kStatic, /*priority_change=*/true),
      make("young_grouped", "young", "grouped", kAuto, kDmNfs),
      make("f3_oracle", "formula3", "oracle", kAuto, kDmNfs),
      make("young_oracle", "young", "oracle", kAuto, kDmNfs),
  };
  const auto artifacts = run_grid(std::move(specs), args);

  std::map<std::string, double> wpr;
  std::map<std::string, std::size_t> jobs;
  for (const auto& a : artifacts) {
    wpr[a.spec.name] = a.result.average_wpr();
    jobs[a.spec.name] = a.trace_jobs;
  }
  std::cout << "one-day traces: " << jobs.at("auto_dmnfs") << " / "
            << jobs.at("adaptive_changing") << " sample jobs\n";

  metrics::print_banner(std::cout, "Ablation 1: storage placement (avg WPR)");
  metrics::Table t1({"placement", "avg WPR"});
  t1.add_row(
      {"auto-select (Sec 4.2.2)", metrics::fmt(wpr.at("auto_dmnfs"), 4)});
  t1.add_row({"forced local ramdisk", metrics::fmt(wpr.at("local"), 4)});
  t1.add_row(
      {"forced shared (DM-NFS)", metrics::fmt(wpr.at("shared_dmnfs"), 4)});
  t1.print(std::cout);

  metrics::print_banner(std::cout,
                        "Ablation 2: DM-NFS vs single NFS under load");
  metrics::Table t2({"shared device", "avg WPR"});
  t2.add_row({"DM-NFS (32 servers)", metrics::fmt(wpr.at("shared_dmnfs"), 4)});
  t2.add_row({"single NFS server", metrics::fmt(wpr.at("shared_nfs"), 4)});
  t2.print(std::cout);

  metrics::print_banner(std::cout,
                        "Ablation 3: adaptation under priority changes");
  metrics::Table t3({"controller", "avg WPR"});
  t3.add_row({"adaptive (Algorithm 1)",
              metrics::fmt(wpr.at("adaptive_changing"), 4)});
  t3.add_row({"static", metrics::fmt(wpr.at("static_changing"), 4)});
  t3.print(std::cout);

  metrics::print_banner(std::cout,
                        "Ablation 4: statistic robustness (avg WPR)");
  metrics::Table t4({"policy x estimate", "avg WPR"});
  t4.add_row(
      {"Formula (3) + group MNOF", metrics::fmt(wpr.at("auto_dmnfs"), 4)});
  t4.add_row({"Young + group MTBF", metrics::fmt(wpr.at("young_grouped"), 4)});
  t4.add_row({"Formula (3) + oracle", metrics::fmt(wpr.at("f3_oracle"), 4)});
  t4.add_row({"Young + oracle", metrics::fmt(wpr.at("young_oracle"), 4)});
  t4.print(std::cout);

  std::cout << "expected: group estimation hurts Young far more than "
               "Formula (3); oracle inputs make them coincide\n";
  return args.export_artifacts(artifacts) ? 0 : 1;
}
