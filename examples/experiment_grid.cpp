// experiment_grid: the experiment API in one screen.
//
// Declare a grid of scenarios (policy x placement) as plain data, run it on
// all cores with bit-identical-to-serial results, print a comparison table,
// and export machine-readable artifacts. Adding a policy to the grid is one
// string; adding a *new* policy to the system is one registry call (shown
// below with a half-interval variant of the paper's formula), and a new
// *predictor* is one PredictorBuilder registration — fed record-by-record
// through the streaming observation contract, so it works unchanged at
// month scale.
//
// Usage: experiment_grid [out.json] [outcomes.csv]

#include <iostream>
#include <memory>
#include <utility>

#include "api/artifact_io.hpp"
#include "api/batch.hpp"
#include "api/registry.hpp"
#include "metrics/report.hpp"
#include "sim/predictors.hpp"

using namespace cloudcr;

namespace {

/// Plug-in policy: the paper's interval, halved — checkpoint twice as often
/// as Formula (3) says. Registered under "formula3_half" at startup; after
/// that, any ScenarioSpec (and any bench --json artifact) can name it.
class HalfIntervalPolicy final : public core::CheckpointPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "formula3_half"; }
  [[nodiscard]] double next_interval(
      const core::PolicyContext& ctx) const override {
    return 0.5 * base_.next_interval(ctx);
  }

 private:
  core::MnofPolicy base_;
};

/// Plug-in predictor, via the streaming observation contract: estimates
/// like the built-in grouped predictor (one observe_task per estimation
/// record — never a whole trace), then reports 50% more failures than
/// observed. Formula (3) reacts with shorter intervals, so the grid shows
/// what mis-calibrated estimation costs.
class PessimisticGroupedBuilder final : public api::PredictorBuilder {
 public:
  void observe_task(const trace::TaskRecord& task) override {
    estimator_.observe(task);
  }

  [[nodiscard]] sim::StatsPredictor finalize() override {
    auto base = sim::make_grouped_predictor(estimator_);
    return [base = std::move(base)](const trace::TaskRecord& task,
                                    int priority) {
      core::FailureStats stats = base(task, priority);
      stats.mnof *= 1.5;
      return stats;
    };
  }

 private:
  trace::GroupedEstimator estimator_;
};

}  // namespace

int main(int argc, char** argv) {
  api::PolicyRegistry::instance().add(
      "formula3_half", [](const std::string&) -> core::PolicyPtr {
        return std::make_unique<HalfIntervalPolicy>();
      });
  api::PredictorRegistry::instance().add(
      "pessimistic", [](const std::string&) -> api::PredictorBuilderPtr {
        return std::make_unique<PessimisticGroupedBuilder>();
      });

  // The grid: four policies x two placements over the same six-hour trace,
  // plus the paper's formula under the pessimistic custom predictor.
  std::vector<api::ScenarioSpec> grid;
  for (const char* policy :
       {"formula3", "formula3_half", "young", "fixed:120"}) {
    for (const auto placement :
         {sim::PlacementMode::kForceShared, sim::PlacementMode::kAutoSelect}) {
      api::ScenarioSpec spec;
      spec.name = std::string(policy) + "/" +
                  api::placement_token(placement);
      spec.trace.seed = 424242;
      spec.trace.horizon_s = 6.0 * 3600.0;
      spec.trace.long_service_fraction = 0.0;
      spec.policy = policy;
      spec.predictor = "grouped";
      spec.placement = placement;
      grid.push_back(spec);
    }
  }
  for (const auto placement :
       {sim::PlacementMode::kForceShared, sim::PlacementMode::kAutoSelect}) {
    api::ScenarioSpec spec = grid.front();
    spec.name = std::string("formula3+pessimistic/") +
                api::placement_token(placement);
    spec.predictor = "pessimistic";
    spec.placement = placement;
    grid.push_back(spec);
  }

  // All ten runs share one generated trace (identical TraceSpecs) and
  // spread across the hardware threads.
  const auto artifacts = api::BatchRunner().run(grid);

  metrics::print_banner(std::cout,
                        "experiment grid: avg WPR by policy x placement");
  std::cout << "trace: " << artifacts[0].trace_jobs << " sample jobs, "
            << artifacts[0].trace_tasks << " tasks\n";
  metrics::Table table({"scenario", "avg WPR", "checkpoints", "wall (s)"});
  for (const auto& a : artifacts) {
    table.add_row({a.spec.name, metrics::fmt(a.result.average_wpr(), 4),
                   std::to_string(a.result.total_checkpoints),
                   metrics::fmt(a.wall_time_s, 2)});
  }
  table.print(std::cout);
  std::cout << "expected: formula3 beats its half-interval variant (extra "
               "checkpoints cost more\nthan they save) and the fixed "
               "two-minute baseline; auto placement helps the\n"
               "failure-light jobs that prefer the local ramdisk; the "
               "pessimistic predictor\nover-checkpoints like the half-interval "
               "policy does, from the estimation side\n";

  if (argc > 1) {
    if (api::write_artifacts_json_file(argv[1], artifacts)) {
      std::cout << "artifacts written to " << argv[1] << "\n";
    } else {
      std::cerr << "cannot write " << argv[1] << "\n";
      return 1;
    }
  }
  if (argc > 2) {
    if (api::write_artifact_outcomes_csv_file(argv[2], artifacts)) {
      std::cout << "per-job outcomes written to " << argv[2] << "\n";
    } else {
      std::cerr << "cannot write " << argv[2] << "\n";
      return 1;
    }
  }
  return 0;
}
