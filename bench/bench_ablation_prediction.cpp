// Ablation: how sensitive is Formula (3) to workload misprediction?
//
// The paper's pipeline predicts Te at submission (polynomial regression on
// input parameters, or history) and plugs the prediction into Formula (3).
// Because x* ~ sqrt(Te), the penalty is second-order: a 2x length error
// moves the interval by only ~41%, and the expected-overhead curve is flat
// around the optimum. This bench quantifies that robustness end-to-end:
//  * systematic bias sweep (0.25x .. 4x),
//  * unbiased noise sweep (sigma 0 .. 1 in log space),
//  * the two real predictors (regression on input size, per-class history)
//    trained on a separate day of history.
//
// The workload-length predictor is the one experiment knob that is a live
// lambda rather than data, so these runs go through api::RunHooks.

#include <iostream>
#include <memory>
#include <vector>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "metrics/report.hpp"
#include "predict/workload_predictor.hpp"
#include "report/bench_args.hpp"
#include "report/scenarios.hpp"

using namespace cloudcr;

namespace {

double run_with_predictor(
    const api::ScenarioSpec& spec, const trace::Trace& replay,
    const sim::StatsPredictor& stats_pred,
    const std::function<double(const trace::TaskRecord&)>& length_pred) {
  api::RunHooks hooks;
  hooks.replay_trace = &replay;
  hooks.predictor_override = stats_pred;
  hooks.length_predictor = length_pred;
  return api::run_scenario(spec, hooks).result.average_wpr();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = report::BenchArgs::parse(argc, argv, /*exports=*/false);

  auto tspec = report::day_trace_spec();
  args.apply(tspec);
  const auto spec = report::scenario("ablation_prediction", tspec, "formula3",
                                     "grouped");
  // One shared replay trace and one shared grouped predictor across the
  // whole sweep (the sweeps vary only the length predictor).
  const auto trace = api::make_replay_trace(tspec);
  const auto stats_pred = api::PredictorRegistry::instance().make(
      "grouped", trace);
  std::cout << "one-day replay set: " << trace.job_count() << " jobs\n";

  metrics::print_banner(std::cout,
                        "systematic bias: planner sees factor * Te");
  metrics::Table t1({"bias factor", "avg WPR", "delta vs exact"});
  const double exact_wpr = run_with_predictor(spec, trace, stats_pred,
                                              nullptr);
  for (double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const predict::BiasedPredictor p(factor);
    const double wpr = run_with_predictor(
        spec, trace, stats_pred,
        [&p](const trace::TaskRecord& task) { return p.predict(task); });
    t1.add_row({metrics::fmt(factor, 2), metrics::fmt(wpr, 4),
                metrics::fmt(wpr - exact_wpr, 4)});
  }
  t1.print(std::cout);

  metrics::print_banner(std::cout,
                        "unbiased noise: Te * exp(sigma * N(0,1))");
  metrics::Table t2({"sigma", "avg WPR", "delta vs exact"});
  for (double sigma : {0.0, 0.25, 0.5, 1.0}) {
    const auto p = std::make_shared<predict::NoisyPredictor>(
        sigma, report::kTraceSeed + 77);
    const double wpr = run_with_predictor(
        spec, trace, stats_pred,
        [p](const trace::TaskRecord& task) { return p->predict(task); });
    t2.add_row({metrics::fmt(sigma, 2), metrics::fmt(wpr, 4),
                metrics::fmt(wpr - exact_wpr, 4)});
  }
  t2.print(std::cout);

  metrics::print_banner(std::cout, "real predictors (trained on history)");
  // Train on a different day of history.
  api::TraceSpec hist_spec;
  hist_spec.seed = report::kTraceSeed + 999;
  hist_spec.horizon_s = report::kDayHorizon;
  hist_spec.arrival_rate = report::kArrivalRate;
  hist_spec.sample_job_filter = false;
  hist_spec.long_service_fraction = 0.0;
  const auto history = api::make_trace(hist_spec);

  std::vector<double> inputs, lengths;
  auto history_means = std::make_shared<predict::HistoryPredictor>();
  for (const auto& job : history.jobs) {
    for (const auto& task : job.tasks) {
      inputs.push_back(task.input_size);
      lengths.push_back(task.length_s);
      history_means->observe(static_cast<std::uint64_t>(task.priority),
                             task.length_s);
    }
  }
  const auto regression = std::make_shared<predict::RegressionPredictor>(
      inputs, lengths, /*degree=*/2);

  metrics::Table t3({"predictor", "avg WPR", "delta vs exact"});
  t3.add_row({"exact (oracle Te)", metrics::fmt(exact_wpr, 4), "0.0000"});
  const double wpr_reg = run_with_predictor(
      spec, trace, stats_pred, [regression](const trace::TaskRecord& task) {
        return regression->predict(task);
      });
  t3.add_row({"polynomial regression on input size",
              metrics::fmt(wpr_reg, 4), metrics::fmt(wpr_reg - exact_wpr, 4)});
  const double wpr_hist = run_with_predictor(
      spec, trace, stats_pred, [history_means](const trace::TaskRecord& task) {
        return history_means->predict(task);
      });
  t3.add_row({"per-class history mean", metrics::fmt(wpr_hist, 4),
              metrics::fmt(wpr_hist - exact_wpr, 4)});
  t3.print(std::cout);

  std::cout << "regression training fit: R^2 = "
            << metrics::fmt(regression->model().r_squared(), 4) << ", RMSE = "
            << metrics::fmt(regression->model().rmse(), 1) << " s\n";
  std::cout << "expected: sqrt-damping keeps the WPR penalty small even at "
               "4x bias\n";
  return 0;
}
