// spot_market: the paper's other motivating cloud scenario (Yi et al.,
// cited in the introduction) — Amazon EC2 spot instances, where the failure
// probability depends on the user's *bid*: low bids get out-bid and revoked
// often, high bids rarely. Because Formula (3) is distribution-free, the
// same MNOF machinery prices checkpoint intervals for every bid level; a
// classic MTBF-based policy would need per-bid interval distributions.
//
// We model five bid levels with revocation processes of very different
// shapes (bursty at low bids, rare-but-unbounded at high bids), run the same
// batch of jobs at each level, and compare Formula (3) against Young.
//
// The custom revocation model is not expressible as a TraceSpec, so the
// externally generated trace enters the API through RunHooks — both policy
// runs of a bid level share it on the BatchRunner pool.

#include <array>
#include <iostream>

#include "api/batch.hpp"
#include "metrics/report.hpp"
#include "trace/estimators.hpp"
#include "trace/generator.hpp"

using namespace cloudcr;

namespace {

/// Revocation behaviour per bid level, mapped onto priority classes so that
/// the trace generator's machinery applies unchanged: bid level i uses
/// priority i+1 with a custom profile.
trace::FailureModel spot_market_model() {
  std::array<trace::PriorityProfile, trace::kMaxPriority> p{};
  // {p_harassed, mean_kills, mean_gap_s}
  p[0] = {0.95, 8.0, 60.0};    // bid at 1.0x spot price: constant churn
  p[1] = {0.75, 4.0, 150.0};   // 1.2x
  p[2] = {0.50, 2.0, 400.0};   // 1.5x
  p[3] = {0.25, 1.3, 900.0};   // 2.0x
  p[4] = {0.08, 1.0, 2500.0};  // 3.0x: nearly dedicated
  for (std::size_t i = 5; i < p.size(); ++i) p[i] = {0.0, 1.0, 1000.0};
  return trace::FailureModel(p);
}

const char* kBidNames[] = {"1.0x", "1.2x", "1.5x", "2.0x", "3.0x"};

}  // namespace

int main() {
  metrics::print_banner(std::cout,
                        "spot market: revocation-aware checkpointing");

  const auto model = spot_market_model();

  // Batch of identical-shape jobs for each bid level; the bid level is the
  // priority class, so the failure model supplies the right revocations.
  for (int bid = 0; bid < 5; ++bid) {
    trace::GeneratorConfig cfg;
    cfg.seed = 9000 + static_cast<std::uint64_t>(bid);
    cfg.horizon_s = 4.0 * 3600.0;
    cfg.arrival_rate = 0.1;
    cfg.sample_job_filter = false;
    cfg.workload.long_service_fraction = 0.0;
    cfg.workload.priority_weights.fill(0.0);
    cfg.workload.priority_weights[static_cast<std::size_t>(bid)] = 1.0;
    const trace::TraceGenerator gen(cfg, model);
    const auto trace = gen.generate();

    api::ScenarioSpec base;
    base.trace.seed = cfg.seed;  // provenance only; the trace comes via hooks
    base.trace.horizon_s = cfg.horizon_s;
    base.predictor = "grouped";
    base.placement = sim::PlacementMode::kForceShared;

    auto f3 = base;
    f3.name = std::string("spot_f3_") + kBidNames[bid];
    f3.policy = "formula3";
    auto young = base;
    young.name = std::string("spot_young_") + kBidNames[bid];
    young.policy = "young";

    api::RunHooks hooks;
    hooks.replay_trace = &trace;
    const auto artifacts = api::BatchRunner().run({f3, young}, hooks);
    const auto& res_f3 = artifacts[0].result;
    const auto& res_y = artifacts[1].result;

    trace::GroupedEstimator est;
    for (const auto& job : trace.jobs) {
      for (const auto& task : job.tasks) est.observe(task);
    }
    const auto stats = est.query(bid + 1);
    std::cout << "bid " << kBidNames[bid] << ": jobs=" << trace.job_count()
              << " est mnof=" << metrics::fmt(stats.mnof, 2)
              << " mtbf=" << metrics::fmt(stats.mtbf, 0) << "s"
              << " | avg WPR formula3=" << metrics::fmt(res_f3.average_wpr(), 3)
              << " young=" << metrics::fmt(res_y.average_wpr(), 3)
              << (res_f3.average_wpr() >= res_y.average_wpr() ? "  <- F3"
                                                              : "  <- Young")
              << "\n";
  }

  std::cout << "\nTakeaway: one distribution-free formula covers every bid "
               "level; the MTBF-based\npolicy degrades where revocations are "
               "bursty (low bids) because the mean\ninterval says little "
               "about the next revocation.\n";
  return 0;
}
