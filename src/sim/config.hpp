#pragma once

/// \file config.hpp
/// \brief Simulation configuration and the failure-statistics predictor hook.

#include <cstdint>
#include <functional>

#include "core/controller.hpp"
#include "core/policy.hpp"
#include "sched/policy.hpp"
#include "sim/cluster.hpp"
#include "storage/calibration.hpp"
#include "trace/records.hpp"

namespace cloudcr::obs {
class TraceWriter;
}

namespace cloudcr::sim {

/// Where tasks place their checkpoints.
enum class PlacementMode {
  kAutoSelect,   ///< per-task device choice via Section 4.2.2
  kForceLocal,   ///< always local ramdisk (migration type A)
  kForceShared,  ///< always the shared device (migration type B)
};

/// Full simulation configuration.
struct SimConfig {
  ClusterConfig cluster = {};

  /// Which shared device competes with (or replaces) the local ramdisk.
  storage::DeviceKind shared_kind = storage::DeviceKind::kDmNfs;
  PlacementMode placement = PlacementMode::kAutoSelect;

  /// Adaptive (Algorithm 1) vs static plan (the Fig 14 baseline).
  core::AdaptationMode adaptation = core::AdaptationMode::kAdaptive;

  /// Multiplicative noise applied to storage costs (0 disables).
  double storage_noise = 0.0;

  /// Seed for all stochastic components of the run (storage noise, DM-NFS
  /// server selection).
  std::uint64_t seed = 0x5eed;

  /// Failure-detection latency added before a killed task re-enters the
  /// pending queue (the paper's polling thread; 0 = instant detection).
  double detection_delay_s = 0.0;

  /// Optional workload predictor: the productive length the *planner* sees
  /// (the paper's job parser predicts Te before scheduling). Null = exact.
  /// Only checkpoint planning consumes the prediction; the task still
  /// completes at its true length.
  std::function<double(const trace::TaskRecord&)> length_predictor;

  /// Optional admission scheduler (borrowed, must outlive the run; the
  /// ScenarioRunner owns it). Null — or a pass-through policy like fcfs —
  /// admits every job the instant it arrives, bit-identical to the engine
  /// before the scheduling stage existed.
  const sched::SchedulerPolicy* scheduler = nullptr;

  /// Simulated seconds between observability probe samples into
  /// SimResult::probes; 0 disables probing. Sampling observes the state
  /// just before each tick without adding engine events, so enabling it
  /// never changes simulation results.
  double probe_interval_s = 0.0;

  /// Add this run's work counters to the obs counter registry at its end.
  bool collect_stats = false;

  /// Optional dual-clock trace writer (borrowed, must outlive the run; the
  /// ScenarioRunner owns it). Null = tracing off.
  obs::TraceWriter* tracer = nullptr;
};

/// Supplies the failure statistics (MNOF/MTBF) a task's controller consumes;
/// called at first dispatch and again whenever the task's priority changes.
/// This is where the experiments plug in oracle vs priority-grouped
/// estimation.
using StatsPredictor = std::function<core::FailureStats(
    const trace::TaskRecord& task, int current_priority)>;

}  // namespace cloudcr::sim
