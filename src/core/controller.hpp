#pragma once

/// \file controller.hpp
/// \brief Algorithm 1: the adaptive checkpointing controller.
///
/// The controller owns the countdown to the next checkpoint of one task. At
/// task start it selects the storage device (Section 4.2.2), computes X* via
/// Formula (3), and sets the countdown W0 = Te/X*. Each time a checkpoint is
/// taken it re-checks MNOF; per Theorem 2 the checkpoint positions only move
/// if MNOF changed, so the countdown is recomputed exactly in that case (the
/// static variant never recomputes — the Fig 14 baseline).
///
/// The controller advances in *productive time*: the caller reports progress
/// and events; the controller answers "when is the next checkpoint due".

#include <optional>

#include "core/expected_cost.hpp"
#include "core/policy.hpp"
#include "core/storage_selector.hpp"

namespace cloudcr::core {

/// Whether the controller reacts to MNOF changes at runtime (Algorithm 1
/// lines 9-12) or keeps the initial plan (the static baseline of Fig 14).
enum class AdaptationMode {
  kAdaptive,  ///< recompute X* when MNOF changes
  kStatic,    ///< keep the submission-time plan
};

/// Runtime checkpoint scheduler for one task execution.
class CheckpointController {
 public:
  /// \param policy       interval policy (not owned; must outlive the
  ///                     controller)
  /// \param total_work_s task productive length Te
  /// \param mem_mb       task memory footprint (drives the device choice)
  /// \param stats        initial failure statistics
  /// \param mode         adaptive (Algorithm 1) or static
  /// \param shared_kind  shared device competing with the local ramdisk
  /// \param forced_device when set, skips the Section 4.2.2 comparison and
  ///                     uses this device unconditionally (ablation hook)
  CheckpointController(const CheckpointPolicy& policy, double total_work_s,
                       double mem_mb, FailureStats stats, AdaptationMode mode,
                       storage::DeviceKind shared_kind =
                           storage::DeviceKind::kDmNfs,
                       std::optional<storage::DeviceKind> forced_device =
                           std::nullopt);

  /// Device selected at construction (Section 4.2.2).
  [[nodiscard]] const StorageDecision& storage_decision() const noexcept {
    return decision_;
  }

  /// Productive work remaining until the next scheduled checkpoint, from the
  /// task's current progress. Returns nullopt when no further checkpoint is
  /// planned before completion.
  [[nodiscard]] std::optional<double> work_until_next_checkpoint(
      double progress_s) const;

  /// Reports that a checkpoint completed at `progress_s` of productive work;
  /// re-plans if adaptive and MNOF changed since the last plan.
  void on_checkpoint(double progress_s);

  /// Reports a failure rollback to `progress_s` (the last saved progress).
  void on_rollback(double progress_s);

  /// Updates the failure statistics (e.g. the task's priority changed) with
  /// the task currently at `progress_s` of productive work.
  ///
  /// Adaptive controllers re-plan immediately: Algorithm 1 checks "MNOF
  /// changed" on every polling tick (lines 9-12 reset the countdown with
  /// W0 = Te_remaining / X*_new as soon as the change is observed), which is
  /// what rescues a task that had no checkpoint scheduled at all when its
  /// failure rate explodes. Static controllers ignore the update.
  void update_stats(FailureStats stats, double progress_s = 0.0);

  /// Current plan: the equidistant interval in force (s of productive work).
  [[nodiscard]] double current_interval() const noexcept { return interval_; }

  /// Number of times the plan was recomputed due to a stats change.
  [[nodiscard]] int replan_count() const noexcept { return replans_; }

  [[nodiscard]] AdaptationMode mode() const noexcept { return mode_; }

 private:
  void replan(double progress_s);

  /// Not owned. A pointer, not a reference, so controllers copy-assign: a
  /// replay snapshot copies the controller column like any other.
  const CheckpointPolicy* policy_;
  double total_work_s_;
  FailureStats stats_;
  FailureStats planned_stats_;
  AdaptationMode mode_;
  StorageDecision decision_;
  double interval_ = 0.0;
  /// Progress at which the current interval sequence is anchored.
  double anchor_s_ = 0.0;
  int replans_ = 0;
};

}  // namespace cloudcr::core
