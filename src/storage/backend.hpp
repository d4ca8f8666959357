#pragma once

/// \file backend.hpp
/// \brief The simulation-facing checkpoint storage device.
///
/// One concrete class models the paper's three devices (Section 4.2.2,
/// Tables 2-3). They differ in three ways only:
/// (a) which server a write lands on: the writer's own host (local ramdisk),
///     the one NFS server (shared NFS), or a server drawn at random per
///     checkpoint from one per host (DM-NFS);
/// (b) whether writers sharing that server slow each other down: NFS cost
///     grows linearly with the writers in flight on the server (Table 2),
///     a ramdisk never contends; and
/// (c) whether the operation outlasts the cost charged to the task: an NFS
///     write keeps its server busy for the Table 4 operation time, a ramdisk
///     write is a synchronous memory copy.
///
/// Each write is priced at the moment it begins, from the task's memory
/// footprint (calibrated curves, Fig 7 / Table 4), the writes already on its
/// server, and optional multiplicative measurement noise reproducing the
/// min/avg/max spread the paper reports over 25 repetitions. Writes already
/// in flight are not repriced when new writers arrive; the paper measures
/// steady-state parallel degrees, which this approximates.
///
/// A write in flight is a point in the simulator's event order: it ends at
/// (begin time + op time, seq), where seq is the one the engine reserved for
/// the completion event the write stands in for. A later write on the same
/// server, begun inside the event dispatched at (t, s), finds the earlier
/// one gone iff its end precedes (t, s) — exactly when that completion event
/// would have run first. So no completion is ever queued: each server keeps
/// a short list of its writes, and a begin drops the ones that have ended
/// before pricing. Only the drawn server's list is touched.
///
/// Hot-path notes: the memory-dependent part of a price is a pure function
/// of (device, footprint) — callers replaying a task many times cache it via
/// base_price() and start writes with begin_priced(), skipping the
/// calibration curve on every checkpoint. No device call is virtual, and a
/// begin scans only its own server's list, never a global structure: over a
/// `repro_report` pass, 80% of the 11.3M begins find no other write left on
/// their server and 98.7% find at most two.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"
#include "storage/calibration.hpp"

namespace cloudcr::storage {

/// Handle returned when a checkpoint write begins.
struct CheckpointTicket {
  double cost = 0.0;         ///< wall-clock increment charged to the task (s)
  double op_time = 0.0;      ///< how long the device stays busy (s)
  std::size_t server = 0;    ///< which server received the write
};

/// Where a write begins in the simulator's (time, seq) event order: the
/// time and seq of the event that begins it, and the seq reserved for its
/// end. The default instant (time 0, seqs 0) suits callers outside the
/// simulator: writes begun at it all overlap.
struct WriteInstant {
  double time_s = 0.0;
  std::uint64_t seq = 0;      ///< seq of the dispatching event
  std::uint64_t end_seq = 0;  ///< seq reserved for the write's end
};

/// A write in flight on one server: its end in the event order.
struct InFlightWrite {
  double end_s = 0.0;
  std::uint64_t seq = 0;
};

/// Contention-free price of one checkpoint: the memory-dependent base that
/// begin_priced() scales by the live parallel degree and noise. Pure
/// function of (device kind, footprint) — safe to cache per task.
struct CheckpointPrice {
  double cost_s = 0.0;
  double op_time_s = 0.0;
};

/// Relative half-width of the multiplicative measurement noise; matches the
/// ~±10 % spread between the min and max rows of Tables 2-3.
inline constexpr double kDefaultNoise = 0.10;

/// Cost growth per extra concurrent writer on one NFS server: `w` writers
/// (the write being priced included) pay 1 + kNfsContentionSlope * (w - 1)
/// times the single-writer price. Table 2's NFS "avg" row {1.67, 2.665,
/// 5.38, 6.25, 8.95} is matched in shape by slope 1 (cost ~ proportional to
/// the parallel degree).
inline constexpr double kNfsContentionSlope = 1.0;

/// Frozen mutable state of a device: the writes each server holds and the
/// latest end among every write begun. Kind, noise and the RNG binding are
/// construction-time state and deliberately excluded — a snapshot restores
/// into the same device instance (task rows hold raw device pointers).
struct BackendState {
  std::vector<std::vector<InFlightWrite>> in_flight;
  double latest_end_s = 0.0;
};

/// A checkpoint storage device as seen by the simulator.
class StorageBackend {
 public:
  /// `rng` draws the measurement noise (when `noise` > 0) and DM-NFS's
  /// server choice, and must outlive the device. DM-NFS needs `n_servers`
  /// >= 1 (one NFS share per host); the other kinds ignore `n_servers`.
  StorageBackend(DeviceKind kind, stats::Rng& rng, double noise = 0.0,
                 std::size_t n_servers = 32);

  [[nodiscard]] DeviceKind kind() const noexcept { return kind_; }

  /// Contention-free price of a `mem_mb` checkpoint on this device.
  [[nodiscard]] CheckpointPrice base_price(double mem_mb) const {
    return {checkpoint_cost(kind_, mem_mb), checkpoint_op_time(kind_, mem_mb)};
  }

  /// Starts a checkpoint write at `at`, whose base price the caller already
  /// computed (via base_price(), typically cached per task). A contended
  /// device first draws the server, then drops the writes on it that ended
  /// before `at`, prices by the writes left, and keeps the new one. RNG
  /// draws, in order: DM-NFS its server (even with one server), the cost
  /// noise, then the op-time noise; shared NFS the cost noise, then the
  /// op-time noise; the ramdisk one noise draw, whose noisy cost is also its
  /// op time. Noise draws are made only when noise > 0. The ramdisk ignores
  /// `at` and keeps no writes.
  CheckpointTicket begin_priced(const CheckpointPrice& base,
                                std::size_t host_id,
                                const WriteInstant& at = {});

  /// Starts a checkpoint of `mem_mb` megabytes originating from `host_id`.
  CheckpointTicket begin_checkpoint(double mem_mb, std::size_t host_id,
                                    const WriteInstant& at = {}) {
    return begin_priced(base_price(mem_mb), host_id, at);
  }

  /// True when begin_priced is a pure function of its arguments: no
  /// contention state and no RNG draws. A replay may then price future
  /// writes on this device ahead of simulated time (checkpoint-run compression)
  /// without reordering anything observable.
  [[nodiscard]] bool begin_is_pure() const noexcept {
    return kind_ == DeviceKind::kLocalRamdisk && noise_ <= 0.0;
  }

  /// Cost of restarting a `mem_mb` task from this device's checkpoints.
  [[nodiscard]] double restart_cost(double mem_mb) const {
    return storage::restart_cost(kind_, mem_mb);
  }

  /// Servers whose writers contend: 1 for shared NFS, `n_servers` for
  /// DM-NFS, none for the ramdisk (each write stays on its own host).
  [[nodiscard]] std::size_t server_count() const noexcept {
    return in_flight_.size();
  }

  /// Latest end among every write begun (0 before the first): the time the
  /// device is idle from, once no further write begins.
  [[nodiscard]] double latest_end_s() const noexcept { return latest_end_s_; }

  /// Copies the device's mutable state into `out` (simulation snapshots).
  void capture_state(BackendState& out) const {
    out.in_flight = in_flight_;
    out.latest_end_s = latest_end_s_;
  }

  /// Inverse of capture_state().
  void restore_state(const BackendState& state) {
    in_flight_ = state.in_flight;
    latest_end_s_ = state.latest_end_s;
  }

  /// Migration type implied by this device.
  [[nodiscard]] MigrationType migration_type() const noexcept {
    return migration_for_device(kind_);
  }

 private:
  [[nodiscard]] double apply_noise(double value) const {
    if (noise_ <= 0.0) return value;
    return value * rng_->uniform(1.0 - noise_, 1.0 + noise_);
  }

  DeviceKind kind_;
  /// A pointer, not a reference, so a device can be reassigned.
  stats::Rng* rng_;
  double noise_;
  /// Per server, the writes begun on it that no later begin has dropped.
  std::vector<std::vector<InFlightWrite>> in_flight_;
  double latest_end_s_ = 0.0;
};

}  // namespace cloudcr::storage
