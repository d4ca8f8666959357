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
/// Each op is priced at the moment it starts, from the task's memory
/// footprint (calibrated curves, Fig 7 / Table 4), the writers already on its
/// server, and optional multiplicative measurement noise reproducing the
/// min/avg/max spread the paper reports over 25 repetitions. Ops already in
/// flight are not repriced when new writers arrive; the paper measures
/// steady-state parallel degrees, which this approximates.
///
/// Hot-path notes: the memory-dependent part of a price is a pure function
/// of (device, footprint) — callers replaying a task many times cache it via
/// base_price() and start ops with begin_priced(), skipping the calibration
/// curve on every checkpoint. No device call is virtual, and in-flight ops
/// are tracked in a slot/generation slab (OpSlab), so op bookkeeping never
/// touches a hash map or the heap.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.hpp"
#include "storage/calibration.hpp"

namespace cloudcr::storage {

/// Handle returned when a checkpoint op begins.
struct CheckpointTicket {
  std::uint64_t op_id = 0;   ///< pass back to end_checkpoint()
  double cost = 0.0;         ///< wall-clock increment charged to the task (s)
  double op_time = 0.0;      ///< how long the device stays busy (s)
  std::size_t server = 0;    ///< which server received the write
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
/// (the op being priced included) pay 1 + kNfsContentionSlope * (w - 1)
/// times the single-writer price. Table 2's NFS "avg" row {1.67, 2.665,
/// 5.38, 6.25, 8.95} is matched in shape by slope 1 (cost ~ proportional to
/// the parallel degree).
inline constexpr double kNfsContentionSlope = 1.0;

/// Allocation-free registry of in-flight checkpoint ops. Op ids encode
/// (slot, generation); ending an op is an O(1) generation check, and stale
/// or double ends are ignored (idempotent), as the device contract requires.
class OpSlab {
 public:
  /// Registers an op carrying a small payload (server index). Returns its id.
  std::uint64_t begin(std::uint32_t payload) {
    std::uint32_t slot;
    if (free_head_ != kNone) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
    } else {
      slots_.push_back(Slot{});
      slot = static_cast<std::uint32_t>(slots_.size() - 1);
    }
    slots_[slot].payload = payload;
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    return (static_cast<std::uint64_t>(slot) << 32) | slots_[slot].gen;
  }

  /// Ends an op; returns its payload, or kNone if the id is unknown or
  /// already ended.
  std::uint32_t end(std::uint64_t op_id) noexcept {
    const auto slot = static_cast<std::uint32_t>(op_id >> 32);
    const auto gen = static_cast<std::uint32_t>(op_id);
    if (slot >= slots_.size() || slots_[slot].gen != gen) return kNone;
    const std::uint32_t payload = slots_[slot].payload;
    ++slots_[slot].gen;
    slots_[slot].next_free = free_head_;
    free_head_ = slot;
    --live_;
    return payload;
  }

  [[nodiscard]] std::size_t active() const noexcept { return live_; }

  /// Most ops ever live at once (observability high-water mark).
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

  static constexpr std::uint32_t kNone = 0xffffffffu;

 private:
  struct Slot {
    std::uint32_t gen = 1;
    std::uint32_t payload = 0;
    std::uint32_t next_free = kNone;
  };
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

/// Frozen mutable state of a device: the in-flight op slab plus the
/// per-server load vector. Kind, noise and the RNG binding are
/// construction-time state and deliberately excluded — a snapshot restores
/// into the same device instance (queued engine events hold raw device
/// pointers).
struct BackendState {
  OpSlab ops;
  std::vector<std::size_t> per_server_active;
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

  /// Starts a checkpoint whose base price the caller already computed (via
  /// base_price(), typically cached per task). RNG draws, in order: DM-NFS
  /// its server (even with one server), the cost noise, then the op-time
  /// noise; shared NFS the cost noise, then the op-time noise; the ramdisk
  /// one noise draw, whose noisy cost is also its op time. Noise draws are
  /// made only when noise > 0.
  CheckpointTicket begin_priced(const CheckpointPrice& base,
                                std::size_t host_id);

  /// Starts a checkpoint of `mem_mb` megabytes originating from `host_id`.
  CheckpointTicket begin_checkpoint(double mem_mb, std::size_t host_id) {
    return begin_priced(base_price(mem_mb), host_id);
  }

  /// Marks the op as finished; its server slot is released. Unknown ids are
  /// ignored (idempotent).
  void end_checkpoint(std::uint64_t op_id);

  /// True when finishing an op can change the price of a later one (the
  /// contended NFS kinds). When false, callers need not deliver
  /// end_checkpoint at its exact simulated completion time.
  [[nodiscard]] bool completion_affects_pricing() const noexcept {
    return kind_ != DeviceKind::kLocalRamdisk;
  }

  /// True when begin_priced is a pure function of its arguments: no
  /// contention state and no RNG draws. A replay may then price future ops
  /// on this device ahead of simulated time (checkpoint-run compression)
  /// without reordering anything observable.
  [[nodiscard]] bool begin_is_pure() const noexcept {
    return kind_ == DeviceKind::kLocalRamdisk && noise_ <= 0.0;
  }

  /// Cost of restarting a `mem_mb` task from this device's checkpoints.
  [[nodiscard]] double restart_cost(double mem_mb) const {
    return storage::restart_cost(kind_, mem_mb);
  }

  /// Number of checkpoint ops currently in flight (across all servers).
  [[nodiscard]] std::size_t active_ops() const noexcept {
    return ops_.active();
  }

  /// Most ops ever in flight at once (observability high-water mark).
  [[nodiscard]] std::size_t ops_high_water() const noexcept {
    return ops_.high_water();
  }

  /// Servers whose writers contend: 1 for shared NFS, `n_servers` for
  /// DM-NFS, none for the ramdisk (each write stays on its own host).
  [[nodiscard]] std::size_t server_count() const noexcept {
    return load_.size();
  }

  /// Ops currently writing to one server.
  [[nodiscard]] std::size_t server_load(std::size_t server) const {
    return load_.at(server);
  }

  /// Copies the device's mutable state into `out` (simulation snapshots).
  void capture_state(BackendState& out) const {
    out.ops = ops_;
    out.per_server_active = load_;
  }

  /// Inverse of capture_state(). Must be called on the same instance the
  /// state was captured from — op ids held by queued events stay valid
  /// because the slab's slot generations are part of the copied state.
  void restore_state(const BackendState& state) {
    ops_ = state.ops;
    load_ = state.per_server_active;
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
  std::vector<std::size_t> load_;  ///< writers in flight per server
  OpSlab ops_;                     ///< payload = host (ramdisk) or server
};

}  // namespace cloudcr::storage
