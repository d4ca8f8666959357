#pragma once

/// \file cluster.hpp
/// \brief The simulated data center: hosts, VM instances, and the greedy
/// memory-based placement policy from the paper's experimental setup
/// (32 hosts x 7 VMs, 1 GB memory per VM, max-available-memory selection).
///
/// Placement queries are served from a two-level free-memory index instead of
/// a full VM scan: each host tracks its best (max-available, lowest-id) VM,
/// and an indexed binary heap orders hosts by that best. select_vm and the
/// can_fit feasibility probes are O(1); an allocate/release updates one
/// host's best (a scan of its few VMs) plus one heap sift — O(vms_per_host +
/// log hosts). The index reproduces the paper's greedy policy bit-exactly,
/// including its tie-breaking (lowest VM id among equally-free VMs).
///
/// All mutations go through Cluster::allocate/release so the index can never
/// go stale; Vm itself only exposes read accessors plus standalone
/// accounting used directly in tests.

#include <cstddef>
#include <optional>
#include <vector>

namespace cloudcr::sim {

using VmId = std::size_t;
using HostId = std::size_t;

/// One VM instance with a fixed memory capacity and a running allocation.
class Vm {
 public:
  Vm(VmId id, HostId host, double memory_mb) noexcept
      : id_(id), host_(host), capacity_mb_(memory_mb) {}

  [[nodiscard]] VmId id() const noexcept { return id_; }
  [[nodiscard]] HostId host() const noexcept { return host_; }
  [[nodiscard]] double capacity_mb() const noexcept { return capacity_mb_; }
  [[nodiscard]] double used_mb() const noexcept { return used_mb_; }
  [[nodiscard]] double available_mb() const noexcept {
    return capacity_mb_ - used_mb_;
  }
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_; }

  /// Reserves memory for one task; returns false if it does not fit.
  /// When the Vm belongs to a Cluster, go through Cluster::allocate instead
  /// so the placement index stays in sync.
  bool allocate(double mem_mb) noexcept;

  /// Releases memory of one task; clamped at zero defensively.
  void release(double mem_mb) noexcept;

  /// Drops every allocation (pooled reuse).
  void reset() noexcept {
    used_mb_ = 0.0;
    tasks_ = 0;
  }

 private:
  VmId id_;
  HostId host_;
  double capacity_mb_;
  double used_mb_ = 0.0;
  std::size_t tasks_ = 0;
};

/// Cluster topology parameters; defaults mirror the paper's testbed.
struct ClusterConfig {
  std::size_t hosts = 32;
  std::size_t vms_per_host = 7;
  double vm_memory_mb = 1024.0;

  bool operator==(const ClusterConfig&) const = default;
};

/// The pool of VMs with the paper's greedy max-available-memory placement.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  [[nodiscard]] const Vm& vm(VmId id) const { return vms_.at(id); }

  /// Reserves memory for one task on `id`, updating the placement index.
  /// Returns false (and changes nothing) if the task does not fit.
  bool allocate(VmId id, double mem_mb);

  /// Releases memory of one task on `id`, updating the placement index.
  void release(VmId id, double mem_mb);

  /// Greedy policy: the VM with the maximum available memory that still fits
  /// `mem_mb`; nullopt when nothing fits. `exclude_host` skips a host (used
  /// to restart a failed task "on another host" as in the paper). O(1).
  [[nodiscard]] std::optional<VmId> select_vm(
      double mem_mb, std::optional<HostId> exclude_host = std::nullopt) const;

  /// True when some VM (outside `exclude_host`, if given) could hold
  /// `mem_mb` right now. Equivalent to select_vm(...).has_value(), O(1).
  [[nodiscard]] bool can_fit(
      double mem_mb,
      std::optional<HostId> exclude_host = std::nullopt) const noexcept;

  /// Largest amount of free memory on any single VM right now. O(1).
  [[nodiscard]] double max_available_mb() const noexcept;

  /// Memory capacity of the largest VM — the static ceiling on what any
  /// single task can ever demand (unschedulability detection).
  [[nodiscard]] double max_vm_capacity_mb() const noexcept {
    return max_capacity_mb_;
  }

  /// Total memory currently available across all VMs. O(1).
  [[nodiscard]] double total_available_mb() const noexcept {
    return total_available_mb_;
  }
  /// Total number of running task allocations.
  [[nodiscard]] std::size_t running_tasks() const noexcept {
    return running_tasks_;
  }

  /// Returns every VM to empty and rebuilds the index (pooled reuse).
  void reset() noexcept;

 private:
  /// Recomputes host `h`'s best VM and re-sifts it in the host heap.
  void refresh_host(HostId h) noexcept;

  /// True when host `a` offers a strictly better placement than host `b`
  /// (more free memory on its best VM; lower host id at ties, which matches
  /// the lowest-VM-id tie-break of a full scan).
  [[nodiscard]] bool host_better(HostId a, HostId b) const noexcept;

  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;

  /// Best-placement host not equal to `exclude`; nullopt when every host is
  /// excluded. The runner-up lives at heap position 1 or 2 (a heap's
  /// second-best is always a child of the root).
  [[nodiscard]] std::optional<HostId> best_host(
      std::optional<HostId> exclude) const noexcept;

  ClusterConfig config_;
  std::vector<Vm> vms_;

  // -- free-memory index ----------------------------------------------------
  std::vector<double> host_best_avail_;  ///< per host: free MB on its best VM
  std::vector<VmId> host_best_vm_;       ///< per host: that VM's id
  std::vector<HostId> heap_;             ///< hosts ordered by host_better
  std::vector<std::size_t> heap_pos_;    ///< host -> position in heap_

  double max_capacity_mb_ = 0.0;
  double total_available_mb_ = 0.0;
  std::size_t running_tasks_ = 0;
};

}  // namespace cloudcr::sim
