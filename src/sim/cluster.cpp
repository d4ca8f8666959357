#include "sim/cluster.hpp"

#include <cmath>
#include <stdexcept>

namespace cloudcr::sim {

bool Vm::allocate(double mem_mb) noexcept {
  if (mem_mb < 0.0 || mem_mb > available_mb()) return false;
  used_mb_ += mem_mb;
  ++tasks_;
  return true;
}

void Vm::release(double mem_mb) noexcept {
  used_mb_ -= mem_mb;
  if (used_mb_ < 0.0) used_mb_ = 0.0;
  if (tasks_ > 0) --tasks_;
}

Cluster::Cluster(ClusterConfig config) : config_(config) {
  if (config_.hosts == 0 || config_.vms_per_host == 0) {
    throw std::invalid_argument("Cluster: needs at least one host and VM");
  }
  // Written so NaN fails too: it passes a `<= 0` test and fits no task.
  if (!(config_.vm_memory_mb > 0.0) || std::isinf(config_.vm_memory_mb)) {
    throw std::invalid_argument("Cluster: VM memory must be finite and > 0");
  }
  vms_.reserve(config_.hosts * config_.vms_per_host);
  VmId next = 0;
  for (HostId h = 0; h < config_.hosts; ++h) {
    for (std::size_t v = 0; v < config_.vms_per_host; ++v) {
      vms_.emplace_back(next++, h, config_.vm_memory_mb);
    }
  }
  max_capacity_mb_ = config_.vm_memory_mb;

  host_best_avail_.resize(config_.hosts);
  host_best_vm_.resize(config_.hosts);
  heap_.resize(config_.hosts);
  heap_pos_.resize(config_.hosts);
  reset();
}

void Cluster::reset() noexcept {
  for (Vm& vm : vms_) vm.reset();
  for (HostId h = 0; h < config_.hosts; ++h) {
    host_best_avail_[h] = config_.vm_memory_mb;
    host_best_vm_[h] = h * config_.vms_per_host;  // lowest id wins ties
    heap_[h] = h;                                 // all equal: id order
    heap_pos_[h] = h;
  }
  total_available_mb_ =
      config_.vm_memory_mb * static_cast<double>(vms_.size());
  running_tasks_ = 0;
}

bool Cluster::host_better(HostId a, HostId b) const noexcept {
  if (host_best_avail_[a] != host_best_avail_[b]) {
    return host_best_avail_[a] > host_best_avail_[b];
  }
  return a < b;
}

void Cluster::sift_up(std::size_t pos) noexcept {
  const HostId moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!host_better(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = moving;
  heap_pos_[moving] = pos;
}

void Cluster::sift_down(std::size_t pos) noexcept {
  const HostId moving = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * pos + 1;
    if (left >= n) break;
    std::size_t child = left;
    const std::size_t right = left + 1;
    if (right < n && host_better(heap_[right], heap_[left])) child = right;
    if (!host_better(heap_[child], moving)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = moving;
  heap_pos_[moving] = pos;
}

void Cluster::refresh_host(HostId h) noexcept {
  const std::size_t first = h * config_.vms_per_host;
  const std::size_t last = first + config_.vms_per_host;
  double best_avail = -1.0;
  VmId best_vm = first;
  for (std::size_t v = first; v < last; ++v) {
    const double avail = vms_[v].available_mb();
    if (avail > best_avail) {  // strict: lowest id wins ties
      best_avail = avail;
      best_vm = v;
    }
  }
  host_best_avail_[h] = best_avail;
  host_best_vm_[h] = best_vm;
  const std::size_t pos = heap_pos_[h];
  sift_up(pos);
  sift_down(heap_pos_[h]);
}

bool Cluster::allocate(VmId id, double mem_mb) {
  Vm& vm = vms_.at(id);
  if (!vm.allocate(mem_mb)) return false;
  total_available_mb_ -= mem_mb;
  ++running_tasks_;
  refresh_host(vm.host());
  return true;
}

void Cluster::release(VmId id, double mem_mb) {
  Vm& vm = vms_.at(id);
  const double before = vm.used_mb();
  vm.release(mem_mb);
  total_available_mb_ += before - vm.used_mb();
  if (running_tasks_ > 0) --running_tasks_;
  refresh_host(vm.host());
}

std::optional<HostId> Cluster::best_host(
    std::optional<HostId> exclude) const noexcept {
  const HostId top = heap_[0];
  if (!exclude || top != *exclude) return top;
  // The root is excluded: the best remaining host is one of its children
  // (every other node is dominated by one of them).
  std::optional<HostId> runner_up;
  for (std::size_t child = 1; child <= 2 && child < heap_.size(); ++child) {
    const HostId h = heap_[child];
    if (!runner_up || host_better(h, *runner_up)) runner_up = h;
  }
  return runner_up;
}

std::optional<VmId> Cluster::select_vm(
    double mem_mb, std::optional<HostId> exclude_host) const {
  const auto host = best_host(exclude_host);
  if (!host || host_best_avail_[*host] < mem_mb || mem_mb < 0.0) {
    return std::nullopt;
  }
  return host_best_vm_[*host];
}

bool Cluster::can_fit(double mem_mb,
                      std::optional<HostId> exclude_host) const noexcept {
  const auto host = best_host(exclude_host);
  return host && mem_mb >= 0.0 && host_best_avail_[*host] >= mem_mb;
}

double Cluster::max_available_mb() const noexcept {
  return host_best_avail_[heap_[0]];
}

}  // namespace cloudcr::sim
