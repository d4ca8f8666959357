#include "storage/backend.hpp"

#include <stdexcept>

namespace cloudcr::storage {

StorageBackend::StorageBackend(DeviceKind kind, stats::Rng& rng, double noise,
                               std::size_t n_servers)
    : kind_(kind), rng_(&rng), noise_(noise) {
  switch (kind) {
    case DeviceKind::kLocalRamdisk:
      break;
    case DeviceKind::kSharedNfs:
      load_.assign(1, 0);
      break;
    case DeviceKind::kDmNfs:
      if (n_servers == 0) {
        throw std::invalid_argument(
            "StorageBackend: DM-NFS needs at least one server");
      }
      load_.assign(n_servers, 0);
      break;
  }
}

CheckpointTicket StorageBackend::begin_priced(const CheckpointPrice& base,
                                              std::size_t host_id) {
  CheckpointTicket t;
  if (kind_ == DeviceKind::kLocalRamdisk) {
    t.cost = apply_noise(base.cost_s);
    t.op_time = t.cost;  // a synchronous memory copy
    t.server = host_id;  // data lands on the writing host itself
    t.op_id = ops_.begin(static_cast<std::uint32_t>(host_id));
    return t;
  }
  if (kind_ == DeviceKind::kDmNfs) {
    t.server = rng_->uniform_index(load_.size());  // shared NFS: server 0
  }
  // Writers on the server, this op included, are load + 1.
  const double mult =
      1.0 + kNfsContentionSlope * static_cast<double>(load_[t.server]);
  t.cost = apply_noise(base.cost_s * mult);
  t.op_time = apply_noise(base.op_time_s * mult);
  ++load_[t.server];
  t.op_id = ops_.begin(static_cast<std::uint32_t>(t.server));
  return t;
}

void StorageBackend::end_checkpoint(std::uint64_t op_id) {
  const std::uint32_t payload = ops_.end(op_id);
  if (payload == OpSlab::kNone || load_.empty()) return;
  if (load_[payload] > 0) --load_[payload];
}

}  // namespace cloudcr::storage
