#include "storage/backend.hpp"

#include <algorithm>
#include <stdexcept>

namespace cloudcr::storage {

StorageBackend::StorageBackend(DeviceKind kind, stats::Rng& rng, double noise,
                               std::size_t n_servers)
    : kind_(kind), rng_(&rng), noise_(noise) {
  switch (kind) {
    case DeviceKind::kLocalRamdisk:
      break;
    case DeviceKind::kSharedNfs:
      in_flight_.resize(1);
      break;
    case DeviceKind::kDmNfs:
      if (n_servers == 0) {
        throw std::invalid_argument(
            "StorageBackend: DM-NFS needs at least one server");
      }
      in_flight_.resize(n_servers);
      break;
  }
}

CheckpointTicket StorageBackend::begin_priced(const CheckpointPrice& base,
                                              std::size_t host_id,
                                              const WriteInstant& at) {
  CheckpointTicket t;
  if (kind_ == DeviceKind::kLocalRamdisk) {
    t.cost = apply_noise(base.cost_s);
    t.op_time = t.cost;  // a synchronous memory copy
    t.server = host_id;  // data lands on the writing host itself
    return t;
  }
  if (kind_ == DeviceKind::kDmNfs) {
    t.server = rng_->uniform_index(in_flight_.size());  // shared NFS: 0
  }
  // A write whose end precedes the instant has left the server.
  std::vector<InFlightWrite>& writes = in_flight_[t.server];
  std::erase_if(writes, [&at](const InFlightWrite& w) {
    return w.end_s < at.time_s || (w.end_s == at.time_s && w.seq < at.seq);
  });
  // Writers on the server, this one included, are writes.size() + 1.
  const double mult =
      1.0 + kNfsContentionSlope * static_cast<double>(writes.size());
  t.cost = apply_noise(base.cost_s * mult);
  t.op_time = apply_noise(base.op_time_s * mult);
  const double end_s = at.time_s + t.op_time;
  writes.push_back({end_s, at.end_seq});
  latest_end_s_ = std::max(latest_end_s_, end_s);
  return t;
}

}  // namespace cloudcr::storage
