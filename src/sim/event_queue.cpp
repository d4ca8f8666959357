#include "sim/event_queue.hpp"

#include <cmath>
#include <stdexcept>

namespace cloudcr::sim {

void EventFn::throw_nontrivial_clone() {
  throw std::logic_error(
      "EventFn::clone: pending callable is not trivially copyable");
}

void EventQueue::throw_empty(const char* what) {
  throw std::logic_error(what);
}

EventQueue EventQueue::clone() const {
  EventQueue out;
  out.buckets_ = buckets_;
  out.width_ = width_;
  out.inv_width_ = inv_width_;
  out.cur_window_ = cur_window_;
  out.resident_ = resident_;
  out.inserts_since_rebuild_ = inserts_since_rebuild_;
  out.sparse_pops_since_rebuild_ = sparse_pops_since_rebuild_;
  // scratch_ is pure rebuild staging; it stays empty in the copy.
  out.slots_.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    Slot& d = out.slots_[i];
    if (s.fn) d.fn = s.fn.clone();
    d.gen = s.gen;
    d.next_free = s.next_free;
  }
  out.free_head_ = free_head_;
  out.next_seq_ = next_seq_;
  out.live_ = live_;
  out.rebuilds_ = rebuilds_;
  return out;
}

double EventQueue::next_time() const {
  if (live_ == 0) throw_empty("EventQueue::next_time: empty");
  auto* self = const_cast<EventQueue*>(this);  // lazy cleanup, not state
  self->normalize();
  return buckets_[bucket_index(cur_window_)].back().time;
}

void EventQueue::locate_min() noexcept {
  const Entry* best = nullptr;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    Bucket& b = buckets_[i];
    drop_dead_backs(b);
    if (b.empty()) continue;
    if (best == nullptr || before(b.back(), *best)) {
      best = &b.back();
    }
  }
  // live_ > 0 guarantees best != nullptr.
  cur_window_ = window_of(best->time);
}

void EventQueue::rebuild(std::size_t n_buckets) {
  ++rebuilds_;
  // Collect the surviving entries and estimate the typical spacing between
  // *consecutive* events from a sorted sample — the bucket width that keeps
  // expected occupancy at O(1). Medians resist the skew of a few far-future
  // stragglers (long-service kill dates) that would otherwise stretch the
  // width until every near-term event shared one bucket.
  scratch_.clear();
  for (Bucket& b : buckets_) {
    for (const Entry& e : b) {
      if (entry_live(e)) scratch_.push_back(e);
    }
    b.clear();
  }

  if (scratch_.size() >= 4) {
    constexpr std::size_t kSample = 64;
    double times[kSample];
    const std::size_t step =
        scratch_.size() > kSample ? scratch_.size() / kSample : 1;
    std::size_t n = 0;
    for (std::size_t i = 0; i < scratch_.size() && n < kSample; i += step) {
      times[n++] = scratch_[i].time;
    }
    std::sort(times, times + n);
    // Width targets the *next-to-fire* cluster: gaps among the smallest
    // sampled times. A replay's queue is bimodal — all job arrivals sit far
    // out while task wakeups crowd the immediate future — and a global
    // median would tune to the sparse arrivals, cramming every wakeup into
    // one bucket.
    const std::size_t m = std::min<std::size_t>(n, 17);
    double gaps[kSample];
    std::size_t g = 0;
    for (std::size_t i = 1; i < m; ++i) {
      const double gap = times[i] - times[i - 1];
      if (gap > 0.0) gaps[g++] = gap;
    }
    if (g > 0) {
      std::sort(gaps, gaps + g);
      const double median = gaps[g / 2];
      // The sample's median gap estimates (span / sample size); rescale to
      // the adjacent-event gap (span / population) before widening by 2x.
      double w = 2.0 * median * (static_cast<double>(n) /
                                 static_cast<double>(scratch_.size()));
      const double scale = std::fabs(times[n - 1]);
      const double floor_w = scale > 0.0 ? scale * 1e-12 : 1e-12;
      if (w < floor_w) w = floor_w;
      width_ = w;
      inv_width_ = 1.0 / w;
    }
  }
  inserts_since_rebuild_ = 0;
  sparse_pops_since_rebuild_ = 0;

  buckets_.resize(n_buckets);
  for (Bucket& b : buckets_) b.clear();
  resident_ = scratch_.size();
  for (const Entry& e : scratch_) {
    buckets_[bucket_index(window_of(e.time))].push_back(e);
  }
  for (Bucket& b : buckets_) {
    if (b.size() > 1) {
      std::sort(b.begin(), b.end(),
                [](const Entry& a, const Entry& c) { return before(c, a); });
    }
  }
  if (live_ > 0) {
    locate_min();
  } else {
    cur_window_ = 0;
  }
}

void EventQueue::reset_tuning() noexcept {
  buckets_.resize(kMinBuckets);
  width_ = 1.0;
  inv_width_ = 1.0;
  cur_window_ = 0;
  inserts_since_rebuild_ = 0;
  sparse_pops_since_rebuild_ = 0;
}

void EventQueue::clear() noexcept {
  rebuilds_ = 0;
  for (Bucket& b : buckets_) b.clear();
  resident_ = 0;
  cur_window_ = 0;
  for (Slot& s : slots_) {
    if (s.fn) {
      s.fn.reset();
      ++s.gen;
    }
  }
  // Rebuild the free list over every slot.
  free_head_ = kNoSlot;
  for (std::size_t i = slots_.size(); i > 0; --i) {
    slots_[i - 1].next_free = free_head_;
    free_head_ = static_cast<std::uint32_t>(i - 1);
  }
  live_ = 0;
}

}  // namespace cloudcr::sim
