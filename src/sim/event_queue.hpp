#pragma once

/// \file event_queue.hpp
/// \brief Cancellable time-ordered event queue for the discrete-event engine.
///
/// Events at equal timestamps run in scheduling order (stable), which keeps
/// simulations deterministic. The queue is built for the replay hot path: a
/// week-scale trace dispatches tens of millions of events, so the
/// bookkeeping avoids per-event heap allocation entirely.
///
///  - An event is a value (Event: a target index and a kind byte), not a
///    callable; the queue's owner dispatches popped events itself. With
///    nothing but data inside, the whole queue copies by plain assignment,
///    which is how a replay snapshot takes and restores it.
///  - Pending events live in a slot slab indexed by a free list; EventId
///    encodes (slot, generation), so cancellation is an O(1) generation
///    bump — no hash map.
///  - Ordering runs on a calendar queue (Brown 1988): 24-byte POD entries
///    hash by time into width-tuned circular buckets, giving amortized O(1)
///    schedule and pop where a binary heap pays O(log n) pointer-chasing
///    sifts. Cancelled entries are dropped lazily when they surface. Pop
///    order is exactly the (time, seq) total order — the bucket layout is
///    invisible to results, pinned by tests/sim/event_queue_property_test.cpp
///    (randomized churn against a reference std::multimap).
///
/// All storage is reusable: clear() keeps capacity, so a pooled simulation
/// replays traces with zero steady-state allocation.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cloudcr::sim {

using EventId = std::uint64_t;

/// A queued event: which object it acts on and what happens to it. Plain
/// data, so a queue (and a replay snapshot holding one) copies by
/// assignment. The owner of the queue gives both fields their meaning;
/// Simulation::fire dispatches on `kind`.
struct Event {
  std::uint32_t target = 0;
  std::uint8_t kind = 0;
};

/// Time-ordered event queue: a calendar queue with stable ordering and
/// O(1) allocation-free cancellation. Hot methods are inline: schedule/pop
/// run tens of millions of times per replay and dominate its wall time.
///
/// Events hash by time into `width_`-wide circular buckets, each kept sorted
/// descending so its minimum pops from the back in O(1). A cursor walks the
/// buckets in time order, one `width_` window per step; when a full cycle
/// finds nothing (sparse region), locate_min() jumps straight to the global
/// minimum. The bucket count doubles/shrinks with occupancy and the width
/// re-tunes to the median inter-event gap on each rebuild, keeping buckets
/// at O(1) expected occupancy. Times must be non-negative and finite.
class EventQueue {
 public:
  EventQueue() { buckets_.resize(kMinBuckets); }

  /// Schedules `event` at absolute time `time`. Returns an id for cancel().
  EventId schedule(double time, Event event) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.event = event;
    insert(Entry{time, next_seq_++, slot, s.gen});
    ++live_;
    return (static_cast<EventId>(slot) << 32) | s.gen;
  }

  /// Takes the seq the next schedule() would have assigned, queueing
  /// nothing. A caller that tracks an elided event itself keys it by this
  /// (time, seq) slot; every later event keeps the seq it would have had, so
  /// no tie order moves.
  std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  /// Seq of the entry the last pop() returned (0 before the first pop):
  /// with its time, the dispatched event's place in the (time, seq) order.
  [[nodiscard]] std::uint64_t last_popped_seq() const noexcept {
    return last_popped_seq_;
  }

  /// Cancels a pending event; returns false if it already ran or was
  /// cancelled.
  bool cancel(EventId id) noexcept {
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
    release_slot(slot);  // the bucket entry goes stale; dropped lazily
    --live_;
    return true;
  }

  /// True when no live events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Timestamp of the next live event; requires !empty().
  [[nodiscard]] double next_time() const;

  /// Pops and returns the next live event and its time. Requires !empty().
  std::pair<double, Event> pop() {
    if (live_ == 0) throw_empty("EventQueue::pop: empty");
    normalize();
    Bucket& b = buckets_[bucket_index(cur_window_)];
    const Entry top = b.back();
    b.pop_back();
    --resident_;
    last_popped_seq_ = top.seq;
    const Event event = slots_[top.slot].event;
    release_slot(top.slot);
    --live_;
    if (resident_ * 8 < buckets_.size() && buckets_.size() > kMinBuckets) {
      // Clamp: size/4 from just above the floor would undershoot it.
      rebuild(std::max(buckets_.size() / 4, kMinBuckets));
    }
    return {top.time, event};
  }

  /// Drops every pending event; capacity is retained for reuse.
  void clear() noexcept;

  /// Calendar rebuilds (grow/shrink/re-tune) since construction or the
  /// last clear(). Observability accounting; not part of queue semantics.
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }

  /// Restores the just-constructed bucket tuning. clear() deliberately
  /// keeps the learned bucket count and width so a pooled queue replays
  /// the next trace without re-growing — which makes the per-run rebuild
  /// count depend on what the workspace ran before. Instrumented runs
  /// reset tuning first so `sim.queue_rebuilds` is a pure function of the
  /// spec regardless of how a batch was partitioned across workers (pop
  /// order never depends on tuning, so results are unaffected either
  /// way). Precondition: the queue is empty.
  void reset_tuning() noexcept;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kMinBuckets = 16;   // power of two
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;

  struct Slot {
    Event event;
    std::uint32_t gen = 1;        ///< bumped on release; 0 never used
    std::uint32_t next_free = kNoSlot;
  };

  struct Entry {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  using Bucket = std::vector<Entry>;

  /// Strict total order: earlier time first; at ties, scheduling order.
  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool entry_live(const Entry& e) const noexcept {
    return slots_[e.slot].gen == e.gen;
  }

  /// Sentinel window for times too far out for exact indexing; all such
  /// stragglers share one (sorted) bucket and pop via their time order.
  static constexpr std::uint64_t kFarWindow = std::uint64_t{1} << 62;

  /// Absolute window index of time `t`: floor(t / width). Integer window
  /// arithmetic keeps the insert and scan sides exactly consistent — no
  /// accumulated floating-point drift can ever mis-slot an entry.
  [[nodiscard]] std::uint64_t window_of(double t) const noexcept {
    const double idx = (t > 0.0 ? t : 0.0) * inv_width_;
    if (idx >= static_cast<double>(kFarWindow)) return kFarWindow;
    return static_cast<std::uint64_t>(idx);
  }

  [[nodiscard]] std::size_t bucket_index(std::uint64_t window) const noexcept {
    return static_cast<std::size_t>(window) & (buckets_.size() - 1);
  }

  /// Inserts an entry into its (sorted, descending) bucket.
  void insert(const Entry& e) {
    if (resident_ + 1 > buckets_.size() * 2 &&
        buckets_.size() < kMaxBuckets) {
      rebuild(buckets_.size() * 2);
    }
    const std::uint64_t window = window_of(e.time);
    Bucket& b = buckets_[bucket_index(window)];
    auto it = std::upper_bound(
        b.begin(), b.end(), e,
        [](const Entry& x, const Entry& y) { return before(y, x); });
    b.insert(it, e);
    ++resident_;
    ++inserts_since_rebuild_;
    // A crowded bucket means the width no longer matches the event-time
    // distribution (it drifts as a replay moves from scheduling far-out
    // arrivals to dense near-term wakeups); re-tune, amortized so rebuild
    // work stays O(1) per insert even for degenerate (equal-time) loads.
    if (b.size() >= 32 && inserts_since_rebuild_ >= resident_) {
      rebuild(buckets_.size());
    } else if (window < cur_window_) {
      // Scan invariant: the cursor sits at or before every entry's window.
      cur_window_ = window;
    }
  }

  void drop_dead_backs(Bucket& b) noexcept {
    while (!b.empty() && !entry_live(b.back())) {
      b.pop_back();
      --resident_;
    }
  }

  /// Advances the cursor to the bucket holding the next live entry (its
  /// back). Requires live_ > 0.
  void normalize() {
    std::size_t scanned = 0;
    while (true) {
      Bucket& b = buckets_[bucket_index(cur_window_)];
      drop_dead_backs(b);
      if (!b.empty() && window_of(b.back().time) <= cur_window_) return;
      ++cur_window_;
      if (++scanned >= buckets_.size()) {
        // Sparse region: jump to the minimum directly. Repeated fallbacks
        // mean the width is tuned too fine for what remains — re-tune.
        if (++sparse_pops_since_rebuild_ > 64 && live_ > 4) {
          rebuild(buckets_.size());
        } else {
          locate_min();
        }
        return;
      }
    }
  }

  void locate_min() noexcept;
  void rebuild(std::size_t n_buckets);

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    ++s.gen;  // invalidates the outstanding EventId and stale entries
    s.next_free = free_head_;
    free_head_ = slot;
  }

  [[noreturn]] static void throw_empty(const char* what);

  std::vector<Bucket> buckets_;
  double width_ = 1.0;
  double inv_width_ = 1.0;
  std::uint64_t cur_window_ = 0;  ///< scan cursor, as an absolute window
  std::size_t resident_ = 0;      ///< entries in buckets (live + stale)
  std::size_t inserts_since_rebuild_ = 0;
  std::size_t sparse_pops_since_rebuild_ = 0;
  Bucket scratch_;                ///< rebuild staging (capacity retained)

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_popped_seq_ = 0;
  std::size_t live_ = 0;
  // Cold accounting last: keeps the hot scan/slot fields' layout intact.
  std::uint64_t rebuilds_ = 0;    ///< lifetime rebuild count (observability)
};

}  // namespace cloudcr::sim
