#pragma once

/// \file event_queue.hpp
/// \brief Cancellable time-ordered event queue for the discrete-event engine.
///
/// Events at equal timestamps run in scheduling order (stable), which keeps
/// simulations deterministic. The queue is built for the replay hot path: a
/// week-scale trace dispatches tens of millions of events, so both the
/// callback representation and the bookkeeping avoid per-event heap
/// allocation entirely.
///
///  - Callbacks are EventFn: a move-only callable with fixed inline storage
///    (no std::function, whose libstdc++ small-buffer tops out below the
///    simulator's `this + task index + kind` captures and falls back to
///    operator new on every schedule).
///  - Live callbacks live in a slot slab indexed by a free list; EventId
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
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace cloudcr::sim {

using EventId = std::uint64_t;

/// Move-only callable with fixed inline storage (no heap, ever). Callables
/// larger than kStorage are rejected at compile time — widen the buffer
/// rather than spilling to the heap if a bigger capture ever appears.
class EventFn {
 public:
  static constexpr std::size_t kStorage = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors
                    // std::function's converting constructor
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kStorage,
                  "capture too large for EventFn inline storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned callables are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "EventFn requires nothrow-movable callables");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    vt_ = vtable_for<Fn>();
  }

  EventFn(EventFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      relocate_from(other);
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void reset() noexcept {
    if (vt_ != nullptr) {
      if (!vt_->trivial) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }

  void operator()() { vt_->invoke(buf_); }

  /// Copy of this callable, for queue snapshots. Only trivially copyable
  /// callables support cloning — every simulator event qualifies (they
  /// capture `this` + indices); anything else throws std::logic_error
  /// rather than silently aliasing captured state.
  [[nodiscard]] EventFn clone() const {
    EventFn out;
    if (vt_ != nullptr) {
      if (!vt_->trivial) throw_nontrivial_clone();
      std::memcpy(out.buf_, buf_, kStorage);
      out.vt_ = vt_;
    }
    return out;
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs dst from src, then destroys src. Null for trivially
    /// copyable callables, which relocate by memcpy and skip destruction —
    /// every simulator event is in this class, so the common path costs one
    /// indirect call (invoke) per event instead of three.
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void*) noexcept;
    bool trivial;
  };

  template <typename Fn>
  static const VTable* vtable_for() noexcept {
    static constexpr VTable vt = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* src, void* dst) noexcept {
          Fn* from = static_cast<Fn*>(src);
          ::new (dst) Fn(std::move(*from));
          from->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
        std::is_trivially_copyable_v<Fn> &&
            std::is_trivially_destructible_v<Fn>,
    };
    return &vt;
  }

  [[noreturn]] static void throw_nontrivial_clone();

  /// Takes over `other`'s callable; vt_ is already set to other.vt_.
  void relocate_from(EventFn& other) noexcept {
    if (vt_->trivial) {
      std::memcpy(buf_, other.buf_, kStorage);
    } else {
      vt_->relocate(other.buf_, buf_);
    }
    other.vt_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kStorage];
  const VTable* vt_ = nullptr;
};

/// Time-ordered callback queue: a calendar queue with stable ordering and
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

  /// Schedules `fn` at absolute time `time`. Returns an id for cancel().
  EventId schedule(double time, EventFn fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
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

  /// Pops and returns the next live event (time, fn). Requires !empty().
  std::pair<double, EventFn> pop() {
    if (live_ == 0) throw_empty("EventQueue::pop: empty");
    normalize();
    Bucket& b = buckets_[bucket_index(cur_window_)];
    const Entry top = b.back();
    b.pop_back();
    --resident_;
    last_popped_seq_ = top.seq;
    EventFn fn = std::move(slots_[top.slot].fn);
    release_slot(top.slot);
    --live_;
    if (resident_ * 8 < buckets_.size() && buckets_.size() > kMinBuckets) {
      // Clamp: size/4 from just above the floor would undershoot it.
      rebuild(std::max(buckets_.size() / 4, kMinBuckets));
    }
    return {top.time, std::move(fn)};
  }

  /// Drops every pending event; capacity is retained for reuse.
  void clear() noexcept;

  /// Calendar rebuilds (grow/shrink/re-tune) since construction or the
  /// last clear(). Observability accounting; not part of queue semantics.
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }

  /// Deep copy of the whole queue — entries, slot generations, the seq
  /// counters, and the calendar tuning (width, cursor, rebuild cadence
  /// counters) — so a restored queue continues with bit-identical pop
  /// order AND bit-identical rebuild accounting. Requires every pending
  /// callback to be trivially copyable (EventFn::clone throws otherwise).
  [[nodiscard]] EventQueue clone() const;

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
    EventFn fn;
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
    s.fn.reset();
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
