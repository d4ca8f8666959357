#pragma once

/// \file engine.hpp
/// \brief Discrete-event simulation engine: clock + event dispatch loop.

#include <cstddef>

#include "sim/event_queue.hpp"

namespace cloudcr::sim {

/// Owns the simulation clock and drives the event queue.
class Engine {
 public:
  /// Current simulation time (s).
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedules at an absolute time; must not be in the past.
  EventId schedule_at(double time, EventFn fn);

  /// Schedules `delay` seconds from now; delay must be >= 0. Inline: this is
  /// the replay hot path (every wakeup re-arms through here).
  EventId schedule_in(double delay, EventFn fn) {
    if (delay < 0.0) throw_bad_schedule("Engine::schedule_in: negative delay");
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Takes the seq of an event that is never queued (see
  /// EventQueue::reserve_seq): work the caller tracks itself keeps the
  /// place in the (time, seq) order that event would have had.
  std::uint64_t reserve_seq() noexcept { return queue_.reserve_seq(); }

  /// Seq of the event being (or last) dispatched; with now(), its place in
  /// the (time, seq) order.
  [[nodiscard]] std::uint64_t current_seq() const noexcept {
    return queue_.last_popped_seq();
  }

  /// Runs until the queue drains. Returns the number of events dispatched.
  /// Inline so the pop loop fuses with the queue internals.
  std::size_t run() {
    std::size_t dispatched = 0;
    while (!queue_.empty()) {
      auto [time, fn] = queue_.pop();
      now_ = time;
      fn();
      ++dispatched;
    }
    return dispatched;
  }

  /// Dispatches every event strictly before `t_stop`, leaving events at
  /// t_stop (and later) queued and the clock at the last dispatched event.
  /// This is the lazy-admission boundary: the streaming replay drains the
  /// engine up to — but not into — the next arrival instant, then admits
  /// the arrival, reproducing exactly the ordering of an engine that had
  /// every arrival scheduled up front (arrivals win ties against
  /// dynamically scheduled events). Returns the number dispatched.
  std::size_t run_until_before(double t_stop) {
    std::size_t dispatched = 0;
    while (!queue_.empty() && queue_.next_time() < t_stop) {
      auto [time, fn] = queue_.pop();
      now_ = time;
      fn();
      ++dispatched;
    }
    return dispatched;
  }

  /// Moves the clock forward to `t` without dispatching anything; `t` must
  /// not be in the past. Used when work is injected at its own timestamp
  /// instead of through a queued event (streamed job arrivals).
  void advance_to(double t) {
    if (t < now_) throw_bad_schedule("Engine::advance_to: time is in the past");
    now_ = t;
  }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

  /// Calendar-queue rebuilds since the last reset() (observability).
  [[nodiscard]] std::uint64_t queue_rebuilds() const noexcept {
    return queue_.rebuilds();
  }

  /// Rewinds the clock to zero and drops pending events; queue capacity is
  /// retained, so a pooled engine replays traces without reallocating.
  void reset() noexcept {
    queue_.clear();
    now_ = 0.0;
  }

  /// Restores the just-constructed calendar tuning (see
  /// EventQueue::reset_tuning). Only meaningful on an empty queue.
  void reset_queue_tuning() noexcept { queue_.reset_tuning(); }

  /// Frozen engine state: the clock plus a deep copy of the event queue
  /// (pending callbacks, slot generations, seq counter, calendar tuning).
  /// Queued callbacks capture raw pointers (`this`, backends), so a
  /// snapshot may only be restored into the very object graph that took
  /// it — Simulation::run_stream's RunControl::resume_from enforces that
  /// contract.
  struct Snapshot {
    EventQueue queue;
    double now = 0.0;
  };

  /// Captures the current clock + queue. Every pending callback must be
  /// trivially copyable (all simulator events are); otherwise throws.
  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{queue_.clone(), now_};
  }

  /// Rewinds this engine to a previously captured snapshot. Outstanding
  /// EventIds from snapshot time stay valid (slot generations are part of
  /// the copied state); ids handed out after the snapshot are not.
  void restore(const Snapshot& snap) {
    queue_ = snap.queue.clone();
    now_ = snap.now;
  }

 private:
  [[noreturn]] static void throw_bad_schedule(const char* what);

  EventQueue queue_;
  double now_ = 0.0;
};

}  // namespace cloudcr::sim
