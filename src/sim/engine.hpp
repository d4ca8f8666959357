#pragma once

/// \file engine.hpp
/// \brief Discrete-event simulation engine: clock + event dispatch loop.
///
/// The engine owns the clock and the event queue; what an event does is the
/// caller's business. The drain loops take the dispatcher as a callable
/// (`run(fire)`, `run_until_before(t, fire)`) and hand it each popped Event
/// with the clock already at the event's time. An engine holds nothing but
/// data, so copying one is a complete snapshot of the clock and every
/// pending event (slot generations, seq counter and calendar tuning
/// included): a copy continues with the same pops in the same order.

#include <cstddef>
#include <cstdint>

#include "sim/event_queue.hpp"

namespace cloudcr::sim {

/// Owns the simulation clock and drives the event queue.
class Engine {
 public:
  /// Current simulation time (s).
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedules at an absolute time; must not be in the past.
  EventId schedule_at(double time, Event event);

  /// Schedules `delay` seconds from now; delay must be >= 0. Inline: this is
  /// the replay hot path (every wakeup re-arms through here).
  EventId schedule_in(double delay, Event event) {
    if (delay < 0.0) throw_bad_schedule("Engine::schedule_in: negative delay");
    return queue_.schedule(now_ + delay, event);
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

  /// Runs until the queue drains, handing each event to `fire(Event)`.
  /// Returns the number of events dispatched. Inline so the pop loop fuses
  /// with the queue internals and the dispatcher.
  template <typename Fire>
  std::size_t run(Fire&& fire) {
    std::size_t dispatched = 0;
    while (!queue_.empty()) {
      const auto [time, event] = queue_.pop();
      now_ = time;
      fire(event);
      ++dispatched;
    }
    return dispatched;
  }

  /// Dispatches every event strictly before `t_stop` to `fire(Event)`,
  /// leaving events at t_stop (and later) queued and the clock at the last
  /// dispatched event. This is the lazy-admission boundary: the streaming
  /// replay drains the engine up to — but not into — the next arrival
  /// instant, then admits the arrival, reproducing exactly the ordering of
  /// an engine that had every arrival scheduled up front (arrivals win ties
  /// against dynamically scheduled events). Returns the number dispatched.
  template <typename Fire>
  std::size_t run_until_before(double t_stop, Fire&& fire) {
    std::size_t dispatched = 0;
    while (!queue_.empty() && queue_.next_time() < t_stop) {
      const auto [time, event] = queue_.pop();
      now_ = time;
      fire(event);
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

 private:
  [[noreturn]] static void throw_bad_schedule(const char* what);

  EventQueue queue_;
  double now_ = 0.0;
};

}  // namespace cloudcr::sim
