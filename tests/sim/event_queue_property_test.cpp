// Property: EventQueue pops in exactly the (time, scheduling-order) total
// order, under any interleaving of schedule/cancel/pop/clear — the calendar
// layout (bucket widths, rebuilds, cursor walks, sparse-region fallbacks,
// shrink/grow) must be invisible. The reference model is a std::multimap
// keyed the same way. The workload mixes the regimes that stress distinct
// code paths: dense near-term clusters, far-future stragglers (bimodal
// widths), exact time ties (seq ordering), heavy cancellation (stale
// entries), and drain-downs (shrink + locate_min).

#include "sim/event_queue.hpp"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace cloudcr::sim {
namespace {

struct Model {
  // (time, insertion order) -> marker value; multimap iteration order is
  // exactly the queue's contract.
  std::multimap<std::pair<double, std::uint64_t>, std::uint32_t> entries;
  std::uint64_t next_seq = 0;
};

class QueueVsModel {
 public:
  EventId schedule(double time, std::uint32_t marker) {
    const auto key = std::make_pair(time, model_.next_seq++);
    model_.entries.emplace(key, marker);
    const EventId id = queue_.schedule(
        time, Event{marker, static_cast<std::uint8_t>(marker % 8)});
    ids_.emplace_back(id, key);
    return id;
  }

  void cancel_random(std::uint64_t pick) {
    if (ids_.empty()) return;
    const auto [id, key] = ids_[pick % ids_.size()];
    const bool model_had = model_.entries.erase(key) > 0;
    EXPECT_EQ(queue_.cancel(id), model_had);
  }

  void pop_and_check() {
    ASSERT_FALSE(model_.entries.empty());
    ASSERT_FALSE(queue_.empty());
    const auto expected = model_.entries.begin();
    EXPECT_DOUBLE_EQ(queue_.next_time(), expected->first.first);
    const auto [time, event] = queue_.pop();
    EXPECT_DOUBLE_EQ(time, expected->first.first);
    EXPECT_EQ(event.target, expected->second)
        << "queue popped a different event than the reference order";
    EXPECT_EQ(event.kind, expected->second % 8);
    model_.entries.erase(expected);
  }

  void clear() {
    queue_.clear();
    model_.entries.clear();
    ids_.clear();
  }

  [[nodiscard]] std::size_t size() const { return model_.entries.size(); }

  void check_counters() const {
    EXPECT_EQ(queue_.size(), model_.entries.size());
    EXPECT_EQ(queue_.empty(), model_.entries.empty());
  }

 private:
  EventQueue queue_;
  Model model_;
  std::vector<std::pair<EventId, std::pair<double, std::uint64_t>>> ids_;
};

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(EventQueueProperty, MatchesReferenceOrderUnderMixedChurn) {
  QueueVsModel q;
  std::uint64_t rng = 0xc0ffee;
  std::uint32_t marker = 0;
  double clock = 0.0;  // schedules are >= the last pop, like the engine
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t roll = splitmix(rng) % 100;
    if (roll < 55 || q.size() == 0) {
      // Bimodal times: mostly a dense near cluster, sometimes far-future
      // stragglers; frequent exact ties via quantization.
      double t = clock;
      const std::uint64_t kind = splitmix(rng) % 10;
      if (kind < 6) {
        t += static_cast<double>(splitmix(rng) % 1000) * 0.01;  // dense
      } else if (kind < 9) {
        t += static_cast<double>(splitmix(rng) % 50);  // medium, tie-prone
      } else {
        t += 1.0e6 + static_cast<double>(splitmix(rng) % 5) * 2.6e6;  // far
      }
      q.schedule(t, marker++);
    } else if (roll < 70) {
      q.cancel_random(splitmix(rng));
    } else if (roll < 98) {
      q.pop_and_check();
    } else {
      q.clear();
      clock = 0.0;
    }
    if (step % 1024 == 0) q.check_counters();
  }
  // Full drain: exercises shrink rebuilds and the sparse locate_min path.
  while (q.size() > 0) q.pop_and_check();
  q.check_counters();
}

TEST(EventQueueProperty, DrainAfterBurstsKeepsOrder) {
  // Alternating burst/drain cycles around the grow/shrink thresholds.
  QueueVsModel q;
  std::uint64_t rng = 42;
  std::uint32_t marker = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    const std::size_t burst = 1 + splitmix(rng) % 700;
    for (std::size_t i = 0; i < burst; ++i) {
      q.schedule(static_cast<double>(splitmix(rng) % 4096) * 0.125,
                 marker++);
    }
    const std::size_t keep = splitmix(rng) % 32;
    while (q.size() > keep) q.pop_and_check();
  }
  while (q.size() > 0) q.pop_and_check();
}

TEST(EventQueueProperty, CopyMidChurnDrainsInReferenceOrder) {
  // A copy taken at any point of the churn (whatever the calendar's width,
  // cursor and stale entries) is a full snapshot: it drains in the
  // reference order, and the original carries on unaffected.
  QueueVsModel q;
  std::uint64_t rng = 0x5eed;
  std::uint32_t marker = 0;
  for (int step = 1; step <= 20000; ++step) {
    const std::uint64_t roll = splitmix(rng) % 100;
    if (roll < 60 || q.size() == 0) {
      // Mostly dense near times, sometimes far ones: the copies see the
      // calendar at many widths.
      const double scale = splitmix(rng) % 4 == 0 ? 250.0 : 0.01;
      q.schedule(static_cast<double>(splitmix(rng) % 4000) * scale, marker++);
    } else if (roll < 75) {
      q.cancel_random(splitmix(rng));
    } else {
      q.pop_and_check();
    }
    if (step % 2500 == 0) {
      QueueVsModel copy = q;
      while (copy.size() > 0) copy.pop_and_check();
      copy.check_counters();
    }
  }
  while (q.size() > 0) q.pop_and_check();
  q.check_counters();
}

}  // namespace
}  // namespace cloudcr::sim
