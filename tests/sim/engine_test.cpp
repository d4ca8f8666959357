#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace cloudcr::sim {
namespace {

TEST(Engine, ClockAdvancesWithEvents) {
  Engine e;
  std::vector<double> times;
  e.schedule_at(1.0, Event{});
  e.schedule_at(2.5, Event{});
  const std::size_t n = e.run([&](Event) { times.push_back(e.now()); });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, Event{0, 0});
  e.run([&](Event ev) {
    if (ev.kind == 0) {
      e.schedule_in(5.0, Event{0, 1});
    } else {
      fired_at = e.now();
    }
  });
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  e.schedule_at(10.0, Event{});
  e.run([](Event) {});
  EXPECT_THROW(e.schedule_at(5.0, Event{}), std::invalid_argument);
  EXPECT_THROW(e.schedule_in(-1.0, Event{}), std::invalid_argument);
}

TEST(Engine, CurrentSeqIsTheDispatchedEventsSeq) {
  // Two events at one time: each sees its own seq, and a seq reserved while
  // the first runs follows every seq already handed out.
  Engine e;
  std::vector<std::uint64_t> seen;
  std::uint64_t reserved = 0;
  e.schedule_at(1.0, Event{0, 0});
  e.schedule_at(1.0, Event{1, 0});
  e.run([&](Event ev) {
    seen.push_back(e.current_seq());
    if (ev.target == 0) reserved = e.reserve_seq();
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_LT(seen[0], seen[1]);
  EXPECT_GT(reserved, seen[1]);
}

TEST(Engine, CancelWorksThroughEngine) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(1.0, Event{});
  EXPECT_TRUE(e.cancel(id));
  e.run([&](Event) { ++fired; });
  EXPECT_EQ(fired, 0);
}

TEST(Engine, IdleReflectsQueue) {
  Engine e;
  EXPECT_TRUE(e.idle());
  e.schedule_at(1.0, Event{});
  EXPECT_FALSE(e.idle());
  e.run([](Event) {});
  EXPECT_TRUE(e.idle());
}

TEST(Engine, CascadedEventsRunToCompletion) {
  Engine e;
  int count = 0;
  e.schedule_at(0.0, Event{});
  const std::size_t n = e.run([&](Event ev) {
    if (++count < 100) e.schedule_in(1.0, ev);
  });
  EXPECT_EQ(n, 100u);
  EXPECT_DOUBLE_EQ(e.now(), 99.0);
}

TEST(Engine, RunUntilBeforeLeavesLaterEventsQueued) {
  Engine e;
  std::vector<std::uint32_t> fired;
  for (std::uint32_t i = 0; i < 4; ++i) {
    e.schedule_at(static_cast<double>(i), Event{i, 0});
  }
  const auto record = [&](Event ev) { fired.push_back(ev.target); };
  EXPECT_EQ(e.run_until_before(2.0, record), 2u);
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  EXPECT_EQ(e.pending_events(), 2u);
}

TEST(Engine, CopyIsASnapshotThatContinuesIdentically) {
  // Copying an engine mid-run takes the clock, every pending event, the
  // slot generations and the seq counter: the copy and the original pop the
  // same events at the same times with the same seqs, an id handed out
  // before the copy cancels in both, and neither run disturbs the other.
  Engine e;
  for (std::uint32_t i = 0; i < 50; ++i) {
    e.schedule_at(static_cast<double>(i % 7) + 0.5 * i, Event{i, 1});
  }
  const EventId doomed = e.schedule_at(3.0, Event{999, 1});
  e.run_until_before(2.0, [](Event) {});

  struct Pop {
    double time;
    std::uint64_t seq;
    std::uint32_t target;
    bool operator==(const Pop&) const = default;
  };
  const auto drain = [](Engine& engine) {
    std::vector<Pop> pops;
    engine.run([&](Event ev) {
      pops.push_back(Pop{engine.now(), engine.current_seq(), ev.target});
      // Events scheduled after the copy take the same seqs on both sides.
      if (ev.kind == 1 && ev.target % 5 == 0) {
        engine.schedule_in(1.25, Event{ev.target + 1000, 0});
      }
    });
    return pops;
  };

  Engine copy = e;
  EXPECT_TRUE(copy.cancel(doomed));
  EXPECT_TRUE(e.cancel(doomed));
  const std::vector<Pop> from_copy = drain(copy);
  const std::vector<Pop> from_original = drain(e);
  EXPECT_FALSE(from_original.empty());
  EXPECT_EQ(from_copy, from_original);
  EXPECT_DOUBLE_EQ(copy.now(), e.now());
}

}  // namespace
}  // namespace cloudcr::sim
