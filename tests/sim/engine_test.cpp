#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace cloudcr::sim {
namespace {

TEST(Engine, ClockAdvancesWithEvents) {
  Engine e;
  std::vector<double> times;
  e.schedule_at(1.0, [&] { times.push_back(e.now()); });
  e.schedule_at(2.5, [&] { times.push_back(e.now()); });
  const std::size_t n = e.run();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_in(5.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  e.schedule_at(10.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Engine, CurrentSeqIsTheDispatchedEventsSeq) {
  // Two events at one time: each sees its own seq, and a seq reserved while
  // the first runs follows every seq already handed out.
  Engine e;
  std::vector<std::uint64_t> seen;
  std::uint64_t reserved = 0;
  e.schedule_at(1.0, [&] {
    seen.push_back(e.current_seq());
    reserved = e.reserve_seq();
  });
  e.schedule_at(1.0, [&] { seen.push_back(e.current_seq()); });
  e.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_LT(seen[0], seen[1]);
  EXPECT_GT(reserved, seen[1]);
}

TEST(Engine, CancelWorksThroughEngine) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, IdleReflectsQueue) {
  Engine e;
  EXPECT_TRUE(e.idle());
  e.schedule_at(1.0, [] {});
  EXPECT_FALSE(e.idle());
  e.run();
  EXPECT_TRUE(e.idle());
}

TEST(Engine, CascadedEventsRunToCompletion) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) e.schedule_in(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  const std::size_t n = e.run();
  EXPECT_EQ(n, 100u);
  EXPECT_DOUBLE_EQ(e.now(), 99.0);
}

}  // namespace
}  // namespace cloudcr::sim
