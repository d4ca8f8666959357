#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace cloudcr::sim {
namespace {

/// Pops every event, returning their targets in pop order.
std::vector<std::uint32_t> drain(EventQueue& q) {
  std::vector<std::uint32_t> order;
  while (!q.empty()) order.push_back(q.pop().second.target);
  return order;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(3.0, Event{3, 0});
  q.schedule(1.0, Event{1, 0});
  q.schedule(2.0, Event{2, 0});
  EXPECT_EQ(drain(q), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, StableAtEqualTimestamps) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) q.schedule(5.0, Event{i, 0});
  const std::vector<std::uint32_t> order = drain(q);
  ASSERT_EQ(order.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ReservedSeqIsSkippedAndPopsReportTheirSeq) {
  // A reserved seq sits between the events scheduled around it without
  // queueing anything: the next schedule takes the seq after it.
  EventQueue q;
  q.schedule(5.0, Event{});
  EXPECT_EQ(q.reserve_seq(), 1u);
  q.schedule(5.0, Event{});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.last_popped_seq(), 0u);
  q.pop();
  EXPECT_EQ(q.last_popped_seq(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  const EventId id = q.schedule(1.0, Event{1, 0});
  q.schedule(2.0, Event{2, 0});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(drain(q), (std::vector<std::uint32_t>{2}));
}

TEST(EventQueue, CancelReturnsFalseTwice) {
  EventQueue q;
  const EventId id = q.schedule(1.0, Event{});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.schedule(1.0, Event{});
  q.schedule(2.0, Event{});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, Event{});
  q.schedule(5.0, Event{});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, EmptyThrowsOnAccess) {
  EventQueue q;
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(7.5, Event{42, 3});
  const auto [time, event] = q.pop();
  EXPECT_DOUBLE_EQ(time, 7.5);
  EXPECT_EQ(event.target, 42u);
  EXPECT_EQ(event.kind, 3u);
}

TEST(EventQueue, ScheduleDuringDrainIsPicked) {
  EventQueue q;
  std::vector<std::uint32_t> order;
  q.schedule(1.0, Event{1, 0});
  while (!q.empty()) {
    const Event event = q.pop().second;
    order.push_back(event.target);
    if (event.target == 1) q.schedule(2.0, Event{2, 0});
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2}));
}

TEST(EventQueue, ClearInvalidatesPendingIds) {
  EventQueue q;
  const EventId pending = q.schedule(1.0, Event{});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(pending));
  // The slot is reused under a fresh generation.
  const EventId reused = q.schedule(1.0, Event{});
  EXPECT_NE(reused, pending);
  EXPECT_FALSE(q.cancel(pending));
  EXPECT_TRUE(q.cancel(reused));
}

}  // namespace
}  // namespace cloudcr::sim
