#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace cloudcr::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableAtEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ReservedSeqIsSkippedAndPopsReportTheirSeq) {
  // A reserved seq sits between the events scheduled around it without
  // queueing anything: the next schedule takes the seq after it.
  EventQueue q;
  q.schedule(5.0, [] {});
  EXPECT_EQ(q.reserve_seq(), 1u);
  q.schedule(5.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.last_popped_seq(), 0u);
  q.pop();
  EXPECT_EQ(q.last_popped_seq(), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelReturnsFalseTwice) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
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
  q.schedule(7.5, [] {});
  const auto [time, fn] = q.pop();
  EXPECT_DOUBLE_EQ(time, 7.5);
}

TEST(EventQueue, ScheduleDuringDrainIsPicked) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] {
    order.push_back(1);
    q.schedule(2.0, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace cloudcr::sim
