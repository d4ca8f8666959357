// Counter/timer/gauge registry: per-thread collection, order-independent
// merges, snapshot sorting, and the text/JSON renderings.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hpp"

namespace cloudcr::obs {
namespace {

std::uint64_t value_of(const std::string& name) {
  for (const StatValue& v : stats_snapshot()) {
    if (v.name == name) return v.value;
  }
  ADD_FAILURE() << "stat '" << name << "' not in the snapshot";
  return 0;
}

TEST(StatsRegistry, CountersSumAcrossAdds) {
  static Stat counter("test.sum_counter", StatKind::kCounter);
  reset_stats();
  counter.add(3);
  counter.add(4);
  EXPECT_EQ(value_of("test.sum_counter"), 7u);
}

TEST(StatsRegistry, GaugesKeepTheMaximum) {
  static Stat gauge("test.max_gauge", StatKind::kGauge);
  reset_stats();
  gauge.add(10);
  gauge.add(3);
  gauge.add(8);
  EXPECT_EQ(value_of("test.max_gauge"), 10u);
}

TEST(StatsRegistry, ResetZeroesEverySlot) {
  static Stat counter("test.reset_counter", StatKind::kCounter);
  counter.add(42);
  reset_stats();
  EXPECT_EQ(value_of("test.reset_counter"), 0u);
}

TEST(StatsRegistry, MergesAcrossThreadsOrderFree) {
  static Stat counter("test.thread_counter", StatKind::kCounter);
  static Stat gauge("test.thread_gauge", StatKind::kGauge);
  reset_stats();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 1000; ++i) counter.add(1);
      gauge.add(static_cast<std::uint64_t>(100 + t));
    });
  }
  for (auto& w : workers) w.join();
  // Sum is partition-independent, max picks the largest thread's value.
  EXPECT_EQ(value_of("test.thread_counter"), 4000u);
  EXPECT_EQ(value_of("test.thread_gauge"), 103u);
}

TEST(StatsRegistry, CountsSurviveThreadExit) {
  static Stat counter("test.exit_counter", StatKind::kCounter);
  reset_stats();
  std::thread([&] { counter.add(5); }).join();
  EXPECT_EQ(value_of("test.exit_counter"), 5u);
}

TEST(StatsRegistry, SnapshotIsSortedByName) {
  const auto snapshot = stats_snapshot();
  ASSERT_FALSE(snapshot.empty());
  for (std::size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);
  }
}

TEST(StatsRegistry, BuiltInsAreAlwaysPresent) {
  // The registry shape is a function of the build, not the workload: every
  // built-in shows up (value 0 when nothing ran), so downstream parsers
  // can rely on the columns existing.
  reset_stats();
  EXPECT_EQ(value_of("sim.events_popped"), 0u);
  EXPECT_EQ(value_of("sched.decide_calls"), 0u);
  EXPECT_EQ(value_of("api.replay_ns"), 0u);
}

TEST(StatsRegistry, TextOmitsTimersOnRequest) {
  static Stat timer("test.text_timer_ns", StatKind::kTimerNs);
  reset_stats();
  timer.add(123);
  std::ostringstream with;
  write_stats_text(with, /*include_timers=*/true);
  EXPECT_NE(with.str().find("test.text_timer_ns timer_ns 123"),
            std::string::npos);
  std::ostringstream without;
  write_stats_text(without, /*include_timers=*/false);
  EXPECT_EQ(without.str().find("test.text_timer_ns"), std::string::npos);
  // Non-timer lines keep the `name kind value` shape either way.
  EXPECT_NE(without.str().find("sim.events_popped counter 0"),
            std::string::npos);
}

TEST(StatsRegistry, JsonCarriesNameKindValue) {
  static Stat counter("test.json_counter", StatKind::kCounter);
  reset_stats();
  counter.add(9);
  std::ostringstream os;
  write_stats_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("{\"name\":\"test.json_counter\",\"kind\":\"counter\","
                      "\"value\":9}"),
            std::string::npos);
}

TEST(StatsRegistry, KindTokens) {
  EXPECT_STREQ(stat_kind_token(StatKind::kCounter), "counter");
  EXPECT_STREQ(stat_kind_token(StatKind::kGauge), "gauge");
  EXPECT_STREQ(stat_kind_token(StatKind::kTimerNs), "timer_ns");
}

}  // namespace
}  // namespace cloudcr::obs
