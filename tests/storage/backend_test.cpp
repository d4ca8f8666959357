#include "storage/backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

namespace cloudcr::storage {
namespace {

/// Writes each server of `b` holds (begun and not yet dropped by a later
/// begin on that server).
std::vector<std::size_t> held_writes(const StorageBackend& b) {
  BackendState state;
  b.capture_state(state);
  std::vector<std::size_t> held;
  for (const auto& writes : state.in_flight) held.push_back(writes.size());
  return held;
}

TEST(LocalRamdisk, PricesFromCalibrationWithoutNoise) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng);
  const auto t = b.begin_checkpoint(160.0, 3);
  EXPECT_DOUBLE_EQ(t.cost, 0.632);
  EXPECT_DOUBLE_EQ(t.op_time, t.cost);
  EXPECT_EQ(t.server, 3u);  // data lands on the writing host
}

TEST(LocalRamdisk, NoContentionUnderParallelWriters) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng);
  std::vector<CheckpointTicket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(b.begin_checkpoint(160.0, 0));
  for (const auto& t : tickets) EXPECT_DOUBLE_EQ(t.cost, 0.632);
  EXPECT_EQ(b.server_count(), 0u);  // no shared server to contend on
}

TEST(LocalRamdisk, KeepsNoWrites) {
  // A synchronous copy is over when begin returns: nothing is held, and the
  // device's latest write end never moves.
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng);
  b.begin_checkpoint(10.0, 0, {5.0, 1, 2});
  EXPECT_TRUE(held_writes(b).empty());
  EXPECT_EQ(b.latest_end_s(), 0.0);
}

TEST(LocalRamdisk, IsPureOnlyWithoutNoise) {
  stats::Rng rng(1);
  const StorageBackend plain(DeviceKind::kLocalRamdisk, rng);
  const StorageBackend noisy(DeviceKind::kLocalRamdisk, rng, 0.1);
  EXPECT_TRUE(plain.begin_is_pure());
  EXPECT_FALSE(noisy.begin_is_pure());
}

TEST(SharedNfs, CostScalesWithParallelDegree) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto t1 = b.begin_checkpoint(160.0, 0, {0.0, 0, 1});
  EXPECT_DOUBLE_EQ(t1.cost, 1.67);
  const auto t2 = b.begin_checkpoint(160.0, 1, {0.0, 2, 3});
  EXPECT_DOUBLE_EQ(t2.cost, 1.67 * 2.0);  // second concurrent writer
  const auto t3 = b.begin_checkpoint(160.0, 2, {1.0, 4, 5});
  EXPECT_DOUBLE_EQ(t3.cost, 1.67 * 3.0);
  // The first two writes end at t1.op_time and t2.op_time; the third runs
  // well past both.
  ASSERT_LT(t1.op_time, t2.op_time);
  const auto t4 = b.begin_checkpoint(160.0, 3, {t2.op_time + 0.5, 6, 7});
  EXPECT_DOUBLE_EQ(t4.cost, 1.67 * 2.0);  // back to two writers
  EXPECT_EQ(t4.server, 0u);               // one server for every writer
  EXPECT_EQ(held_writes(b), std::vector<std::size_t>{2});
}

TEST(SharedNfs, OpTimeScalesWithContentionToo) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto t1 = b.begin_checkpoint(162.0, 0);
  EXPECT_DOUBLE_EQ(t1.op_time, 3.68);
  const auto t2 = b.begin_checkpoint(162.0, 1);
  EXPECT_DOUBLE_EQ(t2.op_time, 3.68 * 2.0);
  EXPECT_EQ(b.latest_end_s(), 3.68 * 2.0);  // both began at time 0
}

TEST(SharedNfs, DefaultSlopeTracksTable2Shape) {
  // Table 2's NFS avg row: {1.67, 2.665, 5.38, 6.25, 8.95}. With slope 1 the
  // device prices the X-th simultaneous writer at 1.67 * X; verify the
  // prediction stays within ~35% of the measured values across the table
  // (shape match, not exact fit).
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto& measured = calibration::concurrent_cost_nfs();
  for (int x = 1; x <= 5; ++x) {
    const double predicted = b.begin_checkpoint(160.0, 0).cost;
    const double actual = measured(static_cast<double>(x));
    EXPECT_LT(std::abs(predicted - actual) / actual, 0.35) << "X=" << x;
  }
}

TEST(SharedNfs, RestartUsesMigrationB) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  EXPECT_DOUBLE_EQ(b.restart_cost(160.0), 1.45);
}

TEST(LocalRamdisk, RestartUsesMigrationA) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng);
  EXPECT_DOUBLE_EQ(b.restart_cost(160.0), 3.22);
}

TEST(DmNfs, RequiresServers) {
  stats::Rng rng(1);
  EXPECT_THROW(StorageBackend(DeviceKind::kDmNfs, rng, 0.0, 0),
               std::invalid_argument);
}

TEST(DmNfs, SpreadsLoadAcrossServers) {
  stats::Rng rng(2);
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.0, 32);
  std::vector<CheckpointTicket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(b.begin_checkpoint(160.0, 0));
  // With 32 servers and 5 writers, the expected max per-server load is ~1;
  // at minimum the total across servers must equal the writes in flight,
  // each held on the server it was drawn to.
  const auto held = held_writes(b);
  ASSERT_EQ(held.size(), b.server_count());
  std::size_t total = 0;
  for (const std::size_t n : held) total += n;
  EXPECT_EQ(total, 5u);
  for (const auto& t : tickets) EXPECT_GE(held[t.server], 1u);
}

TEST(DmNfs, CollisionFreeWritersPriceAsSingle) {
  stats::Rng rng(3);
  // collisions essentially impossible
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.0, 1000);
  for (int i = 0; i < 5; ++i) {
    const auto t = b.begin_checkpoint(160.0, 0);
    EXPECT_DOUBLE_EQ(t.cost, 1.67);
  }
}

TEST(DmNfs, SameServerWritersContend) {
  stats::Rng rng(4);
  // force every write onto one server
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.0, 1);
  const auto t1 = b.begin_checkpoint(160.0, 0);
  const auto t2 = b.begin_checkpoint(160.0, 0);
  EXPECT_DOUBLE_EQ(t1.cost, 1.67);
  EXPECT_DOUBLE_EQ(t2.cost, 1.67 * 2.0);
}

TEST(DmNfs, AnEndedWriteLeavesItsServer) {
  // One server: the second write begins after the first has ended, so it
  // prices alone and the first is dropped.
  stats::Rng rng(5);
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.0, 1);
  const auto t1 = b.begin_checkpoint(160.0, 0, {0.0, 0, 1});
  const auto t2 = b.begin_checkpoint(160.0, 0, {t1.op_time + 1.0, 2, 3});
  EXPECT_DOUBLE_EQ(t2.cost, 1.67);
  EXPECT_EQ(held_writes(b), std::vector<std::size_t>{1});
}

TEST(Backend, NoiseStaysWithinConfiguredBand) {
  stats::Rng rng(6);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng, 0.10);
  for (int i = 0; i < 1000; ++i) {
    const auto t = b.begin_checkpoint(160.0, 0);
    EXPECT_GE(t.cost, 0.632 * 0.9 - 1e-12);
    EXPECT_LE(t.cost, 0.632 * 1.1 + 1e-12);
  }
}

TEST(Backend, KindAndMigrationTypeFollowTheConstructor) {
  stats::Rng rng(7);
  for (const auto kind : {DeviceKind::kLocalRamdisk, DeviceKind::kSharedNfs,
                          DeviceKind::kDmNfs}) {
    EXPECT_EQ(StorageBackend(kind, rng).kind(), kind);
  }
  EXPECT_EQ(StorageBackend(DeviceKind::kLocalRamdisk, rng).migration_type(),
            MigrationType::kA);
  EXPECT_EQ(StorageBackend(DeviceKind::kDmNfs, rng).migration_type(),
            MigrationType::kB);
}

// -- the (time, seq) tie rule -------------------------------------------------
//
// A write ends at (begin time + op time, the seq reserved for its end). A
// begin dispatched at event (t, s) finds it gone iff its end is before t, or
// at t with a lower seq than s: exactly when its end event would have run
// first.

TEST(TieRule, WriteEndingAtTheInstantWithALowerSeqHasLeft) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto t1 = b.begin_checkpoint(160.0, 0, {0.0, 0, 5});
  const auto t2 = b.begin_checkpoint(160.0, 1, {t1.op_time, 6, 7});
  EXPECT_DOUBLE_EQ(t2.cost, 1.67);
  EXPECT_EQ(held_writes(b), std::vector<std::size_t>{1});
}

TEST(TieRule, WriteEndingAtTheInstantWithAHigherSeqStillCounts) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto t1 = b.begin_checkpoint(160.0, 0, {0.0, 0, 9});
  const auto t2 = b.begin_checkpoint(160.0, 1, {t1.op_time, 6, 10});
  EXPECT_DOUBLE_EQ(t2.cost, 1.67 * 2.0);
  EXPECT_EQ(held_writes(b), std::vector<std::size_t>{2});
}

TEST(TieRule, WriteEndingAfterTheInstantStillCounts) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto t1 = b.begin_checkpoint(160.0, 0, {0.0, 0, 1});
  const double just_before = std::nextafter(t1.op_time, 0.0);
  const auto t2 = b.begin_checkpoint(160.0, 1, {just_before, 6, 7});
  EXPECT_DOUBLE_EQ(t2.cost, 1.67 * 2.0);
}

TEST(TieRule, WritesOnOtherServersNeverCount) {
  // Seed 12 draws servers 1, 1, 3 from four: the write on server 3 prices
  // alone while the two on server 1 are still running.
  stats::Rng rng(12);
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.0, 4);
  const auto t1 = b.begin_checkpoint(160.0, 3, {0.0, 0, 1});
  const auto t2 = b.begin_checkpoint(160.0, 4, {0.0, 2, 3});
  const auto t3 = b.begin_checkpoint(160.0, 5, {0.0, 4, 5});
  ASSERT_EQ(t1.server, 1u);
  ASSERT_EQ(t2.server, 1u);
  ASSERT_EQ(t3.server, 3u);
  EXPECT_DOUBLE_EQ(t2.cost, 1.67 * 2.0);
  EXPECT_DOUBLE_EQ(t3.cost, 1.67);
  EXPECT_EQ(held_writes(b), (std::vector<std::size_t>{0, 2, 0, 1}));
}

TEST(TieRule, ABeginDropsEndedWritesOnlyFromItsOwnServer) {
  // Both writes on server 1 have ended when the write on server 3 begins,
  // but only a begin on server 1 would drop them.
  stats::Rng rng(12);
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.0, 4);
  b.begin_checkpoint(160.0, 3, {0.0, 0, 1});
  const auto t2 = b.begin_checkpoint(160.0, 4, {0.0, 2, 3});
  const double later = t2.op_time + 1.0;
  const auto t3 = b.begin_checkpoint(160.0, 5, {later, 4, 5});
  ASSERT_EQ(t3.server, 3u);
  EXPECT_DOUBLE_EQ(t3.cost, 1.67);
  EXPECT_EQ(held_writes(b), (std::vector<std::size_t>{0, 2, 0, 1}));
  EXPECT_EQ(b.latest_end_s(), later + t3.op_time);
}

TEST(Backend, CaptureRestoreRoundTripsTheWritesInFlight) {
  stats::Rng rng(9);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto t1 = b.begin_checkpoint(160.0, 0, {0.0, 0, 1});
  BackendState state;
  b.capture_state(state);
  ASSERT_EQ(state.in_flight.size(), 1u);
  ASSERT_EQ(state.in_flight[0].size(), 1u);
  EXPECT_EQ(state.in_flight[0][0].end_s, t1.op_time);
  EXPECT_EQ(state.in_flight[0][0].seq, 1u);
  EXPECT_EQ(state.latest_end_s, t1.op_time);

  // A later, longer write moves the device on; restoring rewinds it.
  b.begin_checkpoint(240.0, 0, {0.5, 2, 3});
  EXPECT_GT(b.latest_end_s(), t1.op_time);
  b.restore_state(state);
  EXPECT_EQ(b.latest_end_s(), t1.op_time);
  EXPECT_EQ(held_writes(b), std::vector<std::size_t>{1});
  // The restored write still contends, exactly as before the capture.
  const auto again = b.begin_checkpoint(160.0, 0, {0.5, 2, 3});
  EXPECT_DOUBLE_EQ(again.cost, 1.67 * 2.0);
}

// -- RNG draw order -----------------------------------------------------------
//
// Replays consume one run RNG for failures, placement and storage, so each
// device's draws must keep their exact order and count: the literals below
// were produced by the per-device classes this one replaced (seed 2013,
// noise 0.10, 160 MB, overlapping writers from hosts 3, 4, 5, ...).

struct Expected {
  double cost;
  double op_time;
  std::size_t server;
};

void expect_tickets(StorageBackend& b, const std::vector<Expected>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    const auto t = b.begin_checkpoint(160.0, 3 + i);
    EXPECT_EQ(t.cost, want[i].cost);
    EXPECT_EQ(t.op_time, want[i].op_time);
    EXPECT_EQ(t.server, want[i].server);
  }
}

TEST(DrawOrder, LocalRamdiskDrawsOnceAndReusesTheCost) {
  stats::Rng rng(2013);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng, 0.10);
  expect_tickets(b, {{0.5979746455581838, 0.5979746455581838, 3},
                     {0.6038816803453525, 0.6038816803453525, 4},
                     {0.60308388004516322, 0.60308388004516322, 5}});
}

TEST(DrawOrder, SharedNfsDrawsCostThenOpTime) {
  stats::Rng rng(2013);
  StorageBackend b(DeviceKind::kSharedNfs, rng, 0.10);
  expect_tickets(b, {{1.5800912311426691, 3.4783919498733038, 0},
                     {3.1871837964412109, 6.8268524205565697, 0},
                     {5.287730234948917, 11.33692262230703, 0}});
}

TEST(DrawOrder, DmNfsDrawsServerThenCostThenOpTime) {
  stats::Rng rng(2013);
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.10, 4);
  expect_tickets(b, {{1.5957000097733207, 3.4737965759248874, 2},
                     {3.5251534899659447, 7.5579484148713529, 2},
                     {1.8313307615143624, 3.922351368452103, 3},
                     {3.4739191385501282, 7.1104001438524147, 3}});
}

TEST(DrawOrder, DmNfsWithOneServerStillDrawsIt) {
  stats::Rng rng(2013);
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.10, 1);
  expect_tickets(b, {{1.5957000097733207, 3.4737965759248874, 0},
                     {3.5251534899659447, 7.5579484148713529, 0},
                     {5.4939922845430864, 11.76705410535631, 0}});
}

}  // namespace
}  // namespace cloudcr::storage
