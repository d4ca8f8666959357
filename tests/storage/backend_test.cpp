#include "storage/backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

namespace cloudcr::storage {
namespace {

TEST(LocalRamdisk, PricesFromCalibrationWithoutNoise) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng);
  const auto t = b.begin_checkpoint(160.0, 3);
  EXPECT_DOUBLE_EQ(t.cost, 0.632);
  EXPECT_DOUBLE_EQ(t.op_time, t.cost);
  EXPECT_EQ(t.server, 3u);  // data lands on the writing host
  EXPECT_EQ(b.active_ops(), 1u);
  b.end_checkpoint(t.op_id);
  EXPECT_EQ(b.active_ops(), 0u);
}

TEST(LocalRamdisk, NoContentionUnderParallelWriters) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng);
  std::vector<CheckpointTicket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(b.begin_checkpoint(160.0, 0));
  for (const auto& t : tickets) EXPECT_DOUBLE_EQ(t.cost, 0.632);
  EXPECT_EQ(b.server_count(), 0u);  // no shared server to contend on
}

TEST(LocalRamdisk, EndIsIdempotent) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng);
  const auto t = b.begin_checkpoint(10.0, 0);
  b.end_checkpoint(t.op_id);
  b.end_checkpoint(t.op_id);  // no effect
  b.end_checkpoint(9999);     // unknown id ignored
  EXPECT_EQ(b.active_ops(), 0u);
}

TEST(LocalRamdisk, IsPureOnlyWithoutNoise) {
  stats::Rng rng(1);
  const StorageBackend plain(DeviceKind::kLocalRamdisk, rng);
  const StorageBackend noisy(DeviceKind::kLocalRamdisk, rng, 0.1);
  EXPECT_TRUE(plain.begin_is_pure());
  EXPECT_FALSE(noisy.begin_is_pure());
  EXPECT_FALSE(plain.completion_affects_pricing());
}

TEST(SharedNfs, CostScalesWithParallelDegree) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto t1 = b.begin_checkpoint(160.0, 0);
  EXPECT_DOUBLE_EQ(t1.cost, 1.67);
  const auto t2 = b.begin_checkpoint(160.0, 1);
  EXPECT_DOUBLE_EQ(t2.cost, 1.67 * 2.0);  // second concurrent writer
  const auto t3 = b.begin_checkpoint(160.0, 2);
  EXPECT_DOUBLE_EQ(t3.cost, 1.67 * 3.0);
  b.end_checkpoint(t1.op_id);
  b.end_checkpoint(t2.op_id);
  const auto t4 = b.begin_checkpoint(160.0, 3);
  EXPECT_DOUBLE_EQ(t4.cost, 1.67 * 2.0);  // back to two writers
  EXPECT_EQ(t4.server, 0u);               // one server for every writer
  EXPECT_EQ(b.server_load(0), 2u);
}

TEST(SharedNfs, OpTimeScalesWithContentionToo) {
  stats::Rng rng(1);
  StorageBackend b(DeviceKind::kSharedNfs, rng);
  const auto t1 = b.begin_checkpoint(162.0, 0);
  EXPECT_DOUBLE_EQ(t1.op_time, 3.68);
  const auto t2 = b.begin_checkpoint(162.0, 1);
  EXPECT_DOUBLE_EQ(t2.op_time, 3.68 * 2.0);
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
  // at minimum the total across servers must equal the ops in flight.
  std::size_t total = 0;
  for (std::size_t s = 0; s < b.server_count(); ++s) total += b.server_load(s);
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(b.active_ops(), 5u);
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

TEST(DmNfs, EndReleasesTheRightServer) {
  stats::Rng rng(5);
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.0, 4);
  const auto t = b.begin_checkpoint(160.0, 0);
  EXPECT_EQ(b.server_load(t.server), 1u);
  b.end_checkpoint(t.op_id);
  EXPECT_EQ(b.server_load(t.server), 0u);
  EXPECT_EQ(b.active_ops(), 0u);
}

TEST(Backend, NoiseStaysWithinConfiguredBand) {
  stats::Rng rng(6);
  StorageBackend b(DeviceKind::kLocalRamdisk, rng, 0.10);
  for (int i = 0; i < 1000; ++i) {
    const auto t = b.begin_checkpoint(160.0, 0);
    EXPECT_GE(t.cost, 0.632 * 0.9 - 1e-12);
    EXPECT_LE(t.cost, 0.632 * 1.1 + 1e-12);
    b.end_checkpoint(t.op_id);
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

TEST(Backend, CaptureRestoreRewindsLoadAndOps) {
  stats::Rng rng(9);
  StorageBackend b(DeviceKind::kDmNfs, rng, 0.0, 2);
  const auto t1 = b.begin_checkpoint(160.0, 0);
  BackendState state;
  b.capture_state(state);
  const auto t2 = b.begin_checkpoint(160.0, 0);
  b.end_checkpoint(t1.op_id);
  b.restore_state(state);
  EXPECT_EQ(b.active_ops(), 1u);
  EXPECT_EQ(b.server_load(t1.server), 1u);
  b.end_checkpoint(t2.op_id);  // began after the capture: unknown now
  EXPECT_EQ(b.active_ops(), 1u);
  b.end_checkpoint(t1.op_id);
  EXPECT_EQ(b.active_ops(), 0u);
  EXPECT_EQ(b.server_load(t1.server), 0u);
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
