// Storage-cost experiments: Tables 2-5 and Figure 7. These replay the
// calibrated storage cost models (with the paper's 25-repetition measurement
// noise) — no trace, no simulation — so they are all `fast` entries.

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "report/registry.hpp"
#include "report/scenarios.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "storage/backend.hpp"
#include "storage/calibration.hpp"

namespace cloudcr::report {

namespace {

/// Concurrent-checkpoint cost rows (Tables 2/3): begins `degree` 160 MB
/// checkpoints at one instant on a fresh `kind` device per repetition and
/// records the cost of the last writer (the one that sees the full
/// contention), matching the paper's simultaneous-checkpoint measurement.
/// Returns per-degree avg; prints the min/avg/max table.
std::vector<double> concurrent_cost_table(std::ostream& os,
                                          const std::string& label,
                                          storage::DeviceKind kind,
                                          stats::Rng& rng) {
  metrics::print_banner(os, label);
  metrics::Table table({"stat", "X=1", "X=2", "X=3", "X=4", "X=5"});
  std::vector<std::string> row_min{"min"}, row_avg{"avg"}, row_max{"max"};
  std::vector<double> avgs;
  for (int degree = 1; degree <= 5; ++degree) {
    stats::Summary cost;
    for (int rep = 0; rep < 25; ++rep) {
      storage::StorageBackend backend(kind, rng, storage::kDefaultNoise);
      double last_cost = 0.0;
      for (int i = 0; i < degree; ++i) {
        last_cost = backend.begin_checkpoint(160.0, 0).cost;
      }
      cost.add(last_cost);
    }
    avgs.push_back(cost.mean());
    row_min.push_back(metrics::fmt(cost.min(), 3));
    row_avg.push_back(metrics::fmt(cost.mean(), 3));
    row_max.push_back(metrics::fmt(cost.max(), 3));
  }
  table.add_row(std::move(row_min));
  table.add_row(std::move(row_avg));
  table.add_row(std::move(row_max));
  table.print(os);
  return avgs;
}

Experiment tab02_entry() {
  Experiment e;
  e.id = "tab02";
  e.title = "Simultaneous checkpoint cost: local ramdisk vs single NFS";
  e.paper_ref = "Table 2";
  e.paper_claim =
      "Local ramdisk cost is flat (~0.6-0.9 s) while single-server NFS cost "
      "grows roughly linearly with the parallel degree (1.67 -> 8.95 s at "
      "X=1..5).";
  e.model_notes =
      "Replays the calibrated cost model with the paper's 25-repetition "
      "measurement noise instead of measuring real hardware; contention is "
      "the modeled queueing of storage/backend.hpp.";
  e.fast = true;
  e.evaluate = [](EntryContext& ctx) {
    stats::Rng rng(kTraceSeed);
    const auto local = concurrent_cost_table(
        ctx.human,
        "Table 2 (top): local ramdisk, simultaneous checkpoint cost (s)",
        storage::DeviceKind::kLocalRamdisk, rng);
    const auto nfs = concurrent_cost_table(
        ctx.human,
        "Table 2 (bottom): single NFS server, simultaneous checkpoint "
        "cost (s)",
        storage::DeviceKind::kSharedNfs, rng);
    ctx.human << "paper avg rows: local {0.632, 0.81, 0.74, 0.59, 0.58}; "
                 "NFS {1.67, 2.665, 5.38, 6.25, 8.95}\n";
    return std::vector<MetricValue>{
        metric("local_avg_cost_x1_s", local[0], 0.632, 0.3),
        metric("local_avg_cost_x5_s", local[4], 0.58, 0.3),
        metric("nfs_avg_cost_x1_s", nfs[0], 1.67, 0.5),
        metric("nfs_avg_cost_x5_s", nfs[4], 8.95, 1.5),
        metric("nfs_x5_over_x1", nfs[4] / nfs[0], 0.8),
    };
  };
  return e;
}

Experiment tab03_entry() {
  Experiment e;
  e.id = "tab03";
  e.title = "Simultaneous checkpoint cost: distributively-managed NFS";
  e.paper_ref = "Table 3";
  e.paper_claim =
      "With one NFS server per host and random server choice per checkpoint "
      "(DM-NFS), cost stays below ~2 s at every parallel degree — the "
      "randomized spread removes the single-server bottleneck.";
  e.model_notes =
      "32 modeled NFS servers, random selection per checkpoint from the "
      "seeded run RNG; same calibrated cost model as tab02.";
  e.fast = true;
  e.evaluate = [](EntryContext& ctx) {
    stats::Rng rng(kTraceSeed);
    const auto avgs = concurrent_cost_table(
        ctx.human,
        "Table 3: DM-NFS simultaneous checkpoint cost (s), 32 servers",
        storage::DeviceKind::kDmNfs, rng);
    double worst = 0.0;
    for (const double a : avgs) worst = std::max(worst, a);
    ctx.human << "paper avg row: {1.67, 1.49, 1.63, 1.75, 1.74} — flat, "
                 "always under 2 s\n";
    return std::vector<MetricValue>{
        metric("dmnfs_avg_cost_x1_s", avgs[0], 1.67, 0.5),
        metric("dmnfs_avg_cost_x5_s", avgs[4], 1.74, 0.5),
        metric("dmnfs_worst_avg_cost_s", worst, 0.6),
    };
  };
  return e;
}

Experiment tab04_entry() {
  Experiment e;
  e.id = "tab04";
  e.title = "Checkpoint operation time over the shared disk";
  e.paper_ref = "Table 4";
  e.paper_claim =
      "A single checkpoint operation over the shared disk takes 0.33 s at "
      "10.3 MB up to 6.83 s at 240 MB; the device-busy time is separate from "
      "the wall-clock cost (the countdown keeps running, Algorithm 1 "
      "line 7).";
  e.model_notes =
      "Evaluates the piecewise-linear calibration "
      "(storage::checkpoint_op_time) at the paper's twelve measured sizes "
      "plus interpolated points; deviations are interpolation error only.";
  e.fast = true;
  e.evaluate = [](EntryContext& ctx) {
    metrics::print_banner(
        ctx.human, "Table 4: checkpoint operation time over shared disk");
    metrics::Table table({"memory (MB)", "operation time (s)", "paper (s)"});
    const struct {
      double mem;
      double paper;
    } rows[] = {{10.3, 0.33},  {22.3, 0.42},  {42.3, 0.60}, {46.3, 0.66},
                {82.4, 1.46},  {86.4, 1.75},  {90.4, 2.09}, {94.4, 2.34},
                {162.0, 3.68}, {174.0, 4.95}, {212.0, 5.47}, {240.0, 6.83}};
    for (const auto& row : rows) {
      table.add_row({metrics::fmt(row.mem, 1),
                     metrics::fmt(storage::checkpoint_op_time(
                                      storage::DeviceKind::kSharedNfs,
                                      row.mem),
                                  2),
                     metrics::fmt(row.paper, 2)});
    }
    table.print(ctx.human);
    metrics::print_banner(ctx.human,
                          "interpolated op time at unmeasured sizes");
    metrics::Table interp({"memory (MB)", "operation time (s)"});
    for (double mem : {16.0, 64.0, 128.0, 200.0}) {
      interp.add_row({metrics::fmt(mem, 0),
                      metrics::fmt(storage::checkpoint_op_time(
                                       storage::DeviceKind::kSharedNfs, mem),
                                   2)});
    }
    interp.print(ctx.human);
    const auto op = [](double mem) {
      return storage::checkpoint_op_time(storage::DeviceKind::kSharedNfs,
                                         mem);
    };
    return std::vector<MetricValue>{
        metric("op_time_10mb_s", op(10.3), 0.33, 0.05),
        metric("op_time_90mb_s", op(90.4), 2.09, 0.2),
        metric("op_time_240mb_s", op(240.0), 6.83, 0.5),
    };
  };
  return e;
}

Experiment tab05_entry() {
  Experiment e;
  e.id = "tab05";
  e.title = "Task restarting cost under the two migration types";
  e.paper_ref = "Table 5";
  e.paper_claim =
      "Migration type A (checkpoints on the failed host's local ramdisk) "
      "pays an extra shared-disk hop and costs 0.71-5.69 s for 10-240 MB; "
      "type B (checkpoints already on the shared disk) restarts directly at "
      "0.37-2.40 s.";
  e.model_notes =
      "Evaluates the calibrated restart-cost curves "
      "(storage::restart_cost); the A-dearer-than-B ordering at every size "
      "is the structural check.";
  e.fast = true;
  e.evaluate = [](EntryContext& ctx) {
    metrics::print_banner(ctx.human, "Table 5: task restarting cost (s)");
    metrics::Table table(
        {"memory (MB)", "migration A", "migration B", "A/B ratio"});
    bool a_dearer_everywhere = true;
    for (double mem : {10.0, 20.0, 40.0, 80.0, 160.0, 240.0}) {
      const double a = storage::restart_cost(storage::MigrationType::kA, mem);
      const double b = storage::restart_cost(storage::MigrationType::kB, mem);
      if (a <= b) a_dearer_everywhere = false;
      table.add_row({metrics::fmt(mem, 0), metrics::fmt(a, 2),
                     metrics::fmt(b, 2), metrics::fmt(a / b, 2)});
    }
    table.print(ctx.human);
    ctx.human << "paper row A: {0.71, 0.84, 1.23, 1.87, 3.22, 5.69}\n"
              << "paper row B: {0.37, 0.49, 0.54, 0.86, 1.45, 2.40}\n"
              << "structural check: migration A dearer than B at every size "
                 "(extra shared-disk access)\n";
    return std::vector<MetricValue>{
        metric("restart_a_240mb_s",
               storage::restart_cost(storage::MigrationType::kA, 240.0), 5.69,
               0.5),
        metric("restart_b_240mb_s",
               storage::restart_cost(storage::MigrationType::kB, 240.0), 2.40,
               0.25),
        metric("a_dearer_than_b_everywhere", a_dearer_everywhere ? 1.0 : 0.0,
               0.0),
    };
  };
  return e;
}

Experiment fig07_entry() {
  Experiment e;
  e.id = "fig07";
  e.title = "Total checkpointing cost vs checkpoint count and memory size";
  e.paper_ref = "Figure 7";
  e.paper_claim =
      "Total checkpointing cost is linear in both the memory size (10-240 "
      "MB) and the checkpoint count, over (a) local ramdisk and (b) NFS; "
      "per-checkpoint cost spans [0.016, 0.99] s local and [0.25, 2.52] s "
      "NFS.";
  e.model_notes =
      "Replays the calibrated per-checkpoint cost with the paper's "
      "25-repetition measurement noise and accumulates 1..5 checkpoints; "
      "linearity is inherited from the cost model.";
  e.fast = true;
  e.evaluate = [](EntryContext& ctx) {
    stats::Rng rng(kTraceSeed);
    // The writes of a sweep run one after another, so each one prices alone:
    // it begins on a fresh device (constructing one draws nothing).
    const auto sweep = [&ctx, &rng](const std::string& label,
                                    storage::DeviceKind kind) {
      metrics::print_banner(ctx.human, label);
      metrics::Table table({"mem (MB)", "1 ckpt", "2 ckpts", "3 ckpts",
                            "4 ckpts", "5 ckpts"});
      for (double mem : {10.0, 20.0, 40.0, 80.0, 160.0, 240.0}) {
        std::vector<std::string> row{metrics::fmt(mem, 0)};
        for (int n = 1; n <= 5; ++n) {
          stats::Summary total;
          for (int rep = 0; rep < 25; ++rep) {
            double acc = 0.0;
            for (int k = 0; k < n; ++k) {
              acc += storage::StorageBackend(kind, rng, storage::kDefaultNoise)
                         .begin_checkpoint(mem, 0)
                         .cost;
            }
            total.add(acc);
          }
          row.push_back(metrics::fmt(total.mean(), 3));
        }
        table.add_row(std::move(row));
      }
      table.print(ctx.human);
    };
    sweep("Figure 7(a): total checkpointing cost over local ramdisk (s)",
          storage::DeviceKind::kLocalRamdisk);
    sweep("Figure 7(b): total checkpointing cost over NFS (s)",
          storage::DeviceKind::kSharedNfs);
    const double local240 =
        storage::checkpoint_cost(storage::DeviceKind::kLocalRamdisk, 240.0);
    const double nfs240 =
        storage::checkpoint_cost(storage::DeviceKind::kSharedNfs, 240.0);
    ctx.human << "paper ranges: local [0.016, 0.99] s per checkpoint for "
                 "10-240 MB; NFS [0.25, 2.52] s\n"
              << "single-checkpoint cost at 240 MB: local="
              << metrics::fmt(local240, 3) << " nfs=" << metrics::fmt(nfs240, 3)
              << "\n";
    return std::vector<MetricValue>{
        metric("local_ckpt_cost_240mb_s", local240, 0.99, 0.1),
        metric("nfs_ckpt_cost_240mb_s", nfs240, 2.52, 0.25),
    };
  };
  return e;
}

}  // namespace

void register_storage_experiments(std::vector<Experiment>& out) {
  out.push_back(fig07_entry());
  out.push_back(tab02_entry());
  out.push_back(tab03_entry());
  out.push_back(tab04_entry());
  out.push_back(tab05_entry());
}

}  // namespace cloudcr::report
