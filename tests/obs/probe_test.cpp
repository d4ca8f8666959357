// Time-series probes: sampling must never change results (bit-identity
// probes on vs off), samples land on the configured cadence, and the
// CSV/JSON renderings match the documented schema. Probes are compiled in
// every build, so none of this is gated on CLOUDCR_OBS.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/artifact_io.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "obs/probe.hpp"

namespace cloudcr::obs {
namespace {

api::ScenarioSpec small_spec() {
  api::ScenarioSpec spec;
  spec.name = "probe_small";
  spec.trace.seed = 11;
  spec.trace.horizon_s = 6.0 * 3600.0;
  return spec;
}

TEST(ProbeCsv, HeaderAndRowsMatchTheSchema) {
  EXPECT_STREQ(probe_csv_header(),
               "t_s,cluster_util,pending_tasks,running_tasks,active_jobs,"
               "sched_held_jobs,completed_jobs,running_wpr,"
               "task_rows_high_water");
  ProbeSample p;
  p.t_s = 3600.0;
  p.cluster_util = 0.25;
  p.pending_tasks = 3;
  p.running_tasks = 17;
  p.active_jobs = 9;
  p.sched_held_jobs = 1;
  p.completed_jobs = 40;
  p.running_wpr = 0.875;
  p.task_rows_high_water = 128;
  std::ostringstream row;
  write_probe_csv_row(row, p);
  EXPECT_EQ(row.str(), "3600,0.25,3,17,9,1,40,0.875,128");
  std::ostringstream doc;
  write_probe_csv(doc, {p});
  EXPECT_EQ(doc.str(),
            std::string(probe_csv_header()) + "\n" + row.str() + "\n");
  std::ostringstream json;
  write_probe_json(json, p);
  EXPECT_NE(json.str().find("\"t_s\":3600"), std::string::npos);
  EXPECT_NE(json.str().find("\"running_wpr\":0.875"), std::string::npos);
}

TEST(ProbeIntegration, SamplingNeverChangesResults) {
  const api::RunArtifact plain = api::run_scenario(small_spec());
  api::ScenarioSpec probed_spec = small_spec();
  probed_spec.obs.probe_interval_s = 1800.0;
  const api::RunArtifact probed = api::run_scenario(probed_spec);

  // Chunking the event drains at probe ticks must pop the same events in
  // the same order: everything except the probes vector is identical.
  EXPECT_TRUE(plain.result.probes.empty());
  EXPECT_FALSE(probed.result.probes.empty());
  EXPECT_EQ(plain.result.events_dispatched, probed.result.events_dispatched);
  ASSERT_EQ(plain.result.outcomes.size(), probed.result.outcomes.size());
  for (std::size_t i = 0; i < plain.result.outcomes.size(); ++i) {
    EXPECT_EQ(plain.result.outcomes[i].job_id,
              probed.result.outcomes[i].job_id);
    EXPECT_DOUBLE_EQ(plain.result.outcomes[i].wallclock_s,
                     probed.result.outcomes[i].wallclock_s);
    EXPECT_DOUBLE_EQ(plain.result.outcomes[i].checkpoint_s,
                     probed.result.outcomes[i].checkpoint_s);
  }
}

TEST(ProbeIntegration, SamplesLandOnTheCadence) {
  api::ScenarioSpec spec = small_spec();
  spec.obs.probe_interval_s = 1800.0;
  const api::RunArtifact artifact = api::run_scenario(spec);
  const auto& probes = artifact.result.probes;
  ASSERT_GE(probes.size(), 2u);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    // Every tick is a positive multiple of the interval, strictly rising.
    const double ratio = probes[i].t_s / 1800.0;
    EXPECT_DOUBLE_EQ(ratio, static_cast<double>(static_cast<int>(ratio + 0.5)));
    if (i > 0) {
      EXPECT_GT(probes[i].t_s, probes[i - 1].t_s);
    }
    EXPECT_GE(probes[i].cluster_util, 0.0);
    EXPECT_LE(probes[i].cluster_util, 1.0);
    // completed_jobs is monotone; the high-water mark never shrinks.
    if (i > 0) {
      EXPECT_GE(probes[i].completed_jobs, probes[i - 1].completed_jobs);
      EXPECT_GE(probes[i].task_rows_high_water,
                probes[i - 1].task_rows_high_water);
    }
  }
}

TEST(ProbeIntegration, StreamedReplayProbesMatchMaterialized) {
  api::ScenarioSpec spec = small_spec();
  spec.obs.probe_interval_s = 3600.0;
  const api::ScenarioRunner runner(spec);
  const trace::Trace replay = api::make_replay_trace(spec.trace);
  api::RunHooks hooks;
  hooks.replay_trace = &replay;
  const api::RunArtifact materialized = runner.run(hooks);
  const api::RunArtifact streamed = runner.run_streamed();
  ASSERT_EQ(materialized.result.probes.size(), streamed.result.probes.size());
  for (std::size_t i = 0; i < materialized.result.probes.size(); ++i) {
    // Every column is bit-identical across the two sources, including
    // task_rows_high_water: both replays recycle retired rows.
    std::ostringstream a;
    std::ostringstream b;
    write_probe_csv_row(a, materialized.result.probes[i]);
    write_probe_csv_row(b, streamed.result.probes[i]);
    EXPECT_EQ(a.str(), b.str()) << "probe row " << i;
  }
}

TEST(ProbeIntegration, ArtifactJsonIsSparse) {
  // Uninstrumented artifacts serialize without any obs fields, so golden
  // documents from default runs stay byte-identical to the pre-obs schema.
  api::RunArtifact bare;
  bare.spec = small_spec();
  std::ostringstream without;
  api::write_artifact_json(without, bare);
  EXPECT_EQ(without.str().find("probes"), std::string::npos);
  EXPECT_EQ(without.str().find("estimation_wall_s"), std::string::npos);
  EXPECT_EQ(without.str().find("peak_rss_mb"), std::string::npos);

  api::RunArtifact instrumented = bare;
  instrumented.estimation_wall_s = 0.5;
  instrumented.peak_rss_mb = 100.0;
  instrumented.result.probes.push_back({});
  std::ostringstream with;
  api::write_artifact_json(with, instrumented);
  EXPECT_NE(with.str().find("\"estimation_wall_s\":0.5"), std::string::npos);
  EXPECT_NE(with.str().find("\"peak_rss_mb\":100"), std::string::npos);
  EXPECT_NE(with.str().find("\"probes\":[{"), std::string::npos);
}

TEST(PeakRss, ReportsAPlausiblePositiveValue) {
  const double mb = peak_rss_mb();
  // getrusage is available on every platform CI runs; a running test
  // process is comfortably above 1 MB and below 1 TB.
  EXPECT_GT(mb, 1.0);
  EXPECT_LT(mb, 1024.0 * 1024.0);
}

}  // namespace
}  // namespace cloudcr::obs
