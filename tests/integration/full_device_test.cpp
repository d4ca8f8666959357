// File writers on a full device: /dev/full accepts the open and fails every
// write, so a writer that checks its stream before the buffered bytes are
// flushed reports a file it never wrote. Each one must report failure.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "api/artifact_io.hpp"
#include "obs/trace_writer.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

namespace cloudcr {
namespace {

constexpr const char* kFull = "/dev/full";

class FullDevice : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists(kFull)) GTEST_SKIP() << "no " << kFull;
  }
};

TEST_F(FullDevice, ArtifactWritersReportFailure) {
  const std::vector<api::RunArtifact> artifacts(1);
  EXPECT_FALSE(api::write_artifacts_json_file(kFull, artifacts));
  EXPECT_FALSE(api::write_artifacts_csv_file(kFull, artifacts));
  EXPECT_FALSE(api::write_artifact_outcomes_csv_file(kFull, artifacts));
}

TEST_F(FullDevice, TraceJsonWriterReportsFailure) {
  obs::TraceWriter writer;
  writer.sim_span(obs::kJobPid, 1, "run", obs::kCatTask, 0.0, 1.0);
  EXPECT_FALSE(writer.write_json_file(kFull));
}

TEST_F(FullDevice, TraceCsvWriterThrows) {
  trace::GeneratorConfig cfg;
  cfg.seed = 5;
  cfg.horizon_s = 600.0;
  const trace::Trace small = trace::TraceGenerator(cfg).generate();
  EXPECT_THROW(trace::write_csv_file(kFull, small), std::runtime_error);
  EXPECT_THROW(trace::write_csv_file(kFull, trace::Trace{}),
               std::runtime_error);  // the header alone stays buffered
}

}  // namespace
}  // namespace cloudcr
