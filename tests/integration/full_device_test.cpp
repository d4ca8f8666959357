// File writers on a full device: /dev/full accepts the open and fails every
// write, so a writer that checks its stream before the buffered bytes are
// flushed reports a file it never wrote. Each one must report failure, and
// a traced run whose trace cannot be written must fail rather than report
// success.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/artifact_io.hpp"
#include "api/runner.hpp"
#include "obs/trace_writer.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
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

TEST_F(FullDevice, TracedRunThrowsNamingThePath) {
  api::ScenarioSpec spec;
  spec.name = "traced";
  spec.trace.horizon_s = 600.0;
  spec.obs.trace_path = kFull;
  try {
    (void)api::ScenarioRunner(spec).run();
    ADD_FAILURE() << "a trace that was never written reported success";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(kFull), std::string::npos)
        << e.what();
  }
}

TEST_F(FullDevice, ServiceRefusesTracedRunAndCachesNothing) {
  // Sent twice: a cached artifact would answer the second line ok:true.
  const std::string request =
      R"({"op":"run","spec":"trace.horizon_s=600\nobs=trace:/dev/full"})";
  svc::SimService service;
  std::istringstream in(request + "\n" + request + "\n");
  std::ostringstream out;
  EXPECT_EQ(svc::serve(service, in, out), 2u);
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) {
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
    EXPECT_NE(line.find(kFull), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace cloudcr
