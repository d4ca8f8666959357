// The benchmark's own check that its timing delegates never change results:
// month_stream, trace_sched and a sample of service_mix specs, each replayed
// through ScenarioRunner::run_streamed untraced and through the traced
// rebuild, must write byte-identical artifact JSON.

#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {

namespace api = cloudcr::api;

namespace {

std::string result_json(api::RunArtifact& artifact) {
  std::ostringstream os;
  write_result_json(os, artifact);
  return os.str();
}

/// Returns 1 on a mismatch, 0 when the bytes agree.
int compare(const std::string& label, const api::ScenarioSpec& spec) {
  set_tracing(false);
  api::RunArtifact plain = api::ScenarioRunner(spec).run_streamed();
  set_tracing(true);
  cloudcr::sim::ReplayWorkspace workspace;
  SpanLog log;
  ReplayTimes times;
  api::RunArtifact traced = traced_run_streamed(spec, &workspace, log, 1, times);
  set_tracing(false);
  const std::string a = result_json(plain);
  const std::string b = result_json(traced);
  const bool same = a == b;
  std::cout << (same ? "ok   " : "FAIL ") << label << ": " << a.size()
            << " bytes, " << plain.trace_tasks << " tasks, "
            << traced.result.events_dispatched << " events, "
            << times.chunks << " arrival chunks\n";
  return same ? 0 : 1;
}

}  // namespace

int run_selftest(const Args& args) {
  int failures = 0;
  failures += compare("month_stream", month_spec(args.seed, 30.0 * 86400.0));

  const std::filesystem::path log_path =
      std::filesystem::path(args.tmp_dir) / "selftest_task_events.csv";
  write_sched_log(log_path.string());
  failures += compare("trace_sched", sched_spec(log_path.string()));
  std::error_code ec;
  std::filesystem::remove(log_path, ec);

  for (std::size_t variant = 0; variant < 4; ++variant) {
    failures += compare("service_mix sample " + std::to_string(variant),
                        service_spec(1000 + args.seed + variant, variant));
  }
  std::cout << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures;
}

}  // namespace perfbench
