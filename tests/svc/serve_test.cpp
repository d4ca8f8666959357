// The serve loop under requests that used to spin forever: a NaN horizon or
// arrival rate (NaN passes every "<= 0" test, and the arrival loop ends only
// once an arrival passes the horizon), an infinite failure-detection delay
// (the re-dispatch is scheduled at t = inf), and a checkpoint interval too
// small to move the clock. Each such request, a spec value that would
// replay wrongly, a what-if with a negative time, and a request that
// repeats a key must be answered ok:false with its cause named, the request
// after it must still be answered, and a failed run is not cached. An
// infinite horizon capped by max_jobs stays a valid request.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace cloudcr::svc {
namespace {

std::vector<std::string> serve_lines(const std::string& requests) {
  SimService service;
  std::istringstream in(requests);
  std::ostringstream out;
  serve(service, in, out);
  std::vector<std::string> lines;
  std::istringstream reply(out.str());
  for (std::string line; std::getline(reply, line);) lines.push_back(line);
  return lines;
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

struct Case {
  std::string request;  ///< one request line
  const char* cause;    ///< named in the error
};

std::string run(const char* spec) {
  return std::string("{\"op\":\"run\",\"spec\":\"") + spec + "\"}";
}

/// Sends each case followed by a stats request: the case must be answered
/// ok:false naming its cause, and the stats request must be answered.
void expect_refused_then_answered(const std::vector<Case>& cases) {
  for (const Case& c : cases) {
    SCOPED_TRACE(c.request);
    const auto lines = serve_lines(c.request + "\n{\"op\":\"stats\"}\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_TRUE(contains(lines[0], "\"ok\":false")) << lines[0];
    EXPECT_TRUE(contains(lines[0], c.cause)) << lines[0];
    EXPECT_TRUE(contains(lines[1], "\"ok\":true")) << lines[1];
  }
}

/// A plan whose next checkpoint cannot move the clock: it used to
/// checkpoint forever inside one event.
const char* const kStuckPlan =
    "policy=fixed:1e-300\\ntrace.horizon_s=600\\nplacement=local";

TEST(Serve, UnboundedRequestIsRefusedAndTheNextRequestAnswered) {
  const auto whatif = [](const char* fields) {
    return std::string("{\"op\":\"whatif\",\"spec\":\"\",") + fields + "}";
  };
  const std::vector<Case> cases = {
      {run("trace.horizon_s=nan"), "horizon_s"},
      {run("trace.arrival_rate=nan"), "arrival_rate"},
      {run("trace.arrival_rate=inf"), "arrival_rate"},
      {run("estimation=history\\nhistory.horizon_s=nan"), "horizon_s"},
      {run("detection_delay_s=inf\\ntrace.horizon_s=600"), "detection_delay_s"},
      {whatif("\"fork_at\":-1"), "fork_at"},
      {whatif("\"fork_at\":0,\"detection_delay_s\":-1"), "detection_delay_s"},
      // A repeated key used to keep its last value and answer as stats.
      {R"({"op":"run","spec":"trace.horizon_s=nan","op":"stats"})",
       R"(repeated key \"op\")"},
      {run(kStuckPlan), "checkpoint interval 1e-300 s"},
  };
  expect_refused_then_answered(cases);
}

// Values that parsed but replayed wrongly: a noise amplitude outside
// [0, 1) (negative replays as 0 under a key of its own, above 1 a cost
// can go negative, NaN failed deep inside the run), a NaN capacity that
// fits no task, and a NaN or non-positive length limit.
TEST(Serve, OutOfRangeSpecValuesAreRefusedByKey) {
  const std::vector<Case> cases = {
      {run("storage_noise=nan"), "storage_noise"},
      {run("storage_noise=-1"), "storage_noise"},
      {run("storage_noise=5"), "storage_noise"},
      {run("cluster.vm_memory_mb=nan"), "cluster.vm_memory_mb"},
      {run("cluster.vm_memory_mb=inf"), "cluster.vm_memory_mb"},
      {run("trace.replay_max_task_length_s=nan"),
       "trace.replay_max_task_length_s"},
      {run("history.replay_max_task_length_s=0"),
       "history.replay_max_task_length_s"},
  };
  expect_refused_then_answered(cases);
}

TEST(Serve, FailedRunIsNotCached) {
  // The stuck plan sent twice runs twice: neither failure became an entry.
  const std::string stuck = run(kStuckPlan) + "\n";
  const auto lines = serve_lines(stuck + stuck + "{\"op\":\"stats\"}\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(contains(lines[0], "\"ok\":false")) << lines[0];
  EXPECT_TRUE(contains(lines[1], "\"ok\":false")) << lines[1];
  EXPECT_TRUE(contains(lines[2], "\"cache_hits\":0,\"cache_misses\":2"))
      << lines[2];
}

TEST(Serve, InfiniteHorizonWithJobCapIsAnswered) {
  const auto lines = serve_lines(
      "{\"op\":\"run\",\"spec\":"
      "\"trace.horizon_s=inf\\ntrace.max_jobs=50\"}\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(contains(lines[0], "\"ok\":true")) << lines[0];
}

}  // namespace
}  // namespace cloudcr::svc
