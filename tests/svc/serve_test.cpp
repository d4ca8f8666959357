// The serve loop under requests that used to spin forever: a NaN horizon or
// arrival rate (NaN passes every "<= 0" test, and the arrival loop ends only
// once an arrival passes the horizon), and an infinite failure-detection
// delay (the re-dispatch is scheduled at t = inf). Each such request, a
// what-if with a negative time, and a request that repeats a key must be
// answered ok:false with the field named, and the request after it must
// still be answered. An infinite horizon capped by max_jobs stays a valid
// request.

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

TEST(Serve, UnboundedRequestIsRefusedAndTheNextRequestAnswered) {
  struct Case {
    std::string request;  ///< one request line
    const char* field;    ///< named in the error
  };
  const auto run = [](const char* spec) {
    return std::string("{\"op\":\"run\",\"spec\":\"") + spec + "\"}";
  };
  const auto whatif = [](const char* fields) {
    return std::string("{\"op\":\"whatif\",\"spec\":\"\",") + fields + "}";
  };
  const Case cases[] = {
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
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.request);
    const auto lines = serve_lines(c.request + "\n{\"op\":\"stats\"}\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_TRUE(contains(lines[0], "\"ok\":false")) << lines[0];
    EXPECT_TRUE(contains(lines[0], c.field)) << lines[0];
    EXPECT_TRUE(contains(lines[1], "\"ok\":true")) << lines[1];
  }
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
