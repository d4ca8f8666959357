// The serve loop under trace specs that used to spin the generator forever:
// a NaN horizon or arrival rate (NaN passes every "<= 0" test, and the
// arrival loop ends only once an arrival passes the horizon). Each such
// request must be answered ok:false with the field named, and the request
// after it must still be answered. An infinite horizon capped by max_jobs
// stays a valid request.

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

TEST(Serve, NonFiniteTraceSpecIsRefusedAndTheNextRequestAnswered) {
  struct Case {
    const char* spec;   ///< JSON string body of the "spec" field
    const char* field;  ///< named in the error
  };
  const Case cases[] = {
      {"trace.horizon_s=nan", "horizon_s"},
      {"trace.arrival_rate=nan", "arrival_rate"},
      {"trace.arrival_rate=inf", "arrival_rate"},
      {"estimation=history\\nhistory.horizon_s=nan", "horizon_s"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    const auto lines = serve_lines(std::string("{\"op\":\"run\",\"spec\":\"") +
                                   c.spec + "\"}\n{\"op\":\"stats\"}\n");
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
