// svc::parse_request, the wire parser of cloudcr_serve: one accepted line
// per op, and every rejection names its problem — and, for a bad value or a
// repeated key, the key it belongs to — so a client debugging by hand gets a
// usable error line back.

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "svc/protocol.hpp"

namespace cloudcr::svc {
namespace {

TEST(ParseRequest, AcceptsRun) {
  const Request r = parse_request(
      R"({"op":"run","spec":"trace.horizon_s=600\nseed=3","outcomes":true})");
  EXPECT_EQ(r.op, Request::Op::kRun);
  EXPECT_EQ(r.spec, "trace.horizon_s=600\nseed=3");
  EXPECT_TRUE(r.outcomes);
}

TEST(ParseRequest, AcceptsBatch) {
  const Request r = parse_request(
      R"( { "specs" : ["a=1", "tab\there \"q\" \u00e9\/"], "op":"batch" } )");
  EXPECT_EQ(r.op, Request::Op::kBatch);
  ASSERT_EQ(r.specs.size(), 2u);
  EXPECT_EQ(r.specs[0], "a=1");
  EXPECT_EQ(r.specs[1], "tab\there \"q\" \xC3\xA9/");
  EXPECT_FALSE(r.outcomes);
  EXPECT_EQ(parse_request(R"({"op":"batch","specs":[]})").specs.size(), 0u);
}

TEST(ParseRequest, AcceptsWhatIf) {
  const Request r = parse_request(
      R"({"op":"whatif","spec":"s","fork_at":3600.5,"policy":"young",)"
      R"("detection_delay_s":2e1,"outcomes":false})");
  EXPECT_EQ(r.op, Request::Op::kWhatIf);
  EXPECT_EQ(r.spec, "s");
  EXPECT_EQ(r.fork_at, 3600.5);
  EXPECT_EQ(r.policy, "young");
  ASSERT_TRUE(r.detection_delay_s.has_value());
  EXPECT_EQ(*r.detection_delay_s, 20.0);
  EXPECT_FALSE(r.outcomes);
}

TEST(ParseRequest, AcceptsStats) {
  EXPECT_EQ(parse_request(R"({"op":"stats"})").op, Request::Op::kStats);
  const Request r = parse_request(R"({"op":"whatif","spec":"","fork_at":0})");
  EXPECT_EQ(r.fork_at, 0.0);
  EXPECT_FALSE(r.detection_delay_s.has_value());
}

struct Rejection {
  const char* line;
  const char* problem;  ///< must appear in the error message
  const char* key;      ///< must appear too (nullptr: none to name)
};

TEST(ParseRequest, RejectionsNameTheProblem) {
  const Rejection cases[] = {
      {R"({"spec":"x"})", "missing \"op\"", nullptr},
      {R"({})", "missing \"op\"", nullptr},
      {R"({"op":"run"})", "missing \"spec\"", nullptr},
      {R"({"op":"batch","spec":"x"})", "missing \"specs\"", nullptr},
      {R"({"op":"whatif","spec":"x"})", "missing \"fork_at\"", nullptr},
      {R"({"op":"ping"})", "'ping'", nullptr},
      {R"({"op":"stats","verbose":true})", "'verbose'", nullptr},
      {R"({"op":"stats"} {"op":"stats"})", "trailing bytes", nullptr},
      {R"({"op":"stats"},)", "trailing bytes", nullptr},
      {R"({"op":"run","spec":"a\qb"})", "unsupported escape '\\q'", "spec"},
      {R"({"op":"run","spec":"\u00)", "truncated \\u escape", "spec"},
      {R"({"op":"run","spec":"\u00"})", "\\u escape", "spec"},
      {R"({"op":"batch","specs":["\uZZZZ"]})", "\\u escape", "specs"},
      {R"({"op":"whatif","spec":"","fork_at":-1})", "must be >= 0", "fork_at"},
      {R"({"op":"whatif","spec":"","fork_at":0,"detection_delay_s":-0.5})",
       "must be >= 0", "detection_delay_s"},
      {R"({"op":"run","spec":"","outcomes":1})", "true or false", "outcomes"},
      {R"({"op":"run","spec":"","outcomes":"true"})", "true or false",
       "outcomes"},
      {R"({"op":"whatif","spec":"","fork_at":1.2.3})", "bad number '1.2.3'",
       "fork_at"},
      {R"({"op":"whatif","spec":"","fork_at":1e999})", "bad number '1e999'",
       "fork_at"},
      {R"({"op":"whatif","spec":"","fork_at":"10"})", "expected a number",
       "fork_at"},
      {R"({"op":"whatif","spec":"","fork_at":nan})", "expected a number",
       "fork_at"},
      {R"({"op":"run","spec":"x)", "unterminated string", "spec"},
      {R"({"op":"run","spec":)", "unexpected end of line", "spec"},
      {R"({"op":"run" "spec":"x"})", "expected ','", nullptr},
      {R"(["op","stats"])", "expected '{'", nullptr},
      {R"({"op":"run","spec":"trace.horizon_s=nan","op":"stats"})",
       "repeated key", "op"},
      {R"({"op":"whatif","spec":"","fork_at":5,"fork_at":6})", "repeated key",
       "fork_at"},
  };
  for (const Rejection& c : cases) {
    SCOPED_TRACE(c.line);
    try {
      (void)parse_request(c.line);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.problem), std::string::npos) << what;
      if (c.key != nullptr) {
        const std::string quoted = std::string("\"") + c.key + "\"";
        EXPECT_NE(what.find(quoted), std::string::npos) << what;
      }
    }
  }
}

}  // namespace
}  // namespace cloudcr::svc
