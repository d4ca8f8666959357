// Pins the exact output of the four trace-statistics entries (fig04, fig05,
// fig08, tab07). CI's fast report subset skips them, and the expected-value
// gate compares them within tolerances, so neither would catch a small
// drift in the interval walks, the MLE/KS fits or the report's trace cache.
// Every metric must equal its literal bit for bit, and the human rendering
// (tables, CDF series, fitted parameters) must hash to the same digest.
//
// The literals were captured from the report before the trace cache moved
// into the batch layer and fit_all started sorting once; the test passes
// unchanged on both sides of that change.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "api/fingerprint.hpp"
#include "report/runner.hpp"

namespace cloudcr::report {
namespace {

struct Pinned {
  const char* entry;
  const char* metric;
  double value;
};

const std::vector<Pinned>& pinned_metrics() {
  static const std::vector<Pinned> pinned = {
      {"fig04", "median_interval_p1_s", 105.73550893888523},
      {"fig04", "median_interval_p9_s", 246.24167701799593},
      {"fig04", "p9_longer_than_p1", 1},
      {"fig05", "pareto_best_fit_all", 1},
      {"fig05", "frac_intervals_le_1000s", 0.95284526530859948},
      {"fig05", "exp_lambda_short_window", 0.0075666486521898529},
      {"fig08", "sample_jobs", 33402},
      {"fig08", "median_job_length_s", 1285.1581625950453},
      {"fig08", "median_job_memory_mb", 162.00648326158944},
      {"tab07", "mtbf_inflation_p2", 55.428544505766382},
      {"tab07", "mnof_inflation_p2", 1.1231107761038996},
      {"tab07", "mtbf_inflates_more_than_mnof", 1},
  };
  return pinned;
}

constexpr std::uint64_t kHumanDigest = 0x8d37624d23477f88ULL;
constexpr std::size_t kHumanBytes = 12473;

TEST(TraceEntriesPin, MetricsAndHumanTextAreUnchanged) {
  std::ostringstream human;
  ReportOptions options;
  options.only = {"fig04", "fig05", "fig08", "tab07"};
  options.threads = 2;
  options.human = &human;
  const ReportResult result = run_report(options);

  std::vector<Pinned> got;
  for (const EntryResult& entry : result.entries) {
    for (const MetricValue& m : entry.metrics) {
      got.push_back({entry.experiment->id.c_str(), m.name.c_str(), m.value});
    }
  }
  const auto& want = pinned_metrics();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(std::string(want[i].entry) + "/" + want[i].metric);
    EXPECT_STREQ(got[i].entry, want[i].entry);
    EXPECT_STREQ(got[i].metric, want[i].metric);
    EXPECT_EQ(got[i].value, want[i].value);  // bit-exact, not NEAR
  }

  const std::string text = human.str();
  EXPECT_EQ(text.size(), kHumanBytes);
  EXPECT_EQ(api::fnv1a64(text), kHumanDigest);
}

}  // namespace
}  // namespace cloudcr::report
