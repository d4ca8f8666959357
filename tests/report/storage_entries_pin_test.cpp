// Pins the exact output of the five storage entries (fig07, tab02, tab03,
// tab04, tab05). They replay the device model with the paper's measurement
// noise, and the expected-value gate compares them within tolerances, so a
// change to how the device tracks writes in flight could shift a contended
// price, or the RNG draw order, without failing the gate. Every metric must
// equal its literal bit for bit, and the human rendering (the min/avg/max
// tables, the Figure 7 sweeps) must hash to the same digest.
//
// The literals were captured while every contended write still ended
// through its own engine event; the test passes unchanged on both sides of
// the change that retires writes by their (time, seq) slot instead.

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
      {"fig07", "local_ckpt_cost_240mb_s", 0.99},
      {"fig07", "nfs_ckpt_cost_240mb_s", 2.52},
      {"tab02", "local_avg_cost_x1_s", 0.6367975485227042},
      {"tab02", "local_avg_cost_x5_s", 0.64162049574604285},
      {"tab02", "nfs_avg_cost_x1_s", 1.676431827748275},
      {"tab02", "nfs_avg_cost_x5_s", 8.3985304503374376},
      {"tab02", "nfs_x5_over_x1", 5.0097655695418597},
      {"tab03", "dmnfs_avg_cost_x1_s", 1.6598428017132496},
      {"tab03", "dmnfs_avg_cost_x5_s", 1.7604823137287267},
      {"tab03", "dmnfs_worst_avg_cost_s", 1.7604823137287267},
      {"tab04", "op_time_10mb_s", 0.33},
      {"tab04", "op_time_90mb_s", 2.09},
      {"tab04", "op_time_240mb_s", 6.83},
      {"tab05", "restart_a_240mb_s", 5.69},
      {"tab05", "restart_b_240mb_s", 2.4},
      {"tab05", "a_dearer_than_b_everywhere", 1},
  };
  return pinned;
}

constexpr std::uint64_t kHumanDigest = 0x88e471c541f29631ULL;
constexpr std::size_t kHumanBytes = 5308;

TEST(StorageEntriesPin, MetricsAndHumanTextAreUnchanged) {
  std::ostringstream human;
  ReportOptions options;
  options.only = {"fig07", "tab02", "tab03", "tab04", "tab05"};
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
