// Chrome trace-event writer: JSON escaping, ring eviction order, window and
// category filters, and per-track span sanity (what scripts/
// check_trace_json.py validates on real artifacts).

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

#include "obs/trace_writer.hpp"

namespace cloudcr::obs {
namespace {

std::string json_of(const TraceWriter& writer) {
  std::ostringstream os;
  writer.write_json(os);
  return os.str();
}

TEST(TraceCategories, ParsesMasksAndRejectsUnknowns) {
  EXPECT_EQ(parse_trace_categories(""), kCatAll);
  EXPECT_EQ(parse_trace_categories("job"), kCatJob);
  EXPECT_EQ(parse_trace_categories("job|vm"), kCatJob | kCatVm);
  EXPECT_EQ(parse_trace_categories("phase|job|task|vm"), kCatAll);
  EXPECT_THROW(parse_trace_categories("jobs"), std::invalid_argument);
  EXPECT_THROW(parse_trace_categories("job|"), std::invalid_argument);
  try {
    parse_trace_categories("nope");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'nope'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("phase, job, task, vm"),
              std::string::npos);
  }
}

TEST(TraceWriter, EmitsCompleteSpansAndInstants) {
  TraceWriter writer;
  writer.sim_span(kJobPid, 7, "run", kCatTask, 1.0, 3.5);
  writer.sim_instant(kJobPid, 7, "failure", kCatTask, 3.5);
  const std::string json = json_of(writer);
  // Span: ph "X" with ts/dur in microseconds of simulated time.
  EXPECT_NE(json.find("{\"name\":\"run\",\"cat\":\"task\",\"ph\":\"X\","
                      "\"pid\":2,\"tid\":7,\"ts\":1000000,\"dur\":2500000}"),
            std::string::npos);
  // Instant: ph "I" with thread scope, no dur.
  EXPECT_NE(json.find("{\"name\":\"failure\",\"cat\":\"task\",\"ph\":\"I\","
                      "\"pid\":2,\"tid\":7,\"ts\":3500000,\"s\":\"t\"}"),
            std::string::npos);
}

TEST(TraceWriter, EscapesAwkwardNames) {
  TraceWriter writer;
  writer.sim_instant(kJobPid, 1, "quote \" backslash \\ newline \n", kCatJob,
                     0.0);
  const std::string json = json_of(writer);
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n"),
            std::string::npos);
  // The raw characters must not survive unescaped inside a string.
  EXPECT_EQ(json.find("newline \n"), std::string::npos);
}

TEST(TraceWriter, HostSpansUseTheWriterEpoch) {
  TraceWriter writer;
  const auto t0 = std::chrono::steady_clock::now();
  writer.host_span("estimation", t0, t0 + std::chrono::milliseconds(2));
  const std::string json = json_of(writer);
  EXPECT_NE(json.find("\"name\":\"estimation\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST(TraceWriter, RingEvictsOldestFirst) {
  TraceWriterOptions opts;
  opts.ring_capacity = 3;
  TraceWriter writer(opts);
  for (int i = 0; i < 5; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    writer.sim_instant(kJobPid, 1, name, kCatJob, static_cast<double>(i));
  }
  EXPECT_EQ(writer.size(), 3u);
  EXPECT_EQ(writer.dropped(), 2u);
  const std::string json = json_of(writer);
  // e0/e1 evicted; survivors serialize oldest first.
  EXPECT_EQ(json.find("\"e0\""), std::string::npos);
  EXPECT_EQ(json.find("\"e1\""), std::string::npos);
  const std::size_t p2 = json.find("\"e2\"");
  const std::size_t p3 = json.find("\"e3\"");
  const std::size_t p4 = json.find("\"e4\"");
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p3, std::string::npos);
  ASSERT_NE(p4, std::string::npos);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);
  EXPECT_NE(json.find("\"dropped_events\":2"), std::string::npos);
}

TEST(TraceWriter, SimWindowFiltersWholeEventsOnly) {
  TraceWriterOptions opts;
  opts.window_begin_s = 10.0;
  opts.window_end_s = 20.0;
  TraceWriter writer(opts);
  writer.sim_span(kJobPid, 1, "before", kCatJob, 1.0, 9.0);   // out
  writer.sim_span(kJobPid, 1, "straddle", kCatJob, 9.0, 11.0);  // overlaps
  writer.sim_span(kJobPid, 1, "inside", kCatJob, 12.0, 13.0);   // in
  writer.sim_span(kJobPid, 1, "after", kCatJob, 21.0, 22.0);    // out
  writer.sim_instant(kJobPid, 1, "tick", kCatJob, 15.0);        // in
  // Host-clock phases ignore the simulated window.
  const auto now = std::chrono::steady_clock::now();
  writer.host_span("drain", now, now);
  const std::string json = json_of(writer);
  EXPECT_EQ(json.find("\"before\""), std::string::npos);
  EXPECT_EQ(json.find("\"after\""), std::string::npos);
  EXPECT_NE(json.find("\"straddle\""), std::string::npos);
  EXPECT_NE(json.find("\"inside\""), std::string::npos);
  EXPECT_NE(json.find("\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"drain\""), std::string::npos);
}

TEST(TraceWriter, CategoryMaskDropsAtEmission) {
  TraceWriterOptions opts;
  opts.categories = kCatJob;
  TraceWriter writer(opts);
  writer.sim_span(kJobPid, 1, "job_span", kCatJob, 0.0, 1.0);
  writer.sim_span(kJobPid, 1, "task_span", kCatTask, 0.0, 1.0);
  writer.sim_span(kVmPid, 1, "vm_span", kCatVm, 0.0, 1.0);
  const auto now = std::chrono::steady_clock::now();
  writer.host_span("phase_span", now, now);
  EXPECT_EQ(writer.size(), 1u);
  // Filtered events are not "dropped" — that counter means ring eviction.
  EXPECT_EQ(writer.dropped(), 0u);
  const std::string json = json_of(writer);
  EXPECT_NE(json.find("\"job_span\""), std::string::npos);
  EXPECT_EQ(json.find("\"task_span\""), std::string::npos);
  EXPECT_EQ(json.find("\"vm_span\""), std::string::npos);
  EXPECT_EQ(json.find("\"phase_span\""), std::string::npos);
}

TEST(TraceWriter, WritesTrackMetadataPerPidAndTid) {
  TraceWriter writer;
  writer.sim_span(kJobPid, 4, "run", kCatTask, 0.0, 1.0);
  writer.sim_span(kVmPid, 9, "job 1 task 0", kCatVm, 0.0, 1.0);
  const std::string json = json_of(writer);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"jobs (simulated clock)\""), std::string::npos);
  EXPECT_NE(json.find("\"VMs (simulated clock)\""), std::string::npos);
  EXPECT_NE(json.find("\"job 4\""), std::string::npos);
  EXPECT_NE(json.find("\"vm 9\""), std::string::npos);
}

TEST(TraceWriter, NegativeDurationsClampToZero) {
  TraceWriter writer;
  writer.sim_span(kJobPid, 1, "backwards", kCatJob, 5.0, 4.0);
  const std::string json = json_of(writer);
  EXPECT_NE(json.find("\"dur\":0"), std::string::npos);
}

}  // namespace
}  // namespace cloudcr::obs
