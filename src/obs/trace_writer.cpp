#include "obs/trace_writer.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "metrics/export.hpp"

namespace cloudcr::obs {

namespace {

const char* pid_process_name(std::uint32_t pid) noexcept {
  switch (pid) {
    case kHostPid:
      return "replay host (host clock)";
    case kJobPid:
      return "jobs (simulated clock)";
    case kVmPid:
      return "VMs (simulated clock)";
  }
  return "unknown";
}

std::string tid_thread_name(std::uint32_t pid, std::uint64_t tid) {
  std::ostringstream os;
  switch (pid) {
    case kHostPid:
      os << "phases";
      break;
    case kJobPid:
      os << "job " << tid;
      break;
    case kVmPid:
      os << "vm " << tid;
      break;
    default:
      os << "track " << tid;
      break;
  }
  return os.str();
}

}  // namespace

const char* trace_category_token(std::uint32_t cat) noexcept {
  switch (cat) {
    case kCatPhase:
      return "phase";
    case kCatJob:
      return "job";
    case kCatTask:
      return "task";
    case kCatVm:
      return "vm";
  }
  return "other";
}

std::uint32_t parse_trace_categories(const std::string& spec) {
  if (spec.empty()) return kCatAll;
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t bar = spec.find('|', pos);
    const std::string token =
        spec.substr(pos, bar == std::string::npos ? bar : bar - pos);
    if (token == "phase") {
      mask |= kCatPhase;
    } else if (token == "job") {
      mask |= kCatJob;
    } else if (token == "task") {
      mask |= kCatTask;
    } else if (token == "vm") {
      mask |= kCatVm;
    } else {
      throw std::invalid_argument("unknown trace category '" + token +
                                  "' (known: phase, job, task, vm)");
    }
    if (bar == std::string::npos) break;
    pos = bar + 1;
  }
  return mask;
}

TraceWriter::TraceWriter(TraceWriterOptions opts)
    : opts_(opts), epoch_(std::chrono::steady_clock::now()) {
  if (opts_.ring_capacity == 0) opts_.ring_capacity = 1;
  ring_.reserve(std::min<std::size_t>(opts_.ring_capacity, 1024));
}

void TraceWriter::push(Event e) {
  if (ring_.size() < opts_.ring_capacity) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

void TraceWriter::host_span(const std::string& name,
                            std::chrono::steady_clock::time_point t0,
                            std::chrono::steady_clock::time_point t1) {
  if ((kCatPhase & opts_.categories) == 0) return;
  Event e;
  e.pid = kHostPid;
  e.tid = 0;
  e.cat = kCatPhase;
  e.name = name;
  e.ts_us = std::chrono::duration<double, std::micro>(t0 - epoch_).count();
  e.dur_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  if (e.dur_us < 0.0) e.dur_us = 0.0;
  push(std::move(e));
}

void TraceWriter::sim_span(TracePid pid, std::uint64_t tid,
                           const std::string& name, std::uint32_t cat,
                           double t0_s, double t1_s) {
  if ((cat & opts_.categories) == 0) return;
  if (t1_s < opts_.window_begin_s || t0_s > opts_.window_end_s) return;
  Event e;
  e.pid = pid;
  e.tid = tid;
  e.cat = cat;
  e.name = name;
  e.ts_us = t0_s * 1e6;
  e.dur_us = (t1_s - t0_s) * 1e6;
  if (e.dur_us < 0.0) e.dur_us = 0.0;
  push(std::move(e));
}

void TraceWriter::sim_instant(TracePid pid, std::uint64_t tid,
                              const std::string& name, std::uint32_t cat,
                              double t_s) {
  if ((cat & opts_.categories) == 0) return;
  if (t_s < opts_.window_begin_s || t_s > opts_.window_end_s) return;
  Event e;
  e.pid = pid;
  e.tid = tid;
  e.cat = cat;
  e.name = name;
  e.ts_us = t_s * 1e6;
  e.dur_us = -1.0;
  push(std::move(e));
}

void TraceWriter::write_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit_sep = [&] {
    if (!first) os << ',';
    first = false;
  };

  // Track metadata for every (pid, tid) present in the ring.
  std::set<std::pair<std::uint32_t, std::uint64_t>> tracks;
  for (const Event& e : ring_) tracks.emplace(e.pid, e.tid);
  std::set<std::uint32_t> pids;
  for (const auto& [pid, tid] : tracks) pids.insert(pid);
  for (const std::uint32_t pid : pids) {
    emit_sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":"
       << metrics::json_quote(pid_process_name(pid)) << "}}";
  }
  for (const auto& [pid, tid] : tracks) {
    emit_sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"args\":{\"name\":"
       << metrics::json_quote(tid_thread_name(pid, tid)) << "}}";
  }

  // Events, oldest first (ring order starting at head_).
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = ring_[(head_ + i) % n];
    emit_sep();
    os << "{\"name\":" << metrics::json_quote(e.name) << ",\"cat\":\""
       << trace_category_token(e.cat) << "\",\"ph\":\""
       << (e.dur_us < 0.0 ? 'I' : 'X') << "\",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid << ",\"ts\":" << metrics::json_double(e.ts_us);
    if (e.dur_us >= 0.0) os << ",\"dur\":" << metrics::json_double(e.dur_us);
    if (e.dur_us < 0.0) os << ",\"s\":\"t\"";
    os << '}';
  }
  os << "],\"otherData\":{\"dropped_events\":" << dropped_ << "}}";
}

bool TraceWriter::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (os) {
    write_json(os);
    os << '\n';
    os.flush();  // a full device fails only once the buffer drains
  }
  if (!os) {
    std::cerr << "obs: cannot write trace output '" << path << "'\n";
    return false;
  }
  return true;
}

}  // namespace cloudcr::obs
