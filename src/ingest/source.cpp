#include "ingest/source.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ingest/stream.hpp"
#include "trace/csv.hpp"

namespace cloudcr::ingest {

namespace {

/// Flags re-entry into the mutual TraceSource defaults (see
/// TraceSource::in_default_entry_).
class DefaultEntryGuard {
 public:
  explicit DefaultEntryGuard(bool& flag, const char* what) : flag_(flag) {
    if (flag_) {
      throw std::logic_error(std::string(what) +
                             ": subclass must override load() or "
                             "open_stream() (the defaults call each other)");
    }
    flag_ = true;
  }
  ~DefaultEntryGuard() { flag_ = false; }

 private:
  bool& flag_;
};

}  // namespace

StreamPtr TraceSource::open_stream() const {
  // Default for formats that must aggregate the whole input first: chunk
  // the materialized result (subclasses with a genuinely incremental
  // producer override this instead and inherit load() as a drain).
  const DefaultEntryGuard guard(in_default_entry_,
                                "TraceSource::open_stream");
  return std::make_unique<ChunkedTraceStream>(load());
}

IngestResult TraceSource::load() const {
  const DefaultEntryGuard guard(in_default_entry_, "TraceSource::load");
  auto stream = open_stream();
  return drain(*stream);
}

void IngestReport::skip(std::size_t line_number, std::string reason) {
  ++rows_skipped;
  if (skipped.size() < kMaxSkipSamples) {
    skipped.push_back({line_number, std::move(reason)});
  }
}

std::string IngestReport::summary() const {
  std::ostringstream os;
  os << source << ": " << rows_total << " rows, " << rows_used << " used, "
     << rows_skipped << " skipped";
  if (censored_tail_count > 0) {
    os << ", " << censored_tail_count << " censored tails";
  }
  if (rows_skipped > 0 && !skipped.empty()) {
    // Reasons come from trace::csv::field_error and already carry the line
    // number.
    os << " (first: " << skipped.front().reason << ")";
  }
  return os.str();
}

void apply_sample_job_filter(trace::Trace& trace) {
  std::erase_if(trace.jobs, [](const trace::JobRecord& job) {
    return !job.is_sample_job();
  });
}

void cap_jobs(trace::Trace& trace, std::size_t max_jobs) {
  if (max_jobs != 0 && trace.jobs.size() > max_jobs) {
    trace.jobs.resize(max_jobs);
  }
}

std::ifstream open_trace_file(const std::string& label,
                              const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error(label + ": cannot open " + path);
  return is;
}

void for_each_query_pair(
    const std::string& label, const std::string& text,
    const std::function<void(const std::string& key, const std::string& value)>&
        apply) {
  if (text.empty()) return;
  for (const auto& pair : trace::csv::split(text, ',')) {
    const auto eq = pair.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(label + " entry without '=': '" + pair +
                                  "'");
    }
    apply(pair.substr(0, eq), pair.substr(eq + 1));
  }
}

}  // namespace cloudcr::ingest
