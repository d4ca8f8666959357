#include "trace/trace_io.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "trace/csv.hpp"

namespace cloudcr::trace {

namespace {

constexpr char kHeader[] =
    "job_id,structure,arrival_s,task_index,length_s,memory_mb,input_size,"
    "priority,prio_change_time,new_priority,failure_dates";

constexpr char kLabel[] = "read_csv";

}  // namespace

void write_csv(std::ostream& os, const Trace& trace) {
  // Max digits10 + 2 guarantees bit-exact double round trips.
  os.precision(17);
  os << kHeader << '\n';
  os << "# horizon_s=" << trace.horizon_s << '\n';
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) {
      os << job.id << ','
         << (job.structure == JobStructure::kSequentialTasks ? "ST" : "BoT")
         << ',' << job.arrival_s << ',' << task.index_in_job << ','
         << task.length_s << ',' << task.memory_mb << ',' << task.input_size
         << ',' << task.priority << ',' << task.priority_change_time << ','
         << task.new_priority << ',';
      for (std::size_t i = 0; i < task.failure_dates.size(); ++i) {
        if (i > 0) os << ';';
        os << task.failure_dates[i];
      }
      os << '\n';
    }
  }
  if (!os) throw std::runtime_error("write_csv: stream failure");
}

void write_csv_file(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_csv_file: cannot open " + path);
  write_csv(os, trace);
  os.flush();  // a full device fails only once the buffer drains
  if (!os) throw std::runtime_error("write_csv_file: cannot write " + path);
}

Trace read_csv(std::istream& is) {
  csv::LineReader reader(is);
  std::string line;
  if (!reader.next(line) || line != kHeader) {
    throw std::runtime_error("read_csv: missing or unexpected header");
  }

  Trace trace;
  // jobs keyed by id; tasks appended in row order.
  std::map<std::uint64_t, std::size_t> job_index;

  while (reader.next(line)) {
    if (csv::is_blank(line)) continue;  // incl. trailing blank lines
    const std::size_t lineno = reader.line_number();
    if (line[0] == '#') {
      const auto pos = line.find("horizon_s=");
      if (pos != std::string::npos) {
        trace.horizon_s =
            csv::parse_double(kLabel, line.substr(pos + 10), lineno);
      }
      continue;
    }
    const auto fields = csv::split(line, ',');
    if (fields.size() != 11) {
      throw csv::field_error(kLabel, lineno,
                             "expected 11 fields, got " +
                                 std::to_string(fields.size()) + " in",
                             line);
    }

    const std::uint64_t job_id = csv::parse_u64(kLabel, fields[0], lineno);
    auto [it, inserted] = job_index.try_emplace(job_id, trace.jobs.size());
    if (inserted) {
      JobRecord job;
      job.id = job_id;
      if (fields[1] == "ST") {
        job.structure = JobStructure::kSequentialTasks;
      } else if (fields[1] == "BoT") {
        job.structure = JobStructure::kBagOfTasks;
      } else {
        throw csv::field_error(kLabel, lineno, "bad structure", fields[1]);
      }
      job.arrival_s = csv::parse_double(kLabel, fields[2], lineno);
      trace.jobs.push_back(std::move(job));
    }

    TaskRecord task;
    task.job_id = job_id;
    task.index_in_job =
        static_cast<std::uint32_t>(csv::parse_u64(kLabel, fields[3], lineno));
    task.length_s = csv::parse_double(kLabel, fields[4], lineno);
    task.memory_mb = csv::parse_double(kLabel, fields[5], lineno);
    task.input_size = csv::parse_double(kLabel, fields[6], lineno);
    task.priority = csv::parse_int(kLabel, fields[7], lineno);
    task.priority_change_time = csv::parse_double(kLabel, fields[8], lineno);
    task.new_priority = csv::parse_int(kLabel, fields[9], lineno);
    if (!fields[10].empty()) {
      for (const auto& d : csv::split(fields[10], ';')) {
        if (!d.empty()) {
          task.failure_dates.push_back(csv::parse_double(kLabel, d, lineno));
        }
      }
      // Strictly increasing, as TaskRecord documents: a duplicate date
      // would fire a spurious zero-delta second kill in the simulator.
      if (std::adjacent_find(task.failure_dates.begin(),
                             task.failure_dates.end(),
                             [](double a, double b) { return a >= b; }) !=
          task.failure_dates.end()) {
        throw csv::field_error(kLabel, lineno,
                               "failure dates not strictly increasing",
                               fields[10]);
      }
    }
    trace.jobs[it->second].tasks.push_back(std::move(task));
  }
  return trace;
}

Trace read_csv_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("read_csv_file: cannot open " + path);
  return read_csv(is);
}

}  // namespace cloudcr::trace
