// cloudcr_perfbench: runs one benchmark workload and prints its result.
//
//   cloudcr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--tmp DIR] [--trace-out FILE]
//   cloudcr_perfbench --selftest [--tmp DIR]
//
// Workloads: month_stream, trace_sched, repro_matrix, service_mix. With
// --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer table of a separate traced run. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 when every output check passed, 1 when one failed, 2 on usage
// errors.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include <sched.h>

#include "bench.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::cerr << "cloudcr_perfbench: " << why
            << "\nusage: cloudcr_perfbench --workload "
               "month_stream|trace_sched|repro_matrix|service_mix --seed N "
               "--seconds S --trace 0|1 [--tmp DIR] [--trace-out FILE]\n"
               "       cloudcr_perfbench --selftest [--tmp DIR]\n";
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const Args& args, const Outcome& out) {
  std::cout << "# workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << (args.trace ? 1 : 0)
            << " threads " << args.threads << " build " PERFBENCH_BUILD_TYPE
            << " compiler " PERFBENCH_COMPILER "\n";
  for (const std::string& note : out.notes) std::cout << "# " << note << "\n";
  std::vector<Metric> rows = out.metrics;
  if (!args.trace) {
    rows.push_back({"error_rate",
                    static_cast<double>(out.failed) /
                        static_cast<double>(std::max<std::uint64_t>(1, out.attempted)),
                    "ratio"});
    rows.insert(rows.end(), out.extra.begin(), out.extra.end());
  }
  std::cout << (args.trace ? "# per-layer metrics (traced run)\n"
                           : "# end-to-end metrics (untraced run)\n");
  for (const Metric& m : rows) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "#   %-26s %16.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << buf;
  }
  std::ostringstream json;
  json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": "
         << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool selftest = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        args.workload = value();
      } else if (arg == "--seed") {
        args.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (arg == "--tmp") {
        args.tmp_dir = value();
      } else if (arg == "--trace-out") {
        args.trace_out = value();
      } else if (arg == "--selftest") {
        selftest = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  // nproc: the CPUs this process may run on, not the host's count.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const std::size_t nproc =
      sched_getaffinity(0, sizeof cpus, &cpus) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&cpus))
          : std::max(1u, std::thread::hardware_concurrency());
  // Two threads, not one per CPU: on a shared 4-vCPU host, four busy threads
  // made every pause of one vCPU stall the batch's or the round's slowest
  // part, and the run medians followed the neighbours' load (service_mix
  // round medians ranged 1.58x over six seeds at four clients, 1.29x at two,
  // interleaved on one host).
  args.threads = std::clamp<std::size_t>(nproc, 1, 2);
  if (args.tmp_dir.empty()) args.tmp_dir = ".";
  std::error_code ec;
  std::filesystem::create_directories(args.tmp_dir, ec);

  try {
    if (selftest) return run_selftest(args) == 0 ? 0 : 1;
    if (!have_trace || args.workload.empty()) {
      return usage("--workload and --trace are required");
    }
    if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
    Outcome out;
    if (args.workload == "month_stream") {
      out = run_month_stream(args);
    } else if (args.workload == "trace_sched") {
      out = run_trace_sched(args);
    } else if (args.workload == "repro_matrix") {
      out = run_repro_matrix(args);
    } else if (args.workload == "service_mix") {
      out = run_service_mix(args);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
    if (out.attempted == 0) out.fail("no operation was attempted");
    print(args, out);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "cloudcr_perfbench: " << e.what() << "\n";
    return 1;
  }
}
