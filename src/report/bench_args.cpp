#include "report/bench_args.hpp"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>

#include "api/artifact_io.hpp"
#include "ingest/registry.hpp"
#include "obs/spec.hpp"
#include "obs/stats.hpp"

namespace cloudcr::report {

std::string BenchArgs::obs_value() const {
  obs::ObsSpec spec;
  spec.stats = stats;
  spec.probe_interval_s = probe_interval_s;
  spec.trace_path = trace_out;
  return obs::serialize_obs(spec);
}

void BenchArgs::print_stats() const {
  if (!stats) return;
  std::cerr << "# obs stats (merged registry):\n";
  obs::write_stats_text(std::cerr);
}

bool BenchArgs::export_artifacts(
    const std::vector<api::RunArtifact>& artifacts) const {
  bool ok = true;
  if (!json_path.empty()) {
    if (api::write_artifacts_json_file(json_path, artifacts)) {
      std::cout << "# artifacts: " << json_path << " (JSON, "
                << artifacts.size() << " runs)\n";
    } else {
      std::cerr << "cannot write " << json_path << "\n";
      ok = false;
    }
  }
  if (!csv_path.empty()) {
    if (api::write_artifacts_csv_file(csv_path, artifacts)) {
      std::cout << "# artifacts: " << csv_path << " (CSV summary)\n";
    } else {
      std::cerr << "cannot write " << csv_path << "\n";
      ok = false;
    }
  }
  return ok;
}

BenchArgs BenchArgs::parse(int argc, char** argv, bool exports) {
  BenchArgs args;
  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << argv[0] << ": " << flag << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  auto parse_u64 = [&](int& i, const char* flag) -> std::uint64_t {
    try {
      return api::parse_checked_u64(flag, value(i, flag));
    } catch (const std::invalid_argument& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      std::exit(2);
    }
  };
  auto parse_double = [&](int& i, const char* flag) -> double {
    try {
      return api::parse_checked_double(flag, value(i, flag));
    } catch (const std::invalid_argument& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "-h" || flag == "--help") {
      std::cout << "usage: " << argv[0]
                << " [--seed N] [--horizon S] [--jobs N] [--trace SPEC]"
                << " [--threads N]"
                << (exports ? " [--json PATH] [--csv PATH]" : "")
                << " [--stats] [--probe-interval S] [--trace-out PATH]\n";
      std::exit(0);
    } else if ((flag == "--json" || flag == "--csv") && !exports) {
      std::cerr << argv[0] << ": " << flag
                << " is not supported (this bench produces no artifacts)\n";
      std::exit(2);
    } else if (flag == "--seed") {
      args.seed = parse_u64(i, "--seed");
    } else if (flag == "--horizon") {
      args.horizon_s = parse_double(i, "--horizon");
    } else if (flag == "--jobs") {
      args.jobs = static_cast<std::size_t>(parse_u64(i, "--jobs"));
    } else if (flag == "--trace") {
      const std::string spec = value(i, "--trace");
      try {
        // Validates the scheme/mapping and — via probe() — that a
        // file-backed source's input actually opens, so a typo'd path
        // fails here instead of aborting mid-run.
        ingest::TraceSourceRegistry::instance().make(spec)->probe();
      } catch (const std::exception& e) {
        std::cerr << argv[0] << ": --trace: " << e.what() << "\n";
        std::exit(2);
      }
      args.trace_source = spec;
    } else if (flag == "--threads") {
      args.threads = static_cast<std::size_t>(parse_u64(i, "--threads"));
    } else if (flag == "--json") {
      args.json_path = value(i, "--json");
    } else if (flag == "--csv") {
      args.csv_path = value(i, "--csv");
    } else if (flag == "--stats") {
      args.stats = true;
    } else if (flag == "--probe-interval") {
      args.probe_interval_s = parse_double(i, "--probe-interval");
      if (!(args.probe_interval_s > 0.0)) {
        std::cerr << argv[0] << ": --probe-interval must be > 0\n";
        std::exit(2);
      }
    } else if (flag == "--trace-out") {
      args.trace_out = value(i, "--trace-out");
    } else {
      std::cerr << argv[0] << ": unknown flag '" << flag << "' (try --help)\n";
      std::exit(2);
    }
  }
  return args;
}

}  // namespace cloudcr::report
