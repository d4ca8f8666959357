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

void BenchArgs::print_stats(std::ostream& os) const {
  if (!stats) return;
  os << "# obs stats (merged registry):\n";
  obs::write_stats_text(os);
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

bool BenchArgs::consume(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  auto value = [&]() -> std::string {
    if (i + 1 >= argc) {
      std::cerr << argv[0] << ": " << flag << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  auto parse_u64 = [&]() -> std::uint64_t {
    try {
      return api::parse_checked_u64(flag, value());
    } catch (const std::invalid_argument& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      std::exit(2);
    }
  };
  auto parse_double = [&]() -> double {
    try {
      return api::parse_checked_double(flag, value());
    } catch (const std::invalid_argument& e) {
      std::cerr << argv[0] << ": " << e.what() << "\n";
      std::exit(2);
    }
  };
  if (flag == "--seed") {
    seed = parse_u64();
  } else if (flag == "--horizon") {
    horizon_s = parse_double();
  } else if (flag == "--jobs") {
    jobs = static_cast<std::size_t>(parse_u64());
  } else if (flag == "--trace") {
    const std::string spec = value();
    try {
      // Validates the scheme/mapping and — via probe() — that a
      // file-backed source's input actually opens, so a typo'd path
      // fails here instead of aborting mid-run.
      ingest::TraceSourceRegistry::instance().make(spec)->probe();
    } catch (const std::exception& e) {
      std::cerr << argv[0] << ": --trace: " << e.what() << "\n";
      std::exit(2);
    }
    trace_source = spec;
  } else if (flag == "--threads") {
    threads = static_cast<std::size_t>(parse_u64());
  } else if (flag == "--artifacts-json") {
    json_path = value();
  } else if (flag == "--artifacts-csv") {
    csv_path = value();
  } else if (flag == "--stats") {
    stats = true;
  } else if (flag == "--probe-interval") {
    probe_interval_s = parse_double();
    if (!(probe_interval_s > 0.0)) {
      std::cerr << argv[0] << ": --probe-interval must be > 0\n";
      std::exit(2);
    }
  } else if (flag == "--trace-out") {
    trace_out = value();
  } else {
    return false;
  }
  return true;
}

std::string BenchArgs::usage(bool exports) {
  std::string out = "[--seed N] [--horizon S] [--jobs N] [--trace SPEC]";
  out += " [--threads N]";
  if (exports) out += " [--artifacts-json PATH] [--artifacts-csv PATH]";
  out += " [--stats] [--probe-interval S] [--trace-out PATH]";
  return out;
}

BenchArgs BenchArgs::parse(int argc, char** argv, bool exports) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "-h" || flag == "--help") {
      std::cout << "usage: " << argv[0] << " " << usage(exports) << "\n";
      std::exit(0);
    }
    if (!args.consume(argc, argv, i)) {
      std::cerr << argv[0] << ": unknown flag '" << flag << "' (try --help)\n";
      std::exit(2);
    }
  }
  if (!exports && args.exports_artifacts()) {
    std::cerr << argv[0]
              << ": --artifacts-json/--artifacts-csv are not supported (this "
                 "bench produces no artifacts)\n";
    std::exit(2);
  }
  return args;
}

}  // namespace cloudcr::report
