// repro_report: one-command reproduction of the paper's figure/table
// matrix, with the expected-value gate CI runs against the checked-in
// bench/REPRO_expected.baseline.json. It is the one front end for the
// reproduction: one figure is `--only <id> --verbose`.
//
// Every experiment is a registry entry (src/report/); this binary selects a
// subset, runs it through the shared BatchRunner, compares metrics against
// the expected document, and emits REPRODUCTION.md / REPRODUCTION.json.
//
// Usage:
//   repro_report --list                      enumerate the registry
//   repro_report                             run everything + gate
//   repro_report --only fig09,tab02          run a subset
//   repro_report --fast                      the quick subset
//   repro_report --md OUT.md --json OUT.json write the report artifacts
//   repro_report --expected FILE.json        expected doc (default: the
//                                            checked-in baseline; '' runs
//                                            ungated)
//   repro_report --update-expected FILE      rewrite expectations from this
//                                            run (review the diff!)
//   repro_report --docs OUT.md               regenerate docs/experiments.md
//                                            (no experiments are run)
//   repro_report --verbose                   stream the per-figure tables
//   repro_report --no-gate                   report deviations, exit 0
//   repro_report --progress                  live per-artifact stderr line
//                                            (done/total, jobs/s, ETA)
//   repro_report --probes-out DIR            probe CSV directory (default .)
//
// plus the flags every bench shares (report::BenchArgs):
//   --seed N / --horizon S / --jobs N / --trace SPEC
//                                            override every trace; the
//                                            expectations are pinned to the
//                                            default specs, so the gate is
//                                            skipped (exit 0)
//   --threads N                              BatchRunner workers
//   --artifacts-json PATH / --artifacts-csv PATH
//                                            export the selected entries'
//                                            RunArtifacts
//   --stats                                  collect + print the merged obs
//                                            counter registry
//   --probe-interval S                       sample time-series probes every
//                                            S simulated seconds; one CSV
//                                            per scenario (see --probes-out)
//   --trace-out PATH                         Chrome trace per scenario
//
// Exit codes: 0 gate passed (or skipped), 1 gate failed or an artifact
// export could not be written, 2 CLI/IO error (an expected document that
// cannot be read or parsed included).
//
// The obs flags are additive: they never change metrics, so the
// expected-value gate still applies to instrumented runs.
//
// Results are deterministic per machine and thread-count independent
// (BatchRunner pins bit-identity); the per-metric tolerances absorb
// cross-platform libm variation only.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "obs/probe.hpp"
#include "report/bench_args.hpp"
#include "report/compare.hpp"
#include "report/registry.hpp"
#include "report/render.hpp"
#include "report/runner.hpp"

namespace {

using namespace cloudcr;

std::vector<std::string> split_ids(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string id;
  while (std::getline(is, id, ',')) {
    if (!id.empty()) out.push_back(id);
  }
  return out;
}

int list_experiments() {
  const auto& registry = report::ExperimentRegistry::instance();
  std::printf("%-8s %-10s %-5s %-9s %s\n", "id", "paper", "fast", "scenarios",
              "title");
  for (const auto& e : registry.entries()) {
    std::printf("%-8s %-10s %-5s %-9zu %s\n", e.id.c_str(),
                e.paper_ref.c_str(), e.fast ? "yes" : "", e.specs.size(),
                e.title.c_str());
  }
  return 0;
}

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body,
                const char* what) {
  std::ofstream os(path);
  if (os) {
    body(os);
    os.flush();  // a full device fails only once the buffer drains
  }
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "# wrote " << path << " (" << what << ")\n";
  return true;
}

/// Scenario names become file names: keep [A-Za-z0-9._-], fold the rest.
std::string sanitize_component(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// One probe CSV per scenario: <dir>/<entry-id>__<spec-name>.probes.csv.
bool write_probe_csvs(const std::string& dir,
                      const std::vector<report::EntryReport>& entries) {
  bool ok = true;
  std::size_t written = 0;
  for (const auto& er : entries) {
    for (const auto& artifact : er.result.artifacts) {
      if (artifact.result.probes.empty()) continue;
      const std::string path = dir + "/" +
                               sanitize_component(er.result.experiment->id) +
                               "__" + sanitize_component(artifact.spec.name) +
                               ".probes.csv";
      std::ofstream os(path);
      if (os) {
        cloudcr::obs::write_probe_csv(os, artifact.result.probes);
        os.flush();
      }
      if (!os) {
        std::cerr << "cannot write " << path << "\n";
        ok = false;
        continue;
      }
      ++written;
    }
  }
  if (written > 0) {
    std::cout << "# wrote " << written << " probe CSV(s) under " << dir
              << "/\n";
  }
  return ok;
}

/// --progress: one stderr line, rewritten per finished artifact. Jobs/s is
/// cumulative replayed jobs over host elapsed; ETA extrapolates linearly.
class ProgressLine {
 public:
  void operator()(const cloudcr::api::RunArtifact& artifact, std::size_t done,
                  std::size_t total) {
    jobs_ += artifact.trace_jobs;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    const double rate = elapsed > 0.0 ? jobs_ / elapsed : 0.0;
    const double eta =
        done > 0 ? elapsed * static_cast<double>(total - done) /
                       static_cast<double>(done)
                 : 0.0;
    std::fprintf(stderr, "\r# %zu/%zu %-32.32s %10.0f jobs/s  ETA %5.0fs",
                 done, total, artifact.spec.name.c_str(), rate, eta);
    if (done == total) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  double jobs_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> only;
  bool fast_only = false;
  bool verbose = false;
  bool gate = true;
  bool progress = false;
  std::string probes_dir = ".";
  std::string md_path;
  std::string json_path;
  std::string docs_path;
  std::string update_path;
  std::string expected_path = report::default_expected_path();
  report::BenchArgs args;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (args.consume(argc, argv, i)) {
      continue;
    } else if (arg == "--list") {
      return list_experiments();
    } else if (arg == "--only") {
      only = split_ids(value());
      if (only.empty()) {
        std::cerr << "--only needs a comma-separated id list\n";
        return 2;
      }
    } else if (arg == "--fast") {
      fast_only = true;
    } else if (arg == "--md") {
      md_path = value();
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--docs") {
      docs_path = value();
    } else if (arg == "--expected") {
      expected_path = value();
    } else if (arg == "--update-expected") {
      update_path = value();
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--no-gate") {
      gate = false;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--probes-out") {
      probes_dir = value();
    } else if (arg == "-h" || arg == "--help") {
      std::cout
          << "usage: repro_report [--list] [--only IDS] [--fast]\n"
             "                    [--md OUT] [--json OUT]\n"
             "                    [--expected FILE] [--update-expected "
             "FILE]\n"
             "                    [--docs OUT] [--verbose] [--no-gate]\n"
             "                    [--progress] [--probes-out DIR]\n"
             "                    "
          << report::BenchArgs::usage(/*exports=*/true) << "\n";
      return 0;
    } else {
      std::cerr << "unknown flag " << arg << " (try --help)\n";
      return 2;
    }
  }

  // --docs is a pure registry render: no experiments run.
  if (!docs_path.empty()) {
    return write_file(
               docs_path,
               [](std::ostream& os) { report::write_experiments_doc(os); },
               "experiment docs")
               ? 0
               : 2;
  }

  // Expectations are pinned to the default specs: a run over overridden
  // traces is reported, never gated, and cannot become the baseline.
  const bool gated = !args.overrides_trace();
  if (!gated && !update_path.empty()) {
    std::cerr << "--update-expected cannot be combined with --seed, "
                 "--horizon, --jobs or --trace (expectations are pinned to "
                 "the default specs)\n";
    return 2;
  }

  report::ReportOptions options;
  options.only = only;
  options.fast_only = fast_only;
  options.threads = args.threads_or(0);
  if (!gated) {
    options.trace_override = [&args](api::TraceSpec& spec) {
      args.apply(spec);
    };
  }
  if (verbose) options.human = &std::cout;
  if (progress) options.progress = ProgressLine{};
  options.obs = args.obs_value();

  report::ReportResult result;
  try {
    if (args.exports_artifacts()) {
      bool any_specs = false;
      for (const report::Experiment* e : report::select_experiments(options)) {
        any_specs = any_specs || !e->specs.empty();
      }
      if (!any_specs) {
        std::cerr << "--artifacts-json/--artifacts-csv: the selected "
                     "experiments run no scenarios, so there are no "
                     "artifacts to export\n";
        return 2;
      }
    }
    result = report::run_report(options);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    return 2;
  }

  if (!update_path.empty()) {
    std::vector<std::pair<std::string, std::vector<report::MetricValue>>>
        actuals;
    for (const auto& entry : result.entries) {
      actuals.emplace_back(entry.experiment->id, entry.metrics);
    }
    auto doc = report::expected_from_results(actuals);
    // A subset run (--only/--fast) must not truncate the baseline: merge
    // the fresh entries over whatever the target file already records. A
    // *missing* target starts fresh; a present-but-unparsable one aborts —
    // silently rewriting a corrupt baseline would discard every entry the
    // subset did not run.
    if (std::ifstream(update_path).good()) {
      try {
        doc = report::merge_expected(report::read_expected_file(update_path),
                                     doc);
      } catch (const std::exception& e) {
        std::cerr << update_path
                  << " exists but cannot be merged: " << e.what()
                  << "\n(fix or delete it before --update-expected)\n";
        return 2;
      }
    }
    if (!write_file(
            update_path,
            [&doc](std::ostream& os) { report::write_expected(os, doc); },
            "expected values")) {
      return 2;
    }
    expected_path = update_path;  // gate against what we just wrote
  }

  // Compare each entry against the expected document. A named document
  // that cannot be read or parsed is an error, not a skipped gate: gating
  // against nothing would pass. Only an empty path runs ungated.
  report::ExpectedDoc expected;
  const bool have_expected = gated && !expected_path.empty();
  if (have_expected) {
    try {
      expected = report::read_expected_file(expected_path);
    } catch (const std::exception& e) {
      std::cerr << "expected-value document " << expected_path
                << " is unusable: " << e.what() << "\n";
      return 2;
    }
  }
  std::vector<report::EntryReport> entries;
  for (auto& entry : result.entries) {
    report::EntryReport er;
    if (have_expected) {
      if (const auto* exp = expected.find(entry.experiment->id)) {
        er.comparisons = report::compare_entry(*exp, entry.metrics);
        er.compared = true;
      }
    }
    er.result = std::move(entry);
    entries.push_back(std::move(er));
  }

  // Console summary.
  const report::GateSummary summary = report::summarize_gate(entries);
  std::printf("%-8s %-10s %-10s %8s %9s\n", "id", "paper", "status",
              "metrics", "wall (s)");
  for (const auto& er : entries) {
    const auto& exp = *er.result.experiment;
    const char* status = !er.compared
                             ? "not gated"
                             : (report::all_pass(er.comparisons) ? "pass"
                                                                 : "FAIL");
    std::printf("%-8s %-10s %-10s %8zu %9.2f\n", exp.id.c_str(),
                exp.paper_ref.c_str(), status, er.result.metrics.size(),
                er.result.wall_s);
    for (const auto& c : er.comparisons) {
      if (!c.fails()) continue;
      std::printf("         %s: %s (actual %.6g, expected %.6g +- %.3g)\n",
                  c.metric.c_str(), report::comparison_token(c.status),
                  c.actual, c.expected, c.tolerance);
    }
  }
  std::printf("total wall: %.1f s\n", result.total_wall_s);

  args.print_stats(std::cout);

  bool io_ok = true;
  if (args.probe_interval_s > 0.0) {
    io_ok &= write_probe_csvs(probes_dir, entries);
  }
  if (!md_path.empty()) {
    io_ok &= write_file(md_path,
                        [&entries](std::ostream& os) {
                          report::write_reproduction_markdown(os, entries);
                        },
                        "reproduction report");
  }
  if (!json_path.empty()) {
    io_ok &= write_file(json_path,
                        [&entries](std::ostream& os) {
                          report::write_reproduction_json(os, entries);
                        },
                        "reproduction report");
  }
  if (!io_ok) return 2;

  // The entries are not read again: move their artifacts into one list, in
  // registry order, instead of copying the outcome rows.
  bool exported = true;
  if (args.exports_artifacts()) {
    std::vector<api::RunArtifact> artifacts;
    for (auto& er : entries) {
      for (auto& artifact : er.result.artifacts) {
        artifacts.push_back(std::move(artifact));
      }
    }
    exported = args.export_artifacts(artifacts);
  }
  const int ok_exit = exported ? 0 : 1;

  if (!gated) {
    std::cout << "expected-value gate: skipped (trace overridden; "
                 "expectations are pinned to the default specs)\n";
    return ok_exit;
  }
  if (summary.compared == 0) {
    std::cout << "expected-value gate: skipped (no expectations "
                 "available)\n";
    return ok_exit;
  }
  if (summary.all_pass()) {
    std::cout << "expected-value gate: PASS (" << summary.passed << "/"
              << summary.compared << " experiments)\n";
    return ok_exit;
  }
  std::cout << "expected-value gate: FAIL (" << summary.deviations
            << " deviations, " << summary.missing << " missing)\n";
  if (!gate) {
    std::cout << "--no-gate: exiting 0 despite failures\n";
    return ok_exit;
  }
  return 1;
}
