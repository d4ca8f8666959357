// repro_matrix: every entry of the report::run_report registry through one
// BatchRunner at min(2, nproc) threads, with the expected-value gate.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/fingerprint.hpp"
#include "api/stream.hpp"
#include "layers.hpp"
#include "report/compare.hpp"
#include "report/registry.hpp"
#include "report/runner.hpp"

namespace perfbench {

namespace api = cloudcr::api;
namespace report = cloudcr::report;

namespace {

struct Matrix {
  std::vector<std::string> order;  ///< entry ids in registry order
  report::ExpectedDoc expected;
};

/// Loads the registry and the checked-in expectations. The matrix is the
/// one users reproduce: its specs carry the fixed seeds the expected-value
/// gate pins, and it runs in registry order like repro_report, so the
/// benchmark seed selects nothing here.
Matrix load_matrix() {
  Matrix m;
  for (const auto& e : report::ExperimentRegistry::instance().entries()) {
    m.order.push_back(e.id);
  }
  const std::string path = report::default_expected_path();
  if (path.empty()) throw std::runtime_error("no expected-value document");
  m.expected = report::read_expected_file(path);
  return m;
}

/// Gates every entry against its checked-in expectations; returns how many
/// passed.
std::size_t gate_pass(const report::ReportResult& result, const Matrix& m,
                      Outcome& out) {
  std::size_t passed = 0;
  for (const report::EntryResult& entry : result.entries) {
    ++out.attempted;
    const std::string& id = entry.experiment->id;
    const report::EntryExpectations* exp = m.expected.find(id);
    if (exp == nullptr) {
      out.fail("no expectations for " + id);
    } else if (!report::all_pass(report::compare_entry(*exp, entry.metrics))) {
      out.fail("expected-value gate failed for " + id);
    } else {
      ++passed;
    }
  }
  if (result.entries.size() != m.order.size()) {
    out.fail("report ran " + std::to_string(result.entries.size()) + " of " +
             std::to_string(m.order.size()) + " entries");
  }
  return passed;
}

/// Digest of every artifact, folded in entry-id order: artifact JSON included when `full`, the summary
/// fields only otherwise.
std::uint64_t pass_digest(report::ReportResult& result, bool full) {
  std::map<std::string, std::uint64_t> by_id;
  for (report::EntryResult& entry : result.entries) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (api::RunArtifact& a : entry.artifacts) {
      const RunDigest d = full ? digest_of(a) : summary_of(a);
      for (const std::uint64_t v : {d.jobs, d.tasks, d.events, d.checkpoints,
                                    d.failures, d.unschedulable, d.wpr_bits,
                                    d.json_hash}) {
        h = (h ^ v) * 0x100000001b3ULL;
      }
    }
    by_id[entry.experiment->id] = h;
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& [id, h] : by_id) digest = (digest ^ h) * 0x100000001b3ULL;
  return digest;
}

report::ReportOptions options_for(const Matrix& m, const Args& args) {
  report::ReportOptions opt;
  opt.only = m.order;
  opt.threads = args.threads;
  return opt;
}

/// Pulls every distinct replay trace of the matrix once through a timed
/// JobSource: the set-up's input warm-up, and the ingest measurement of the
/// traced run (the batch materializes its traces internally, where no
/// delegate reaches).
void pull_matrix_traces(SpanLog& log, LayerReport& r) {
  std::set<std::string> seen;
  reset_tallies();
  std::uint64_t id = 0;
  for (const auto& e : report::ExperimentRegistry::instance().entries()) {
    for (const api::ScenarioSpec& spec : e.specs) {
      if (!seen.insert(api::trace_fingerprint(spec.trace, true)).second) {
        continue;
      }
      const auto t0 = Clock::now();
      api::SharedTraceCursor cursor(spec.trace);
      auto stream = cursor.open_replay_stream();
      r.ingest_parse_s += seconds_since(t0);
      api::StreamJobSource inner(*stream);
      TimedJobSource source(inner, log, ++id, -1);
      std::vector<cloudcr::trace::JobRecord> chunk;
      while (source.next_jobs(cloudcr::sim::Simulation::kDefaultBatchJobs, chunk) > 0) {
        chunk.clear();
      }
      r.chunks += source.chunks();
    }
  }
  const LayerTally pulled = total_tally();
  r.ingest_pull_s = static_cast<double>(pulled.pull_ns) * 1e-9;
  r.rows = pulled.rows;
}

}  // namespace

Outcome run_repro_matrix(const Args& args) {
  Matrix m;
  LayerReport ingest;
  SpanLog log;
  // Set-up: load the registry and the expectations, and pull every distinct
  // replay trace once. The traced run keeps the first set-up's spans.
  const auto set_up = [&] {
    m = load_matrix();
    ingest = LayerReport{};
    SpanLog pulled;
    pull_matrix_traces(pulled, ingest);
    if (log.size() == 0) log.append(pulled);
  };
  SetupTimer setups;
  setups.run(set_up);

  Outcome out;
  out.notes.push_back("input: " + std::to_string(m.order.size()) +
                      " registry entries at " + std::to_string(args.threads) +
                      " threads, registry order");
  std::uint64_t first_summary = 0;
  std::vector<double> walls;
  std::vector<double> rss;
  std::vector<double> untraced_walls;
  std::vector<LayerReport> reports;
  std::uint64_t pass_id = 0;
  const auto begin = Clock::now();
  do {
    while (!args.trace && setups.due()) setups.run(set_up);
    ++pass_id;
    try {
      report::ReportOptions opt = options_for(m, args);
      reset_peak_rss();
      auto t0 = Clock::now();
      report::ReportResult plain = report::run_report(opt);
      const double wall = seconds_since(t0);
      rss.push_back(peak_rss_mb());
      gate_pass(plain, m, out);
      // Every pass must reproduce the first pass's summary digest; the
      // artifact JSON is hashed in full on the first pass and whenever a
      // traced pass is compared against its untraced twin.
      const std::uint64_t summary = pass_digest(plain, false);
      if (pass_id == 1) {
        first_summary = summary;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(pass_digest(plain, true)));
        out.notes.push_back("digest seed=" + std::to_string(args.seed) +
                            " artifacts json=" + buf);
      } else if (summary != first_summary) {
        out.fail("artifact digest differs between passes");
      }
      if (!args.trace) {
        walls.push_back(wall);
        continue;
      }
      untraced_walls.push_back(wall);

      // Traced pass: registry delegates plus one span per finished artifact.
      LayerReport r;
      std::mutex mu;
      Clock::time_point last_done;
      const int root = log.begin("report", pass_id);
      opt.progress = [&](const api::RunArtifact& a, std::size_t done,
                         std::size_t) {
        const auto now = Clock::now();
        const double busy = a.estimation_wall_s + a.wall_time_s;
        const std::lock_guard<std::mutex> lock(mu);
        last_done = now;
        r.batch_busy_s += busy;
        r.sim_self_s += a.wall_time_s;
        ++r.artifacts;
        add_result_counts(r, a.result);
        log.add("artifact:" + a.spec.name,
                now - std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(busy)),
                now, done, root);
      };
      set_tracing(true);
      reset_tallies();
      t0 = Clock::now();
      report::ReportResult traced = report::run_report(opt);
      const auto t1 = Clock::now();
      const LayerTally tally = total_tally();
      set_tracing(false);
      log.end(root);
      r.entries_passed = gate_pass(traced, m, out);
      if (pass_digest(traced, true) != pass_digest(plain, true)) {
        out.fail("traced pass differs from untraced");
      }

      r.tally = tally;
      r.wall_s = seconds_between(t0, t1);
      r.estimation_s =
          static_cast<double>(tally.observe_ns + tally.finalize_ns) * 1e-9;
      r.sim_self_s -= static_cast<double>(tally.predictor_ns +
                                          tally.policy_ns + tally.sched_ns) *
                      1e-9;
      const double threads = static_cast<double>(args.threads);
      r.batch_efficiency = r.batch_busy_s / (threads * r.wall_s);
      r.tail_s = r.artifacts > 0 ? seconds_between(last_done, t1) : r.wall_s;
      r.untimed_s =
          threads * (r.wall_s - r.tail_s) - r.batch_busy_s;
      reports.push_back(r);
    } catch (const std::exception& e) {
      set_tracing(false);
      out.fail(std::string("report threw: ") + e.what());
    }
  } while (seconds_since(begin) < args.seconds);

  if (!args.trace) {
    const double setup = median(setups.samples());
    const double wall = median(walls);
    const double rss_mb = median(rss);
    out.notes.push_back("set-ups (s): " + list_values(setups.samples()));
    out.notes.push_back("passes (s): " + list_values(walls));
    out.notes.push_back("pass peak RSS (MB): " + list_values(rss));
    out.metrics = {{"setup_s", setup, "s"},
                   {"wall_s", wall, "s"},
                   {"peak_rss_mb", rss_mb, "MB"}};
    return out;
  }

  LayerReport chosen = median_report(reports);
  chosen.overhead_s = chosen.wall_s - median(untraced_walls);
  chosen.ingest_pull_s = ingest.ingest_pull_s;
  chosen.ingest_parse_s = ingest.ingest_parse_s;
  chosen.rows = ingest.rows;
  chosen.chunks = ingest.chunks;
  std::vector<api::ScenarioSpec> specs;
  for (const auto& e : report::ExperimentRegistry::instance().entries()) {
    specs.insert(specs.end(), e.specs.begin(), e.specs.end());
  }
  chosen.cache_key_us = cache_key_us(specs);
  chosen.spans = log.size();
  if (!args.trace_out.empty() && !log.write_json(args.trace_out)) {
    out.notes.push_back("could not write spans to " + args.trace_out);
  }
  out.metrics = layer_metrics(chosen);
  out.notes.push_back("traced passes: " + std::to_string(reports.size()));
  return out;
}

}  // namespace perfbench
