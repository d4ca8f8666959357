#include "report/runner.hpp"

#include <chrono>
#include <functional>
#include <iterator>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "api/batch.hpp"
#include "api/runner.hpp"
#include "obs/spec.hpp"
#include "obs/stats.hpp"
#include "report/registry.hpp"

namespace cloudcr::report {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Discards everything (the default human sink).
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
};

}  // namespace

std::vector<const Experiment*> select_experiments(
    const ReportOptions& options) {
  const auto& registry = ExperimentRegistry::instance();
  std::vector<const Experiment*> selected;
  if (!options.only.empty()) {
    for (const auto& id : options.only) {
      const Experiment* e = registry.find(id);
      if (e == nullptr) {
        std::string known;
        for (const auto& k : registry.ids()) {
          if (!known.empty()) known += ", ";
          known += k;
        }
        throw std::invalid_argument("unknown experiment id '" + id +
                                    "' (known: " + known + ")");
      }
      selected.push_back(e);
    }
    return selected;
  }
  for (const auto& e : registry.entries()) {
    if (options.fast_only && !e.fast) continue;
    selected.push_back(&e);
  }
  return selected;
}

ReportResult run_report(const ReportOptions& options) {
  const auto selected = select_experiments(options);
  const auto report_start = Clock::now();

  // Gather every scenario of every selected entry into one batch, so trace
  // memoization spans the whole report.
  // The obs override parses once (invalid values fail before any replay
  // starts) and stamps every spec; obs is additive, so stamped entries still
  // compare against the checked-in expected values.
  std::optional<obs::ObsSpec> obs_override;
  if (!options.obs.empty()) obs_override = obs::parse_obs(options.obs);

  std::vector<api::ScenarioSpec> all_specs;
  std::vector<std::pair<std::size_t, std::size_t>> slices;  // offset, count
  for (const Experiment* e : selected) {
    slices.emplace_back(all_specs.size(), e->specs.size());
    for (api::ScenarioSpec spec : e->specs) {
      if (options.trace_override) {
        options.trace_override(spec.trace);
        if (spec.estimation == api::EstimationSource::kHistory) {
          options.trace_override(spec.history);
        }
      }
      if (obs_override) spec.obs = *obs_override;
      all_specs.push_back(std::move(spec));
    }
  }

  // One trace cache for the batch and the entries' TraceRequests: fig04,
  // fig05 and fig08 read the week trace the replays already built. It holds
  // every trace until the report returns, so the entries borrow references.
  api::TraceCache trace_cache;
  api::BatchOptions batch_options;
  batch_options.threads = options.threads;
  batch_options.progress = options.progress;
  std::vector<api::RunArtifact> all_artifacts =
      api::BatchRunner(batch_options).run(all_specs, {}, &trace_cache);

  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  std::ostream& human =
      options.human != nullptr ? *options.human : null_stream;

  ReportResult result;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Experiment* e = selected[i];
    const auto entry_start = Clock::now();

    std::vector<std::reference_wrapper<const trace::Trace>> traces;
    traces.reserve(e->traces.size());
    for (TraceRequest request : e->traces) {
      if (options.trace_override) options.trace_override(request.spec);
      traces.push_back(std::cref(
          *(request.replay_view ? trace_cache.get_replay(request.spec)
                                : trace_cache.get_full(request.spec))));
    }

    // Slices are disjoint and all_artifacts is never read again, so move
    // the artifacts out (the outcome vectors are large) instead of copying.
    const auto [offset, count] = slices[i];
    const auto slice_begin =
        all_artifacts.begin() + static_cast<std::ptrdiff_t>(offset);
    std::vector<api::RunArtifact> artifacts(
        std::make_move_iterator(slice_begin),
        std::make_move_iterator(slice_begin +
                                static_cast<std::ptrdiff_t>(count)));

    if (options.human != nullptr) {
      human << "\n==== [" << e->id << "] " << e->title << " ("
            << e->paper_ref << ") ====\n";
    }
    EntryContext ctx{artifacts, traces, human};
    EntryResult entry;
    entry.experiment = e;
    const auto eval_start = Clock::now();
    entry.metrics = e->evaluate(ctx);
    if (obs_override && obs_override->stats) {
      obs::st::report_evaluate_ns.add(
          static_cast<std::uint64_t>(seconds_since(eval_start) * 1e9));
    }
    // Entry wall: its own trace materialization + evaluation, plus the
    // replay time its artifacts actually consumed inside the shared batch.
    entry.wall_s = seconds_since(entry_start);
    for (const auto& a : artifacts) entry.wall_s += a.wall_time_s;
    entry.artifacts = std::move(artifacts);
    result.entries.push_back(std::move(entry));
  }
  result.total_wall_s = seconds_since(report_start);
  return result;
}

}  // namespace cloudcr::report
