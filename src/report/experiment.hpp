#pragma once

/// \file experiment.hpp
/// \brief One paper figure/table reproduction as data: the experiment
/// registry's entry type.
///
/// The repo reproduces conf_sc_DiRVKWC13 figure by figure; an Experiment
/// captures one of those reproductions as a named, self-describing entry:
/// what the paper shows (`title`, `paper_claim`), how this repo models it
/// (`model_notes`), the ScenarioSpec grid and/or raw traces it needs, and a
/// pure evaluation function that turns the run's outputs into named scalar
/// metrics. Everything downstream — the `repro_report` harness,
/// REPRODUCTION.md/.json, and the generated docs/experiments.md — is
/// derived from these entries, so each experiment definition lives in
/// exactly one place (src/report/experiments_*.cpp).
///
/// Metrics are plain doubles on purpose: they are what the expected-value
/// gate (compare.hpp) checks against bench/REPRO_expected.baseline.json,
/// and what the report writers tabulate against the paper's published
/// numbers.

#include <cmath>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "trace/records.hpp"

namespace cloudcr::report {

/// Full citation of the reproduced paper, echoed into every generated
/// report/doc so artifacts are citable on their own. PAPERS.md carries the
/// same citation for the human-facing side.
inline constexpr const char* kPaperCitation =
    "Sheng Di, Yves Robert, Frederic Vivien, Derrick Kondo, Cho-Li Wang, "
    "Franck Cappello. \"Optimization of Cloud Task Processing with "
    "Checkpoint-Restart Mechanism.\" SC'13: International Conference for "
    "High Performance Computing, Networking, Storage and Analysis, 2013 "
    "(conf_sc_DiRVKWC13).";

/// One named scalar an experiment produced.
struct MetricValue {
  std::string name;    ///< stable key ("avg_wpr_st_f3", ...)
  double value = 0.0;  ///< this run's result

  /// The paper's published value for the same quantity, when the paper
  /// states one (NaN otherwise). Informational: the gate compares against
  /// the checked-in *repo* expectations, since the reproduction runs at
  /// reduced scale; the paper column reports the deviation honestly.
  double paper = std::nan("");

  /// Absolute tolerance recorded into the expected-value document by
  /// `repro_report --update-expected`. Runs are deterministic per machine;
  /// the tolerance absorbs cross-platform libm variation only.
  double tolerance_hint = 0.0;

  [[nodiscard]] bool has_paper() const noexcept { return !std::isnan(paper); }
};

/// A raw trace an experiment consumes directly (the statistics figures:
/// interval CDFs, MNOF/MTBF tables). `replay_view` selects
/// api::make_replay_trace (the length-restricted sample-job set) instead of
/// the unrestricted api::make_trace.
struct TraceRequest {
  api::TraceSpec spec;
  bool replay_view = false;
};

/// Inputs handed to Experiment::evaluate.
struct EntryContext {
  /// Artifacts for this entry's `specs`, in spec order (empty for
  /// model-only experiments).
  const std::vector<api::RunArtifact>& artifacts;

  /// Materialized traces for this entry's `traces`, in request order
  /// (borrowed from the trace cache the runner shares with the batch; a
  /// reference_wrapper binds directly to `const trace::Trace&`).
  const std::vector<std::reference_wrapper<const trace::Trace>>& traces;

  /// Human-readable rendering sink (full tables and CDF series). The
  /// report runner discards this unless asked; `repro_report --verbose`
  /// streams it to stdout.
  std::ostream& human;
};

/// One registry entry. All fields are data except `evaluate`, which must be
/// a pure function of its context (no globals, no clocks): the same specs
/// and traces always produce the same metrics, which is what makes the
/// expected-value gate meaningful.
struct Experiment {
  std::string id;         ///< stable key ("fig09", "tab02", ...)
  std::string title;      ///< one-line display title
  std::string paper_ref;  ///< "Figure 9", "Table 2", ...

  /// What the paper shows — the finding this experiment reproduces.
  std::string paper_claim;

  /// How the repo models it, including known deviations from the paper
  /// (scale reduction, modeled-not-measured hardware, ...). Rendered into
  /// docs/experiments.md.
  std::string model_notes;

  /// Cheap enough for the quick subset (`repro_report --fast`).
  bool fast = false;

  /// Scenario grid run through api::BatchRunner. Identical TraceSpecs are
  /// generated once across the *whole* selected report run, not just
  /// within one entry.
  std::vector<api::ScenarioSpec> specs;

  /// Raw traces to materialize (deduplicated across entries, and with the
  /// replays' own traces, by the runner's trace cache).
  std::vector<TraceRequest> traces;

  std::function<std::vector<MetricValue>(EntryContext&)> evaluate;
};

// -- shared metric helpers (used by the experiments_*.cpp definitions) ------

/// MetricValue with a paper reference value.
MetricValue metric(std::string name, double value, double paper,
                   double tolerance_hint);

/// MetricValue without a paper value (repo-only structural quantity).
MetricValue metric(std::string name, double value, double tolerance_hint);

}  // namespace cloudcr::report
