#pragma once

/// \file source.hpp
/// \brief TraceSource: the abstraction between raw workload logs and the
/// simulator.
///
/// The paper grounds its evaluation in a real cloud workload (a month of
/// Google-style cluster logs); this layer lets the reproduction replay such
/// workloads instead of only its own synthetic generator. A TraceSource
/// produces a trace::Trace plus provenance metadata and a skipped-row report;
/// implementations:
///
///   - SyntheticSource   wraps trace::TraceGenerator (synthetic_source.hpp)
///   - MappedCsvSource   user CSV with a declarative ColumnMapping
///                       (csv_source.hpp)
///   - GoogleTraceSource task_events-style cluster logs (google_source.hpp)
///
/// File-backed sources read line-at-a-time (trace::csv::LineReader) and hold
/// only per-task aggregates, so memory is bounded by the number of *tasks*,
/// never by the log size: month-scale multi-hundred-MB logs ingest in a
/// single pass without materializing the file.
///
/// Row validation is strict but recoverable: a malformed row is skipped and
/// recorded in the IngestReport (line number + reason) instead of aborting
/// the whole ingestion; structural problems (missing file, missing required
/// column) still throw.
///
/// The TraceSource contract, in full:
///   - load() is const and *deterministic*: two loads of the same source
///     over the same input produce identical traces (this is what lets
///     api::BatchRunner memoize ingested traces exactly like generated
///     ones, and what makes the repro_report expected-value gate
///     meaningful for ingested workloads).
///   - Structural failure (missing file, unreadable header, missing
///     required column, malformed mapping/options) throws
///     std::runtime_error / std::invalid_argument.
///   - Row-level failure (unparsable number, out-of-range priority,
///     negative length) never throws: the row is skipped and reported.
///   - probe() is a cheap readiness check (file opens) with no ingestion;
///     CLI frontends call it so a typo'd path fails fast.
///   - describe() round-trips through TraceSourceRegistry::make for the
///     file-backed sources, so provenance strings are re-runnable specs.
///
/// Skipped-row reporting semantics: rows_total counts every *data* row
/// examined (headers and blank trailing lines excluded); every data row is
/// either used (rows_used) or skipped (rows_skipped) — the three counters
/// always satisfy total == used + skipped, and exact counts are kept even
/// when the per-row samples saturate (only the first kMaxSkipSamples
/// SkippedRow entries are retained, in input order, each with its
/// 1-based source line number and a human-readable reason).

#include <cstddef>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/records.hpp"

namespace cloudcr::ingest {

/// One rejected input row.
struct SkippedRow {
  std::size_t line_number = 0;
  std::string reason;
};

/// Provenance and row accounting for one ingestion.
struct IngestReport {
  /// Source spec this trace came from ("google:/logs/task_events.csv", ...).
  std::string source;

  std::size_t rows_total = 0;    ///< data rows examined
  std::size_t rows_used = 0;     ///< rows that contributed to the trace
  std::size_t rows_skipped = 0;  ///< rows rejected by validation

  /// Tasks whose length is a *censored* observation: they were still
  /// running when the log ended, so the length is the accrued execution up
  /// to the last event, not a completed run (GoogleTraceSource; the paper's
  /// horizon-clipped intervals).
  std::size_t censored_tail_count = 0;

  /// First kMaxSkipSamples rejections, in input order (rows_skipped keeps
  /// the exact total even after sampling saturates).
  static constexpr std::size_t kMaxSkipSamples = 32;
  std::vector<SkippedRow> skipped;

  /// Records a rejection: bumps rows_skipped and samples the reason.
  void skip(std::size_t line_number, std::string reason);

  /// One-line accounting summary for logs and examples.
  [[nodiscard]] std::string summary() const;
};

/// What a source yields: the reconstructed trace plus its report.
struct IngestResult {
  trace::Trace trace;
  IngestReport report;
};

class TaskStream;
using StreamPtr = std::unique_ptr<TaskStream>;

/// A workload origin. load() is const and deterministic: two calls on the
/// same source over the same input produce identical traces, which is what
/// lets api::BatchRunner memoize ingested traces exactly like generated
/// ones.
///
/// Every source is also *streamable* (stream.hpp): open_stream() returns a
/// pull cursor yielding arrival-ordered job chunks, and load() is a thin
/// drain of that stream. The two defaults below are mutually implemented —
/// a subclass must override at least one:
///   - override open_stream() when the workload can be produced
///     incrementally (the synthetic generator); load() then drains it;
///   - override load() when the format needs whole-input aggregation before
///     any job is complete (event logs: a task's length is unknown until
///     its last event); open_stream() then chunks the materialized result,
///     releasing each consumed job's storage.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Provenance spec of this source (round-trips through
  /// TraceSourceRegistry::make for the file-backed sources).
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Opens a pull stream over the workload (arrival-ordered job chunks plus
  /// an incremental IngestReport; see stream.hpp for the full contract).
  /// Draining it yields exactly the trace load() returns. Throws like
  /// load() on structural failure — eagerly or from next_batch().
  [[nodiscard]] virtual StreamPtr open_stream() const;

  /// True when open_stream() yields jobs without materializing the whole
  /// workload first, i.e. memory is bounded by the batch size instead of
  /// the trace (the synthetic generator streams lazily; event-log sources
  /// do not). Callers use this to decide whether a streaming replay
  /// actually buys bounded memory.
  [[nodiscard]] virtual bool streams_lazily() const { return false; }

  /// Reads/generates the full trace (a drain of open_stream()). Throws
  /// std::runtime_error on structural failure (missing file, missing
  /// header/column); row-level problems are reported, not thrown.
  [[nodiscard]] virtual IngestResult load() const;

  /// Cheap readiness check without ingesting anything: file-backed sources
  /// verify their input opens (throwing the same std::runtime_error load()
  /// would). CLI frontends call this so a typo'd path fails fast with a
  /// diagnostic instead of mid-run.
  virtual void probe() const {}

 private:
  /// Guards the mutual defaults: a subclass overriding neither load() nor
  /// open_stream() would recurse forever — the flag turns that into a
  /// std::logic_error naming the missing override instead of a stack
  /// overflow.
  mutable bool in_default_entry_ = false;
};

using SourcePtr = std::unique_ptr<TraceSource>;

// -- shared post-processing --------------------------------------------------

/// The paper's sample-job filter (Section 5.1): keeps only the jobs for
/// which trace::JobRecord::is_sample_job() holds. Applied by api::make_trace
/// to ingested traces when the owning TraceSpec requests it (the synthetic
/// generator applies it internally).
void apply_sample_job_filter(trace::Trace& trace);

/// Truncates the trace to its first `max_jobs` jobs (0 = unlimited),
/// mirroring GeneratorConfig::max_jobs for ingested workloads.
void cap_jobs(trace::Trace& trace, std::size_t max_jobs);

/// Opens an input file for a reader, throwing std::runtime_error
/// ("<label>: cannot open <path>") when it is missing/unreadable — the one
/// structural error every file-backed source shares.
std::ifstream open_trace_file(const std::string& label,
                              const std::string& path);

/// Iterates the `key=value` pairs of a comma-separated query string (the
/// '?' part of a registry spec) — the parsing every source's
/// mapping/options grammar shares. Empty text yields no pairs; a pair
/// without '=' throws std::invalid_argument naming `label`.
void for_each_query_pair(
    const std::string& label, const std::string& text,
    const std::function<void(const std::string& key, const std::string& value)>&
        apply);

}  // namespace cloudcr::ingest
