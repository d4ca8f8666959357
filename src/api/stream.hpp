#pragma once

/// \file stream.hpp
/// \brief Streaming view of a TraceSpec: the pull-based counterpart of
/// api::make_trace / api::make_replay_trace, plus the shared estimation+
/// replay cursor ScenarioRunner feeds predictors and the replay from.
///
/// open_trace_stream() resolves the spec's source (the synthetic generator
/// or the ingest registry) to an ingest::TaskStream and applies the spec's
/// post-processing per job, in the exact order the materialized path
/// applies it to the whole trace: the paper's sample-job filter, then the
/// max_jobs cap, then (for the replay view) the replay length restriction.
/// Draining the stream therefore reproduces make_trace()/make_replay_trace()
/// bit-for-bit — pinned by tests/api/stream_determinism_test.cpp.
///
/// SharedTraceCursor is how ScenarioRunner serves estimation *and* replay
/// from the fewest possible passes over the source:
///
///   - A lazily-streaming source (TraceSource::streams_lazily, e.g. the
///     synthetic generator) is cheap to re-walk, so estimation and replay
///     each open their own bounded-memory pass — two cursor reads, O(batch)
///     memory. One read would require buffering the whole trace: grouped/
///     submission-style predictors need the complete estimation view before
///     the first dispatch queries them, i.e. before replay can admit a job.
///   - A single-pass source (event logs: csv/google/slurm must aggregate
///     the whole input before any job is complete) is parsed exactly once;
///     the estimation feed iterates the parsed result in place and the
///     replay stream then *consumes* it chunk by chunk — one cursor read
///     shared by both phases, and no second parse of a multi-hundred-MB log.
///
/// reads()/rows_read() expose the pass accounting; perf_baseline's
/// month-scale mode reports them and tests/api/stream_determinism_test pins
/// the counts per source kind.
///
/// Whether the replay stream is also memory-bounded depends on the source
/// (SharedTraceCursor::streams_lazily): synthetic workloads generate on
/// demand; event logs chunk the materialized parse, releasing each consumed
/// job. StreamJobSource bridges the stream onto the simulator's
/// sim::JobSource seam and counts what passed through, which is how the
/// runner fills the artifact's replay-set shape.

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "api/scenario.hpp"
#include "ingest/source.hpp"
#include "ingest/stream.hpp"
#include "sim/simulation.hpp"

namespace cloudcr::api {

/// Opens the post-processed pull view of `spec`: sample-job filter and job
/// cap applied per job; `replay_view` additionally drops jobs whose
/// longest task exceeds spec.replay_max_task_length_s. Throws like
/// make_trace on structural failure (unknown sources report the
/// "scenario key 'trace.source'" context).
ingest::StreamPtr open_trace_stream(const TraceSpec& spec, bool replay_view);

/// One estimation-then-replay pass over a TraceSpec's source, counting how
/// many source passes ("reads") and task rows that took (contract above).
/// Use order: feed_estimation() at most once, then open_replay_stream() at
/// most once. For a lazy source the replay rows are pulled after the cursor
/// hands the stream off, so total row accounting is
///   rows_read() + (streams_lazily() ? <rows drained from the stream> : 0).
class SharedTraceCursor {
 public:
  /// Resolves the spec's source (throws like make_trace, with the
  /// "scenario key 'trace.source'" context, on unknown/misconfigured
  /// sources). No trace data is read yet.
  explicit SharedTraceCursor(const TraceSpec& spec);

  SharedTraceCursor(const SharedTraceCursor&) = delete;
  SharedTraceCursor& operator=(const SharedTraceCursor&) = delete;

  [[nodiscard]] bool streams_lazily() const noexcept { return lazy_; }

  /// Calls `observe` once per job of the spec's post-processed view
  /// (`replay_view` as in open_trace_stream), in arrival order — exactly
  /// the jobs and order a materialized make_trace/make_replay_trace would
  /// hold. Lazy sources walk a fresh bounded-memory pass (+1 read);
  /// single-pass sources iterate the one parse in place.
  void feed_estimation(
      bool replay_view,
      const std::function<void(const trace::JobRecord&)>& observe);

  /// The post-processed replay-view stream. Lazy sources open a fresh pass
  /// (+1 read); single-pass sources hand their one parse to the stream,
  /// which releases each consumed job's storage as the replay progresses.
  [[nodiscard]] ingest::StreamPtr open_replay_stream();

  /// Source passes so far (a lazy estimation+replay pair costs 2; a
  /// single-pass source costs 1 total however many phases consume it).
  [[nodiscard]] std::size_t reads() const noexcept { return reads_; }

  /// Task rows produced by those passes so far (see class comment for the
  /// lazy replay remainder).
  [[nodiscard]] std::size_t rows_read() const noexcept { return rows_; }

 private:
  void ensure_loaded();

  TraceSpec spec_;
  ingest::SourcePtr source_;  ///< null for the synthetic generator
  std::optional<ingest::IngestResult> loaded_;  ///< single-pass parse
  bool lazy_ = false;
  std::size_t reads_ = 0;
  std::size_t rows_ = 0;
};

/// sim::JobSource over an ingest::TaskStream, counting jobs/tasks yielded.
class StreamJobSource final : public sim::JobSource {
 public:
  explicit StreamJobSource(ingest::TaskStream& stream) : stream_(&stream) {}

  std::size_t next_jobs(std::size_t max_jobs,
                        std::vector<trace::JobRecord>& out) override {
    const std::size_t n = stream_->next_batch(max_jobs, out);
    jobs_ += n;
    for (std::size_t i = out.size() - n; i < out.size(); ++i) {
      tasks_ += out[i].tasks.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::size_t tasks() const noexcept { return tasks_; }

 private:
  ingest::TaskStream* stream_;
  std::size_t jobs_ = 0;
  std::size_t tasks_ = 0;
};

}  // namespace cloudcr::api
