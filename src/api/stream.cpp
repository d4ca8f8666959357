#include "api/stream.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "ingest/registry.hpp"
#include "ingest/synthetic_source.hpp"

namespace cloudcr::api {

namespace {

/// A TraceSpec's per-job post-processing verdict, preserving the
/// materialized pipeline's order and semantics exactly:
///   1. sample-job filter (ingest::apply_sample_job_filter's predicate);
///   2. max_jobs cap — counts jobs that *survive the filter*, like
///      cap_jobs on the filtered trace, and ends the sequence once reached;
///   3. replay length restriction (trace::restrict_length's predicate) —
///      restricted-away jobs still count toward the cap, as they do when
///      restrict_length runs after cap_jobs.
/// One gate instance serves one pass; both PostProcessStream and
/// SharedTraceCursor::feed_estimation route through it, so the streamed
/// replay set and the estimation view can never drift apart.
class SpecJobGate {
 public:
  enum class Verdict { kAccept, kDrop, kEnd };

  SpecJobGate(bool sample_filter, std::size_t max_jobs,
              double max_task_length_s)
      : sample_filter_(sample_filter),
        max_jobs_(max_jobs),
        max_task_length_s_(max_task_length_s) {}

  [[nodiscard]] Verdict admit(const trace::JobRecord& job) {
    if (sample_filter_ && 2 * job.failed_task_count() < job.tasks.size()) {
      return Verdict::kDrop;
    }
    if (max_jobs_ != 0 && accepted_ >= max_jobs_) return Verdict::kEnd;
    ++accepted_;
    if (!within_length_limit(job)) return Verdict::kDrop;
    return Verdict::kAccept;
  }

 private:
  [[nodiscard]] bool within_length_limit(const trace::JobRecord& job) const {
    if (std::isinf(max_task_length_s_)) return true;
    for (const auto& task : job.tasks) {
      if (task.length_s > max_task_length_s_) return false;
    }
    return true;
  }

  const bool sample_filter_;
  const std::size_t max_jobs_;
  const double max_task_length_s_;
  std::size_t accepted_ = 0;  ///< jobs past the filter (cap denominator)
};

/// Applies a SpecJobGate to an inner stream. The synthetic source applies
/// the filter and cap inside the generator, so its wrapper only restricts.
class PostProcessStream final : public ingest::TaskStream {
 public:
  PostProcessStream(ingest::StreamPtr inner, bool sample_filter,
                    std::size_t max_jobs, double max_task_length_s)
      : inner_(std::move(inner)),
        gate_(sample_filter, max_jobs, max_task_length_s) {}

  std::size_t next_batch(std::size_t max_jobs,
                         std::vector<trace::JobRecord>& out) override {
    std::size_t added = 0;
    while (added < max_jobs && !done_) {
      scratch_.clear();
      if (inner_->next_batch(max_jobs - added, scratch_) == 0) {
        done_ = true;
        break;
      }
      for (auto& job : scratch_) {
        const SpecJobGate::Verdict verdict = gate_.admit(job);
        if (verdict == SpecJobGate::Verdict::kEnd) {
          done_ = true;
          break;
        }
        if (verdict == SpecJobGate::Verdict::kDrop) continue;
        out.push_back(std::move(job));
        ++added;
      }
    }
    return added;
  }

  [[nodiscard]] bool exhausted() const override { return done_; }

  [[nodiscard]] double horizon_s() const override {
    return inner_->horizon_s();
  }

  [[nodiscard]] const ingest::IngestReport& report() const override {
    return inner_->report();
  }

 private:
  ingest::StreamPtr inner_;
  std::vector<trace::JobRecord> scratch_;
  SpecJobGate gate_;
  bool done_ = false;
};

/// Resolves a non-synthetic spec source through the ingest registry,
/// reporting failures with the scenario-key context make_trace uses.
ingest::SourcePtr make_spec_source(const TraceSpec& spec) {
  ingest::SourceEnv env;
  env.generator = to_generator_config(spec);
  return with_key_context("trace.source", spec.source, [&] {
    return ingest::TraceSourceRegistry::instance().make(spec.source, env);
  });
}

}  // namespace

ingest::StreamPtr open_trace_stream(const TraceSpec& spec, bool replay_view) {
  const double limit =
      replay_view ? spec.replay_max_task_length_s : trace::kNoLengthLimit;
  if (spec.source == "synthetic") {
    // The generator applies the sample-job filter and job cap itself
    // (to_generator_config carries them), exactly as make_trace's direct
    // generator path does.
    ingest::SyntheticSource source(to_generator_config(spec));
    return std::make_unique<PostProcessStream>(source.open_stream(), false,
                                               0, limit);
  }
  auto source = make_spec_source(spec);
  return std::make_unique<PostProcessStream>(
      source->open_stream(), spec.sample_job_filter, spec.max_jobs, limit);
}

// -- SharedTraceCursor -------------------------------------------------------

SharedTraceCursor::SharedTraceCursor(const TraceSpec& spec) : spec_(spec) {
  if (spec_.source == "synthetic") {
    lazy_ = true;
    return;
  }
  source_ = make_spec_source(spec_);
  lazy_ = source_->streams_lazily();
}

void SharedTraceCursor::ensure_loaded() {
  if (loaded_) return;
  loaded_ = source_->load();
  ++reads_;
  rows_ += loaded_->trace.task_count();
}

void SharedTraceCursor::feed_estimation(
    bool replay_view,
    const std::function<void(const trace::JobRecord&)>& observe) {
  if (lazy_) {
    // Cheap to re-walk: a fresh bounded-memory pass over the generator.
    auto stream = open_trace_stream(spec_, replay_view);
    ++reads_;
    std::vector<trace::JobRecord> batch;
    while (stream->next_batch(sim::Simulation::kDefaultBatchJobs, batch) >
           0) {
      for (const auto& job : batch) {
        rows_ += job.tasks.size();
        observe(job);
      }
      batch.clear();
    }
    return;
  }
  // Single-pass source: iterate the one parse in place, through the same
  // gate the replay stream will use, so the estimation view equals the
  // materialized make_trace/make_replay_trace jobs exactly.
  ensure_loaded();
  SpecJobGate gate(spec_.sample_job_filter, spec_.max_jobs,
                   replay_view ? spec_.replay_max_task_length_s
                               : trace::kNoLengthLimit);
  for (const auto& job : loaded_->trace.jobs) {
    const SpecJobGate::Verdict verdict = gate.admit(job);
    if (verdict == SpecJobGate::Verdict::kEnd) break;
    if (verdict == SpecJobGate::Verdict::kAccept) observe(job);
  }
}

ingest::StreamPtr SharedTraceCursor::open_replay_stream() {
  if (lazy_) {
    ++reads_;
    return open_trace_stream(spec_, true);
  }
  // Hand the single parse to the replay stream; it releases each consumed
  // job's storage, so the estimation feed cost no extra lifetime either.
  ensure_loaded();
  auto stream = std::make_unique<PostProcessStream>(
      std::make_unique<ingest::ChunkedTraceStream>(std::move(*loaded_)),
      spec_.sample_job_filter, spec_.max_jobs,
      spec_.replay_max_task_length_s);
  loaded_.reset();
  return stream;
}

}  // namespace cloudcr::api
