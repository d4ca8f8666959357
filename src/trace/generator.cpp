#include "trace/generator.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace cloudcr::trace {

namespace {

std::string show(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

TraceGenerator::TraceGenerator(GeneratorConfig config,
                               FailureModel failure_model)
    : config_(config),
      workload_(config.workload),
      failure_model_(std::move(failure_model)) {
  // Written so that NaN fails each test: the arrival loop only ends once an
  // arrival passes the horizon (or max_jobs), and an infinite rate parks
  // every arrival at t = 0.
  if (!(std::isfinite(config_.arrival_rate) && config_.arrival_rate > 0.0)) {
    throw std::invalid_argument(
        "TraceGenerator: arrival_rate must be finite and > 0, got " +
        show(config_.arrival_rate));
  }
  if (!(config_.horizon_s > 0.0)) {
    throw std::invalid_argument("TraceGenerator: horizon_s must be > 0, got " +
                                show(config_.horizon_s));
  }
  if (std::isinf(config_.horizon_s) && config_.max_jobs == 0) {
    throw std::invalid_argument(
        "TraceGenerator: horizon_s is infinite, which needs max_jobs > 0");
  }
}

TraceGenerator::TraceGenerator(GeneratorConfig config)
    : TraceGenerator(config, FailureModel::google_calibration()) {}

void TraceGenerator::attach_failures(TaskRecord& task, stats::Rng& rng) const {
  if (config_.priority_change_midway) {
    task.priority_change_time = 0.5 * task.length_s;
    // Redraw until the new priority differs, so the change is observable.
    int np = workload_.sample_priority(rng);
    for (int tries = 0; np == task.priority && tries < 16; ++tries) {
      np = workload_.sample_priority(rng);
    }
    task.new_priority = np;
    task.failure_dates = failure_model_.sample_failure_dates_with_change(
        task.priority, task.new_priority, task.priority_change_time, rng);
  } else {
    task.failure_dates =
        failure_model_.sample_failure_dates(task.priority, rng);
  }
}

std::optional<JobRecord> TraceGenerator::Cursor::next() {
  if (done_) return std::nullopt;
  const GeneratorConfig& config = generator_->config_;
  for (;;) {
    t_ += -std::log1p(-rng_.uniform()) / config.arrival_rate;
    if (t_ > config.horizon_s) break;
    if (config.max_jobs != 0 && emitted_ >= config.max_jobs) break;

    JobRecord job = generator_->workload_.sample_job(rng_);
    job.arrival_s = t_;
    for (auto& task : job.tasks) generator_->attach_failures(task, rng_);

    if (config.sample_job_filter && !job.is_sample_job()) continue;

    job.id = next_job_id_++;
    for (auto& task : job.tasks) task.job_id = job.id;
    ++emitted_;
    return job;
  }
  done_ = true;
  return std::nullopt;
}

Trace TraceGenerator::generate() const {
  Trace trace;
  trace.horizon_s = config_.horizon_s;
  Cursor cursor = stream();
  while (auto job = cursor.next()) {
    trace.jobs.push_back(std::move(*job));
  }
  return trace;
}

}  // namespace cloudcr::trace
