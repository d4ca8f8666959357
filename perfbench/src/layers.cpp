#include "layers.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "api/fingerprint.hpp"
#include "api/registry.hpp"
#include "obs/probe.hpp"
#include "sched/registry.hpp"

namespace perfbench {

namespace api = cloudcr::api;
namespace core = cloudcr::core;
namespace sched = cloudcr::sched;
namespace sim = cloudcr::sim;
namespace trace = cloudcr::trace;

namespace {

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::mutex g_slots_mu;
std::vector<std::unique_ptr<LayerTally>>& slots() {
  static std::vector<std::unique_ptr<LayerTally>> all;
  return all;
}

std::atomic<bool> g_tracing{false};

std::string join_key(const std::string& name, const std::string& arg) {
  return arg.empty() ? name : name + ":" + arg;
}

class TimedPolicy final : public core::CheckpointPolicy {
 public:
  explicit TimedPolicy(core::PolicyPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] double next_interval(
      const core::PolicyContext& ctx) const override {
    const auto t0 = Clock::now();
    const double interval = inner_->next_interval(ctx);
    LayerTally& t = local_tally();
    t.policy_ns += ns_between(t0, Clock::now());
    ++t.policy_calls;
    return interval;
  }

 private:
  core::PolicyPtr inner_;
};

/// Forwards pass_through() so fcfs keeps the Simulation's short-circuit;
/// the time of every call into the policy counts as sched time.
class TimedScheduler final : public sched::SchedulerPolicy {
 public:
  explicit TimedScheduler(sched::SchedulerPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] bool pass_through() const noexcept override {
    const auto t0 = Clock::now();
    const bool pass = inner_->pass_through();
    local_tally().sched_ns += ns_between(t0, Clock::now());
    return pass;
  }

  [[nodiscard]] sched::PreemptMode preempt_mode() const noexcept override {
    const auto t0 = Clock::now();
    const sched::PreemptMode mode = inner_->preempt_mode();
    local_tally().sched_ns += ns_between(t0, Clock::now());
    return mode;
  }

  void decide(const sched::ResourceView& view,
              const std::vector<sched::PendingJob>& queue,
              const std::vector<sched::RunningJob>& running,
              sched::Decision& out) const override {
    const auto t0 = Clock::now();
    inner_->decide(view, queue, running, out);
    LayerTally& t = local_tally();
    t.sched_ns += ns_between(t0, Clock::now());
    ++t.sched_calls;
    t.released += out.release.size();
    t.evicted += out.evict.size();
  }

 private:
  sched::SchedulerPtr inner_;
};

class TimedBuilder final : public api::PredictorBuilder {
 public:
  explicit TimedBuilder(api::PredictorBuilderPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] bool wants_observations() const override {
    return inner_->wants_observations();
  }

  void observe_job(const trace::JobRecord& job) override {
    const auto t0 = Clock::now();
    inner_->observe_job(job);
    LayerTally& t = local_tally();
    t.observe_ns += ns_between(t0, Clock::now());
    ++t.observe_calls;
  }

  void observe_task(const trace::TaskRecord& task) override {
    const auto t0 = Clock::now();
    inner_->observe_task(task);
    local_tally().observe_ns += ns_between(t0, Clock::now());
  }

  [[nodiscard]] sim::StatsPredictor finalize() override {
    const auto t0 = Clock::now();
    sim::StatsPredictor inner = inner_->finalize();
    local_tally().finalize_ns += ns_between(t0, Clock::now());
    return [inner = std::move(inner)](const trace::TaskRecord& task,
                                      int priority) {
      const auto t0 = Clock::now();
      const core::FailureStats stats = inner(task, priority);
      LayerTally& t = local_tally();
      t.predictor_ns += ns_between(t0, Clock::now());
      ++t.predictor_calls;
      return stats;
    };
  }

 private:
  api::PredictorBuilderPtr inner_;
};

/// Re-registers every built-in name of the three registries with a factory
/// that builds the built-in object and, while tracing is on, wraps it.
void install_delegates() {
  static api::PolicyRegistry policies = api::PolicyRegistry::with_builtins();
  static api::PredictorRegistry predictors =
      api::PredictorRegistry::with_builtins();
  static sched::SchedulerRegistry schedulers =
      sched::SchedulerRegistry::with_builtins();

  for (const std::string& name : policies.names()) {
    api::PolicyRegistry::instance().add(
        name, [name](const std::string& arg) -> core::PolicyPtr {
          core::PolicyPtr policy = policies.make(join_key(name, arg));
          if (!tracing()) return policy;
          return std::make_unique<TimedPolicy>(std::move(policy));
        });
  }
  for (const std::string& name : predictors.names()) {
    api::PredictorRegistry::instance().add(
        name, [name](const std::string& arg) -> api::PredictorBuilderPtr {
          api::PredictorBuilderPtr builder =
              predictors.make_builder(join_key(name, arg));
          if (!tracing()) return builder;
          return std::make_unique<TimedBuilder>(std::move(builder));
        });
  }
  for (const std::string& name : schedulers.names()) {
    sched::SchedulerRegistry::instance().add(
        name, [name](const std::string& arg) -> sched::SchedulerPtr {
          sched::SchedulerPtr scheduler =
              schedulers.make(join_key(name, arg));
          if (!tracing()) return scheduler;
          return std::make_unique<TimedScheduler>(std::move(scheduler));
        });
  }
}

const Clock::time_point g_epoch = Clock::now();

double span_clock(Clock::time_point t) { return seconds_between(g_epoch, t); }

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

LayerTally& LayerTally::operator+=(const LayerTally& o) {
  pull_calls += o.pull_calls;
  pull_ns += o.pull_ns;
  rows += o.rows;
  observe_calls += o.observe_calls;
  observe_ns += o.observe_ns;
  finalize_ns += o.finalize_ns;
  predictor_calls += o.predictor_calls;
  predictor_ns += o.predictor_ns;
  policy_calls += o.policy_calls;
  policy_ns += o.policy_ns;
  sched_calls += o.sched_calls;
  sched_ns += o.sched_ns;
  released += o.released;
  evicted += o.evicted;
  return *this;
}

LayerTally& local_tally() {
  thread_local LayerTally* slot = [] {
    const std::lock_guard<std::mutex> lock(g_slots_mu);
    slots().push_back(std::make_unique<LayerTally>());
    return slots().back().get();
  }();
  return *slot;
}

LayerTally total_tally() {
  const std::lock_guard<std::mutex> lock(g_slots_mu);
  LayerTally sum;
  for (const auto& slot : slots()) sum += *slot;
  return sum;
}

void reset_tallies() {
  const std::lock_guard<std::mutex> lock(g_slots_mu);
  for (const auto& slot : slots()) *slot = LayerTally{};
}

void set_tracing(bool on) {
  static std::once_flag installed;
  std::call_once(installed, install_delegates);
  g_tracing.store(on, std::memory_order_relaxed);
}

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

int SpanLog::begin(std::string name, std::uint64_t id, int parent) {
  const double now = span_clock(Clock::now());
  spans_.push_back(Span{std::move(name), now, now, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = span_clock(Clock::now());
}

int SpanLog::add(std::string name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t id, int parent) {
  spans_.push_back(
      Span{std::move(name), span_clock(start), span_clock(end), parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::append(const SpanLog& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"spans\":[";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":";
    write_json_string(os, s.name);
    std::snprintf(buf, sizeof buf, ",\"start_s\":%.9f", s.start_s);
    os << buf;
    std::snprintf(buf, sizeof buf, ",\"end_s\":%.9f", s.end_s);
    os << buf << ",\"parent\":" << s.parent << ",\"id\":" << s.id << '}';
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

std::size_t TimedJobSource::next_jobs(
    std::size_t max_jobs, std::vector<trace::JobRecord>& out) {
  const std::size_t before = out.size();
  const auto t0 = Clock::now();
  const std::size_t n = inner_->next_jobs(max_jobs, out);
  const auto t1 = Clock::now();
  std::uint64_t rows = 0;
  for (std::size_t i = before; i < out.size(); ++i) {
    rows += out[i].tasks.size();
  }
  LayerTally& t = local_tally();
  t.pull_ns += ns_between(t0, t1);
  ++t.pull_calls;
  t.rows += rows;
  log_->add("ingest.pull", t0, t1, id_, parent_);
  ++chunks_;
  return n;
}

api::RunArtifact traced_run_streamed(const api::ScenarioSpec& spec,
                                     sim::ReplayWorkspace* workspace,
                                     SpanLog& log, std::uint64_t id,
                                     ReplayTimes& times) {
  const auto pass_start = Clock::now();
  const int pass = log.begin("replay", id);
  const LayerTally before = local_tally();

  auto t0 = Clock::now();
  api::SharedTraceCursor cursor(spec.trace);
  double open_s = seconds_since(t0);

  std::size_t history_reads = 0;
  std::size_t history_rows = 0;
  sim::StatsPredictor predictor;
  const auto est_start = Clock::now();
  {
    api::PredictorBuilderPtr builder =
        api::PredictorRegistry::instance().make_builder(spec.predictor);
    if (builder->wants_observations()) {
      const auto observe = [&builder](const trace::JobRecord& job) {
        builder->observe_job(job);
      };
      t0 = Clock::now();
      if (spec.estimation == api::EstimationSource::kHistory) {
        api::SharedTraceCursor history(spec.history);
        history.feed_estimation(/*replay_view=*/true, observe);
        history_reads = history.reads();
        history_rows = history.rows_read();
      } else {
        cursor.feed_estimation(
            spec.estimation == api::EstimationSource::kReplay, observe);
      }
      open_s += seconds_since(t0);
    }
    predictor = builder->finalize();
  }
  const auto est_end = Clock::now();
  log.add("api.estimation", est_start, est_end, id, pass);

  const core::PolicyPtr policy =
      api::PolicyRegistry::instance().make(spec.policy);
  const sched::SchedulerPtr scheduler =
      sched::SchedulerRegistry::instance().make(spec.sched);
  sim::SimConfig config = api::to_sim_config(spec);
  config.scheduler = scheduler.get();

  api::RunArtifact artifact;
  artifact.spec = spec;
  artifact.estimation_wall_s = seconds_between(est_start, est_end);

  t0 = Clock::now();
  auto stream = cursor.open_replay_stream();
  open_s += seconds_since(t0);
  api::StreamJobSource inner(*stream);
  const int run_span = log.begin("sim.run_stream", id, pass);
  TimedJobSource source(inner, log, id, run_span);
  const auto start = Clock::now();
  sim::Simulation simulation(std::move(config), *policy, std::move(predictor),
                             workspace);
  artifact.result =
      simulation.run_stream(source, sim::Simulation::kDefaultBatchJobs);
  artifact.wall_time_s = seconds_since(start);
  log.end(run_span);
  const auto tail_start = Clock::now();
  artifact.peak_rss_mb = cloudcr::obs::peak_rss_mb();
  artifact.trace_jobs = inner.jobs();
  artifact.trace_tasks = inner.tasks();
  artifact.trace_reads = cursor.reads() + history_reads;
  artifact.rows_read = cursor.rows_read() + history_rows +
                       (cursor.streams_lazily() ? inner.tasks() : 0);
  log.end(pass);
  times.tail_s = seconds_since(tail_start);

  const LayerTally& after = local_tally();
  const double observe_s =
      static_cast<double>(after.observe_ns - before.observe_ns) * 1e-9;
  const double finalize_s =
      static_cast<double>(after.finalize_ns - before.finalize_ns) * 1e-9;
  times.pass_s = seconds_since(pass_start);
  times.ingest_open_s = open_s - observe_s;
  times.estimation_s = observe_s + finalize_s;
  times.run_stream_s = artifact.wall_time_s;
  times.chunks = source.chunks();
  return artifact;
}

double cache_key_us(const std::vector<api::ScenarioSpec>& specs,
                    std::size_t min_calls) {
  if (specs.empty()) return 0.0;
  std::size_t calls = 0;
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  while (calls < min_calls) {
    for (const api::ScenarioSpec& spec : specs) {
      sink += api::scenario_cache_key(spec).size();
      ++calls;
    }
  }
  const double us = seconds_since(t0) * 1e6 / static_cast<double>(calls);
  return sink > 0 ? us : 0.0;
}

LayerReport median_report(const std::vector<LayerReport>& reports) {
  if (reports.empty()) return LayerReport{};
  std::vector<double> walls;
  for (const LayerReport& r : reports) walls.push_back(r.wall_s);
  const double mid = median(walls);
  const LayerReport* chosen = &reports.front();
  for (const LayerReport& r : reports) {
    if (std::abs(r.wall_s - mid) < std::abs(chosen->wall_s - mid)) chosen = &r;
  }
  return *chosen;
}

void add_result_counts(LayerReport& report, const sim::SimResult& result) {
  report.events += result.events_dispatched;
  report.checkpoints += result.total_checkpoints;
  report.failures += result.total_failures;
}

std::vector<Metric> layer_metrics(const LayerReport& r) {
  const LayerTally& t = r.tally;
  const auto s = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double ns_per_event =
      r.events > 0 ? r.sim_self_s * 1e9 / static_cast<double>(r.events) : 0.0;
  return {
      {"ingest.pull_s", r.ingest_pull_s, "s"},
      {"ingest.rows", n(r.rows), "count"},
      {"ingest.parse_s", r.ingest_parse_s, "s"},
      {"api.estimation_s", r.estimation_s, "s"},
      {"api.observe_calls", n(t.observe_calls), "count"},
      {"api.predictor_calls", n(t.predictor_calls), "count"},
      {"api.predictor_s", s(t.predictor_ns), "s"},
      {"core.next_interval_calls", n(t.policy_calls), "count"},
      {"core.next_interval_s", s(t.policy_ns), "s"},
      {"sched.decide_calls", n(t.sched_calls), "count"},
      {"sched.decide_s", s(t.sched_ns), "s"},
      {"sched.released", n(t.released), "count"},
      {"sched.evicted", n(t.evicted), "count"},
      {"sim.events", n(r.events), "count"},
      {"sim.checkpoints", n(r.checkpoints), "count"},
      {"sim.failures", n(r.failures), "count"},
      {"sim.self_s", r.sim_self_s, "s"},
      {"sim.ns_per_event", ns_per_event, "ns"},
      {"sim.task_rows_high_water", n(r.task_rows_high_water), "count"},
      {"sim.job_slots_high_water", n(r.job_slots_high_water), "count"},
      {"api.cache_key_us", r.cache_key_us, "us"},
      {"svc.cache_hits", n(r.cache_hits), "count"},
      {"svc.cache_misses", n(r.cache_misses), "count"},
      {"svc.hit_ratio", r.hit_ratio, "ratio"},
      {"svc.evictions", n(r.evictions), "count"},
      {"svc.snapshot_resumes", n(r.snapshot_resumes), "count"},
      {"svc.snapshot_bytes", n(r.snapshot_bytes), "B"},
      {"api.batch_busy_s", r.batch_busy_s, "s"},
      {"api.batch_efficiency", r.batch_efficiency, "ratio"},
      {"api.artifacts", n(r.artifacts), "count"},
      {"report.tail_s", r.tail_s, "s"},
      {"report.entries_passed", n(r.entries_passed), "count"},
      {"trace.wall_s", r.wall_s, "s"},
      {"trace.untimed_s", r.untimed_s, "s"},
      {"trace.overhead_s", r.overhead_s, "s"},
      {"trace.chunks", n(r.chunks), "count"},
      {"trace.spans", n(r.spans), "count"},
  };
}

}  // namespace perfbench
