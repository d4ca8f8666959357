#include "sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/trace_writer.hpp"

namespace cloudcr::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Simulation::Simulation(SimConfig config, const core::CheckpointPolicy& policy,
                       StatsPredictor predictor, ReplayWorkspace* workspace)
    : config_(config),
      policy_(policy),
      predictor_(std::move(predictor)),
      cluster_(config.cluster),
      rng_(config.seed),
      ws_(workspace != nullptr ? *workspace : owned_ws_),
      engine_(ws_.engine),
      tasks_(ws_.tasks) {
  if (!predictor_) {
    throw std::invalid_argument("Simulation: predictor must be callable");
  }
}

storage::StorageBackend* Simulation::backend_for(storage::DeviceKind kind) {
  return kind == storage::DeviceKind::kLocalRamdisk ? local_backend_.get()
                                                    : shared_backend_.get();
}

void Simulation::begin_run() {
  // Reset every pooled component to its just-constructed state, so a reused
  // workspace (or a second run() call) is bit-identical to a fresh engine.
  engine_.reset();
  // Stats runs restart from pristine calendar tuning so tuning counters
  // (sim.queue_rebuilds) are spec-deterministic — a pooled queue otherwise
  // carries the previous run's bucket layout into this run's counts.
  CLOUDCR_OBS_STMT(if (config_.collect_stats) engine_.reset_queue_tuning());
  tasks_.clear();
  ws_.jobs.clear();
  ws_.pending.clear();
  ws_.free_jobs.clear();
  ws_.free_spans.clear();
  ws_.chunk.clear();
  pending_min_mb_ = kInf;
  cluster_.reset();
  rng_ = stats::Rng(config_.seed);
  local_backend_ = storage::make_backend(storage::DeviceKind::kLocalRamdisk,
                                         rng_, config_.storage_noise);
  shared_backend_ = storage::make_backend(config_.shared_kind, rng_,
                                          config_.storage_noise,
                                          config_.cluster.hosts);
  result_ = SimResult{};
  policy_override_ = nullptr;

  // The scheduling stage engages only for a non-pass-through policy; fcfs
  // (and a null scheduler) takes the exact historical admission path.
  sched_active_ =
      config_.scheduler != nullptr && !config_.scheduler->pass_through();
  total_capacity_mb_ = static_cast<double>(config_.cluster.hosts) *
                       static_cast<double>(config_.cluster.vms_per_host) *
                       config_.cluster.vm_memory_mb;
  sched_queue_.clear();
  sched_running_.clear();
  sched_stash_.clear();
  sched_in_pump_ = false;
  sched_pump_again_ = false;
  sched_wake_event_ = TaskTable::kNoEvent;

  next_probe_s_ = config_.probe_interval_s;
  probe_running_tasks_ = 0;
  probe_active_jobs_ = 0;
  probe_wpr_sum_ = 0.0;
  probe_wpr_n_ = 0;
#if CLOUDCR_OBS_ENABLED
  tally_ = ObsTally{};
  trace_task_start_.clear();
  trace_vm_start_.clear();
#endif
}

SimResult Simulation::end_run() {
#if CLOUDCR_OBS_ENABLED
  const auto obs_drain_t0 = std::chrono::steady_clock::now();
#endif
  if (config_.probe_interval_s > 0.0) drain_probes();
  result_.events_dispatched += engine_.run();
  result_.makespan_s = engine_.now();
#if CLOUDCR_OBS_ENABLED
  if (config_.tracer != nullptr) {
    config_.tracer->host_span("drain", obs_drain_t0,
                              std::chrono::steady_clock::now());
  }
#endif
  // Finished jobs accumulated their totals in finish_job (their rows may
  // already be recycled); whatever is still active never finished.
  for (const auto& job : ws_.jobs) {
    if (!job.active) continue;
    ++result_.incomplete_jobs;
    result_.total_unschedulable += job.unschedulable;
    for (std::size_t i = 0; i < job.n_tasks; ++i) {
      const TaskAccounting& acct = tasks_.acct[job.first_task + i];
      result_.total_checkpoints += acct.checkpoints;
      result_.total_failures += acct.failures;
    }
  }
  CLOUDCR_OBS_STMT(flush_stats());
  return std::move(result_);
}

// -- observability ------------------------------------------------------------

void Simulation::pump_probes_before(double t_stop) {
  // Chunk the drain-to-next-arrival at probe ticks. Chunked dispatch pops
  // exactly the events a monolithic run_until_before(t_stop) would, in the
  // same order, so probing never changes results — samples just observe the
  // state between the last event before a tick and the first at/after it.
  while (next_probe_s_ < t_stop) {
    result_.events_dispatched += engine_.run_until_before(next_probe_s_);
    take_probe(next_probe_s_);
    next_probe_s_ += config_.probe_interval_s;
  }
}

void Simulation::drain_probes() {
  // Same chunking across the final drain; stop sampling once the engine has
  // nothing left (the tail would be all-idle samples).
  while (!engine_.idle()) {
    // Ticks the clock already passed (events at an admitted arrival beyond
    // them ran first) are skipped instead of emitting stale samples.
    while (next_probe_s_ <= engine_.now()) {
      next_probe_s_ += config_.probe_interval_s;
    }
    result_.events_dispatched += engine_.run_until_before(next_probe_s_);
    if (engine_.idle()) break;
    take_probe(next_probe_s_);
    next_probe_s_ += config_.probe_interval_s;
  }
}

void Simulation::take_probe(double t_s) {
  obs::ProbeSample p;
  p.t_s = t_s;
  p.cluster_util =
      total_capacity_mb_ > 0.0
          ? 1.0 - cluster_.total_available_mb() / total_capacity_mb_
          : 0.0;
  p.pending_tasks = ws_.pending.size();
  p.running_tasks = probe_running_tasks_;
  p.active_jobs = probe_active_jobs_;
  p.sched_held_jobs = sched_queue_.size();
  p.completed_jobs = result_.outcomes.size();
  p.running_wpr =
      probe_wpr_n_ > 0 ? probe_wpr_sum_ / static_cast<double>(probe_wpr_n_)
                       : 0.0;
  p.task_rows_high_water = tasks_.size();
  result_.probes.push_back(p);
}

#if CLOUDCR_OBS_ENABLED
void Simulation::flush_stats() {
  if (!config_.collect_stats) return;
  namespace st = obs::st;
  st::sim_events_popped.add(result_.events_dispatched);
  st::sim_queue_rebuilds.add(engine_.queue_rebuilds());
  st::sim_placement_scans.add(tally_.placement_sweeps);
  st::sim_rows_recycled.add(tally_.rows_recycled);
  st::sim_ckpt_runs_compressed.add(tally_.ckpt_compressed);
  st::sim_ckpt_events_replayed.add(tally_.ckpt_evented);
  st::sched_decide_calls.add(tally_.sched_decides);
  st::sched_wakeups.add(tally_.sched_wakeups);
  st::ingest_stream_batches.add(tally_.stream_batches);
  st::storage_opslab_high_water.add(local_backend_->ops_high_water());
  st::storage_opslab_high_water.add(shared_backend_->ops_high_water());
}

namespace {
/// Span name of an on-VM phase; null for phases that carry no span.
const char* phase_span_name(TaskPhase phase) {
  switch (phase) {
    case TaskPhase::kExecuting:
      return "run";
    case TaskPhase::kCheckpointing:
      return "ckpt";
    case TaskPhase::kRestoring:
      return "restore";
    default:
      return nullptr;
  }
}
}  // namespace

void Simulation::trace_begin_span(std::size_t task_idx, double t,
                                  bool vm_too) {
  if (config_.tracer == nullptr) return;
  if (trace_task_start_.size() < tasks_.size()) {
    trace_task_start_.resize(tasks_.size(), 0.0);
    trace_vm_start_.resize(tasks_.size(), 0.0);
  }
  trace_task_start_[task_idx] = t;
  if (vm_too) trace_vm_start_[task_idx] = t;
}

void Simulation::trace_end_span(std::size_t task_idx, double t_end) {
  if (config_.tracer == nullptr || trace_task_start_.size() <= task_idx) {
    return;
  }
  const char* name = phase_span_name(tasks_.hot[task_idx].phase);
  if (name == nullptr) return;
  config_.tracer->sim_span(obs::kJobPid, ws_.jobs[tasks_.job[task_idx]].id,
                           name, obs::kCatTask, trace_task_start_[task_idx],
                           t_end);
}

void Simulation::trace_instant(std::size_t task_idx, const char* name) {
  if (config_.tracer == nullptr) return;
  config_.tracer->sim_instant(obs::kJobPid,
                              ws_.jobs[tasks_.job[task_idx]].id, name,
                              obs::kCatTask, engine_.now());
}

void Simulation::trace_vm_leave(std::size_t task_idx) {
  if (config_.tracer == nullptr || trace_vm_start_.size() <= task_idx ||
      tasks_.vm[task_idx] == TaskTable::kNoVm) {
    return;
  }
  const JobState& job = ws_.jobs[tasks_.job[task_idx]];
  const std::string name = "job " + std::to_string(job.id) + " task " +
                           std::to_string(task_idx - job.first_task);
  config_.tracer->sim_span(
      obs::kVmPid, static_cast<std::uint64_t>(tasks_.vm[task_idx]), name,
      obs::kCatVm, trace_vm_start_[task_idx], engine_.now());
}
#endif  // CLOUDCR_OBS_ENABLED

std::uint32_t Simulation::alloc_job_slot() {
  if (!ws_.free_jobs.empty()) {
    const std::uint32_t slot = ws_.free_jobs.back();
    ws_.free_jobs.pop_back();
    return slot;
  }
  ws_.jobs.emplace_back();
  return static_cast<std::uint32_t>(ws_.jobs.size() - 1);
}

std::size_t Simulation::alloc_task_span(std::uint32_t n_tasks) {
  if (n_tasks == 0) return 0;
  const auto it = ws_.free_spans.find(n_tasks);
  if (it != ws_.free_spans.end() && !it->second.empty()) {
    const std::size_t first = it->second.back();
    it->second.pop_back();
    return first;
  }
  const std::size_t first = tasks_.size();
  tasks_.resize(first + n_tasks);
  return first;
}

void Simulation::retire_job(std::uint32_t job_slot) {
  JobState& job = ws_.jobs[job_slot];
  if (job.n_tasks > 0) {
    ws_.free_spans[job.n_tasks].push_back(
        static_cast<std::uint32_t>(job.first_task));
    CLOUDCR_OBS_STMT(tally_.rows_recycled += job.n_tasks);
  }
  job.owned.clear();  // releases each record's failure-date storage
  ws_.free_jobs.push_back(job_slot);
}

void Simulation::admit_job(trace::JobRecord&& rec) {
  const std::uint32_t slot = alloc_job_slot();
  JobState& job = ws_.jobs[slot];
  job.id = rec.id;
  job.arrival_s = rec.arrival_s;
  job.structure = rec.structure;
  job.n_tasks = static_cast<std::uint32_t>(rec.tasks.size());
  job.remaining = rec.tasks.size();
  job.next_sequential = 0;
  job.unschedulable = 0;
  job.sched_wait_s = 0.0;
  job.backfilled = false;
  job.done = false;
  job.active = true;
  job.owned = std::move(rec.tasks);
  job.first_task = alloc_task_span(job.n_tasks);
  for (std::size_t i = 0; i < job.n_tasks; ++i) {
    tasks_.init_row(job.first_task + i, job.owned[i], slot);
  }
  // The arrival itself counts as one dispatched event, as it did when every
  // arrival was a queued engine event.
  ++result_.events_dispatched;
  ++probe_active_jobs_;
  CLOUDCR_OBS_STMT(if (config_.tracer != nullptr) {
    config_.tracer->sim_instant(obs::kJobPid, job.id, "submit", obs::kCatJob,
                                engine_.now());
  });
  if (job.n_tasks == 0) return;
  if (!sched_active_) {
    on_job_arrival(slot);
    return;
  }
  sched_enqueue(slot);
  sched_pump();
}

TraceJobSource::TraceJobSource(const trace::Trace& trace) : trace_(trace) {
  // Real sources emit arrival-sorted jobs, so the common case is the
  // identity order and skips the sort (and its index array) entirely; only
  // hand-crafted unsorted traces pay it.
  const auto& jobs = trace.jobs;
  const bool sorted = std::is_sorted(
      jobs.begin(), jobs.end(),
      [](const trace::JobRecord& a, const trace::JobRecord& b) {
        return a.arrival_s < b.arrival_s;
      });
  if (sorted) return;
  order_.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    order_[j] = static_cast<std::uint32_t>(j);
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [&jobs](std::uint32_t a, std::uint32_t b) {
                     return jobs[a].arrival_s < jobs[b].arrival_s;
                   });
}

SimResult Simulation::run(const trace::Trace& trace) {
  TraceJobSource source(trace);
  return run_stream(source);
}

SimResult Simulation::run_stream(JobSource& source, std::size_t batch_jobs,
                                 const RunControl& control) {
  // A resume re-enters the loop at its fork point: the source replays the
  // whole trace deterministically, so the jobs the snapshot already
  // admitted are discarded. They still count in the caller's source
  // accounting, so trace_jobs/trace_tasks match a full run.
  std::uint64_t to_skip = 0;
  if (control.resume_from != nullptr) {
    restore_snapshot(*control.resume_from);
    policy_override_ = control.overrides.policy;
    if (control.overrides.detection_delay_s) {
      config_.detection_delay_s = *control.overrides.detection_delay_s;
    }
    to_skip = control.resume_from->jobs_admitted;
  } else {
    begin_run();
  }
  if (batch_jobs == 0) batch_jobs = 1;
  std::uint64_t admitted = to_skip;
  bool taken = control.capture == nullptr;
#if CLOUDCR_OBS_ENABLED
  const auto obs_adm_t0 = std::chrono::steady_clock::now();
#endif
  while (true) {
    ws_.chunk.clear();
    if (source.next_jobs(batch_jobs, ws_.chunk) == 0) break;
    CLOUDCR_OBS_STMT(++tally_.stream_batches);
    for (auto& rec : ws_.chunk) {
      if (to_skip > 0) {
        --to_skip;
        continue;
      }
      // Capture at the arrival boundary, before this record's engine drain:
      // a resume re-enters the loop at exactly this point. Capturing only
      // copies state, so the ongoing run is not perturbed.
      if (!taken && rec.arrival_s >= control.fork_at) {
        capture_snapshot(*control.capture, admitted);
        taken = true;
      }
      if (config_.probe_interval_s > 0.0) pump_probes_before(rec.arrival_s);
      result_.events_dispatched += engine_.run_until_before(rec.arrival_s);
      engine_.advance_to(rec.arrival_s);
      admit_job(std::move(rec));
      ++admitted;
    }
  }
  // A fork beyond the last arrival snapshots the fully-admitted state; the
  // resumed run then only replays the final drain.
  if (!taken) capture_snapshot(*control.capture, admitted);
#if CLOUDCR_OBS_ENABLED
  if (config_.tracer != nullptr) {
    config_.tracer->host_span("admission", obs_adm_t0,
                              std::chrono::steady_clock::now());
  }
#endif
  SimResult result = end_run();
  policy_override_ = nullptr;
  return result;
}

// -- snapshot / restore -------------------------------------------------------

std::size_t SimSnapshot::approx_bytes() const {
  std::size_t bytes = sizeof(SimSnapshot);
  // Event queue: one bucket entry + one slot (inline callable) per event.
  bytes += engine.queue.size() *
           (sizeof(double) + sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t) +
            EventFn::kStorage + 2 * sizeof(std::uint32_t));
  // Task table: the per-row cost across every SoA column.
  bytes += tasks.size() *
           (sizeof(HotRow) + sizeof(EventId) + 2 * sizeof(std::int32_t) +
            2 * sizeof(double) + sizeof(std::int32_t) + sizeof(std::uint32_t) +
            sizeof(void*) +
            sizeof(std::optional<core::CheckpointController>) + sizeof(void*) +
            sizeof(storage::CheckpointPrice) + sizeof(double) +
            sizeof(TaskAccounting));
  for (const auto& job : jobs) {
    bytes += sizeof(job);
    for (const auto& task : job.owned) {
      bytes += sizeof(task) + task.failure_dates.size() * sizeof(double);
    }
  }
  bytes += (pending.size() + free_jobs.size() + sched_stash.size()) *
           sizeof(std::uint32_t);
  for (const auto& [span, slots] : free_spans) {
    (void)span;
    bytes += slots.size() * sizeof(std::uint32_t);
  }
  bytes += sched_queue.size() * sizeof(sched::PendingJob);
  bytes += sched_running.size() * sizeof(sched::RunningJob);
  bytes += result.outcomes.size() * sizeof(result.outcomes[0]);
  bytes += result.probes.size() * sizeof(result.probes[0]);
  return bytes;
}

void Simulation::copy_task_table(const TaskTable& from, TaskTable& to) {
  to.hot = from.hot;
  to.pending_event = from.pending_event;
  to.vm = from.vm;
  to.last_failed_host = from.last_failed_host;
  to.memory_mb = from.memory_mb;
  to.length_s = from.length_s;
  to.priority = from.priority;
  to.job = from.job;
  to.rec = from.rec;
  to.controller.clear();
  to.controller.reserve(from.controller.size());
  for (const auto& c : from.controller) to.controller.push_back(c);
  to.backend = from.backend;
  to.ckpt_price = from.ckpt_price;
  to.restart_price_s = from.restart_price_s;
  to.acct = from.acct;
}

void Simulation::capture_snapshot(SimSnapshot& out,
                                  std::uint64_t jobs_admitted) const {
  out.engine = engine_.snapshot();
  copy_task_table(tasks_, out.tasks);
  out.jobs = ws_.jobs;
  out.pending = ws_.pending;
  out.free_jobs = ws_.free_jobs;
  out.free_spans = ws_.free_spans;
  out.cluster = cluster_;
  out.rng = rng_;
  local_backend_->capture_state(out.local_backend);
  shared_backend_->capture_state(out.shared_backend);
  out.pending_min_mb = pending_min_mb_;
  out.sched_queue = sched_queue_;
  out.sched_running = sched_running_;
  out.sched_stash = sched_stash_;
  out.sched_wake_event = sched_wake_event_;
  out.next_probe_s = next_probe_s_;
  out.probe_running_tasks = probe_running_tasks_;
  out.probe_active_jobs = probe_active_jobs_;
  out.probe_wpr_sum = probe_wpr_sum_;
  out.probe_wpr_n = probe_wpr_n_;
  out.result = result_;
  out.detection_delay_s = config_.detection_delay_s;
  out.jobs_admitted = jobs_admitted;
  out.taken_at = engine_.now();
}

void Simulation::restore_snapshot(const SimSnapshot& snap) {
  engine_.restore(snap.engine);
  copy_task_table(snap.tasks, tasks_);
  ws_.jobs = snap.jobs;
  ws_.pending = snap.pending;
  ws_.free_jobs = snap.free_jobs;
  ws_.free_spans = snap.free_spans;
  ws_.chunk.clear();
  cluster_ = snap.cluster;
  rng_ = snap.rng;
  // Backends are the instances begin_run created for the snapshot run —
  // queued [backend, op] events and tasks_.backend hold raw pointers to
  // them, so only their mutable state rewinds; they are never recreated.
  local_backend_->restore_state(snap.local_backend);
  shared_backend_->restore_state(snap.shared_backend);
  pending_min_mb_ = snap.pending_min_mb;
  // The jobs-vector copy relocated each job's record buffer: re-point the
  // task rows of live jobs. Retired slots cleared their records (init_row
  // re-points recycled rows at admission).
  for (const auto& job : ws_.jobs) {
    if (!job.active) continue;
    for (std::size_t i = 0; i < job.n_tasks; ++i) {
      tasks_.rec[job.first_task + i] = &job.owned[i];
    }
  }
  sched_active_ =
      config_.scheduler != nullptr && !config_.scheduler->pass_through();
  total_capacity_mb_ = static_cast<double>(config_.cluster.hosts) *
                       static_cast<double>(config_.cluster.vms_per_host) *
                       config_.cluster.vm_memory_mb;
  sched_queue_ = snap.sched_queue;
  sched_running_ = snap.sched_running;
  sched_stash_ = snap.sched_stash;
  sched_in_pump_ = false;
  sched_pump_again_ = false;
  sched_wake_event_ = snap.sched_wake_event;
  next_probe_s_ = snap.next_probe_s;
  probe_running_tasks_ = snap.probe_running_tasks;
  probe_active_jobs_ = snap.probe_active_jobs;
  probe_wpr_sum_ = snap.probe_wpr_sum;
  probe_wpr_n_ = snap.probe_wpr_n;
  result_ = snap.result;
  config_.detection_delay_s = snap.detection_delay_s;
#if CLOUDCR_OBS_ENABLED
  // Tallies and tracer spans restart at the fork: a resumed run's obs
  // counters cover the post-fork segment only (results are unaffected —
  // counters never feed back into the replay).
  tally_ = ObsTally{};
  trace_task_start_.clear();
  trace_vm_start_.clear();
#endif
}

void Simulation::on_job_arrival(std::size_t job_idx) {
  JobState& job = ws_.jobs[job_idx];
  if (job.structure == trace::JobStructure::kBagOfTasks) {
    for (std::size_t i = 0; i < job.n_tasks; ++i) {
      admit(job.first_task + i);
    }
  } else {
    job.next_sequential = 1;
    admit(job.first_task);
  }
  try_dispatch();
}

void Simulation::admit(std::size_t task_idx) {
  // A demand larger than any VM's total capacity can never be placed; the
  // old engine would re-scan such a task on every event, forever. Reject it
  // here, once, and let the job complete with the task on record.
  if (tasks_.memory_mb[task_idx] > cluster_.max_vm_capacity_mb()) {
    tasks_.hot[task_idx].phase = TaskPhase::kUnschedulable;
    ++ws_.jobs[tasks_.job[task_idx]].unschedulable;
    on_task_terminal(task_idx);
    return;
  }
  make_ready(task_idx);
}

void Simulation::make_ready(std::size_t task_idx) {
  tasks_.hot[task_idx].phase = TaskPhase::kQueued;
  tasks_.acct[task_idx].last_enqueue_s = engine_.now();
  if (tasks_.acct[task_idx].first_ready_s < 0.0) {
    tasks_.acct[task_idx].first_ready_s = engine_.now();
  }
  push_pending(task_idx);
}

void Simulation::push_pending(std::size_t task_idx) {
  ws_.pending.push_back(static_cast<std::uint32_t>(task_idx));
  pending_min_mb_ = std::min(pending_min_mb_, tasks_.memory_mb[task_idx]);
}

void Simulation::init_controller(std::size_t task_idx) {
  const trace::TaskRecord& rec = *tasks_.rec[task_idx];
  // A resumed run's what-if policy applies to dispatches after the fork;
  // everywhere else the override is null and this is the ctor-bound policy.
  const core::CheckpointPolicy& policy =
      policy_override_ != nullptr ? *policy_override_ : policy_;
  const core::FailureStats stats =
      predictor_(rec, tasks_.priority[task_idx]);
  std::optional<storage::DeviceKind> forced;
  if (config_.placement == PlacementMode::kForceLocal) {
    forced = storage::DeviceKind::kLocalRamdisk;
  } else if (config_.placement == PlacementMode::kForceShared) {
    forced = config_.shared_kind;
  }
  // The planner sees the parser's *predicted* length; execution still ends
  // at the true length.
  const double planned_length =
      config_.length_predictor
          ? std::max(1.0, config_.length_predictor(rec))
          : rec.length_s;
  tasks_.controller[task_idx].emplace(policy, planned_length, rec.memory_mb,
                                      stats, config_.adaptation,
                                      config_.shared_kind, forced);
  storage::StorageBackend* backend =
      backend_for(tasks_.controller[task_idx]->storage_decision().device);
  tasks_.backend[task_idx] = backend;
  // The memory-dependent price parts are pure functions of the (device,
  // footprint) pair: evaluate the calibration curves once per task here
  // instead of once per checkpoint/restart.
  tasks_.ckpt_price[task_idx] = backend->base_price(rec.memory_mb);
  tasks_.restart_price_s[task_idx] = backend->restart_cost(rec.memory_mb);
}

void Simulation::try_dispatch() {
  // One stable pass over the pending queue. Placement only consumes memory,
  // so a task that fails cannot succeed later in the same sweep — a second
  // pass can never place anything (the old engine's retry loop was a no-op).
  if (ws_.pending.empty()) return;
  // O(1) reject while the cluster is saturated: if even the smallest pending
  // demand exceeds the largest free block, no placement (with or without a
  // host exclusion) can succeed.
  if (pending_min_mb_ > cluster_.max_available_mb()) return;

  CLOUDCR_OBS_STMT(++tally_.placement_sweeps);
  std::size_t out = 0;
  double new_min = kInf;
  for (std::size_t i = 0; i < ws_.pending.size(); ++i) {
    const std::uint32_t idx = ws_.pending[i];
    if (dispatch(idx)) continue;
    ws_.pending[out++] = idx;
    new_min = std::min(new_min, tasks_.memory_mb[idx]);
  }
  ws_.pending.resize(out);
  pending_min_mb_ = new_min;
}

bool Simulation::dispatch(std::size_t task_idx) {
  const double mem = tasks_.memory_mb[task_idx];
  // The paper restarts failed tasks "on another host"; fall back to any host
  // if no other host fits.
  std::optional<HostId> exclude;
  if (tasks_.last_failed_host[task_idx] != TaskTable::kNoHost) {
    exclude = static_cast<HostId>(tasks_.last_failed_host[task_idx]);
  }
  std::optional<VmId> vm = cluster_.select_vm(mem, exclude);
  if (!vm && exclude) {
    vm = cluster_.select_vm(mem);
  }
  if (!vm) return false;

  if (!cluster_.allocate(*vm, mem)) {
    throw std::logic_error("Simulation::dispatch: allocation failed");
  }
  tasks_.vm[task_idx] = static_cast<std::int32_t>(*vm);
  TaskAccounting& acct = tasks_.acct[task_idx];
  acct.queue_s += engine_.now() - acct.last_enqueue_s;
  tasks_.hot[task_idx].last_sync_s = engine_.now();

  if (!tasks_.controller[task_idx]) init_controller(task_idx);

  if (tasks_.hot[task_idx].flags & TaskTable::kPayRestart) {
    const double r = tasks_.restart_price_s[task_idx];
    acct.restart_cost_s += r;
    tasks_.hot[task_idx].phase = TaskPhase::kRestoring;
    tasks_.hot[task_idx].phase_end_active = tasks_.hot[task_idx].active_s + r;
    tasks_.controller[task_idx]->on_rollback(tasks_.hot[task_idx].saved_s);
  } else {
    tasks_.hot[task_idx].phase = TaskPhase::kExecuting;
  }
  arm(task_idx);
  ++probe_running_tasks_;
  CLOUDCR_OBS_STMT(trace_begin_span(task_idx, engine_.now(), true));
  return true;
}

void Simulation::sync_clock(std::size_t task_idx) {
  const double elapsed = engine_.now() - tasks_.hot[task_idx].last_sync_s;
  if (elapsed > 0.0) {
    tasks_.hot[task_idx].active_s += elapsed;
    if (tasks_.hot[task_idx].phase == TaskPhase::kExecuting) {
      tasks_.hot[task_idx].progress_s += elapsed;
    }
  }
  tasks_.hot[task_idx].last_sync_s = engine_.now();
}

void Simulation::cancel_pending_event(std::size_t task_idx) {
  if (tasks_.pending_event[task_idx] != TaskTable::kNoEvent) {
    engine_.cancel(tasks_.pending_event[task_idx]);
    tasks_.pending_event[task_idx] = TaskTable::kNoEvent;
  }
}

void Simulation::arm(std::size_t task_idx) {
  arm_from(task_idx, engine_.now());
}

void Simulation::arm_from(std::size_t task_idx, double vt) {
  cancel_pending_event(task_idx);

  // All candidate wakeups, as deltas from the task's reference time `vt`
  // (== deltas in active time, since the task is on a VM whenever this
  // runs). vt is engine_.now() for ordinary arms; checkpoint-run
  // compression passes the virtual wall time its inline replay reached.
  const double active = tasks_.hot[task_idx].active_s;
  double best_delta = kInf;
  Wakeup best = Wakeup::kComplete;

  auto consider = [&](double delta, Wakeup kind) {
    if (delta < best_delta) {
      best_delta = delta;
      best = kind;
    }
  };

  // Kill event from the trace (failure cursor precomputed at admission).
  if (tasks_.hot[task_idx].next_failure_date_s != kInf) {
    consider(tasks_.hot[task_idx].next_failure_date_s - active, Wakeup::kKill);
  }
  // Scheduled priority change (active-time driven).
  if (tasks_.hot[task_idx].flags & TaskTable::kPriorityChangePending) {
    consider(tasks_.rec[task_idx]->priority_change_time - active,
             Wakeup::kPriorityChange);
  }

  switch (tasks_.hot[task_idx].phase) {
    case TaskPhase::kExecuting: {
      const double progress = tasks_.hot[task_idx].progress_s;
      consider(tasks_.length_s[task_idx] - progress, Wakeup::kComplete);
      const auto next_ckpt =
          tasks_.controller[task_idx]->work_until_next_checkpoint(progress);
      if (next_ckpt) consider(*next_ckpt, Wakeup::kCheckpointDue);
      break;
    }
    case TaskPhase::kRestoring:
      consider(tasks_.hot[task_idx].phase_end_active - active,
               Wakeup::kRestoreDone);
      break;
    case TaskPhase::kCheckpointing:
      consider(tasks_.hot[task_idx].phase_end_active - active,
               Wakeup::kCheckpointDone);
      break;
    default:
      throw std::logic_error("Simulation::arm: task not on a VM");
  }

  if (best_delta == kInf) {
    throw std::logic_error("Simulation::arm: no wakeup candidate");
  }
  best_delta = std::max(0.0, best_delta);
  const auto idx = static_cast<std::uint32_t>(task_idx);
  const Wakeup kind = best;
  tasks_.pending_event[task_idx] = engine_.schedule_at(
      vt + best_delta, [this, idx, kind] { wake(idx, kind); });
}

void Simulation::wake(std::size_t task_idx, Wakeup kind) {
  tasks_.pending_event[task_idx] = TaskTable::kNoEvent;
  sync_clock(task_idx);
  switch (kind) {
    case Wakeup::kKill:
      handle_kill(task_idx);
      break;
    case Wakeup::kPriorityChange:
      handle_priority_change(task_idx);
      break;
    case Wakeup::kCheckpointDue:
      handle_checkpoint_due(task_idx);
      break;
    case Wakeup::kCheckpointDone:
      handle_checkpoint_done(task_idx);
      break;
    case Wakeup::kRestoreDone:
      handle_restore_done(task_idx);
      break;
    case Wakeup::kComplete:
      handle_complete(task_idx);
      break;
  }
}

void Simulation::leave_vm(std::size_t task_idx) {
  if (tasks_.vm[task_idx] != TaskTable::kNoVm) {
    CLOUDCR_OBS_STMT(trace_vm_leave(task_idx));
    cluster_.release(static_cast<VmId>(tasks_.vm[task_idx]),
                     tasks_.memory_mb[task_idx]);
    tasks_.vm[task_idx] = TaskTable::kNoVm;
    --probe_running_tasks_;
  }
}

void Simulation::handle_kill(std::size_t task_idx) {
  CLOUDCR_OBS_STMT(trace_end_span(task_idx, engine_.now()));
  CLOUDCR_OBS_STMT(trace_instant(task_idx, "failure"));
  TaskAccounting& acct = tasks_.acct[task_idx];
  ++acct.failures;
  tasks_.advance_failure_cursor(task_idx);
  // Refund the unspent part of an interrupted checkpoint or restore phase:
  // the cost was charged in full when the phase began, but the kill cuts it
  // short (the wall-clock only absorbed the elapsed portion).
  const double unspent =
      std::max(0.0, tasks_.hot[task_idx].phase_end_active -
                        tasks_.hot[task_idx].active_s);
  if (tasks_.hot[task_idx].phase == TaskPhase::kCheckpointing) {
    acct.checkpoint_cost_s -= unspent;
  } else if (tasks_.hot[task_idx].phase == TaskPhase::kRestoring) {
    acct.restart_cost_s -= unspent;
  }
  // Roll back: progress since the last completed checkpoint is lost. A
  // checkpoint in flight is lost too (it never completed).
  acct.rollback_s +=
      tasks_.hot[task_idx].progress_s - tasks_.hot[task_idx].saved_s;
  tasks_.hot[task_idx].progress_s = tasks_.hot[task_idx].saved_s;
  tasks_.last_failed_host[task_idx] = static_cast<std::int32_t>(
      cluster_.vm(static_cast<VmId>(tasks_.vm[task_idx])).host());
  leave_vm(task_idx);
  tasks_.hot[task_idx].flags |= TaskTable::kPayRestart;
  tasks_.hot[task_idx].phase = TaskPhase::kQueued;

  // Failure detection latency before the task may be rescheduled.
  const double delay = config_.detection_delay_s;
  if (delay > 0.0) {
    const auto idx = static_cast<std::uint32_t>(task_idx);
    engine_.schedule_in(delay, [this, idx] {
      make_ready(idx);
      try_dispatch();
    });
    tasks_.hot[task_idx].phase = TaskPhase::kNotReady;
  } else {
    acct.last_enqueue_s = engine_.now();
    push_pending(task_idx);
    try_dispatch();
  }
}

void Simulation::handle_priority_change(std::size_t task_idx) {
  tasks_.hot[task_idx].flags &=
      static_cast<std::uint8_t>(~TaskTable::kPriorityChangePending);
  const trace::TaskRecord& rec = *tasks_.rec[task_idx];
  tasks_.priority[task_idx] = rec.new_priority;
  tasks_.controller[task_idx]->update_stats(
      predictor_(rec, tasks_.priority[task_idx]),
      tasks_.hot[task_idx].progress_s);
  arm(task_idx);  // same phase continues with refreshed wakeups
}

void Simulation::handle_checkpoint_due(std::size_t task_idx) {
  // Checkpoint-run compression. A checkpoint normally costs two engine
  // events (due -> done) plus a device-completion event; while nothing can
  // interrupt it, the whole transition is already determined, and on pure
  // devices (no contention state, no RNG draws) so is every *following*
  // checkpoint up to the next kill, priority change, or completion. This
  // loop replays that run inline against a virtual wall clock `vt` and
  // schedules one engine event for the first wakeup that genuinely needs
  // the event loop.
  //
  // Bit-identity: every float below replays the uncompressed engine's
  // arithmetic expression-for-expression in the same order (arm()'s delta
  // space, first-candidate-wins ties, sync_clock's elapsed guard), and the
  // compressed steps touch no globally ordered state (cluster, RNG,
  // contended devices). At exact delta ties the kill/priority wake must
  // win, as in arm() — hence every strict inequality.
  storage::StorageBackend* backend = tasks_.backend[task_idx];
  const bool pure = backend->begin_is_pure();
  const bool needs_end_event = backend->completion_affects_pricing();
  const std::size_t host =
      cluster_.vm(static_cast<VmId>(tasks_.vm[task_idx])).host();
  TaskAccounting& acct = tasks_.acct[task_idx];
  double vt = engine_.now();

  while (true) {
    // -- the due transition (begin the write) -------------------------------
    CLOUDCR_OBS_STMT(trace_end_span(task_idx, vt));  // the "run" span so far
    const auto ticket =
        backend->begin_priced(tasks_.ckpt_price[task_idx], host);
    ++acct.checkpoints;
    acct.checkpoint_cost_s += ticket.cost;
    tasks_.hot[task_idx].ckpt_progress_s = tasks_.hot[task_idx].progress_s;
    tasks_.hot[task_idx].phase = TaskPhase::kCheckpointing;
    CLOUDCR_OBS_STMT(trace_begin_span(task_idx, vt, false));
    tasks_.hot[task_idx].phase_end_active =
        tasks_.hot[task_idx].active_s + ticket.cost;

    // The device stays busy for the full operation time, independently of
    // the task's fate (a killed task's half-written checkpoint still
    // occupied the server). Devices whose pricing never reads op state skip
    // the completion event: it could not influence any result. (Only such
    // devices ever reach this line with vt beyond engine_.now(): contended
    // ones are not pure, so their first iteration is also their last.)
    if (needs_end_event) {
      const std::uint64_t op = ticket.op_id;
      engine_.schedule_in(ticket.op_time,
                          [backend, op] { backend->end_checkpoint(op); });
    } else {
      backend->end_checkpoint(ticket.op_id);
    }

    // -- can the write complete uninterrupted? ------------------------------
    const double active0 = tasks_.hot[task_idx].active_s;
    const double done_delta = tasks_.hot[task_idx].phase_end_active - active0;
    const double kill_delta =
        tasks_.hot[task_idx].next_failure_date_s != kInf
            ? tasks_.hot[task_idx].next_failure_date_s - active0
            : kInf;
    const double prio_delta =
        (tasks_.hot[task_idx].flags & TaskTable::kPriorityChangePending)
            ? tasks_.rec[task_idx]->priority_change_time - active0
            : kInf;
    if (!(done_delta < kill_delta && done_delta < prio_delta)) {
      CLOUDCR_OBS_STMT(++tally_.ckpt_evented);
      arm_from(task_idx, vt);
      return;
    }

    // -- the done transition, replayed inline -------------------------------
    const double delta0 = std::max(0.0, done_delta);
    const double done_time = vt + delta0;         // the done wake's timestamp
    const double elapsed = done_time - vt;        // sync_clock at that wake
    if (elapsed > 0.0) tasks_.hot[task_idx].active_s = active0 + elapsed;
    tasks_.hot[task_idx].last_sync_s = done_time;
    tasks_.hot[task_idx].saved_s = tasks_.hot[task_idx].ckpt_progress_s;
    tasks_.controller[task_idx]->on_checkpoint(tasks_.hot[task_idx].saved_s);
    CLOUDCR_OBS_STMT(++tally_.ckpt_compressed);
    CLOUDCR_OBS_STMT(trace_end_span(task_idx, done_time));  // the "ckpt" span
    tasks_.hot[task_idx].phase = TaskPhase::kExecuting;
    CLOUDCR_OBS_STMT(trace_begin_span(task_idx, done_time, false));
    vt = done_time;

    // -- the post-checkpoint arm, against the virtual state -----------------
    const double active1 = tasks_.hot[task_idx].active_s;
    double best_delta = kInf;
    Wakeup best = Wakeup::kComplete;
    auto consider = [&](double delta, Wakeup kind) {
      if (delta < best_delta) {
        best_delta = delta;
        best = kind;
      }
    };
    if (tasks_.hot[task_idx].next_failure_date_s != kInf) {
      consider(tasks_.hot[task_idx].next_failure_date_s - active1,
               Wakeup::kKill);
    }
    if (tasks_.hot[task_idx].flags & TaskTable::kPriorityChangePending) {
      consider(tasks_.rec[task_idx]->priority_change_time - active1,
               Wakeup::kPriorityChange);
    }
    const double progress = tasks_.hot[task_idx].progress_s;
    consider(tasks_.length_s[task_idx] - progress, Wakeup::kComplete);
    const auto next_ckpt =
        tasks_.controller[task_idx]->work_until_next_checkpoint(progress);
    if (next_ckpt) consider(*next_ckpt, Wakeup::kCheckpointDue);

    best_delta = std::max(0.0, best_delta);
    if (best != Wakeup::kCheckpointDue || !pure) {
      const auto idx = static_cast<std::uint32_t>(task_idx);
      const Wakeup kind = best;
      tasks_.pending_event[task_idx] = engine_.schedule_at(
          vt + best_delta, [this, idx, kind] { wake(idx, kind); });
      return;
    }

    // -- next checkpoint is also determined: advance to it inline -----------
    const double due_time = vt + best_delta;      // the due wake's timestamp
    const double run = due_time - vt;             // sync_clock at that wake
    if (run > 0.0) {
      tasks_.hot[task_idx].active_s = active1 + run;
      tasks_.hot[task_idx].progress_s = progress + run;  // kExecuting accrues
    }
    tasks_.hot[task_idx].last_sync_s = due_time;
    vt = due_time;
  }
}

void Simulation::handle_checkpoint_done(std::size_t task_idx) {
  CLOUDCR_OBS_STMT(trace_end_span(task_idx, engine_.now()));
  tasks_.hot[task_idx].saved_s = tasks_.hot[task_idx].ckpt_progress_s;
  tasks_.controller[task_idx]->on_checkpoint(tasks_.hot[task_idx].saved_s);
  tasks_.hot[task_idx].phase = TaskPhase::kExecuting;
  CLOUDCR_OBS_STMT(trace_begin_span(task_idx, engine_.now(), false));
  arm(task_idx);
}

void Simulation::handle_restore_done(std::size_t task_idx) {
  CLOUDCR_OBS_STMT(trace_end_span(task_idx, engine_.now()));
  tasks_.hot[task_idx].phase = TaskPhase::kExecuting;
  CLOUDCR_OBS_STMT(trace_begin_span(task_idx, engine_.now(), false));
  arm(task_idx);
}

void Simulation::handle_complete(std::size_t task_idx) {
  CLOUDCR_OBS_STMT(trace_end_span(task_idx, engine_.now()));
  tasks_.hot[task_idx].progress_s = tasks_.length_s[task_idx];
  tasks_.hot[task_idx].phase = TaskPhase::kDone;
  tasks_.acct[task_idx].done_s = engine_.now();
  leave_vm(task_idx);
  on_task_terminal(task_idx);
  try_dispatch();
}

void Simulation::on_task_terminal(std::size_t task_idx) {
  const std::uint32_t job_slot = tasks_.job[task_idx];
  JobState& job = ws_.jobs[job_slot];
  if (job.structure == trace::JobStructure::kSequentialTasks &&
      job.next_sequential < job.n_tasks) {
    const std::size_t successor = job.first_task + job.next_sequential;
    ++job.next_sequential;
    admit(successor);  // may recurse through another unschedulable successor
  }
  if (--job.remaining == 0) finish_job(job_slot);
}

void Simulation::finish_job(std::uint32_t job_slot) {
  JobState& job = ws_.jobs[job_slot];
  job.done = true;
  job.active = false;
  metrics::JobOutcome out;
  out.job_id = job.id;
  out.bag_of_tasks = job.structure == trace::JobStructure::kBagOfTasks;
  out.priority = job.n_tasks == 0 ? 1 : job.owned[0].priority;
  out.wallclock_s = engine_.now() - job.arrival_s;
  out.unschedulable_tasks = job.unschedulable;
  out.sched_wait_s = job.sched_wait_s;
  out.backfilled = job.backfilled;
  result_.total_unschedulable += job.unschedulable;
  for (std::size_t i = 0; i < job.n_tasks; ++i) {
    const std::size_t t = job.first_task + i;
    const TaskAccounting& acct = tasks_.acct[t];
    // Run-level totals accumulate here (integer sums, order-independent):
    // the rows are about to be recycled.
    result_.total_checkpoints += acct.checkpoints;
    result_.total_failures += acct.failures;
    if (tasks_.hot[t].phase == TaskPhase::kUnschedulable) continue;
    out.workload_s += tasks_.length_s[t];
    out.task_wallclock_s += acct.done_s - acct.first_ready_s;
    out.queue_s += acct.queue_s;
    out.checkpoint_s += acct.checkpoint_cost_s;
    out.rollback_s += acct.rollback_s;
    out.restart_s += acct.restart_cost_s;
    out.checkpoints += acct.checkpoints;
    out.failures += acct.failures;
    out.max_task_length_s =
        std::max(out.max_task_length_s, tasks_.length_s[t]);
  }
  result_.outcomes.push_back(out);
  // Running-average WPR for probe samples: same unfiltered mean as
  // metrics::average_wpr over the completed prefix.
  probe_wpr_sum_ += out.wpr();
  ++probe_wpr_n_;
  --probe_active_jobs_;
  CLOUDCR_OBS_STMT(if (config_.tracer != nullptr) {
    config_.tracer->sim_span(obs::kJobPid, job.id, "job", obs::kCatJob,
                             job.arrival_s, engine_.now());
  });
  retire_job(job_slot);

  if (sched_active_) {
    result_.total_sched_wait_s += out.sched_wait_s;
    if (out.backfilled) ++result_.backfilled_jobs;
    // Drop the job from the scheduler's running set (absent when it was
    // preempted and never re-released as a whole).
    for (std::size_t r = 0; r < sched_running_.size(); ++r) {
      if (sched_running_[r].slot == job_slot) {
        sched_running_.erase(sched_running_.begin() +
                             static_cast<std::ptrdiff_t>(r));
        break;
      }
    }
    // A completion is a scheduling opportunity: memory drained back.
    sched_pump();
  }
}

// -- scheduling stage ---------------------------------------------------------

void Simulation::sched_enqueue(std::uint32_t job_slot) {
  const JobState& job = ws_.jobs[job_slot];
  sched::PendingJob p;
  p.id = job.id;
  p.slot = job_slot;
  p.arrival_s = job.arrival_s;
  p.priority = job.n_tasks == 0 ? 1 : job.owned[0].priority;

  // Aggregate demand and the runtime estimate (the backfill wall): a bag of
  // tasks runs in parallel (sum of memory, max of lengths), a sequential job
  // serially (max of memory, sum of lengths). The scheduler sees the same
  // predicted lengths the checkpoint planner does.
  double demand = 0.0;
  double estimate = 0.0;
  for (std::size_t i = 0; i < job.n_tasks; ++i) {
    const trace::TaskRecord& rec = job.owned[i];
    const double len = config_.length_predictor
                           ? std::max(1.0, config_.length_predictor(rec))
                           : rec.length_s;
    if (job.structure == trace::JobStructure::kBagOfTasks) {
      demand += rec.memory_mb;
      estimate = std::max(estimate, len);
    } else {
      demand = std::max(demand, rec.memory_mb);
      estimate += len;
    }
  }
  // A demand beyond the whole cluster could never be granted; clamping keeps
  // such jobs releasable (their oversized tasks are rejected per-task at
  // admission, exactly as without a scheduler).
  p.demand_mb = std::min(demand, total_capacity_mb_);
  p.estimate_s = std::max(1.0, estimate);
  sched_queue_.push_back(p);
}

void Simulation::sched_pump() {
  // Releases recurse back here (an unschedulable-only job finishes inside
  // on_job_arrival); fold recursive requests into the outer loop.
  if (sched_in_pump_) {
    sched_pump_again_ = true;
    return;
  }
  sched_in_pump_ = true;
  do {
    sched_pump_again_ = false;
    sched_pump_once();
  } while (sched_pump_again_);
  sched_in_pump_ = false;
}

void Simulation::sched_pump_once() {
  // Any previously armed wakeup is superseded by this round's decision.
  if (sched_wake_event_ != TaskTable::kNoEvent) {
    engine_.cancel(sched_wake_event_);
    sched_wake_event_ = TaskTable::kNoEvent;
  }
  if (sched_queue_.empty()) return;

  sched::ResourceView view;
  view.now_s = engine_.now();
  view.total_available_mb = cluster_.total_available_mb();
  view.max_available_mb = cluster_.max_available_mb();
  view.total_capacity_mb = total_capacity_mb_;
  sched_decision_.clear();
  CLOUDCR_OBS_STMT(++tally_.sched_decides);
  config_.scheduler->decide(view, sched_queue_, sched_running_,
                            sched_decision_);

  // Evictions first: releases were granted assuming the freed memory.
  if (!sched_decision_.evict.empty()) preempt_victims();

  sched_released_.assign(sched_queue_.size(), 0);
  for (const std::uint32_t pos : sched_decision_.release) {
    if (pos < sched_queue_.size()) sched_released_[pos] = 1;
  }
  // Liveness backstop: with nothing running and nothing released, no future
  // completion or wakeup could ever unblock the queue — force the head out
  // (its tasks then wait at the engine level, as without a scheduler).
  if (sched_decision_.release.empty() && sched_running_.empty()) {
    sched_released_[0] = 1;
  }

  const double now = engine_.now();
  bool any_held = false;
  for (std::size_t pos = 0; pos < sched_queue_.size(); ++pos) {
    if (sched_released_[pos] == 0) {
      any_held = true;
      continue;
    }
    const sched::PendingJob p = sched_queue_[pos];
    JobState& job = ws_.jobs[p.slot];
    job.sched_wait_s = now - p.arrival_s;
    CLOUDCR_OBS_STMT(if (config_.tracer != nullptr && job.sched_wait_s > 0.0) {
      config_.tracer->sim_span(obs::kJobPid, p.id, "sched wait", obs::kCatJob,
                               p.arrival_s, now);
    });
    job.backfilled = any_held;  // passed at least one still-held earlier job
    sched::RunningJob r;
    r.id = p.id;
    r.slot = p.slot;
    r.demand_mb = p.demand_mb;
    r.est_end_s = now + p.estimate_s;
    r.priority = p.priority;
    sched_running_.push_back(r);
    on_job_arrival(p.slot);  // may finish the job and recurse into pump
  }
  std::size_t out = 0;
  for (std::size_t pos = 0; pos < sched_queue_.size(); ++pos) {
    if (sched_released_[pos] == 0) sched_queue_[out++] = sched_queue_[pos];
  }
  sched_queue_.resize(out);

  // Preempted tasks re-enter the pending queue only after the releases, so
  // the jobs the eviction was *for* claim the freed memory first.
  if (!sched_stash_.empty()) {
    for (const std::uint32_t t : sched_stash_) make_ready(t);
    sched_stash_.clear();
    try_dispatch();
  }

  const double wake = sched_decision_.wake_at_s;
  if (!sched_queue_.empty() && std::isfinite(wake) && wake > now) {
    sched_wake_event_ = engine_.schedule_at(wake, [this] {
      sched_wake_event_ = TaskTable::kNoEvent;
      CLOUDCR_OBS_STMT(++tally_.sched_wakeups);
      sched_pump();
    });
  }
}

void Simulation::preempt_victims() {
  auto& evict = sched_decision_.evict;
  // Erase from the running set in descending position order so earlier
  // positions stay valid; duplicates collapse.
  std::sort(evict.begin(), evict.end(),
            [](std::uint32_t a, std::uint32_t b) { return a > b; });
  evict.erase(std::unique(evict.begin(), evict.end()), evict.end());
  const sched::PreemptMode mode = config_.scheduler->preempt_mode();
  for (const std::uint32_t pos : evict) {
    if (pos >= sched_running_.size()) continue;
    const std::uint32_t slot = sched_running_[pos].slot;
    sched_running_.erase(sched_running_.begin() +
                         static_cast<std::ptrdiff_t>(pos));
    preempt_job_tasks(slot, mode);
  }
}

void Simulation::preempt_job_tasks(std::uint32_t job_slot,
                                   sched::PreemptMode mode) {
  const JobState& job = ws_.jobs[job_slot];

  // Queued tasks leave the pending queue (they re-enter via the stash after
  // this round's releases). Queue-wait accrued so far is banked because
  // make_ready will reset the enqueue clock.
  if (!ws_.pending.empty()) {
    std::size_t out = 0;
    double new_min = kInf;
    for (std::size_t i = 0; i < ws_.pending.size(); ++i) {
      const std::uint32_t idx = ws_.pending[i];
      if (tasks_.job[idx] == job_slot) {
        tasks_.acct[idx].queue_s +=
            engine_.now() - tasks_.acct[idx].last_enqueue_s;
        tasks_.hot[idx].phase = TaskPhase::kNotReady;
        sched_stash_.push_back(idx);
        continue;
      }
      ws_.pending[out++] = idx;
      new_min = std::min(new_min, tasks_.memory_mb[idx]);
    }
    ws_.pending.resize(out);
    pending_min_mb_ = new_min;
  }

  // On-VM tasks are interrupted exactly like a trace kill (same refund and
  // rollback arithmetic as handle_kill), minus the failure accounting: the
  // scheduler, not the platform, stopped them. kRequeue discards all
  // progress; kCheckpointRequeue resumes from the last completed checkpoint.
  // Either way the next dispatch pays the device restart price (kPayRestart).
  for (std::size_t i = 0; i < job.n_tasks; ++i) {
    const std::size_t t = job.first_task + i;
    const TaskPhase phase = tasks_.hot[t].phase;
    if (phase != TaskPhase::kExecuting && phase != TaskPhase::kCheckpointing &&
        phase != TaskPhase::kRestoring) {
      continue;
    }
    sync_clock(t);
    cancel_pending_event(t);
    CLOUDCR_OBS_STMT(trace_end_span(t, engine_.now()));
    CLOUDCR_OBS_STMT(trace_instant(t, "evict"));
    TaskAccounting& acct = tasks_.acct[t];
    const double unspent = std::max(
        0.0, tasks_.hot[t].phase_end_active - tasks_.hot[t].active_s);
    if (phase == TaskPhase::kCheckpointing) {
      acct.checkpoint_cost_s -= unspent;
    } else if (phase == TaskPhase::kRestoring) {
      acct.restart_cost_s -= unspent;
    }
    if (mode == sched::PreemptMode::kCheckpointRequeue) {
      acct.rollback_s += tasks_.hot[t].progress_s - tasks_.hot[t].saved_s;
      tasks_.hot[t].progress_s = tasks_.hot[t].saved_s;
    } else {
      acct.rollback_s += tasks_.hot[t].progress_s;
      tasks_.hot[t].progress_s = 0.0;
      tasks_.hot[t].saved_s = 0.0;
    }
    leave_vm(t);
    tasks_.hot[t].flags |= TaskTable::kPayRestart;
    tasks_.hot[t].phase = TaskPhase::kNotReady;
    ++result_.preempted_tasks;
    sched_stash_.push_back(static_cast<std::uint32_t>(t));
  }
}

}  // namespace cloudcr::sim
