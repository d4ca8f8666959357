#pragma once

/// \file simulation.hpp
/// \brief Trace replay: the full cloud job processing procedure of Fig 2.
///
/// Jobs arrive at their trace timestamps; tasks wait in a pending queue until
/// the greedy placement finds a VM with enough free memory; each running task
/// is driven by a CheckpointController (Algorithm 1) that schedules
/// equidistant checkpoints on its chosen storage device; kill/evict events
/// from the trace interrupt tasks, which roll back to their last completed
/// checkpoint and restart on another host, paying the migration-appropriate
/// restart cost. All costs are accounted per task and aggregated per job into
/// metrics::JobOutcome, from which WPR (Formula 9) is computed.
///
/// Failure dates are consumed in the task's *active time* (time spent on a
/// VM), so replaying the same trace under different policies delivers
/// identical kill sequences — the paper's paired-comparison methodology.
///
/// Hot-path architecture (all bit-identical to the original full-scan
/// engine, pinned by tests/sim/golden_replay_test.cpp):
///  - per-task state lives in a SoA TaskTable (task_table.hpp);
///  - placement runs off the Cluster's O(1) free-memory index, and the
///    pending queue is swept in one stable pass only when an event that can
///    unblock placement fires (arrival, completion, kill re-entry), with an
///    O(1) reject when even the smallest pending demand cannot fit anywhere;
///  - tasks whose demand exceeds every VM's total capacity are detected at
///    admission and recorded as unschedulable instead of re-scanning forever;
///  - all buffers come from a ReplayWorkspace that callers may reuse across
///    runs, so steady-state replay performs no heap allocation.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "core/policy.hpp"
#include "sim/cluster.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/result.hpp"
#include "sim/task_table.hpp"
#include "storage/backend.hpp"
#include "trace/records.hpp"

namespace cloudcr::sim {

/// Pull source of arrival-ordered jobs for the replay
/// (Simulation::run_stream). next_jobs appends up to `max_jobs` complete
/// JobRecords (each owning its TaskRecords) to `out` in non-decreasing
/// arrival order and returns the number appended; 0 means exhausted.
/// api::ScenarioRunner adapts an ingest::TaskStream onto this seam, keeping
/// the sim layer free of any ingestion dependency.
class JobSource {
 public:
  virtual ~JobSource() = default;
  virtual std::size_t next_jobs(std::size_t max_jobs,
                                std::vector<trace::JobRecord>& out) = 0;
};

/// JobSource over a materialized trace: yields copies of its jobs, stably
/// sorted by arrival (ties keep trace order) — exactly the pop order of an
/// engine that schedules every arrival event up front. The trace must
/// outlive the source.
class TraceJobSource final : public JobSource {
 public:
  explicit TraceJobSource(const trace::Trace& trace);

  std::size_t next_jobs(std::size_t max_jobs,
                        std::vector<trace::JobRecord>& out) override {
    std::size_t n = 0;
    for (; n < max_jobs && next_ < trace_.jobs.size(); ++n, ++next_) {
      out.push_back(trace_.jobs[order_.empty() ? next_ : order_[next_]]);
    }
    return n;
  }

 private:
  const trace::Trace& trace_;
  /// Job indices in arrival order; empty when the trace already is sorted.
  std::vector<std::uint32_t> order_;
  std::size_t next_ = 0;
};

/// Pooled replay buffers: the task/job tables, the pending queue, and the
/// event engine (whose slab and heap dominate transient memory). A default
/// instance lives inside each Simulation; passing a shared workspace to the
/// constructor lets a batch reuse the same capacity across many runs.
/// Contents are fully reset at the start of every run, so reuse can never
/// change results.
///
/// After a run the table sizes are readable high-water marks (they are
/// cleared at the *start* of the next run): every replay recycles finished
/// jobs' rows, so they peak at O(active tasks), not O(trace) — the
/// month-scale perf benchmark reports exactly these counters.
struct ReplayWorkspace {
  TaskTable tasks;

  /// Per-job replay state. The job's constant scalars are copied in at
  /// admission and its TaskRecords are moved into the slot (`owned`); the
  /// task rows point into that buffer, which stays put across jobs-vector
  /// growth (moving the owning vector does not move its heap buffer).
  struct JobState {
    std::uint32_t n_tasks = 0;
    std::uint64_t id = 0;
    double arrival_s = 0.0;
    trace::JobStructure structure = trace::JobStructure::kSequentialTasks;
    std::size_t first_task = 0;   ///< first row of the job's task-table span
    std::size_t remaining = 0;
    std::size_t next_sequential = 0;
    std::uint32_t unschedulable = 0;  ///< tasks rejected at admission
    double sched_wait_s = 0.0;  ///< scheduler hold time (0 under fcfs)
    bool backfilled = false;    ///< released ahead of an earlier arrival
    bool done = false;
    /// Admitted and not yet retired (finished jobs' slots are recycled).
    bool active = false;
    /// The job's records, moved out of the arrival chunk.
    std::vector<trace::TaskRecord> owned;
  };
  std::vector<JobState> jobs;

  /// FIFO pending queue (stable compaction sweep, no per-op allocation).
  std::vector<std::uint32_t> pending;

  Engine engine;

  // -- row recycling ----------------------------------------------------------
  /// Job slots retired by finished jobs, reusable LIFO.
  std::vector<std::uint32_t> free_jobs;
  /// Retired task-table spans, grouped by span length (jobs of the same
  /// size reuse each other's rows; unseen sizes extend the table). Keyed
  /// deterministically — recycling can never change results, only memory.
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_spans;
  /// Arrival buffer: the current chunk pulled from the JobSource.
  std::vector<trace::JobRecord> chunk;
};

/// Frozen mid-run state of a replay, taken at an arrival boundary: the
/// engine (clock and every pending event), every workspace table, the
/// cluster index, the RNG, both storage-backend states, the scheduler
/// queues, probe cursors, and the partial result. Together with the count
/// of already-consumed source jobs this is everything a resumed run needs to
/// continue bit-identically to a replay from zero — the snapshot==replay
/// house invariant (tests/svc/snapshot_identity_test.cpp). Every member is
/// a plain value, so taking and restoring a snapshot is assignment.
///
/// A snapshot is bound to the Simulation instance that captured it only by
/// pointers in its task rows: the device pointers name that instance's
/// storage members, and the controllers' policy pointers the policy it was
/// built with (restoring re-points the record pointers at the copied job
/// buffers). So a run resuming it (RunControl::resume_from) must use the
/// same object (which must not have started any other run from zero in
/// between). One snapshot supports any number of sequential resumes.
struct SimSnapshot {
  Engine engine;
  TaskTable tasks;
  std::vector<ReplayWorkspace::JobState> jobs;
  std::vector<std::uint32_t> pending;
  std::vector<std::uint32_t> free_jobs;
  std::map<std::uint32_t, std::vector<std::uint32_t>> free_spans;
  Cluster cluster;
  stats::Rng rng;
  storage::BackendState local_backend;
  storage::BackendState shared_backend;
  double pending_min_mb = 0.0;
  std::vector<sched::PendingJob> sched_queue;
  std::vector<sched::RunningJob> sched_running;
  std::vector<std::uint32_t> sched_stash;
  EventId sched_wake_event = TaskTable::kNoEvent;
  double next_probe_s = 0.0;
  std::uint64_t probe_running_tasks = 0;
  std::uint64_t probe_active_jobs = 0;
  double probe_wpr_sum = 0.0;
  std::uint64_t probe_wpr_n = 0;
  SimResult result;
  /// Base detection delay at capture (resume overrides may replace it).
  double detection_delay_s = 0.0;
  /// Source jobs consumed before the fork point; a resumed run re-opens
  /// the (deterministic) source and discards exactly this many jobs.
  std::uint64_t jobs_admitted = 0;
  /// Engine time when the snapshot was taken.
  double taken_at = 0.0;

  /// Rough heap footprint of the captured state, for
  /// svc::ServiceStats::snapshot_bytes. Estimate, not an allocator census.
  [[nodiscard]] std::size_t approx_bytes() const;
};

/// What-if knobs a resumed run may change relative to its base spec.
/// Everything else (trace, cluster, storage device, placement, seeds) is
/// baked into the captured state and cannot be overridden — see
/// docs/service.md for the rationale per field.
struct ResumeOverrides {
  /// Checkpoint policy for tasks *dispatched after the fork* (must outlive
  /// the resumed run). Tasks already running keep the base policy — their
  /// controllers were constructed against it. Null keeps the base policy.
  const core::CheckpointPolicy* policy = nullptr;
  /// Failure-detection latency from the fork onward.
  std::optional<double> detection_delay_s;
};

/// Snapshot out and what-if in for Simulation::run_stream. The default
/// (both pointers null) is a plain replay from zero.
struct RunControl {
  /// Non-null: captures the run into *capture just before admitting the
  /// first job whose arrival is at or beyond `fork_at` (or after the last
  /// admission when no such job exists). Capturing only copies state, so
  /// the run's result is unchanged.
  SimSnapshot* capture = nullptr;
  double fork_at = 0.0;
  /// Non-null: restarts from this snapshot instead of from zero, against a
  /// *fresh* source over the same trace (its first jobs_admitted jobs are
  /// discarded), applying `overrides` from the fork onward. With empty
  /// overrides the result is bit-identical to the run that took it.
  const SimSnapshot* resume_from = nullptr;
  ResumeOverrides overrides;
};

/// Replays one trace under one policy. Runs are reusable: every run from
/// zero resets the workspace, cluster, RNG, and storage backends, so
/// consecutive runs are bit-identical to fresh constructions.
///
/// run_stream holds the one admission loop. It pulls arrival-ordered jobs
/// from a JobSource in chunks and admits them *lazily*: the engine drains
/// events up to the next arrival instant, then injects the job at its own
/// timestamp (Engine::run_until_before / advance_to), which reproduces the
/// ordering of scheduling every arrival event up front — arrivals win ties
/// against dynamically scheduled events, in job order. Finished jobs' rows
/// are recycled, so steady-state memory is O(active tasks) + O(chunk), not
/// O(trace). run() feeds the same loop from a materialized trace through
/// TraceJobSource, so the two are bit-identical by construction.
class Simulation {
 public:
  /// Default arrival-chunk size for run_stream.
  static constexpr std::size_t kDefaultBatchJobs = 1024;

  /// \param config    simulation parameters
  /// \param policy    checkpoint-interval policy (must outlive every run)
  /// \param predictor failure-statistics source for controllers
  /// \param workspace pooled buffers to (re)use; nullptr = own workspace
  Simulation(SimConfig config, const core::CheckpointPolicy& policy,
             StatsPredictor predictor, ReplayWorkspace* workspace = nullptr);

  /// Replays the trace to completion: run_stream over a TraceJobSource.
  SimResult run(const trace::Trace& trace);

  /// Replays `source` to completion, pulling `batch_jobs` jobs per chunk.
  /// `control` optionally captures a snapshot at its fork point or resumes
  /// from one (RunControl); a resume must be called on the Simulation that
  /// captured the snapshot.
  SimResult run_stream(JobSource& source,
                       std::size_t batch_jobs = kDefaultBatchJobs,
                       const RunControl& control = {});

 private:
  /// What a queued Event does. The first six are the task wakeups of
  /// Algorithm 1's loop (target: the task row); fire() recognises them by
  /// their place before kRedispatch, so keep them first. The last two are
  /// the failure-detection redispatch of a killed task (target: its row)
  /// and the scheduler wake (target unused).
  enum class EventKind : std::uint8_t {
    kKill,
    kPriorityChange,
    kCheckpointDue,
    kCheckpointDone,
    kRestoreDone,
    kComplete,
    kRedispatch,
    kSchedWake,
  };

  /// A task's next wakeup: its kind and its delay in active time (>= 0).
  struct Wakeup {
    double delta;
    EventKind kind;
  };

  /// The queued form of `kind` acting on row `target`.
  static Event make_event(std::size_t target, EventKind kind) {
    return Event{static_cast<std::uint32_t>(target),
                 static_cast<std::uint8_t>(kind)};
  }

  using JobState = ReplayWorkspace::JobState;

  // -- run skeleton ---------------------------------------------------------
  /// Resets all pooled state for a run from zero.
  void begin_run();
  /// Copies the full mid-run state into `out` (read-only; the running
  /// simulation is not perturbed).
  void capture_snapshot(SimSnapshot& out, std::uint64_t jobs_admitted) const;
  /// Rewinds this simulation to `snap`, re-pointing the task rows at the
  /// record buffers the jobs-vector copy relocated. Leaves the engine ready
  /// to continue the admission loop from the fork point.
  void restore_snapshot(const SimSnapshot& snap);
  /// Finishes the run: drains the engine, sweeps still-active jobs, and
  /// returns the result.
  SimResult end_run();
  /// Admits one job at the current engine time, moving the record's tasks
  /// into the job slot.
  void admit_job(trace::JobRecord&& rec);
  [[nodiscard]] std::uint32_t alloc_job_slot();
  [[nodiscard]] std::size_t alloc_task_span(std::uint32_t n_tasks);
  /// Returns a finished job's rows and slot to the free pools and drops its
  /// records.
  void retire_job(std::uint32_t job_slot);

  // -- event plumbing -------------------------------------------------------
  void on_job_arrival(std::size_t job_idx);
  /// First entry of a task into the system: rejects demands no VM could ever
  /// hold (unschedulable), otherwise enqueues.
  void admit(std::size_t task_idx);
  void make_ready(std::size_t task_idx);
  void push_pending(std::size_t task_idx);
  void try_dispatch();
  bool dispatch(std::size_t task_idx);
  /// Dispatches one popped event: the one switch over every EventKind.
  void fire(Event event);
  /// Fires every queued event strictly before `t_stop` (see
  /// Engine::run_until_before); returns how many fired.
  std::size_t fire_until_before(double t_stop);
  /// The on-VM task's next wakeup from its current state. Candidates in
  /// order: kill, priority change, then the phase's own wakeup (completion
  /// and checkpoint due, restore done, or checkpoint done); the first strict
  /// minimum wins.
  [[nodiscard]] Wakeup next_wakeup(std::size_t task_idx) const;
  /// Queues wakeup `w` at `vt + w.delta`: vt is now, or the virtual wall
  /// time a checkpoint run reached.
  void schedule_wakeup(std::size_t task_idx, double vt, Wakeup w);
  /// Replaces the task's pending wakeup with its next one.
  void arm(std::size_t task_idx);

  // -- handlers (clock already synced) --------------------------------------
  void handle_kill(std::size_t task_idx);
  /// Takes an on-VM task off its VM, as a kill or an eviction does: ends
  /// its span with the `marker` instant, refunds the unspent part of a
  /// checkpoint or restore phase, rolls progress back to `keep_s` (which
  /// becomes the saved progress), and makes the next dispatch pay the
  /// restart price.
  void interrupt(std::size_t task_idx, const char* marker, double keep_s);
  void handle_priority_change(std::size_t task_idx);
  /// Begins a checkpoint, then compresses the deterministic continuation:
  /// uninterruptible done transitions, and on pure devices whole runs of
  /// further checkpoints, replay inline without engine events.
  void handle_checkpoint_due(std::size_t task_idx);
  void handle_checkpoint_done(std::size_t task_idx);
  void handle_restore_done(std::size_t task_idx);
  void handle_complete(std::size_t task_idx);

  // -- scheduling stage -------------------------------------------------------
  // Active only when config_.scheduler is a non-pass-through policy; the
  // fcfs/default path never touches any of this (golden bit-identity).
  /// Appends the job to the scheduler queue with its aggregate demand and
  /// runtime estimate (through the length predictor when configured).
  void sched_enqueue(std::uint32_t job_slot);
  /// Re-entrancy-guarded scheduler round: runs decide() and applies it.
  void sched_pump();
  void sched_pump_once();
  /// Applies the decision's evictions (descending running positions).
  void preempt_victims();
  /// Pulls one evicted job's tasks off their VMs / out of the pending queue
  /// into sched_stash_, rolling progress back per `mode`.
  void preempt_job_tasks(std::uint32_t job_slot, sched::PreemptMode mode);

  // -- observability ----------------------------------------------------------
  // Probe sampling rides the admission-loop boundary (pump_probes_before /
  // drain_probes chunk the existing engine drains at probe ticks), so it
  // adds no engine events and cannot change results. The trace_* helpers
  // emit only when SimConfig::tracer is non-null.
  /// Dispatches events and takes probe samples up to (excluding) `t_stop`,
  /// accumulating dispatched-event counts into the result.
  void pump_probes_before(double t_stop);
  /// Interleaves probe ticks with the final engine drain.
  void drain_probes();
  /// Snapshots cluster/queue/job state at simulated time `t_s`.
  void take_probe(double t_s);

  /// Per-run event tallies, flushed into the process-wide obs registry at
  /// end_run when SimConfig::collect_stats is set. Deterministic quantities
  /// only, so serial and threaded batch runs merge to identical registries.
  struct ObsTally {
    std::uint64_t placement_sweeps = 0;
    std::uint64_t rows_recycled = 0;
    std::uint64_t ckpt_compressed = 0;  ///< done transitions replayed inline
    std::uint64_t ckpt_evented = 0;     ///< done transitions via engine event
    std::uint64_t sched_decides = 0;
    std::uint64_t sched_wakeups = 0;
    std::uint64_t stream_batches = 0;
  };
  void flush_stats();
  /// Records the start of the task's current phase span (and VM residency
  /// when `vm_too`), growing the side arrays to the task table on demand.
  void trace_begin_span(std::size_t task_idx, double t, bool vm_too);
  /// Emits the task's current phase span ([recorded start, t_end]) on its
  /// job track; no-op when the phase has no span name.
  void trace_end_span(std::size_t task_idx, double t_end);
  /// Emits an instant marker (failure / evict) on the task's job track.
  void trace_instant(std::size_t task_idx, const char* name);
  /// Emits the VM-residency span ending now on the VM track.
  void trace_vm_leave(std::size_t task_idx);

  // -- helpers ---------------------------------------------------------------
  /// Accrues active (and productive) time since the last sync.
  void sync_clock(std::size_t task_idx);
  void cancel_pending_event(std::size_t task_idx);
  void leave_vm(std::size_t task_idx);
  /// Terminal-state bookkeeping shared by completion and unschedulability:
  /// advances a sequential job and finishes it when no tasks remain.
  void on_task_terminal(std::size_t task_idx);
  void finish_job(std::uint32_t job_slot);
  [[nodiscard]] storage::StorageBackend* backend_for(storage::DeviceKind kind);
  void init_controller(std::size_t task_idx);

  SimConfig config_;
  const core::CheckpointPolicy& policy_;
  /// Non-null only in a resumed run: init_controller consults it so a
  /// what-if fork can swap the policy for post-fork dispatches without
  /// reseating the reference above. Cleared by begin_run.
  const core::CheckpointPolicy* policy_override_ = nullptr;
  StatsPredictor predictor_;

  Cluster cluster_;
  stats::Rng rng_;
  /// Held by value: task rows and snapshots keep their addresses. The
  /// shared device holds the writes in flight, so the end of the run and
  /// the final probe drain read its latest write end. begin_run sets them
  /// up for each run by reassignment; the constructor's devices are
  /// placeholders.
  storage::StorageBackend local_backend_;
  storage::StorageBackend shared_backend_;

  ReplayWorkspace owned_ws_;  ///< used when no shared workspace is passed
  ReplayWorkspace& ws_;
  Engine& engine_;
  TaskTable& tasks_;

  /// Smallest memory demand among pending tasks (+inf when none): lets
  /// try_dispatch reject a sweep in O(1) while the cluster is saturated.
  double pending_min_mb_ = 0.0;

  // -- scheduling-stage state (untouched when sched_active_ is false) --------
  bool sched_active_ = false;
  double total_capacity_mb_ = 0.0;
  std::vector<sched::PendingJob> sched_queue_;    ///< held jobs, arrival order
  std::vector<sched::RunningJob> sched_running_;  ///< released, unfinished
  sched::Decision sched_decision_;                ///< reused per round
  std::vector<char> sched_released_;              ///< reused per round
  std::vector<std::uint32_t> sched_stash_;        ///< preempted tasks to requeue
  bool sched_in_pump_ = false;
  bool sched_pump_again_ = false;
  EventId sched_wake_event_ = TaskTable::kNoEvent;

  // -- observability state ----------------------------------------------------
  double next_probe_s_ = 0.0;           ///< next probe tick (probing only)
  std::uint64_t probe_running_tasks_ = 0;  ///< tasks currently on a VM
  std::uint64_t probe_active_jobs_ = 0;    ///< admitted, not yet finished
  double probe_wpr_sum_ = 0.0;  ///< running sum of completed jobs' WPR
  std::uint64_t probe_wpr_n_ = 0;
  ObsTally tally_;
  std::vector<double> trace_task_start_;  ///< phase-span start per task row
  std::vector<double> trace_vm_start_;    ///< VM-residency start per task row

  SimResult result_;
};

}  // namespace cloudcr::sim
