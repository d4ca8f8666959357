#pragma once

/// \file task_table.hpp
/// \brief Structure-of-arrays task state for the replay hot path.
///
/// Every simulation event touches a handful of scalars of one task: its
/// phase, clocks, and the precomputed date of its next failure. The original
/// engine kept those inside a ~300-byte per-task struct (controller, optional
/// event handle, accounting, record pointer), so each event dragged several
/// cache lines through the core. The TaskTable splits that state by access
/// pattern:
///
///  - the most-touched scalars — clocks, due/done phase cursor, the failure
///    cursor — are *clustered into one 64-byte HotRow*, so a wakeup
///    (sync_clock + handler + arm) touches exactly one cache line of task
///    state instead of one line per column;
///  - per-task trace constants (memory, length) are copied in at admission,
///    removing the TaskRecord pointer chase from dispatch and arm;
///  - the failure-date cursor is materialized as `hot.next_failure_date_s`,
///    so arming a wakeup never re-reads the record's failure vector;
///  - cold accounting lives in an AoS side table read mostly at job finish.
///
/// All columns are cleared-but-not-freed between runs, so a pooled workspace
/// replays trace after trace with no steady-state allocation. Rows are
/// (re)initialized via init_row, which lets the replay recycle a retired
/// job's span for a newly admitted one.

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "sim/event_queue.hpp"
#include "storage/backend.hpp"
#include "trace/records.hpp"

namespace cloudcr::sim {

/// Lifecycle of one replayed task.
enum class TaskPhase : std::uint8_t {
  kNotReady,       ///< ST successor waiting for its predecessor
  kQueued,         ///< in the pending queue
  kRestoring,      ///< paying the restart cost on a VM
  kExecuting,      ///< making productive progress
  kCheckpointing,  ///< blocked while a checkpoint is written
  kDone,
  kUnschedulable,  ///< demands more memory than any VM's total capacity
};

/// Cold per-task accounting, read when the owning job completes.
struct TaskAccounting {
  double first_ready_s = -1.0;
  double last_enqueue_s = 0.0;
  double done_s = 0.0;
  double queue_s = 0.0;
  double checkpoint_cost_s = 0.0;
  double rollback_s = 0.0;
  double restart_cost_s = 0.0;
  std::uint32_t checkpoints = 0;
  std::uint32_t failures = 0;
};

/// The per-task scalars nearly every event reads or writes, packed into a
/// single cache line: the three clocks sync_clock maintains, the due/done
/// phase cursor (phase_end_active), the checkpoint-in-flight cursor, the
/// precomputed failure cursor, and the phase/flag bytes that gate every
/// wakeup decision. One wakeup = one line of task state.
struct alignas(64) HotRow {
  double progress_s = 0.0;        ///< productive work completed
  double saved_s = 0.0;           ///< progress at last checkpoint
  double active_s = 0.0;          ///< accrued on-VM time
  double last_sync_s = 0.0;       ///< sim time of last clock sync
  double phase_end_active = 0.0;  ///< end of restore/checkpoint phase
  double ckpt_progress_s = 0.0;   ///< progress saved by in-flight ckpt
  /// Active-time date of the task's next trace failure (+inf when none):
  /// the failure cursor, precomputed at admission and advanced on each kill
  /// so arm() never searches the record's failure vector.
  double next_failure_date_s = 0.0;
  std::uint32_t next_failure = 0;  ///< index into failure_dates
  TaskPhase phase = TaskPhase::kNotReady;
  std::uint8_t flags = 0;
};
static_assert(sizeof(HotRow) == 64, "HotRow must stay one cache line");

/// SoA columns for every task of the trace being replayed.
struct TaskTable {
  static constexpr std::int32_t kNoVm = -1;
  static constexpr std::int32_t kNoHost = -1;
  static constexpr EventId kNoEvent = 0;  // EventQueue generations start at 1

  // Flag bits (HotRow::flags).
  static constexpr std::uint8_t kPayRestart = 1u << 0;
  static constexpr std::uint8_t kPriorityChangePending = 1u << 1;

  // -- hot state: one cache line per task ------------------------------------
  std::vector<HotRow> hot;

  // -- warm columns (touched on placement / event re-arm) --------------------
  std::vector<EventId> pending_event;       ///< kNoEvent when none armed
  std::vector<std::int32_t> vm;             ///< kNoVm when off-cluster
  std::vector<std::int32_t> last_failed_host;  ///< kNoHost when none

  // -- per-task trace constants (copied at admission) ------------------------
  std::vector<double> memory_mb;
  std::vector<double> length_s;
  std::vector<std::int32_t> priority;
  std::vector<std::uint32_t> job;              ///< owning job slot
  std::vector<const trace::TaskRecord*> rec;   ///< cold-path record access

  // -- controllers and device bindings ---------------------------------------
  std::vector<std::optional<core::CheckpointController>> controller;
  std::vector<storage::StorageBackend*> backend;
  /// Contention-free checkpoint price on the chosen device — a pure function
  /// of (device, footprint), cached at controller init so each checkpoint
  /// skips the calibration curves.
  std::vector<storage::CheckpointPrice> ckpt_price;
  /// Restart cost from the chosen device (same pure-function caching).
  std::vector<double> restart_price_s;

  // -- cold accounting -------------------------------------------------------
  std::vector<TaskAccounting> acct;

  [[nodiscard]] std::size_t size() const noexcept { return hot.size(); }

  void clear() noexcept {
    hot.clear();
    pending_event.clear();
    vm.clear();
    last_failed_host.clear();
    memory_mb.clear();
    length_s.clear();
    priority.clear();
    job.clear();
    rec.clear();
    controller.clear();
    backend.clear();
    ckpt_price.clear();
    restart_price_s.clear();
    acct.clear();
  }

  /// Grows every column to `n` rows (values are set by init_row; a row is
  /// never read before it is initialized).
  void resize(std::size_t n) {
    hot.resize(n);
    pending_event.resize(n);
    vm.resize(n);
    last_failed_host.resize(n);
    memory_mb.resize(n);
    length_s.resize(n);
    priority.resize(n);
    job.resize(n);
    rec.resize(n);
    controller.resize(n);
    backend.resize(n);
    ckpt_price.resize(n);
    restart_price_s.resize(n);
    acct.resize(n);
  }

  /// (Re)initializes row `idx` from its trace record — used both for fresh
  /// rows and for rows recycled from a retired job's span, so it must
  /// reset *every* column.
  void init_row(std::size_t idx, const trace::TaskRecord& record,
                std::uint32_t job_idx) {
    HotRow& h = hot[idx];
    h = HotRow{};
    h.flags = record.has_priority_change() ? kPriorityChangePending
                                           : std::uint8_t{0};
    h.next_failure_date_s = record.failure_dates.empty()
                                ? std::numeric_limits<double>::infinity()
                                : record.failure_dates.front();
    pending_event[idx] = kNoEvent;
    vm[idx] = kNoVm;
    last_failed_host[idx] = kNoHost;
    memory_mb[idx] = record.memory_mb;
    length_s[idx] = record.length_s;
    priority[idx] = record.priority;
    job[idx] = job_idx;
    rec[idx] = &record;
    controller[idx].reset();
    backend[idx] = nullptr;
    ckpt_price[idx] = storage::CheckpointPrice{};
    restart_price_s[idx] = 0.0;
    acct[idx] = TaskAccounting{};
  }

  /// Advances the failure cursor of task `idx` past the failure just
  /// consumed.
  void advance_failure_cursor(std::size_t idx) noexcept {
    const trace::TaskRecord& record = *rec[idx];
    HotRow& h = hot[idx];
    const std::uint32_t next = ++h.next_failure;
    h.next_failure_date_s =
        next < record.failure_dates.size()
            ? record.failure_dates[next]
            : std::numeric_limits<double>::infinity();
  }
};

}  // namespace cloudcr::sim
