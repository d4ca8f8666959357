#pragma once

/// \file scenario.hpp
/// \brief Declarative description of one paired-trace experiment.
///
/// The paper's evaluation is a grid: policy x predictor x placement x
/// adaptation x shared device x horizon. A ScenarioSpec captures one cell of
/// that grid as plain, serializable data — no live objects, no lambdas — so
/// experiments can be enumerated, logged, re-run bit-identically, and
/// distributed across a thread pool (api::BatchRunner). Policies and
/// predictors are referenced by registry name (api::PolicyRegistry /
/// api::PredictorRegistry), so new strategies plug in without touching any
/// call site.

#include <charconv>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/controller.hpp"
#include "obs/spec.hpp"
#include "sim/config.hpp"
#include "storage/calibration.hpp"
#include "trace/estimators.hpp"
#include "trace/generator.hpp"

namespace cloudcr::api {

/// Trace-generation parameters for one run: everything the synthetic
/// generator needs plus the replay-side length restriction the paper applies
/// to its sample jobs (Fig 8's <= 6 h envelope, Fig 11's RL classes).
struct TraceSpec {
  /// Workload origin, as an ingest::TraceSourceRegistry spec: "synthetic"
  /// (the built-in generator, shaped by the fields below), "csv:<path>"
  /// (user CSV with a declarative column mapping), "google:<path>"
  /// (task_events-style cluster logs), or "slurm:<path>" (Slurm-style
  /// whitespace tables). For external sources the log decides
  /// horizon and arrivals — seed/horizon_s/arrival_rate here are ignored —
  /// while sample_job_filter, max_jobs, and replay_max_task_length_s still
  /// apply on top of the ingested trace.
  std::string source = "synthetic";

  std::uint64_t seed = 42;
  double horizon_s = 86400.0;
  double arrival_rate = 0.116;
  std::size_t max_jobs = 0;  ///< hard cap (0 = unlimited)
  bool sample_job_filter = true;
  bool priority_change_midway = false;

  /// Fraction of long-running service tasks; negative keeps the workload
  /// model's default (0.03).
  double long_service_fraction = -1.0;

  /// Jobs whose longest task exceeds this are excluded from the *replay*
  /// set (estimation may still see them via EstimationSource::kFull).
  double replay_max_task_length_s = trace::kNoLengthLimit;

  /// Member-wise; a field added above is compared without further edits.
  bool operator==(const TraceSpec&) const = default;
};

/// Which trace feeds the failure-statistics estimation.
enum class EstimationSource : std::uint8_t {
  kReplay,   ///< the (length-restricted) replay set itself
  kFull,     ///< the unrestricted generation of the same TraceSpec — this is
             ///< how the paper's Fig 9/10 estimates include service-class
             ///< tasks whose Pareto tails inflate MTBF
  kHistory,  ///< a separate trace described by ScenarioSpec::history
             ///< (the Fig 14 change-free history)
};

/// One fully-described experiment run.
struct ScenarioSpec {
  /// Free-form label echoed into artifacts ("fig09_formula3", ...).
  std::string name;

  TraceSpec trace;

  /// Policy registry key, optionally with an argument: "formula3", "young",
  /// "daly", "none", "fixed:45".
  std::string policy = "formula3";

  /// Predictor registry key, optionally with a length-limit argument:
  /// "oracle", "grouped", "grouped:1000", "submission".
  std::string predictor = "grouped";

  /// Scheduler registry key (sched::SchedulerRegistry): "fcfs" (the
  /// default, bit-identical to the engine without a scheduling stage),
  /// "backfill:easy", "backfill:conservative", "preempt:requeue",
  /// "preempt:ckpt".
  std::string sched = "fcfs";

  EstimationSource estimation = EstimationSource::kReplay;

  /// Estimation trace when estimation == kHistory; ignored otherwise.
  TraceSpec history;

  sim::PlacementMode placement = sim::PlacementMode::kAutoSelect;
  core::AdaptationMode adaptation = core::AdaptationMode::kAdaptive;
  storage::DeviceKind shared_device = storage::DeviceKind::kDmNfs;
  double storage_noise = 0.0;

  /// Seed for the run's stochastic components (storage noise, DM-NFS server
  /// selection) — independent of the trace seed, as in SimConfig.
  std::uint64_t sim_seed = 0x5eed;
  double detection_delay_s = 0.0;

  sim::ClusterConfig cluster = {};

  /// Observability configuration (counters / probes / tracing) — see
  /// obs::ObsSpec for the `obs=` value grammar. Default-constructed means
  /// fully disabled; never affects simulation results either way.
  obs::ObsSpec obs;

  /// Member-wise (what parse(serialize(s)) == s checks); a field added
  /// above is compared without further edits.
  bool operator==(const ScenarioSpec&) const = default;
};

// -- enum token helpers (used by the serializer and CLI frontends) ----------

/// "auto" | "local" | "shared".
const char* placement_token(sim::PlacementMode mode) noexcept;
sim::PlacementMode parse_placement(const std::string& token);

/// "adaptive" | "static".
const char* adaptation_token(core::AdaptationMode mode) noexcept;
core::AdaptationMode parse_adaptation(const std::string& token);

/// "local_ramdisk" | "shared_nfs" | "dm_nfs".
const char* device_token(storage::DeviceKind kind) noexcept;
storage::DeviceKind parse_device(const std::string& token);

/// "replay" | "full" | "history".
const char* estimation_token(EstimationSource source) noexcept;
EstimationSource parse_estimation(const std::string& token);

// -- checked number parsing --------------------------------------------------
// Shared by the serializer, the registries, and the bench CLI so validation
// (trailing garbage, unsigned wraparound of negative input) lives in one
// place.

/// Parses a double, rejecting empty input and trailing garbage. Throws
/// std::invalid_argument naming `label`.
double parse_checked_double(const std::string& label, const std::string& text);

/// Parses an unsigned integer, additionally rejecting signs (strtoull would
/// silently wrap negative input). Throws std::invalid_argument.
std::uint64_t parse_checked_u64(const std::string& label,
                                const std::string& text);

/// Runs `fn`, rephrasing any std::invalid_argument it throws as
/// "scenario key '<key>' = '<value>': <original message>". Registry
/// lookups driven by a spec field (policy=, predictor=, sched=,
/// trace.source=, obs=) go through this so an unknown or malformed value
/// always reports which scenario key carried it.
template <typename Fn>
auto with_key_context(const char* key, const std::string& value, Fn&& fn) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("scenario key '") + key +
                                "' = '" + value + "': " + e.what());
  }
}

// -- canonical number formatting ---------------------------------------------
// What serialize() and the cache keys write, via std::to_chars: no locale.

/// Appends `v` as "%.17g" (max_digits10, so parse_checked_double reads back
/// every bit), e.g. "0.080000000000000002", "-0", "inf".
void append_double(std::string& out, double v);

/// Appends the integer `v` as plain digits in `base` (lower-case hex).
template <typename Int>
void append_int(std::string& out, Int v, int base = 10) {
  char buf[std::numeric_limits<Int>::digits + 2];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, base).ptr);
}

// -- serialization -----------------------------------------------------------
//
// The `key=value` grammar (what artifact files embed and parse_scenario
// accepts): one pair per line, keys in fixed order, values escaped with
// `\n` -> "\n" and `\` -> "\\". Trace fields are prefixed `trace.`, the
// Fig-14-style history trace `history.`, cluster fields `cluster.`:
//
//   name=<string>
//   trace.source=<registry spec>          synthetic | csv:<p>[?m] | google:<p>[?o] | slurm:<p>[?o]
//   trace.seed=<u64>          trace.horizon_s=<double>
//   trace.arrival_rate=<double>           trace.max_jobs=<u64>
//   trace.sample_job_filter=<bool>        trace.priority_change_midway=<bool>
//   trace.long_service_fraction=<double>  trace.replay_max_task_length_s=<double>
//   policy=<registry key>                 formula3 | young | daly | none | fixed:<s>
//   predictor=<registry key>              oracle | grouped[:limit] | submission[:limit]
//   sched=<registry key>                  fcfs | backfill[:easy|:conservative] | preempt[:requeue|:ckpt]
//   estimation=replay|full|history
//   history.<same keys as trace.>         (only meaningful with estimation=history)
//   placement=auto|local|shared           adaptation=adaptive|static
//   shared_device=local_ramdisk|shared_nfs|dm_nfs
//   storage_noise=<double>                sim_seed=<u64>
//   detection_delay_s=<double>
//   shards=<u64 in [1,4096]>              accepted and ignored (old artifacts)
//   cluster.hosts=<u64> cluster.vms_per_host=<u64> cluster.vm_memory_mb=<double>
//   obs=<obs spec>                        '+'-joined features, e.g.
//                                         stats+probe:60+trace:out.json
//                                         (grammar in obs/spec.hpp)
//
// Bools serialize as true/false (parse also accepts 1/0). Unlisted keys
// keep their defaults on parse; unknown keys throw — so an artifact from a
// newer schema fails loudly instead of silently dropping a field. A value
// that would replay wrongly throws too, naming its key: storage_noise
// outside [0, 1), a NaN, infinite or negative detection_delay_s, a NaN or
// infinite cluster.vm_memory_mb, and a NaN or non-positive
// replay_max_task_length_s (inf means no limit).

/// Serializes a spec as newline-separated `key=value` pairs (grammar
/// above). Doubles are printed with max_digits10 precision so
/// parse(serialize(s)) reproduces every field bit-exactly.
std::string serialize(const ScenarioSpec& spec);

/// Inverse of serialize(). Unlisted keys keep their defaults; unknown keys
/// or malformed values throw std::invalid_argument.
ScenarioSpec parse_scenario(const std::string& text);

// -- lowering to the simulation layer ---------------------------------------

/// Generator config for the *unrestricted* trace of `spec` (the replay
/// length restriction is applied separately by api::make_replay_trace).
trace::GeneratorConfig to_generator_config(const TraceSpec& spec);

/// SimConfig carrying every scenario field the simulator consumes (the
/// length-predictor hook, which is not serializable, is supplied at run time
/// through api::RunHooks).
sim::SimConfig to_sim_config(const ScenarioSpec& spec);

}  // namespace cloudcr::api
