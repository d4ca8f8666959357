#pragma once

/// \file spec.hpp
/// \brief Serializable per-scenario observability configuration.
///
/// ObsSpec is the plain-data face of the obs layer: what a ScenarioSpec
/// carries under its `obs=` key and what the bench flags (--stats,
/// --probe-interval, --trace-out) lower into. The value grammar is a
/// single line of '+'-joined features:
///
///   stats                 collect the counter registry for this run
///   probe:<interval_s>    sample a ProbeSample every <interval_s> sim-s
///   trace:<path>          write a Chrome trace-event JSON to <path>
///                         ("{name}" in the path expands to the spec name)
///   window:<t0>-<t1>      simulated-time trace window ("inf" allowed)
///   cats:<c1|c2|...>      trace category filter (phase, job, task, vm)
///   ring:<n>              trace ring-buffer capacity (events)
///
/// The empty string (the default) disables everything. serialize_obs emits
/// features in the order above, omitting defaults, with doubles at
/// max_digits10 precision so parse_obs(serialize_obs(s)) round-trips every
/// field bit-exactly.

#include <cstdint>
#include <limits>
#include <string>

namespace cloudcr::obs {

struct ObsSpec {
  bool stats = false;
  double probe_interval_s = 0.0;  ///< 0 disables probing
  std::string trace_path;         ///< empty disables tracing
  double trace_window_begin_s = 0.0;
  double trace_window_end_s = std::numeric_limits<double>::infinity();
  std::string trace_categories;  ///< "" = all; else e.g. "job|vm"
  std::uint64_t trace_ring = 65536;
};

/// True when any feature is on.
bool enabled(const ObsSpec& spec) noexcept;

/// Canonical single-line value (grammar above); "" for a default spec.
std::string serialize_obs(const ObsSpec& spec);

/// Inverse of serialize_obs. Throws std::invalid_argument on unknown
/// features or malformed values.
ObsSpec parse_obs(const std::string& text);

bool operator==(const ObsSpec& a, const ObsSpec& b) noexcept;
inline bool operator!=(const ObsSpec& a, const ObsSpec& b) noexcept {
  return !(a == b);
}

}  // namespace cloudcr::obs
