#pragma once

/// \file registry.hpp
/// \brief String-keyed factory for trace sources.
///
/// A TraceSpec names its workload origin with a source spec of the form
/// `scheme` or `scheme:arg`:
///
///   synthetic                                   the built-in generator
///   csv:<path>[?<column mapping>]               MappedCsvSource
///   google:<path>[?<options>]                   GoogleTraceSource
///
/// mirroring api::PolicyRegistry / api::PredictorRegistry: new source kinds
/// register once and become available to every ScenarioSpec, bench
/// (--trace), and example without touching any call site. The part after
/// the first ':' is the factory's argument; for the file-backed built-ins
/// an optional '?' query carries the declarative mapping/options
/// (csv_source.hpp, google_source.hpp).
///
/// Synthesizing sources (the "synthetic" scheme) take their generation
/// parameters from the SourceEnv the caller supplies — api::make_trace
/// lowers them from the owning TraceSpec.

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ingest/source.hpp"
#include "trace/generator.hpp"

namespace cloudcr::ingest {

/// Splits "scheme:arg" into {scheme, arg} ("" when no ':' is present).
struct SourceSpec {
  std::string scheme;
  std::string arg;
};
SourceSpec split_source_spec(const std::string& spec);

/// Caller-supplied context for sources that synthesize rather than parse.
struct SourceEnv {
  trace::GeneratorConfig generator = {};
};

/// Thread-safe factory registry; the singleton comes pre-seeded with the
/// built-ins: synthetic, csv:<path>, google:<path>.
class TraceSourceRegistry {
 public:
  using Factory =
      std::function<SourcePtr(const std::string& arg, const SourceEnv& env)>;

  /// Process-wide registry used by api::make_trace and the bench CLI.
  static TraceSourceRegistry& instance();

  /// Registers (or replaces) a factory under `scheme`.
  void add(const std::string& scheme, Factory factory);

  [[nodiscard]] bool contains(const std::string& scheme) const;

  /// Registered schemes, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Builds the source for a spec like "google:/logs/task_events.csv".
  /// Throws std::invalid_argument for unknown schemes (the message lists
  /// the registered ones) or factory-rejected arguments. Construction never
  /// touches the filesystem — errors there surface from load().
  [[nodiscard]] SourcePtr make(const std::string& spec,
                               const SourceEnv& env = {}) const;

  /// Fresh registry with the built-ins only (for tests).
  static TraceSourceRegistry with_builtins();

 private:
  TraceSourceRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

}  // namespace cloudcr::ingest
