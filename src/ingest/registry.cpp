#include "ingest/registry.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ingest/csv_source.hpp"
#include "ingest/google_source.hpp"
#include "ingest/slurm_source.hpp"
#include "ingest/synthetic_source.hpp"

namespace cloudcr::ingest {

namespace {

/// Splits a file-backed source argument "path[?query]" and rejects empty
/// paths.
std::pair<std::string, std::string> split_path_query(
    const std::string& scheme, const std::string& arg) {
  const auto qmark = arg.find('?');
  const std::string path =
      qmark == std::string::npos ? arg : arg.substr(0, qmark);
  const std::string query =
      qmark == std::string::npos ? "" : arg.substr(qmark + 1);
  if (path.empty()) {
    throw std::invalid_argument("source " + scheme +
                                ": a path is required, e.g. '" + scheme +
                                ":/data/trace.csv'");
  }
  return {path, query};
}

}  // namespace

SourceSpec split_source_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return {spec, ""};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

TraceSourceRegistry::TraceSourceRegistry() {
  add("synthetic",
      [](const std::string& arg, const SourceEnv& env) -> SourcePtr {
        if (!arg.empty()) {
          throw std::invalid_argument(
              "source synthetic: takes no argument (generation parameters "
              "come from the TraceSpec), got '" +
              arg + "'");
        }
        return std::make_unique<SyntheticSource>(env.generator);
      });
  add("csv", [](const std::string& arg, const SourceEnv&) -> SourcePtr {
    auto [path, query] = split_path_query("csv", arg);
    return std::make_unique<MappedCsvSource>(std::move(path),
                                             parse_mapping(query));
  });
  add("google", [](const std::string& arg, const SourceEnv&) -> SourcePtr {
    auto [path, query] = split_path_query("google", arg);
    return std::make_unique<GoogleTraceSource>(std::move(path),
                                               parse_google_options(query));
  });
  add("slurm", [](const std::string& arg, const SourceEnv&) -> SourcePtr {
    auto [path, query] = split_path_query("slurm", arg);
    return std::make_unique<SlurmTraceSource>(std::move(path),
                                              parse_slurm_options(query));
  });
}

TraceSourceRegistry& TraceSourceRegistry::instance() {
  static TraceSourceRegistry registry;
  return registry;
}

TraceSourceRegistry TraceSourceRegistry::with_builtins() {
  return TraceSourceRegistry();
}

void TraceSourceRegistry::add(const std::string& scheme, Factory factory) {
  const std::lock_guard<std::mutex> lock(mutex_);
  factories_[scheme] = std::move(factory);
}

bool TraceSourceRegistry::contains(const std::string& scheme) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(split_source_spec(scheme).scheme) > 0;
}

std::vector<std::string> TraceSourceRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [scheme, factory] : factories_) out.push_back(scheme);
  return out;
}

SourcePtr TraceSourceRegistry::make(const std::string& spec,
                                    const SourceEnv& env) const {
  const auto [scheme, arg] = split_source_spec(spec);
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(scheme);
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::ostringstream os;
    os << "unknown trace source '" << scheme << "' (registered:";
    for (const auto& n : names()) os << ' ' << n;
    os << ")";
    throw std::invalid_argument(os.str());
  }
  return factory(arg, env);
}

}  // namespace cloudcr::ingest
