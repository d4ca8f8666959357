#include "api/scenario.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "trace/csv.hpp"

namespace cloudcr::api {

namespace {

double parse_double(const std::string& key, const std::string& value) {
  return parse_checked_double("scenario key '" + key + "'", value);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  return parse_checked_u64("scenario key '" + key + "'", value);
}

std::string unescape_string(const std::string& key, const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size() || (s[i + 1] != '\\' && s[i + 1] != 'n')) {
      throw std::invalid_argument("scenario key '" + key +
                                  "': bad escape in '" + s + "'");
    }
    out += s[++i] == 'n' ? '\n' : '\\';
  }
  return out;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  throw std::invalid_argument("scenario key '" + key +
                              "': malformed bool '" + value + "'");
}

/// Appends `<prefix><name>=<value>` lines of the spec grammar to `out`.
struct LineWriter {
  std::string& out;
  std::string_view prefix;

  std::string& key(std::string_view name) {
    return out.append(prefix).append(name) += '=';
  }
  /// The grammar is line-oriented, so free-form strings (name, policy,
  /// predictor) escape backslash and newline to keep the documented
  /// parse(serialize(s)) round-trip exact for every field.
  void text(std::string_view name, std::string_view value) {
    key(name);
    for (const char c : value) {
      if (c == '\\') {
        out += "\\\\";
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '\n';
  }
  void flag(std::string_view name, bool value) {
    text(name, value ? "true" : "false");
  }
  void real(std::string_view name, double value) {
    append_double(key(name), value);
    out += '\n';
  }
  void count(std::string_view name, std::uint64_t value) {
    append_int(key(name), value);
    out += '\n';
  }
};

void serialize_trace(LineWriter w, const TraceSpec& t) {
  w.text("source", t.source);
  w.count("seed", t.seed);
  w.real("horizon_s", t.horizon_s);
  w.real("arrival_rate", t.arrival_rate);
  w.count("max_jobs", t.max_jobs);
  w.flag("sample_job_filter", t.sample_job_filter);
  w.flag("priority_change_midway", t.priority_change_midway);
  w.real("long_service_fraction", t.long_service_fraction);
  w.real("replay_max_task_length_s", t.replay_max_task_length_s);
}

/// Applies one `key=value` pair to a TraceSpec; returns false if the key is
/// not a TraceSpec field.
bool apply_trace_key(TraceSpec& t, const std::string& key,
                     const std::string& value) {
  if (key == "source") {
    t.source = unescape_string(key, value);
  } else if (key == "seed") {
    t.seed = parse_u64(key, value);
  } else if (key == "horizon_s") {
    t.horizon_s = parse_double(key, value);
  } else if (key == "arrival_rate") {
    t.arrival_rate = parse_double(key, value);
  } else if (key == "max_jobs") {
    t.max_jobs = static_cast<std::size_t>(parse_u64(key, value));
  } else if (key == "sample_job_filter") {
    t.sample_job_filter = parse_bool(key, value);
  } else if (key == "priority_change_midway") {
    t.priority_change_midway = parse_bool(key, value);
  } else if (key == "long_service_fraction") {
    t.long_service_fraction = parse_double(key, value);
  } else if (key == "replay_max_task_length_s") {
    t.replay_max_task_length_s = parse_double(key, value);
  } else {
    return false;
  }
  return true;
}

}  // namespace

// Both delegate to the shared trace::csv field parsers (line number 0 omits
// the line clause, so messages keep their historical shape), converting the
// reader-level runtime_error to this API's invalid_argument.

double parse_checked_double(const std::string& label,
                            const std::string& text) {
  try {
    return trace::csv::parse_double(label, text, 0);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(e.what());
  }
}

std::uint64_t parse_checked_u64(const std::string& label,
                                const std::string& text) {
  try {
    return trace::csv::parse_u64(label, text, 0);
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument(e.what());
  }
}

void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general,
                                std::numeric_limits<double>::max_digits10)
                      .ptr);
}

const char* placement_token(sim::PlacementMode mode) noexcept {
  switch (mode) {
    case sim::PlacementMode::kForceLocal:
      return "local";
    case sim::PlacementMode::kForceShared:
      return "shared";
    case sim::PlacementMode::kAutoSelect:
      break;
  }
  return "auto";
}

sim::PlacementMode parse_placement(const std::string& token) {
  if (token == "auto") return sim::PlacementMode::kAutoSelect;
  if (token == "local") return sim::PlacementMode::kForceLocal;
  if (token == "shared") return sim::PlacementMode::kForceShared;
  throw std::invalid_argument("unknown placement '" + token +
                              "' (want auto|local|shared)");
}

const char* adaptation_token(core::AdaptationMode mode) noexcept {
  return mode == core::AdaptationMode::kStatic ? "static" : "adaptive";
}

core::AdaptationMode parse_adaptation(const std::string& token) {
  if (token == "adaptive") return core::AdaptationMode::kAdaptive;
  if (token == "static") return core::AdaptationMode::kStatic;
  throw std::invalid_argument("unknown adaptation '" + token +
                              "' (want adaptive|static)");
}

const char* device_token(storage::DeviceKind kind) noexcept {
  switch (kind) {
    case storage::DeviceKind::kLocalRamdisk:
      return "local_ramdisk";
    case storage::DeviceKind::kSharedNfs:
      return "shared_nfs";
    case storage::DeviceKind::kDmNfs:
      break;
  }
  return "dm_nfs";
}

storage::DeviceKind parse_device(const std::string& token) {
  if (token == "local_ramdisk") return storage::DeviceKind::kLocalRamdisk;
  if (token == "shared_nfs") return storage::DeviceKind::kSharedNfs;
  if (token == "dm_nfs") return storage::DeviceKind::kDmNfs;
  throw std::invalid_argument(
      "unknown device '" + token + "' (want local_ramdisk|shared_nfs|dm_nfs)");
}

const char* estimation_token(EstimationSource source) noexcept {
  switch (source) {
    case EstimationSource::kFull:
      return "full";
    case EstimationSource::kHistory:
      return "history";
    case EstimationSource::kReplay:
      break;
  }
  return "replay";
}

EstimationSource parse_estimation(const std::string& token) {
  if (token == "replay") return EstimationSource::kReplay;
  if (token == "full") return EstimationSource::kFull;
  if (token == "history") return EstimationSource::kHistory;
  throw std::invalid_argument("unknown estimation source '" + token +
                              "' (want replay|full|history)");
}

std::string serialize(const ScenarioSpec& spec) {
  std::string out;
  LineWriter w{out, ""};
  w.text("name", spec.name);
  serialize_trace({out, "trace."}, spec.trace);
  w.text("policy", spec.policy);
  w.text("predictor", spec.predictor);
  w.text("sched", spec.sched);
  w.text("estimation", estimation_token(spec.estimation));
  serialize_trace({out, "history."}, spec.history);
  w.text("placement", placement_token(spec.placement));
  w.text("adaptation", adaptation_token(spec.adaptation));
  w.text("shared_device", device_token(spec.shared_device));
  w.real("storage_noise", spec.storage_noise);
  w.count("sim_seed", spec.sim_seed);
  w.real("detection_delay_s", spec.detection_delay_s);
  w.count("cluster.hosts", spec.cluster.hosts);
  w.count("cluster.vms_per_host", spec.cluster.vms_per_host);
  w.real("cluster.vm_memory_mb", spec.cluster.vm_memory_mb);
  w.text("obs", obs::serialize_obs(spec.obs));
  return out;
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("scenario line without '=': '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);

    if (key.rfind("trace.", 0) == 0) {
      if (!apply_trace_key(spec.trace, key.substr(6), value)) {
        throw std::invalid_argument("unknown scenario key '" + key + "'");
      }
    } else if (key.rfind("history.", 0) == 0) {
      if (!apply_trace_key(spec.history, key.substr(8), value)) {
        throw std::invalid_argument("unknown scenario key '" + key + "'");
      }
    } else if (key == "name") {
      spec.name = unescape_string(key, value);
    } else if (key == "policy") {
      spec.policy = unescape_string(key, value);
    } else if (key == "predictor") {
      spec.predictor = unescape_string(key, value);
    } else if (key == "sched") {
      spec.sched = unescape_string(key, value);
    } else if (key == "estimation") {
      spec.estimation = with_key_context(
          "estimation", value, [&] { return parse_estimation(value); });
    } else if (key == "placement") {
      spec.placement = with_key_context(
          "placement", value, [&] { return parse_placement(value); });
    } else if (key == "adaptation") {
      spec.adaptation = with_key_context(
          "adaptation", value, [&] { return parse_adaptation(value); });
    } else if (key == "shared_device") {
      spec.shared_device = with_key_context(
          "shared_device", value, [&] { return parse_device(value); });
    } else if (key == "storage_noise") {
      spec.storage_noise = parse_double(key, value);
    } else if (key == "sim_seed") {
      spec.sim_seed = parse_u64(key, value);
    } else if (key == "detection_delay_s") {
      spec.detection_delay_s = parse_double(key, value);
      // An infinite delay never lets the replay end; NaN and negative
      // delays would replay as zero under a cache key of their own.
      if (!std::isfinite(spec.detection_delay_s) ||
          spec.detection_delay_s < 0.0) {
        throw std::invalid_argument("scenario key 'detection_delay_s' = '" +
                                    value + "': must be finite and >= 0");
      }
    } else if (key == "shards") {
      // Retired key: artifacts written while sharded replay existed carry
      // it. Still validated so a malformed value fails as it always did.
      const std::uint64_t n = parse_u64(key, value);
      if (n < 1 || n > 4096) {
        throw std::invalid_argument("scenario key 'shards' = '" + value +
                                    "': must be in [1, 4096]");
      }
    } else if (key == "cluster.hosts") {
      spec.cluster.hosts = static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "cluster.vms_per_host") {
      spec.cluster.vms_per_host =
          static_cast<std::size_t>(parse_u64(key, value));
    } else if (key == "cluster.vm_memory_mb") {
      spec.cluster.vm_memory_mb = parse_double(key, value);
    } else if (key == "obs") {
      const std::string raw = unescape_string(key, value);
      spec.obs =
          with_key_context("obs", raw, [&] { return obs::parse_obs(raw); });
    } else {
      throw std::invalid_argument("unknown scenario key '" + key + "'");
    }
  }
  return spec;
}

trace::GeneratorConfig to_generator_config(const TraceSpec& spec) {
  trace::GeneratorConfig cfg;
  cfg.seed = spec.seed;
  cfg.horizon_s = spec.horizon_s;
  cfg.arrival_rate = spec.arrival_rate;
  cfg.max_jobs = spec.max_jobs;
  cfg.sample_job_filter = spec.sample_job_filter;
  cfg.priority_change_midway = spec.priority_change_midway;
  if (spec.long_service_fraction >= 0.0) {
    cfg.workload.long_service_fraction = spec.long_service_fraction;
  }
  return cfg;
}

sim::SimConfig to_sim_config(const ScenarioSpec& spec) {
  sim::SimConfig cfg;
  cfg.cluster = spec.cluster;
  cfg.shared_kind = spec.shared_device;
  cfg.placement = spec.placement;
  cfg.adaptation = spec.adaptation;
  cfg.storage_noise = spec.storage_noise;
  cfg.seed = spec.sim_seed;
  cfg.detection_delay_s = spec.detection_delay_s;
  cfg.probe_interval_s = spec.obs.probe_interval_s;
  cfg.collect_stats = spec.obs.stats;
  return cfg;
}

}  // namespace cloudcr::api
