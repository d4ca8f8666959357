#include "api/artifact_io.hpp"

#include <fstream>
#include <ostream>

#include "metrics/export.hpp"
#include "obs/probe.hpp"

namespace cloudcr::api {

namespace {

using metrics::json_double;
using metrics::json_quote;

/// RFC 4180 quoting for the free-form spec strings (names may contain
/// commas or quotes; the enum tokens and numbers never do).
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_spec_json(std::ostream& os, const ScenarioSpec& spec) {
  os << "{\"name\":" << json_quote(spec.name)
     << ",\"policy\":" << json_quote(spec.policy)
     << ",\"predictor\":" << json_quote(spec.predictor)
     << ",\"estimation\":" << json_quote(estimation_token(spec.estimation))
     << ",\"placement\":" << json_quote(placement_token(spec.placement))
     << ",\"adaptation\":" << json_quote(adaptation_token(spec.adaptation))
     << ",\"shared_device\":" << json_quote(device_token(spec.shared_device))
     << ",\"trace_seed\":" << spec.trace.seed
     << ",\"horizon_s\":" << json_double(spec.trace.horizon_s)
     << ",\"sim_seed\":" << spec.sim_seed
     << ",\"serialized\":" << json_quote(serialize(spec)) << "}";
}

}  // namespace

void write_artifact_json(std::ostream& os, const RunArtifact& artifact,
                         bool include_outcomes) {
  const auto& r = artifact.result;
  os << "{\"spec\":";
  write_spec_json(os, artifact.spec);
  os << ",\"trace_jobs\":" << artifact.trace_jobs
     << ",\"trace_tasks\":" << artifact.trace_tasks
     << ",\"completed_jobs\":" << r.outcomes.size()
     << ",\"incomplete_jobs\":" << r.incomplete_jobs
     << ",\"total_checkpoints\":" << r.total_checkpoints
     << ",\"total_failures\":" << r.total_failures
     << ",\"events_dispatched\":" << r.events_dispatched
     << ",\"makespan_s\":" << json_double(r.makespan_s)
     << ",\"average_wpr\":" << json_double(r.average_wpr())
     << ",\"lowest_wpr\":" << json_double(metrics::lowest_wpr(r.outcomes))
     << ",\"wall_time_s\":" << json_double(artifact.wall_time_s);
  // Observability fields are sparse: omitted entirely when disabled, so
  // documents from uninstrumented runs stay byte-identical to before the
  // obs layer existed.
  if (artifact.estimation_wall_s > 0.0) {
    os << ",\"estimation_wall_s\":" << json_double(artifact.estimation_wall_s);
  }
  if (artifact.peak_rss_mb > 0.0) {
    os << ",\"peak_rss_mb\":" << json_double(artifact.peak_rss_mb);
  }
  if (!r.probes.empty()) {
    os << ",\"probes\":[";
    for (std::size_t i = 0; i < r.probes.size(); ++i) {
      if (i > 0) os << ',';
      obs::write_probe_json(os, r.probes[i]);
    }
    os << ']';
  }
  if (include_outcomes) {
    os << ",\"outcomes\":[";
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
      if (i > 0) os << ',';
      metrics::write_outcome_json(os, r.outcomes[i]);
    }
    os << ']';
  }
  os << '}';
}

void write_artifacts_json(std::ostream& os,
                          const std::vector<RunArtifact>& artifacts,
                          bool include_outcomes) {
  os << "[";
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    if (i > 0) os << ',';
    os << '\n';
    write_artifact_json(os, artifacts[i], include_outcomes);
  }
  os << "\n]\n";
}

void write_artifacts_csv(std::ostream& os,
                         const std::vector<RunArtifact>& artifacts) {
  os << "name,policy,predictor,estimation,placement,adaptation,shared_device,"
        "trace_seed,sim_seed,trace_jobs,trace_tasks,completed_jobs,"
        "incomplete_jobs,total_checkpoints,total_failures,average_wpr,"
        "lowest_wpr,makespan_s,wall_time_s\n";
  for (const auto& a : artifacts) {
    const auto& r = a.result;
    os << csv_field(a.spec.name) << ',' << csv_field(a.spec.policy) << ','
       << csv_field(a.spec.predictor) << ','
       << estimation_token(a.spec.estimation) << ','
       << placement_token(a.spec.placement) << ','
       << adaptation_token(a.spec.adaptation) << ','
       << device_token(a.spec.shared_device) << ',' << a.spec.trace.seed
       << ',' << a.spec.sim_seed << ',' << a.trace_jobs << ','
       << a.trace_tasks << ',' << r.outcomes.size() << ','
       << r.incomplete_jobs << ',' << r.total_checkpoints << ','
       << r.total_failures << ',' << metrics::csv_double(r.average_wpr())
       << ',' << metrics::csv_double(metrics::lowest_wpr(r.outcomes)) << ','
       << metrics::csv_double(r.makespan_s) << ','
       << metrics::csv_double(a.wall_time_s) << '\n';
  }
}

void write_artifact_outcomes_csv(std::ostream& os,
                                 const std::vector<RunArtifact>& artifacts) {
  os << "scenario," << metrics::outcome_csv_header() << '\n';
  for (const auto& a : artifacts) {
    for (const auto& o : a.result.outcomes) {
      os << csv_field(a.spec.name) << ',';
      metrics::write_outcome_csv(os, o);
    }
  }
}

bool write_artifacts_json_file(const std::string& path,
                               const std::vector<RunArtifact>& artifacts,
                               bool include_outcomes) {
  std::ofstream os(path);
  if (!os) return false;
  write_artifacts_json(os, artifacts, include_outcomes);
  os.flush();  // a full device fails only once the buffer drains
  return static_cast<bool>(os);
}

bool write_artifacts_csv_file(const std::string& path,
                              const std::vector<RunArtifact>& artifacts) {
  std::ofstream os(path);
  if (!os) return false;
  write_artifacts_csv(os, artifacts);
  os.flush();  // a full device fails only once the buffer drains
  return static_cast<bool>(os);
}

bool write_artifact_outcomes_csv_file(
    const std::string& path, const std::vector<RunArtifact>& artifacts) {
  std::ofstream os(path);
  if (!os) return false;
  write_artifact_outcomes_csv(os, artifacts);
  os.flush();  // a full device fails only once the buffer drains
  return static_cast<bool>(os);
}

}  // namespace cloudcr::api
