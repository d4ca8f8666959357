#pragma once

/// \file artifact_io.hpp
/// \brief RunArtifact persistence: self-describing JSON documents and CSV
/// summary tables.
///
/// The JSON document embeds the full serialized ScenarioSpec next to the
/// results, so a result file alone is enough to reproduce the run (parse the
/// spec back with api::parse_scenario and re-run it). The CSV form is one
/// summary row per artifact for spreadsheet-style comparison across a grid.

#include <iosfwd>
#include <string>
#include <vector>

#include "api/runner.hpp"

namespace cloudcr::api {

/// One artifact as a JSON object: spec fields, summary metrics, and
/// (optionally) the per-job outcome array.
void write_artifact_json(std::ostream& os, const RunArtifact& artifact,
                         bool include_outcomes = true);

/// A JSON array of artifacts.
void write_artifacts_json(std::ostream& os,
                          const std::vector<RunArtifact>& artifacts,
                          bool include_outcomes = true);

/// Summary CSV: header + one row per artifact.
void write_artifacts_csv(std::ostream& os,
                         const std::vector<RunArtifact>& artifacts);

/// Per-job CSV: every outcome of every artifact, one row per job, prefixed
/// with the owning scenario's name (the plotting-side companion of the
/// summary CSV — WPR CDFs and wall-clock scatter plots need job rows).
void write_artifact_outcomes_csv(std::ostream& os,
                                 const std::vector<RunArtifact>& artifacts);

/// File helpers; return false (after printing nothing) when the file cannot
/// be opened or a write to it fails.
bool write_artifacts_json_file(const std::string& path,
                               const std::vector<RunArtifact>& artifacts,
                               bool include_outcomes = true);
bool write_artifacts_csv_file(const std::string& path,
                              const std::vector<RunArtifact>& artifacts);
bool write_artifact_outcomes_csv_file(
    const std::string& path, const std::vector<RunArtifact>& artifacts);

}  // namespace cloudcr::api
