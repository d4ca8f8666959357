#pragma once

/// \file registry.hpp
/// \brief The experiment registry: every paper figure/table reproduction,
/// enumerable and addressable by id.
///
/// Entries are registered in paper order (fig04 ... fig14, tab02 ... tab07)
/// by the three definition units:
///
///   experiments_storage.cpp   Tables 2-5, Figure 7 (storage cost models)
///   experiments_trace.cpp     Figures 4, 5, 8, Table 7 (trace statistics)
///   experiments_sim.cpp       Figures 9-14, Table 6 (full replays)
///   experiments_sched.cpp     sched01/sched02 (admission-stage extensions)
///
/// The registry is immutable after construction: repro_report, perfbench,
/// the generated docs, and the drift gate all see the same entries.

#include <string>
#include <vector>

#include "report/experiment.hpp"

namespace cloudcr::report {

class ExperimentRegistry {
 public:
  /// Process-wide registry, built once on first use.
  static const ExperimentRegistry& instance();

  /// All entries, in paper order.
  [[nodiscard]] const std::vector<Experiment>& entries() const noexcept {
    return entries_;
  }

  /// Entry by id; nullptr when unknown.
  [[nodiscard]] const Experiment* find(const std::string& id) const;

  /// Sorted entry ids (diagnostics for unknown --only values).
  [[nodiscard]] std::vector<std::string> ids() const;

 private:
  ExperimentRegistry();

  std::vector<Experiment> entries_;
};

// Definition units (one per experiment family); each appends its entries.
void register_trace_experiments(std::vector<Experiment>& out);
void register_storage_experiments(std::vector<Experiment>& out);
void register_sim_experiments(std::vector<Experiment>& out);
void register_sched_experiments(std::vector<Experiment>& out);

}  // namespace cloudcr::report
