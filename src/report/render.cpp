#include "report/render.hpp"

#include <cmath>
#include <ostream>

#include "metrics/export.hpp"
#include "metrics/report.hpp"
#include "report/registry.hpp"

namespace cloudcr::report {

namespace {

std::string fmt_or_dash(double v, bool present, int precision = 4) {
  if (!present || std::isnan(v)) return "-";
  return metrics::fmt(v, precision);
}

const char* status_word(const EntryReport& entry) {
  if (!entry.compared) return "not gated";
  return all_pass(entry.comparisons) ? "pass" : "FAIL";
}

/// Paper value for a metric name, when the entry's evaluate declared one.
double paper_value(const EntryResult& result, const std::string& name) {
  for (const auto& m : result.metrics) {
    if (m.name == name) return m.paper;
  }
  return std::nan("");
}

}  // namespace

GateSummary summarize_gate(const std::vector<EntryReport>& entries) {
  GateSummary s;
  s.entries = entries.size();
  for (const auto& e : entries) {
    if (!e.compared) continue;
    ++s.compared;
    bool ok = true;
    for (const auto& c : e.comparisons) {
      if (c.status == ComparisonStatus::kDeviation) {
        ++s.deviations;
        ok = false;
      } else if (c.status == ComparisonStatus::kMissing) {
        ++s.missing;
        ok = false;
      }
    }
    if (ok) ++s.passed;
  }
  return s;
}

void write_reproduction_markdown(std::ostream& os,
                                 const std::vector<EntryReport>& entries) {
  const GateSummary gate = summarize_gate(entries);
  os << "# Reproduction report\n\n";
  os << "Source paper: " << kPaperCitation << "\n\n";
  os << "Machine-checked reproduction matrix: each experiment reruns one "
        "paper figure/table\nand compares its metrics against the "
        "checked-in expected values\n(`bench/REPRO_expected.baseline.json`)"
        ". The `paper` column restates the paper's\npublished number where "
        "one exists; the reproduction runs at reduced scale\n(see "
        "`docs/experiments.md`), so paper deltas are informational while "
        "the\nexpected-value gate is enforced.\n\n";

  os << "**Gate: " << (gate.all_pass() ? "PASS" : "FAIL") << "** — "
     << gate.passed << "/" << gate.compared << " gated experiments pass ("
     << gate.deviations << " deviations, " << gate.missing
     << " missing metrics; " << gate.entries - gate.compared
     << " ungated)\n\n";

  os << "| experiment | paper ref | status | metrics | wall (s) |\n";
  os << "|---|---|---|---|---|\n";
  for (const auto& e : entries) {
    const Experiment& exp = *e.result.experiment;
    os << "| [" << exp.id << "](#" << exp.id << ") | " << exp.paper_ref
       << " | " << status_word(e) << " | " << e.result.metrics.size()
       << " | " << metrics::fmt(e.result.wall_s, 2) << " |\n";
  }
  os << "\n";

  for (const auto& e : entries) {
    const Experiment& exp = *e.result.experiment;
    os << "## " << exp.id << "\n\n";
    os << "**" << exp.paper_ref << " — " << exp.title << "**\n\n";
    os << "Paper: " << exp.paper_claim << "\n\n";
    os << "Model: " << exp.model_notes << "\n\n";
    if (e.compared) {
      os << "| metric | actual | expected | tolerance | status | paper | "
            "paper delta |\n";
      os << "|---|---|---|---|---|---|---|\n";
      for (const auto& c : e.comparisons) {
        const double paper = paper_value(e.result, c.metric);
        const bool has_actual = c.status != ComparisonStatus::kMissing;
        const bool has_expected = c.status != ComparisonStatus::kNew;
        os << "| " << c.metric << " | " << fmt_or_dash(c.actual, has_actual)
           << " | " << fmt_or_dash(c.expected, has_expected) << " | "
           << fmt_or_dash(c.tolerance, has_expected) << " | "
           << comparison_token(c.status) << " | "
           << fmt_or_dash(paper, !std::isnan(paper)) << " | "
           << fmt_or_dash(c.actual - paper,
                          has_actual && !std::isnan(paper))
           << " |\n";
      }
    } else {
      os << "_Expected-value gate skipped for this run._\n\n";
      os << "| metric | actual | paper | paper delta |\n";
      os << "|---|---|---|---|\n";
      for (const auto& m : e.result.metrics) {
        os << "| " << m.name << " | " << metrics::fmt(m.value, 4) << " | "
           << fmt_or_dash(m.paper, m.has_paper()) << " | "
           << fmt_or_dash(m.value - m.paper, m.has_paper()) << " |\n";
      }
    }
    os << "\n";
  }
}

void write_reproduction_json(std::ostream& os,
                             const std::vector<EntryReport>& entries) {
  const GateSummary gate = summarize_gate(entries);
  os << "{\"schema\":" << metrics::json_quote(kReportSchema)
     << ",\"citation\":" << metrics::json_quote(kPaperCitation)
     << ",\"gate\":{\"pass\":" << (gate.all_pass() ? "true" : "false")
     << ",\"entries\":" << gate.entries << ",\"compared\":" << gate.compared
     << ",\"passed\":" << gate.passed
     << ",\"deviations\":" << gate.deviations
     << ",\"missing\":" << gate.missing << "},\"experiments\":[";
  bool first_entry = true;
  for (const auto& e : entries) {
    const Experiment& exp = *e.result.experiment;
    if (!first_entry) os << ",";
    first_entry = false;
    os << "\n {\"id\":" << metrics::json_quote(exp.id)
       << ",\"paper_ref\":" << metrics::json_quote(exp.paper_ref)
       << ",\"title\":" << metrics::json_quote(exp.title)
       << ",\"gated\":" << (e.compared ? "true" : "false")
       << ",\"pass\":"
       << (!e.compared || all_pass(e.comparisons) ? "true" : "false")
       << ",\"wall_s\":" << metrics::json_double(e.result.wall_s)
       << ",\"metrics\":[";
    bool first_metric = true;
    for (const auto& m : e.result.metrics) {
      if (!first_metric) os << ",";
      first_metric = false;
      os << "\n  {\"name\":" << metrics::json_quote(m.name)
         << ",\"value\":" << metrics::json_double(m.value);
      if (m.has_paper()) {
        os << ",\"paper\":" << metrics::json_double(m.paper);
      }
      if (e.compared) {
        for (const auto& c : e.comparisons) {
          if (c.metric != m.name) continue;
          os << ",\"status\":"
             << metrics::json_quote(comparison_token(c.status));
          if (c.status != ComparisonStatus::kNew) {
            os << ",\"expected\":" << metrics::json_double(c.expected)
               << ",\"tolerance\":" << metrics::json_double(c.tolerance);
          }
          break;
        }
      }
      os << "}";
    }
    // Expected metrics the run failed to produce still need to surface.
    for (const auto& c : e.comparisons) {
      if (c.status != ComparisonStatus::kMissing) continue;
      if (!first_metric) os << ",";
      first_metric = false;
      os << "\n  {\"name\":" << metrics::json_quote(c.metric)
         << ",\"status\":\"missing\",\"expected\":"
         << metrics::json_double(c.expected) << "}";
    }
    os << "]}";
  }
  os << "\n]}\n";
}

void write_experiments_doc(std::ostream& os) {
  const auto& registry = ExperimentRegistry::instance();
  os << "# Experiment matrix\n\n";
  os << "<!-- Generated by `repro_report --docs`; do not edit by hand. "
        "The CI docs job\nregenerates this file and fails on drift. -->\n\n";
  os << "Source paper: " << kPaperCitation << "\n\n";
  os << "Every figure/table reproduction is a named entry in the experiment "
        "registry\n(`src/report/`), runnable three ways: the whole matrix "
        "via `repro_report`, one\nentry via its historical bench binary "
        "(`bench_fig09_wpr_cdf`, ...), or any\nsubset via `repro_report "
        "--only <ids>`. Expected values are checked in at\n"
        "`bench/REPRO_expected.baseline.json`; `fast` entries form a quick "
        "subset\n(`repro_report --fast`). CI runs the whole matrix.\n\n";
  os << "| id | paper ref | scenarios | fast | title |\n";
  os << "|---|---|---|---|---|\n";
  for (const auto& e : registry.entries()) {
    os << "| [" << e.id << "](#" << e.id << ") | " << e.paper_ref << " | "
       << e.specs.size() << " | " << (e.fast ? "yes" : "") << " | "
       << e.title << " |\n";
  }
  os << "\n";
  for (const auto& e : registry.entries()) {
    os << "## " << e.id << "\n\n";
    os << "**" << e.paper_ref << " — " << e.title << "**\n\n";
    os << "What the paper shows: " << e.paper_claim << "\n\n";
    os << "How we model it: " << e.model_notes << "\n\n";
    if (!e.specs.empty()) {
      os << "Scenarios:\n\n";
      for (const auto& spec : e.specs) {
        os << "- `" << spec.name << "`: policy `" << spec.policy
           << "`, predictor `" << spec.predictor << "`\n";
      }
      os << "\n";
    }
    // Metric names exist only after evaluation, so the doc points at the
    // canonical checked-in source instead of duplicating the list.
    os << "Gated metrics: see `bench/REPRO_expected.baseline.json` (entry `"
       << e.id << "`).\n\n";
  }
}

}  // namespace cloudcr::report
