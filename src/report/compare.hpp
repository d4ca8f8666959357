#pragma once

/// \file compare.hpp
/// \brief The expected-value gate: checked-in per-experiment metric
/// expectations, and the comparator that turns a run's metrics into
/// pass/deviation/missing verdicts.
///
/// Expectations live in a schema-versioned JSON document
/// (bench/REPRO_expected.baseline.json), written by
/// `repro_report --update-expected` from a real run and diffed in review.
/// Runs are deterministic per machine, so the tolerance only absorbs
/// cross-platform libm variation; it is recorded per metric from the
/// experiment's MetricValue::tolerance_hint.
///
/// Comparator semantics (pinned by tests/report/compare_test.cpp):
///   - |actual - expected| <= tolerance     -> kPass
///   - |actual - expected| >  tolerance     -> kDeviation (fails the gate)
///   - expectation with no actual metric    -> kMissing   (fails the gate)
///   - actual metric with no expectation    -> kNew       (reported, no fail;
///     the next --update-expected starts tracking it)

#include <iosfwd>
#include <string>
#include <vector>

#include "report/experiment.hpp"

namespace cloudcr::report {

/// Document schema tag; bump on breaking layout changes.
inline constexpr const char* kExpectedSchema = "cloudcr-repro-expected/1";

/// One checked-in expectation.
struct Expectation {
  std::string metric;
  double value = 0.0;
  double tolerance = 0.0;  ///< absolute
};

/// Expectations for one experiment id.
struct EntryExpectations {
  std::string id;
  std::vector<Expectation> metrics;
};

/// The whole checked-in document, in file order.
struct ExpectedDoc {
  std::vector<EntryExpectations> entries;

  /// Expectations for `id`; nullptr when the document has none.
  [[nodiscard]] const EntryExpectations* find(const std::string& id) const;
};

/// Parses a document written by write_expected(). Throws std::runtime_error
/// on schema mismatch or malformed structure.
ExpectedDoc parse_expected(const std::string& json_text);

/// Reads + parses a file; throws std::runtime_error when unreadable.
ExpectedDoc read_expected_file(const std::string& path);

/// Serializes a document (stable field order, round-trip precision).
void write_expected(std::ostream& os, const ExpectedDoc& doc);

/// Builds a document from actual results: every metric's value becomes the
/// expectation, with its tolerance_hint as the tolerance.
ExpectedDoc expected_from_results(
    const std::vector<std::pair<std::string, std::vector<MetricValue>>>&
        results);

/// Merges `fresh` over `base`: fresh entries replace base entries with the
/// same id, base entries without a fresh counterpart are kept, and the
/// result is sorted by id (registry order). This is what lets
/// `repro_report --only X --update-expected` refresh one experiment's
/// expectations without truncating everyone else's.
ExpectedDoc merge_expected(const ExpectedDoc& base, const ExpectedDoc& fresh);

/// The checked-in expected-value document: $CLOUDCR_REPRO_EXPECTED when
/// set, else the source-tree path baked in at build time (like the
/// golden-replay fixtures), else "". Shared by repro_report and the bench
/// shims so both resolve the same baseline.
std::string default_expected_path();

// -- comparison --------------------------------------------------------------

enum class ComparisonStatus {
  kPass,       ///< within tolerance
  kDeviation,  ///< outside tolerance — fails the gate
  kMissing,    ///< expected metric absent from the run — fails the gate
  kNew,        ///< run produced a metric with no expectation — informational
};

const char* comparison_token(ComparisonStatus status) noexcept;

struct Comparison {
  std::string metric;
  ComparisonStatus status = ComparisonStatus::kPass;
  double actual = 0.0;    ///< meaningless for kMissing
  double expected = 0.0;  ///< meaningless for kNew
  double tolerance = 0.0;

  [[nodiscard]] bool fails() const noexcept {
    return status == ComparisonStatus::kDeviation ||
           status == ComparisonStatus::kMissing;
  }
};

/// Compares one experiment's actual metrics against its expectations.
/// Output order: expectations first (in document order), then kNew actuals
/// (in run order).
std::vector<Comparison> compare_entry(const EntryExpectations& expected,
                                      const std::vector<MetricValue>& actual);

/// True when no comparison fails.
bool all_pass(const std::vector<Comparison>& comparisons);

}  // namespace cloudcr::report
