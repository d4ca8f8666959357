// The reproduction expected-value gate: comparator semantics (tolerance
// pass, deviation fail, missing-metric fail, new-metric informational) and
// the expected-document round trip — mirroring the perf-baseline gate
// tests' role for the perf matrix.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "report/compare.hpp"

namespace cloudcr {
namespace {

report::MetricValue actual(const std::string& name, double value,
                           double hint = 0.1) {
  return report::metric(name, value, hint);
}

report::EntryExpectations expectations() {
  report::EntryExpectations e;
  e.id = "figXX";
  // Binary-exact values: the boundary tests below exercise the comparator's
  // inclusive <=, not double rounding.
  e.metrics = {{"avg_wpr", 0.9375, 0.03125}, {"frac_fast", 0.75, 0.0625}};
  return e;
}

TEST(Comparator, WithinToleranceIsPass) {
  const auto cs = report::compare_entry(
      expectations(),
      {actual("avg_wpr", 0.9375 + 0.015625), actual("frac_fast", 0.78125)});
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].status, report::ComparisonStatus::kPass);
  EXPECT_EQ(cs[1].status, report::ComparisonStatus::kPass);
  EXPECT_TRUE(report::all_pass(cs));
}

TEST(Comparator, ToleranceBoundaryIsInclusive) {
  const auto cs =
      report::compare_entry(expectations(), {actual("avg_wpr", 0.96875),
                                             actual("frac_fast", 0.75)});
  EXPECT_EQ(cs[0].status, report::ComparisonStatus::kPass);  // exactly +tol
}

TEST(Comparator, OutsideToleranceIsDeviationAndFailsGate) {
  const auto cs = report::compare_entry(
      expectations(), {actual("avg_wpr", 0.875), actual("frac_fast", 0.75)});
  EXPECT_EQ(cs[0].status, report::ComparisonStatus::kDeviation);
  EXPECT_TRUE(cs[0].fails());
  EXPECT_EQ(cs[1].status, report::ComparisonStatus::kPass);
  EXPECT_FALSE(report::all_pass(cs));
}

TEST(Comparator, ExpectedMetricAbsentFromRunIsMissingAndFailsGate) {
  const auto cs =
      report::compare_entry(expectations(), {actual("avg_wpr", 0.9375)});
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[1].metric, "frac_fast");
  EXPECT_EQ(cs[1].status, report::ComparisonStatus::kMissing);
  EXPECT_TRUE(cs[1].fails());
  EXPECT_FALSE(report::all_pass(cs));
}

TEST(Comparator, UnexpectedActualIsNewAndDoesNotFail) {
  const auto cs = report::compare_entry(
      expectations(), {actual("avg_wpr", 0.9375), actual("frac_fast", 0.75),
                       actual("brand_new", 1.0)});
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[2].metric, "brand_new");
  EXPECT_EQ(cs[2].status, report::ComparisonStatus::kNew);
  EXPECT_FALSE(cs[2].fails());
  EXPECT_TRUE(report::all_pass(cs));
}

TEST(Comparator, NanActualIsDeviationNotSilentPass) {
  const auto cs = report::compare_entry(
      expectations(),
      {actual("avg_wpr", std::nan("")), actual("frac_fast", 0.75)});
  EXPECT_EQ(cs[0].status, report::ComparisonStatus::kDeviation);
}

TEST(Comparator, ZeroToleranceRequiresExactMatch) {
  report::EntryExpectations e;
  e.id = "x";
  e.metrics = {{"structural_flag", 1.0, 0.0}};
  EXPECT_TRUE(report::all_pass(
      report::compare_entry(e, {actual("structural_flag", 1.0)})));
  EXPECT_FALSE(report::all_pass(
      report::compare_entry(e, {actual("structural_flag", 0.0)})));
}

// -- expected-document IO ----------------------------------------------------

report::ExpectedDoc sample_doc() {
  report::ExpectedDoc doc;
  doc.entries.push_back(
      {"fig09", {{"avg_wpr", 0.89943741909499431, 0.02}, {"frac", 0.7, 0.05}}});
  doc.entries.push_back({"tab02", {{"cost_x1", 0.632, 0.3}}});
  return doc;
}

TEST(ExpectedDoc, RoundTripsExactly) {
  std::ostringstream os;
  report::write_expected(os, sample_doc());
  const auto parsed = report::parse_expected(os.str());
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].id, "fig09");
  ASSERT_EQ(parsed.entries[0].metrics.size(), 2u);
  EXPECT_EQ(parsed.entries[0].metrics[0].metric, "avg_wpr");
  // Bit-exact doubles: the writer uses round-trip precision.
  EXPECT_EQ(parsed.entries[0].metrics[0].value, 0.89943741909499431);
  EXPECT_EQ(parsed.entries[0].metrics[0].tolerance, 0.02);
  EXPECT_EQ(parsed.entries[1].id, "tab02");
  ASSERT_EQ(parsed.entries[1].metrics.size(), 1u);
  EXPECT_EQ(parsed.entries[1].metrics[0].metric, "cost_x1");
}

TEST(ExpectedDoc, FindLocatesEntries) {
  const auto doc = sample_doc();
  ASSERT_NE(doc.find("tab02"), nullptr);
  EXPECT_EQ(doc.find("tab02")->metrics.size(), 1u);
  EXPECT_EQ(doc.find("nope"), nullptr);
}

TEST(ExpectedDoc, SchemaMismatchThrows) {
  EXPECT_THROW(report::parse_expected("{\"schema\":\"something-else/9\"}"),
               std::runtime_error);
  EXPECT_THROW(report::parse_expected("{}"), std::runtime_error);
}

TEST(ExpectedDoc, MetricMissingItsValueThrowsInsteadOfBorrowing) {
  // Hand-editing hazard: if a metric loses its "value" field, the parser
  // must reject the document rather than silently read the next metric's
  // (or next entry's) number.
  std::ostringstream os;
  report::write_expected(os, sample_doc());
  std::string text = os.str();
  const auto pos = text.find(",\"value\":0.89943741909499431");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, std::string(",\"value\":0.89943741909499431").size());
  EXPECT_THROW(report::parse_expected(text), std::runtime_error);
}

TEST(ExpectedDoc, NonFiniteValuesRoundTrip) {
  // The writer spells non-finite values as quoted "nan"/"inf"/"-inf"; each
  // must read back as itself, not as 0.
  report::EntryExpectations entry;
  entry.id = "figXX";
  entry.metrics.push_back({"nan_metric", std::nan(""), 0.0});
  entry.metrics.push_back({"inf_metric", HUGE_VAL, 0.5});
  entry.metrics.push_back({"neg_inf_metric", -HUGE_VAL, 1e-300});
  entry.metrics.push_back({"tiny", -1.5e-300, 2.0});
  report::ExpectedDoc doc;
  doc.entries.push_back(entry);
  std::ostringstream os;
  report::write_expected(os, doc);
  const auto parsed = report::parse_expected(os.str());
  ASSERT_EQ(parsed.entries.size(), 1u);
  const auto& m = parsed.entries[0].metrics;
  ASSERT_EQ(m.size(), 4u);
  EXPECT_TRUE(std::isnan(m[0].value));
  EXPECT_EQ(m[1].value, HUGE_VAL);
  EXPECT_EQ(m[1].tolerance, 0.5);
  EXPECT_EQ(m[2].value, -HUGE_VAL);
  EXPECT_EQ(m[2].tolerance, 1e-300);
  EXPECT_EQ(m[3].value, -1.5e-300);
}

/// parse_expected's error for the sample document with fig09 avg_wpr's
/// `field` rewritten to `text` ("" when it parses).
std::string parse_error(const std::string& field, const std::string& text) {
  std::ostringstream os;
  report::write_expected(os, sample_doc());
  std::string doc = os.str();
  std::string old = "\"tolerance\":0.02";
  if (field == "value") old = "\"value\":0.89943741909499431";
  const auto pos = doc.find(old);
  EXPECT_NE(pos, std::string::npos);
  doc.replace(pos, old.size(), "\"" + field + "\":" + text);
  try {
    (void)report::parse_expected(doc);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

void expect_refused(const std::string& field, const std::string& text) {
  SCOPED_TRACE(field + " = " + text);
  const std::string what = parse_error(field, text);
  EXPECT_NE(what.find("entry 'fig09' metric 'avg_wpr' " + field),
            std::string::npos)
      << what;
}

TEST(ExpectedDoc, MalformedNumbersThrowNamingEntryAndMetric) {
  // strtod would read each of these as some number (inf, 0, 1.5) and let
  // the gate compare against it; the parser accepts only what the writer
  // writes.
  expect_refused("tolerance", "inf");
  expect_refused("tolerance", "abc");
  expect_refused("tolerance", "1.5x");
  expect_refused("tolerance", "-0.5");
  expect_refused("tolerance", "\"inf\"");
  expect_refused("value", "inf");
  expect_refused("value", "abc");
  expect_refused("value", "1.5x");
  expect_refused("value", "\"infinity\"");
  expect_refused("value", ".5");
  expect_refused("value", "01");
  expect_refused("value", "1e999");
  // Valid spellings of the same fields still parse.
  EXPECT_EQ(parse_error("tolerance", "0"), "");
  EXPECT_EQ(parse_error("tolerance", "2.5e-3"), "");
  EXPECT_EQ(parse_error("value", "-1E+2"), "");
  EXPECT_EQ(parse_error("value", "\"-inf\""), "");
}

TEST(ExpectedDoc, MergeReplacesFreshAndKeepsBaseEntries) {
  // A subset --update-expected must refresh the run entries without
  // truncating the rest of the baseline.
  const auto base = sample_doc();  // fig09, tab02
  report::ExpectedDoc fresh;
  fresh.entries.push_back({"tab02", {{"cost_x1", 0.7, 0.3}}});
  fresh.entries.push_back({"zz_new", {{"m", 1.0, 0.0}}});
  const auto merged = report::merge_expected(base, fresh);
  ASSERT_EQ(merged.entries.size(), 3u);
  EXPECT_EQ(merged.entries[0].id, "fig09");  // kept from base, sorted order
  EXPECT_EQ(merged.entries[1].id, "tab02");
  EXPECT_EQ(merged.entries[1].metrics[0].value, 0.7);  // fresh wins
  EXPECT_EQ(merged.entries[2].id, "zz_new");
}

TEST(ExpectedDoc, BuiltFromResultsUsesToleranceHints) {
  std::vector<std::pair<std::string, std::vector<report::MetricValue>>>
      results;
  results.emplace_back(
      "figXX", std::vector<report::MetricValue>{
                   report::metric("m1", 1.5, /*tolerance_hint=*/0.25)});
  const auto doc = report::expected_from_results(results);
  ASSERT_EQ(doc.entries.size(), 1u);
  EXPECT_EQ(doc.entries[0].metrics[0].metric, "m1");
  EXPECT_EQ(doc.entries[0].metrics[0].value, 1.5);
  EXPECT_EQ(doc.entries[0].metrics[0].tolerance, 0.25);
}

}  // namespace
}  // namespace cloudcr
