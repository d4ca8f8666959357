#include "report/compare.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "metrics/export.hpp"

namespace cloudcr::report {

const EntryExpectations* ExpectedDoc::find(const std::string& id) const {
  for (const auto& e : entries) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

namespace {

/// Scans for `"key":` after `from` and returns the position past the colon,
/// or npos.
std::size_t find_key(const std::string& text, const std::string& key,
                     std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle, from);
  return pos == std::string::npos ? pos : pos + needle.size();
}

std::string parse_string_at(const std::string& text, std::size_t pos,
                            const char* what) {
  if (pos == std::string::npos || pos >= text.size() || text[pos] != '"') {
    throw std::runtime_error(std::string("expected-value document: bad ") +
                             what);
  }
  const std::size_t end = text.find('"', pos + 1);
  if (end == std::string::npos) {
    throw std::runtime_error(std::string("expected-value document: "
                                         "unterminated ") +
                             what);
  }
  return text.substr(pos + 1, end - pos - 1);
}

/// Reads the number write_expected() wrote at `pos`: a whole JSON number,
/// or — for a value, `special` — one of the quoted non-finite spellings
/// metrics::json_double() writes ("nan", "inf", "-inf"). The token must
/// end at a JSON delimiter, so "1.5x" is refused rather than read as 1.5.
/// Throws naming `where` (entry, metric and field) otherwise.
double parse_number_at(const std::string& text, std::size_t pos, bool special,
                       const std::string& where) {
  const std::size_t n = text.size();
  auto digit = [&](std::size_t k) {
    return k < n && text[k] >= '0' && text[k] <= '9';
  };
  auto refuse = [&]() -> double {
    const std::size_t end = text.find_first_of(",}]\n", pos);
    const std::string token =
        text.substr(pos, end == std::string::npos ? end : end - pos);
    const char* want = special ? "a JSON number or \"nan\", \"inf\", \"-inf\""
                               : "a finite JSON number >= 0";
    throw std::runtime_error("expected-value document: " + where + " '" +
                             token + "' is not " + want);
  };

  double value = 0.0;
  std::size_t end = pos;
  if (end < n && text[end] == '"') {
    const std::size_t close = text.find('"', pos + 1);
    if (!special || close == std::string::npos) return refuse();
    const std::string word = text.substr(pos + 1, close - pos - 1);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (word == "nan") {
      value = std::numeric_limits<double>::quiet_NaN();
    } else if (word == "inf") {
      value = kInf;
    } else if (word == "-inf") {
      value = -kInf;
    } else {
      return refuse();
    }
    end = close + 1;
  } else {
    // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
    if (end < n && text[end] == '-') ++end;
    if (!digit(end)) return refuse();
    if (text[end] == '0') {
      ++end;
    } else {
      while (digit(end)) ++end;
    }
    if (end < n && text[end] == '.') {
      ++end;
      if (!digit(end)) return refuse();
      while (digit(end)) ++end;
    }
    if (end < n && (text[end] == 'e' || text[end] == 'E')) {
      ++end;
      if (end < n && (text[end] == '+' || text[end] == '-')) ++end;
      if (!digit(end)) return refuse();
      while (digit(end)) ++end;
    }
    const auto [ptr, ec] =
        std::from_chars(text.data() + pos, text.data() + end, value);
    if (ec != std::errc{} || ptr != text.data() + end) return refuse();
  }
  constexpr std::string_view kDelimiters = ",}] \t\r\n";
  if (end < n && kDelimiters.find(text[end]) == std::string_view::npos) {
    return refuse();
  }
  if (!special && !(value >= 0.0)) return refuse();
  return value;
}

}  // namespace

ExpectedDoc parse_expected(const std::string& json_text) {
  // Minimal scanner for the documents write_expected() produces: field
  // order is fixed by the writer — id, then metrics[] of {name, value,
  // tolerance} — and unknown fields between them are skipped naturally.
  if (json_text.find("\"schema\":\"" + std::string(kExpectedSchema) + "\"") ==
      std::string::npos) {
    throw std::runtime_error("expected-value document schema mismatch (want " +
                             std::string(kExpectedSchema) + ")");
  }
  ExpectedDoc doc;
  std::size_t pos = find_key(json_text, "id", 0);
  while (pos != std::string::npos) {
    EntryExpectations entry;
    entry.id = parse_string_at(json_text, pos, "id");
    const std::size_t next_entry = find_key(json_text, "id", pos);
    std::size_t name_pos = find_key(json_text, "name", pos);
    while (name_pos != std::string::npos &&
           (next_entry == std::string::npos || name_pos < next_entry)) {
      Expectation exp;
      exp.metric = parse_string_at(json_text, name_pos, "metric name");
      // value/tolerance must belong to *this* metric: bound the search by
      // the next metric/entry so a field dropped in hand-editing is
      // rejected instead of silently borrowing a neighbour's number.
      const std::size_t next_name = find_key(json_text, "name", name_pos);
      std::size_t bound = json_text.size();
      if (next_entry != std::string::npos) bound = next_entry;
      if (next_name != std::string::npos && next_name < bound) {
        bound = next_name;
      }
      const std::size_t value_pos = find_key(json_text, "value", name_pos);
      const std::size_t tol_pos = find_key(json_text, "tolerance", name_pos);
      if (value_pos == std::string::npos || value_pos >= bound ||
          tol_pos == std::string::npos || tol_pos >= bound) {
        throw std::runtime_error(
            "expected-value document: metric without value/tolerance: " +
            exp.metric);
      }
      const std::string where =
          "entry '" + entry.id + "' metric '" + exp.metric + "'";
      exp.value = parse_number_at(json_text, value_pos, /*special=*/true,
                                  where + " value");
      exp.tolerance = parse_number_at(json_text, tol_pos, /*special=*/false,
                                      where + " tolerance");
      entry.metrics.push_back(std::move(exp));
      name_pos = next_name;
    }
    doc.entries.push_back(std::move(entry));
    pos = next_entry;
  }
  return doc;
}

ExpectedDoc read_expected_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot read expected-value document: " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_expected(buf.str());
}

void write_expected(std::ostream& os, const ExpectedDoc& doc) {
  os << "{\"schema\":" << metrics::json_quote(kExpectedSchema)
     << ",\"entries\":[";
  bool first_entry = true;
  for (const auto& entry : doc.entries) {
    if (!first_entry) os << ",";
    first_entry = false;
    os << "\n {\"id\":" << metrics::json_quote(entry.id) << ",\"metrics\":[";
    bool first_metric = true;
    for (const auto& m : entry.metrics) {
      if (!first_metric) os << ",";
      first_metric = false;
      os << "\n  {\"name\":" << metrics::json_quote(m.metric)
         << ",\"value\":" << metrics::json_double(m.value)
         << ",\"tolerance\":" << metrics::json_double(m.tolerance) << "}";
    }
    os << "]}";
  }
  os << "\n]}\n";
}

ExpectedDoc expected_from_results(
    const std::vector<std::pair<std::string, std::vector<MetricValue>>>&
        results) {
  ExpectedDoc doc;
  for (const auto& [id, metrics] : results) {
    EntryExpectations entry;
    entry.id = id;
    for (const auto& m : metrics) {
      entry.metrics.push_back({m.name, m.value, m.tolerance_hint});
    }
    doc.entries.push_back(std::move(entry));
  }
  return doc;
}

ExpectedDoc merge_expected(const ExpectedDoc& base, const ExpectedDoc& fresh) {
  ExpectedDoc out = fresh;
  for (const auto& entry : base.entries) {
    if (out.find(entry.id) == nullptr) out.entries.push_back(entry);
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const EntryExpectations& a, const EntryExpectations& b) {
              return a.id < b.id;
            });
  return out;
}

std::string default_expected_path() {
  if (const char* env = std::getenv("CLOUDCR_REPRO_EXPECTED")) return env;
#ifdef CLOUDCR_REPRO_EXPECTED_PATH
  return CLOUDCR_REPRO_EXPECTED_PATH;
#else
  return "";
#endif
}

const char* comparison_token(ComparisonStatus status) noexcept {
  switch (status) {
    case ComparisonStatus::kPass:
      return "pass";
    case ComparisonStatus::kDeviation:
      return "deviation";
    case ComparisonStatus::kMissing:
      return "missing";
    case ComparisonStatus::kNew:
      return "new";
  }
  return "unknown";
}

std::vector<Comparison> compare_entry(const EntryExpectations& expected,
                                      const std::vector<MetricValue>& actual) {
  std::vector<Comparison> out;
  out.reserve(expected.metrics.size() + actual.size());
  for (const auto& exp : expected.metrics) {
    Comparison c;
    c.metric = exp.metric;
    c.expected = exp.value;
    c.tolerance = exp.tolerance;
    const MetricValue* match = nullptr;
    for (const auto& m : actual) {
      if (m.name == exp.metric) {
        match = &m;
        break;
      }
    }
    if (match == nullptr) {
      c.status = ComparisonStatus::kMissing;
    } else {
      c.actual = match->value;
      // NaN actuals can never pass: a metric that failed to compute must
      // show up as a deviation, not sneak through a comparison that is
      // false both ways.
      const double delta = std::abs(c.actual - c.expected);
      c.status = delta <= c.tolerance ? ComparisonStatus::kPass
                                      : ComparisonStatus::kDeviation;
      if (std::isnan(delta)) c.status = ComparisonStatus::kDeviation;
    }
    out.push_back(std::move(c));
  }
  for (const auto& m : actual) {
    bool known = false;
    for (const auto& exp : expected.metrics) {
      if (exp.metric == m.name) {
        known = true;
        break;
      }
    }
    if (known) continue;
    Comparison c;
    c.metric = m.name;
    c.status = ComparisonStatus::kNew;
    c.actual = m.value;
    out.push_back(std::move(c));
  }
  return out;
}

bool all_pass(const std::vector<Comparison>& comparisons) {
  for (const auto& c : comparisons) {
    if (c.fails()) return false;
  }
  return true;
}

}  // namespace cloudcr::report
