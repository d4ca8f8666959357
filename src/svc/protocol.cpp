#include "svc/protocol.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/artifact_io.hpp"
#include "metrics/export.hpp"

namespace cloudcr::svc {

namespace {

/// Strict cursor over one request line. Accepts exactly the JSON subset
/// the protocol grammar uses; every rejection names what it saw, and the
/// key whose value it was reading, so a client debugging by hand gets a
/// usable error line back.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  /// Names `key` in every rejection until the next call (empty: none).
  void set_key(std::string key) { key_ = std::move(key); }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (pos_ >= text_.size()) {
      throw error("unexpected end of line");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw error(std::string("expected '") + c + "', got '" + text_[pos_] +
                  "'");
    }
    ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        throw error("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        throw error("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default:
          throw error(std::string("unsupported escape '\\") + esc + "'");
      }
    }
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty()) {
      throw error(std::string("expected a number, got '") + peek() + "'");
    }
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &used);
    } catch (const std::exception&) {
      used = 0;  // no digits, or out of range
    }
    if (used != token.size()) throw error("bad number '" + token + "'");
    return value;
  }

  bool parse_bool() {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    throw error("expected true or false");
  }

  std::vector<std::string> parse_string_array() {
    expect('[');
    std::vector<std::string> out;
    if (consume(']')) return out;
    while (true) {
      out.push_back(parse_string());
      if (consume(']')) return out;
      expect(',');
    }
  }

 private:
  [[nodiscard]] std::invalid_argument error(const std::string& what) const {
    if (key_.empty()) return std::invalid_argument("request: " + what);
    return std::invalid_argument("request: \"" + key_ + "\": " + what);
  }

  /// "\uXXXX" after the backslash-u has been consumed; returns UTF-8.
  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) {
      throw error("truncated \\u escape");
    }
    unsigned int code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned int>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned int>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned int>(c - 'A' + 10);
      } else {
        throw error(std::string("bad \\u escape digit '") + c + "'");
      }
    }
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string key_;
};

Request::Op parse_op(const std::string& token) {
  if (token == "run") return Request::Op::kRun;
  if (token == "batch") return Request::Op::kBatch;
  if (token == "whatif") return Request::Op::kWhatIf;
  if (token == "stats") return Request::Op::kStats;
  throw std::invalid_argument("request op '" + token +
                              "' is not run|batch|whatif|stats");
}

}  // namespace

Request parse_request(const std::string& line) {
  JsonCursor cursor(line);
  Request request;
  std::set<std::string> seen;  // keys read so far; each may appear once
  cursor.expect('{');
  if (!cursor.consume('}')) {
    while (true) {
      const std::string key = cursor.parse_string();
      if (!seen.insert(key).second) {
        throw std::invalid_argument("request: repeated key \"" + key + "\"");
      }
      cursor.expect(':');
      cursor.set_key(key);
      if (key == "op") {
        request.op = parse_op(cursor.parse_string());
      } else if (key == "spec") {
        request.spec = cursor.parse_string();
      } else if (key == "specs") {
        request.specs = cursor.parse_string_array();
      } else if (key == "fork_at") {
        request.fork_at = cursor.parse_number();
        if (request.fork_at < 0.0) {
          throw std::invalid_argument("request: \"fork_at\" must be >= 0");
        }
      } else if (key == "policy") {
        request.policy = cursor.parse_string();
      } else if (key == "detection_delay_s") {
        request.detection_delay_s = cursor.parse_number();
        if (*request.detection_delay_s < 0.0) {
          throw std::invalid_argument(
              "request: \"detection_delay_s\" must be >= 0");
        }
      } else if (key == "outcomes") {
        request.outcomes = cursor.parse_bool();
      } else {
        throw std::invalid_argument("request key '" + key +
                                    "' is not part of the protocol");
      }
      cursor.set_key({});
      if (cursor.consume('}')) break;
      cursor.expect(',');
    }
  }
  if (!cursor.at_end()) {
    throw std::invalid_argument("request: trailing bytes after the object");
  }
  const auto saw = [&seen](const char* key) { return seen.count(key) != 0; };
  if (!saw("op")) throw std::invalid_argument("request: missing \"op\"");
  switch (request.op) {
    case Request::Op::kRun:
      if (!saw("spec")) throw std::invalid_argument("run: missing \"spec\"");
      break;
    case Request::Op::kBatch:
      if (!saw("specs")) {
        throw std::invalid_argument("batch: missing \"specs\"");
      }
      break;
    case Request::Op::kWhatIf:
      if (!saw("spec")) throw std::invalid_argument("whatif: missing \"spec\"");
      if (!saw("fork_at")) {
        throw std::invalid_argument("whatif: missing \"fork_at\"");
      }
      break;
    case Request::Op::kStats:
      break;
  }
  return request;
}

void write_reply(std::ostream& os, const ServiceReply& reply, bool outcomes) {
  os << "{\"ok\":true,\"cached\":" << (reply.cached ? "true" : "false")
     << ",\"artifact\":";
  api::write_artifact_json(os, *reply.artifact, outcomes);
  os << "}\n";
}

void write_batch_reply(std::ostream& os,
                       const std::vector<ServiceReply>& replies,
                       bool outcomes) {
  os << "{\"ok\":true,\"cached\":[";
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (i > 0) os << ',';
    os << (replies[i].cached ? "true" : "false");
  }
  os << "],\"artifacts\":[";
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (i > 0) os << ',';
    api::write_artifact_json(os, *replies[i].artifact, outcomes);
  }
  os << "]}\n";
}

void write_stats_reply(std::ostream& os, const ServiceStats& stats) {
  os << "{\"ok\":true,\"stats\":{\"cache_hits\":" << stats.cache_hits
     << ",\"cache_misses\":" << stats.cache_misses
     << ",\"snapshot_captures\":" << stats.snapshot_captures
     << ",\"snapshot_resumes\":" << stats.snapshot_resumes
     << ",\"evictions\":" << stats.evictions
     << ",\"snapshot_bytes\":" << stats.snapshot_bytes
     << ",\"trace_reads\":" << stats.trace_reads
     << ",\"rows_read\":" << stats.rows_read << "}}\n";
}

void write_error_reply(std::ostream& os, const std::string& message) {
  os << "{\"ok\":false,\"error\":" << metrics::json_quote(message) << "}\n";
}

std::size_t serve(SimService& service, std::istream& in, std::ostream& out) {
  std::size_t answered = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const Request request = parse_request(line);
      switch (request.op) {
        case Request::Op::kRun: {
          const api::ScenarioSpec spec = api::parse_scenario(request.spec);
          write_reply(out, service.run(spec), request.outcomes);
          break;
        }
        case Request::Op::kBatch: {
          std::vector<api::ScenarioSpec> specs;
          specs.reserve(request.specs.size());
          for (const std::string& text : request.specs) {
            specs.push_back(api::parse_scenario(text));
          }
          write_batch_reply(out, service.batch(specs), request.outcomes);
          break;
        }
        case Request::Op::kWhatIf: {
          WhatIfRequest whatif;
          whatif.base = api::parse_scenario(request.spec);
          whatif.fork_at = request.fork_at;
          whatif.policy = request.policy;
          whatif.detection_delay_s = request.detection_delay_s;
          write_reply(out, service.whatif(whatif), request.outcomes);
          break;
        }
        case Request::Op::kStats:
          write_stats_reply(out, service.stats());
          break;
      }
    } catch (const std::exception& e) {
      write_error_reply(out, e.what());
    }
    out.flush();
    ++answered;
  }
  return answered;
}

}  // namespace cloudcr::svc
