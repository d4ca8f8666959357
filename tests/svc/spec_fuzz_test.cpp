// Fuzz-style hardening of the scenario grammar the service trusts: 10k
// seeded-random key=value soups — valid keys in shuffled order, duplicated
// keys, truncated values, junk keys, junk bytes, comments, blanks — pushed
// through parse -> serialize -> parse. The contract under fuzz:
//
//   - a soup that parses must round-trip canonically: serialize(parse(x))
//     is a fixed point, and reparsing it yields an equal spec whose cache
//     key is identical — so the service's memoization can never be split
//     or aliased by spelling;
//   - a soup that does not parse must throw std::invalid_argument whose
//     message names the offending scenario key/line (never a bare parser
//     internal), and must never crash — this suite runs under the
//     ASan+UBSan CI job like every other test;
//   - key order never matters: a valid spec's lines, shuffled, parse to
//     the same spec and the same api::scenario_cache_key.
//
// Everything is seeded; a failure prints the iteration seed and the soup.

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/fingerprint.hpp"
#include "api/scenario.hpp"

namespace cloudcr::api {
namespace {

const std::vector<std::string>& scalar_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out = {
        "name",       "policy",
        "predictor",  "sched",
        "estimation", "placement",
        "adaptation", "shared_device",
        "storage_noise",
        "sim_seed",   "detection_delay_s",
        "cluster.hosts", "cluster.vms_per_host", "cluster.vm_memory_mb",
        "obs",
    };
    for (const char* prefix : {"trace.", "history."}) {
      for (const char* field :
           {"source", "seed", "horizon_s", "arrival_rate", "max_jobs",
            "sample_job_filter", "priority_change_midway",
            "long_service_fraction", "replay_max_task_length_s"}) {
        out.push_back(std::string(prefix) + field);
      }
    }
    return out;
  }();
  return keys;
}

std::string plausible_value(const std::string& key, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> coin(0, 2);
  if (key == "estimation") {
    const char* options[] = {"replay", "full", "history"};
    return options[coin(rng)];
  }
  if (key == "placement") {
    const char* options[] = {"auto", "local", "shared"};
    return options[coin(rng)];
  }
  if (key == "adaptation") return coin(rng) != 0 ? "adaptive" : "static";
  if (key == "shared_device") {
    const char* options[] = {"local_ramdisk", "shared_nfs", "dm_nfs"};
    return options[coin(rng)];
  }
  if (key.find("sample_job_filter") != std::string::npos ||
      key.find("priority_change_midway") != std::string::npos) {
    return coin(rng) != 0 ? "true" : "false";
  }
  if (key == "obs") return "";
  if (key == "name" || key == "policy" || key == "predictor" ||
      key == "sched" || key.find("source") != std::string::npos) {
    // Free-form strings: any text is valid as long as escapes are clean.
    const char* options[] = {"alpha", "formula3", "x\\\\y"};
    return options[coin(rng)];
  }
  // Numeric fields. Keys with a narrower range than "any finite number"
  // draw inside it, so their soups parse as often as the rest.
  if (key == "storage_noise") {
    const char* options[] = {"0", "0.05", "0.5"};
    return options[coin(rng)];
  }
  if (key.find("replay_max_task_length_s") != std::string::npos) {
    const char* options[] = {"42", "1.5", "inf"};
    return options[coin(rng)];
  }
  const char* options[] = {"0", "42", "1.5"};
  return options[coin(rng)];
}

std::string junk_value(std::mt19937_64& rng) {
  static const std::vector<std::string> pool = {
      "",      "  ",     "1e999",    "abc",   "1.5x", "--3",
      "1e",    "true!",  "\\q",      "0x10",  ".",    "+-1",
      "99999999999999999999999999999999999",  "1 2",  "\x01\x7f",
  };
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  return pool[pick(rng)];
}

std::string junk_key(std::mt19937_64& rng) {
  static const std::vector<std::string> pool = {
      "unknown_key", "trace.",     "trace.bogus", "history.unknown",
      "POLICY",      " policy",    "policy ",     "cluster.",
      "trace..seed", "obs.extra",  "\x02key",     "=",
  };
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  return pool[pick(rng)];
}

/// One random soup: mostly plausible lines, salted with duplicates, junk
/// keys/values, comments, blanks, and the occasional '='-less line.
std::string make_soup(std::mt19937_64& rng) {
  const auto& keys = scalar_keys();
  std::uniform_int_distribution<std::size_t> key_pick(0, keys.size() - 1);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int> line_count(1, 16);

  std::vector<std::string> lines;
  const int n = line_count(rng);
  for (int i = 0; i < n; ++i) {
    const int roll = percent(rng);
    if (roll < 5) {
      lines.push_back("# comment " + std::to_string(i));
    } else if (roll < 8) {
      lines.emplace_back();
    } else if (roll < 12) {
      lines.push_back("a line without an equals sign");
    } else if (roll < 25) {
      lines.push_back(junk_key(rng) + "=" + junk_value(rng));
    } else {
      const std::string& key = keys[key_pick(rng)];
      const bool junk = percent(rng) < 30;
      lines.push_back(key + "=" +
                      (junk ? junk_value(rng) : plausible_value(key, rng)));
    }
  }
  // Duplicate an earlier line sometimes (last-wins semantics must hold).
  if (!lines.empty() && percent(rng) < 40) {
    std::uniform_int_distribution<std::size_t> dup(0, lines.size() - 1);
    lines.push_back(lines[dup(rng)]);
  }
  std::shuffle(lines.begin(), lines.end(), rng);
  std::string soup;
  for (const std::string& line : lines) soup += line + "\n";
  return soup;
}

TEST(SpecFuzzTest, TenThousandSoupsRoundTripOrThrowNamedErrors) {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    std::mt19937_64 rng(0xC0FFEEull ^ (i * 0x9E3779B97F4A7C15ull));
    const std::string soup = make_soup(rng);
    SCOPED_TRACE("iteration " + std::to_string(i) + " soup:\n" + soup);
    try {
      const ScenarioSpec spec = parse_scenario(soup);
      ++parsed;
      const std::string canon = serialize(spec);
      const ScenarioSpec again = parse_scenario(canon);
      // serialize is a fixed point of parse, and the parsed specs agree.
      EXPECT_EQ(serialize(again), canon);
      EXPECT_TRUE(spec == again);
    } catch (const std::invalid_argument& e) {
      ++rejected;
      // Every rejection names the scenario key or line that carried the
      // bad value; a client sees what to fix, never a parser internal.
      EXPECT_NE(std::string(e.what()).find("scenario"), std::string::npos)
          << "unhelpful error: " << e.what();
    }
    // Any other exception type (or a crash) fails the test run outright.
  }
  // The generator must exercise both outcomes heavily or the fuzz is
  // toothless.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST(SpecFuzzTest, KeyOrderNeverChangesSpecOrCacheKey) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    std::mt19937_64 rng(0xFACADEull + i);
    // Start from a guaranteed-valid spec: parse the canonical form of a
    // default spec, then randomize a few synthetic-safe fields.
    ScenarioSpec spec;
    spec.name = "fuzz_order_" + std::to_string(i);
    spec.trace.seed = i;
    spec.trace.horizon_s = 600.0 + static_cast<double>(i);
    spec.policy = (i % 2) != 0 ? "daly" : "formula3";
    spec.sim_seed = i * 3 + 1;

    const std::string canon = serialize(spec);
    std::vector<std::string> lines;
    std::istringstream is(canon);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    std::shuffle(lines.begin(), lines.end(), rng);
    std::string shuffled;
    for (const std::string& line : lines) shuffled += line + "\n";

    const ScenarioSpec reparsed = parse_scenario(shuffled);
    SCOPED_TRACE("iteration " + std::to_string(i));
    EXPECT_TRUE(reparsed == spec);
    EXPECT_EQ(scenario_cache_key(reparsed), scenario_cache_key(spec));
  }
}

TEST(SpecFuzzTest, DuplicateKeysAreLastWins) {
  const ScenarioSpec spec = parse_scenario(
      "policy=daly\nsim_seed=1\npolicy=young\nsim_seed=9\n");
  EXPECT_EQ(spec.policy, "young");
  EXPECT_EQ(spec.sim_seed, 9u);
}

TEST(SpecFuzzTest, InvalidValuesNameTheirKey) {
  try {
    (void)parse_scenario("estimation=sometimes\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario key 'estimation'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'sometimes'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cloudcr::api
