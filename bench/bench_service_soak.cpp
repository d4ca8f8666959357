// bench_service_soak — CI gate for the resident simulation service.
//
// Drives an in-process svc::SimService the way a resident deployment would
// be driven: a warm-up pass populates the artifact cache (and a few what-if
// forks park snapshots), then N client threads hammer the cached working
// set concurrently. Two gates, both hard (non-zero exit):
//
//   1. latency  — at least --hit-fraction of the soak requests (all cache
//      hits) must answer under --hit-under-ms;
//   2. memory   — process peak RSS must stay under --max-rss-mb, proving a
//      long-lived service with bounded caches does not accumulate.
//
// The run also asserts correctness invariants that a latency harness gets
// for free: every soak reply must be served from the cache, byte-identical
// to the warm-up artifact, and the service's trace-read accounting must not
// move during the soak (cache hits never touch a trace source).
//
// Like perf_baseline, --json writes a machine-readable summary that CI
// uploads from every run, green or red.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/artifact_io.hpp"
#include "api/scenario.hpp"
#include "obs/probe.hpp"
#include "svc/service.hpp"

namespace {

using cloudcr::api::ScenarioSpec;
using cloudcr::svc::ServiceReply;
using cloudcr::svc::SimService;

struct SoakConfig {
  std::size_t clients = 64;
  std::size_t requests_per_client = 128;
  double hit_under_ms = 1.0;
  double hit_fraction = 0.95;
  double max_rss_mb = 256.0;
  std::string json_path;
};

/// The cached working set: small, fast scenarios spanning the policy and
/// seed axes so hits exercise distinct cache keys.
std::vector<ScenarioSpec> working_set() {
  std::vector<ScenarioSpec> specs;
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    for (const char* policy : {"formula3", "daly"}) {
      ScenarioSpec spec;
      spec.name = std::string("soak_") + policy + "_s" + std::to_string(seed);
      spec.policy = policy;
      spec.trace.seed = seed;
      spec.trace.horizon_s = 1800.0;
      spec.trace.arrival_rate = 0.08;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::string artifact_bytes(const ServiceReply& reply) {
  std::ostringstream os;
  cloudcr::api::write_artifact_json(os, *reply.artifact,
                                    /*include_outcomes=*/true);
  return os.str();
}

double percentile_us(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

int run_soak(const SoakConfig& config) {
  SimService service;
  const std::vector<ScenarioSpec> specs = working_set();

  // Warm-up: every spec executes exactly once (through the batch pool,
  // like a driver filling a dashboard), and two what-if forks park
  // snapshots so the soak's memory gate covers them too.
  std::vector<std::string> expected;
  for (const ServiceReply& reply : service.batch(specs)) {
    expected.push_back(artifact_bytes(reply));
  }
  for (const double fork_at : {600.0, 1200.0}) {
    cloudcr::svc::WhatIfRequest whatif;
    whatif.base = specs[0];
    whatif.fork_at = fork_at;
    whatif.detection_delay_s = 30.0;
    (void)service.whatif(whatif);
  }
  const std::uint64_t trace_reads_before = service.stats().trace_reads;

  // Soak: every client walks the working set round-robin from its own
  // offset; every request must be a byte-identical cache hit.
  std::vector<std::vector<double>> latencies_us(config.clients);
  std::vector<std::string> failures(config.clients);
  std::vector<std::thread> clients;
  clients.reserve(config.clients);
  for (std::size_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      auto& bucket = latencies_us[c];
      bucket.reserve(config.requests_per_client);
      for (std::size_t i = 0; i < config.requests_per_client; ++i) {
        const std::size_t s = (c + i) % specs.size();
        const auto t0 = std::chrono::steady_clock::now();
        const ServiceReply reply = service.run(specs[s]);
        const auto t1 = std::chrono::steady_clock::now();
        bucket.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (!reply.cached) {
          failures[c] = "request was not served from the cache";
          return;
        }
        if (artifact_bytes(reply) != expected[s]) {
          failures[c] = "cached artifact differs from the warm-up artifact";
          return;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  for (std::size_t c = 0; c < config.clients; ++c) {
    if (!failures[c].empty()) {
      std::cerr << "FAIL client " << c << ": " << failures[c] << "\n";
      return 1;
    }
  }

  std::vector<double> all_us;
  for (const auto& bucket : latencies_us) {
    all_us.insert(all_us.end(), bucket.begin(), bucket.end());
  }
  std::sort(all_us.begin(), all_us.end());
  const double limit_us = config.hit_under_ms * 1000.0;
  const auto under = static_cast<std::size_t>(
      std::lower_bound(all_us.begin(), all_us.end(), limit_us) -
      all_us.begin());
  const double fraction_under =
      all_us.empty() ? 0.0
                     : static_cast<double>(under) /
                           static_cast<double>(all_us.size());
  const double rss_mb = cloudcr::obs::peak_rss_mb();
  const auto stats = service.stats();

  std::cout << "service soak: " << config.clients << " clients x "
            << config.requests_per_client << " requests over " << specs.size()
            << " scenarios\n"
            << "  hit latency: p50 " << percentile_us(all_us, 0.50)
            << " us, p95 " << percentile_us(all_us, 0.95) << " us, p99 "
            << percentile_us(all_us, 0.99) << " us\n"
            << "  under " << config.hit_under_ms << " ms: "
            << 100.0 * fraction_under << "% (gate "
            << 100.0 * config.hit_fraction << "%)\n"
            << "  peak RSS: " << rss_mb << " MB (gate " << config.max_rss_mb
            << " MB)\n"
            << "  cache: " << stats.cache_hits << " hits, "
            << stats.cache_misses << " misses, " << stats.snapshot_resumes
            << " snapshot resumes, " << stats.snapshot_bytes
            << " parked snapshot bytes\n";

  bool json_ok = true;
  if (!config.json_path.empty()) {
    std::ofstream os(config.json_path);
    os << "{\"schema\":\"cloudcr-service-soak-v1\",\"clients\":"
       << config.clients
       << ",\"requests_per_client\":" << config.requests_per_client
       << ",\"scenarios\":" << specs.size() << ",\"p50_us\":"
       << percentile_us(all_us, 0.50) << ",\"p95_us\":"
       << percentile_us(all_us, 0.95) << ",\"p99_us\":"
       << percentile_us(all_us, 0.99) << ",\"fraction_under_limit\":"
       << fraction_under << ",\"hit_under_ms\":" << config.hit_under_ms
       << ",\"peak_rss_mb\":" << rss_mb << ",\"cache_hits\":"
       << stats.cache_hits << ",\"cache_misses\":" << stats.cache_misses
       << ",\"snapshot_resumes\":" << stats.snapshot_resumes
       << ",\"snapshot_bytes\":" << stats.snapshot_bytes
       << ",\"trace_reads\":" << stats.trace_reads << "}\n";
    os.flush();  // a full device fails only once the buffer drains
    if (!os) {
      std::cerr << "cannot write " << config.json_path << "\n";
      json_ok = false;
    }
  }

  int failed = 0;
  if (fraction_under < config.hit_fraction) {
    std::cerr << "FAIL: only " << 100.0 * fraction_under
              << "% of cache hits answered under " << config.hit_under_ms
              << " ms (gate " << 100.0 * config.hit_fraction << "%)\n";
    failed = 1;
  }
  if (rss_mb > config.max_rss_mb) {
    std::cerr << "FAIL: peak RSS " << rss_mb << " MB exceeds the "
              << config.max_rss_mb << " MB ceiling\n";
    failed = 1;
  }
  if (stats.trace_reads != trace_reads_before) {
    std::cerr << "FAIL: the soak performed " << stats.trace_reads
              << " trace reads (expected " << trace_reads_before
              << " — cache hits must never touch a trace source)\n";
    failed = 1;
  }
  return json_ok ? failed : 2;
}

/// A count flag: an unsigned integer above 0.
std::size_t parse_count_flag(const std::string& flag, const char* text) {
  std::uint64_t value = 0;
  try {
    value = cloudcr::api::parse_checked_u64(flag, text);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_service_soak: " << e.what() << "\n";
    std::exit(2);
  }
  if (value == 0) {
    std::cerr << "bench_service_soak: " << flag << " must be > 0\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(value);
}

/// A gate threshold: a finite number above 0. A NaN or non-positive
/// threshold would switch its gate off instead of failing it.
double parse_threshold_flag(const std::string& flag, const char* text) {
  double value = 0.0;
  try {
    value = cloudcr::api::parse_checked_double(flag, text);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_service_soak: " << e.what() << "\n";
    std::exit(2);
  }
  if (!(std::isfinite(value) && value > 0.0)) {
    std::cerr << "bench_service_soak: " << flag
              << " must be finite and > 0, got '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  SoakConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--clients" && has_value) {
      config.clients = parse_count_flag(arg, argv[++i]);
    } else if (arg == "--requests" && has_value) {
      config.requests_per_client = parse_count_flag(arg, argv[++i]);
    } else if (arg == "--hit-under-ms" && has_value) {
      config.hit_under_ms = parse_threshold_flag(arg, argv[++i]);
    } else if (arg == "--hit-fraction" && has_value) {
      config.hit_fraction = parse_threshold_flag(arg, argv[++i]);
      if (config.hit_fraction > 1.0) {
        std::cerr << "bench_service_soak: --hit-fraction must be <= 1, got '"
                  << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--max-rss-mb" && has_value) {
      config.max_rss_mb = parse_threshold_flag(arg, argv[++i]);
    } else if (arg == "--json" && has_value) {
      config.json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_service_soak [--clients N] [--requests N]\n"
                   "  [--hit-under-ms X] [--hit-fraction F]\n"
                   "  [--max-rss-mb X] [--json PATH]\n";
      return 2;
    }
  }
  return run_soak(config);
}
