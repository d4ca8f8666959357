#pragma once

// Shared plumbing of the cloudcr benchmark: command-line arguments, the
// result line, output digests, and order statistics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include <malloc.h>

#include "api/artifact_io.hpp"
#include "api/runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;     ///< scratch space for generated inputs
  std::string trace_out;   ///< where the traced run writes its spans
  std::size_t threads = 1; ///< min(2, nproc)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the correctness verdict, the operation
/// counts behind error_rate, the machine-readable metrics, and the rows the
/// human table prints after them.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed verbatim before the table
  std::vector<Metric> extra;       ///< workload-only rows (human table only)

  void fail(const std::string& why) {
    ++failed;
    notes.push_back("CHECK FAILED: " + why);
  }
};

// -- order statistics ---------------------------------------------------------

/// Median (mean of the middle pair for even counts); 0 for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]); 0 for no samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

/// Times a workload's set-up, repeated over the whole run rather than back
/// to back. A shared host's speed drifts in phases of a second or more, so a
/// burst of set-ups samples one phase and its median moves from run to run;
/// set-ups spread like the passes are sampled like the passes. The workload
/// sets up once before its first pass, then between passes while due() says
/// so: one set-up per kEverySeconds of the run spent outside set-ups, so a
/// pass longer than that is followed by a few. setup_s is the median of
/// samples().
class SetupTimer {
 public:
  template <class F>
  void run(F&& set_up) {
    const auto t0 = Clock::now();
    set_up();
    const double took = seconds_since(t0);
    samples_.push_back(took);
    setup_total_s_ += took;
  }

  /// True while the run has made fewer set-ups than one per kEverySeconds
  /// spent outside them. Set-up time does not count, so a burst ends however
  /// slow a set-up is.
  [[nodiscard]] bool due() const {
    const double outside = seconds_since(start_) - setup_total_s_;
    return static_cast<double>(samples_.size()) < outside / kEverySeconds;
  }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr double kEverySeconds = 1.0;
  std::vector<double> samples_;
  double setup_total_s_ = 0.0;
  Clock::time_point start_ = Clock::now();
};

/// "a b c" with each value in seconds, for the human notes.
inline std::string list_values(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.4f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

// -- memory -------------------------------------------------------------------

/// Hands freed heap memory back to the kernel and resets the peak-RSS mark
/// (VmHWM), so the next peak_rss_mb() covers only what runs after the reset
/// and not what the allocator kept from earlier passes or set-ups.
inline void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last reset (VmHWM), in MB.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// -- digests ------------------------------------------------------------------

/// An ostream sink that folds every byte into an FNV-1a 64 hash, so a
/// month-scale artifact JSON can be fingerprinted without materializing it.
class HashBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t hash() const noexcept { return h_; }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) mix(static_cast<unsigned char>(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      mix(static_cast<unsigned char>(s[i]));
    }
    return n;
  }

 private:
  void mix(unsigned char c) noexcept {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The replay facts checked on every run: the shape of the replay set and
/// of the simulation, the bits of average WPR, and a hash of the artifact's
/// full JSON (spec echo, summary and every job outcome) with the host-side
/// timing fields zeroed. Two runs agree iff their digests are equal.
struct RunDigest {
  std::uint64_t jobs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;
  std::uint64_t unschedulable = 0;
  std::uint64_t wpr_bits = 0;
  std::uint64_t json_hash = 0;

  friend bool operator==(const RunDigest&, const RunDigest&) = default;

  [[nodiscard]] std::string str() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "jobs=%llu tasks=%llu events=%llu ckpts=%llu failures=%llu "
                  "unsched=%llu wpr=%016llx json=%016llx",
                  static_cast<unsigned long long>(jobs),
                  static_cast<unsigned long long>(tasks),
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(checkpoints),
                  static_cast<unsigned long long>(failures),
                  static_cast<unsigned long long>(unschedulable),
                  static_cast<unsigned long long>(wpr_bits),
                  static_cast<unsigned long long>(json_hash));
    return buf;
  }
};

/// Writes the artifact's JSON (spec echo, summary, every job outcome) with
/// the host-side observations (wall times, peak RSS) zeroed, so the bytes
/// depend on results only.
inline void write_result_json(std::ostream& os,
                              cloudcr::api::RunArtifact& artifact) {
  const double wall = artifact.wall_time_s;
  const double est = artifact.estimation_wall_s;
  const double rss = artifact.peak_rss_mb;
  artifact.wall_time_s = 0.0;
  artifact.estimation_wall_s = 0.0;
  artifact.peak_rss_mb = 0.0;
  cloudcr::api::write_artifact_json(os, artifact, /*include_outcomes=*/true);
  artifact.wall_time_s = wall;
  artifact.estimation_wall_s = est;
  artifact.peak_rss_mb = rss;
}

/// The digest without the JSON hash (cheap: no serialization).
inline RunDigest summary_of(const cloudcr::api::RunArtifact& artifact) {
  RunDigest d;
  d.jobs = artifact.trace_jobs;
  d.tasks = artifact.trace_tasks;
  d.events = artifact.result.events_dispatched;
  d.checkpoints = artifact.result.total_checkpoints;
  d.failures = artifact.result.total_failures;
  d.unschedulable = artifact.result.total_unschedulable;
  const double wpr = artifact.result.average_wpr();
  std::memcpy(&d.wpr_bits, &wpr, sizeof wpr);
  return d;
}

/// The full digest, JSON hash included.
inline RunDigest digest_of(cloudcr::api::RunArtifact& artifact) {
  RunDigest d = summary_of(artifact);
  HashBuf buf;
  std::ostream os(&buf);
  write_result_json(os, artifact);
  os.flush();
  d.json_hash = buf.hash();
  return d;
}

/// SplitMix64: derives independent input seeds from the benchmark seed.
inline std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// -- workload inputs ---------------------------------------------------------

/// The synthetic 30-day month of perf_baseline --month-scale streamed
/// (oracle predictor, fcfs, formula3), trace seed drawn from `seed`.
cloudcr::api::ScenarioSpec month_spec(std::uint64_t seed, double horizon_s);

/// Writes trace_sched's 2-day Google task_events log; returns its rows.
std::size_t write_sched_log(const std::string& path);

/// The trace_sched scenario over a log written by write_sched_log: grouped
/// estimation and conservative backfill on sched01/02's contended 4x2-VM
/// cluster.
cloudcr::api::ScenarioSpec sched_spec(const std::string& log_path);

/// The 1800-s synthetic spec every service_mix request is built from.
cloudcr::api::ScenarioSpec service_spec(std::uint64_t trace_seed,
                                        std::size_t variant);

// -- workloads ----------------------------------------------------------------

Outcome run_month_stream(const Args& args);
Outcome run_trace_sched(const Args& args);
Outcome run_repro_matrix(const Args& args);
Outcome run_service_mix(const Args& args);

/// Byte-identity self-test: traced and untraced runs of each replay shape
/// must produce identical artifacts. Returns the number of mismatches.
int run_selftest(const Args& args);

}  // namespace perfbench
