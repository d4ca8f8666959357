// service_mix: a closed loop of min(2, nproc) clients against one
// in-process svc::SimService. Each round is a fixed seeded mix of 8000 cache
// hits (a 64-spec working set, well inside the 256-entry LRU), 50 misses
// (trace seeds never requested before, which also evict) and 50 what-ifs
// (never-seen overrides resumed from the 32 snapshots parked at set-up).
// Hits take about half of a round's client time, so the round wall time
// answers to the hit path and to the miss and what-if paths alike.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/runner.hpp"
#include "layers.hpp"
#include "svc/service.hpp"

namespace perfbench {

namespace api = cloudcr::api;
namespace svc = cloudcr::svc;

api::ScenarioSpec service_spec(std::uint64_t trace_seed, std::size_t variant) {
  api::ScenarioSpec spec;
  spec.name = "perfbench_svc_" + std::to_string(trace_seed);
  spec.trace.seed = trace_seed;
  spec.trace.horizon_s = 1800.0;
  spec.trace.arrival_rate = 0.08;
  spec.policy = variant % 2 == 0 ? "formula3" : "daly";
  spec.sched = (variant / 2) % 2 == 0 ? "fcfs" : "backfill:easy";
  return spec;
}

namespace {

constexpr std::size_t kWorkingSet = 64;
constexpr std::size_t kForkBases = 32;
constexpr double kForkAt = 900.0;
constexpr std::size_t kHitsPerRound = 8000;
constexpr std::size_t kMissesPerRound = 50;
constexpr std::size_t kWhatIfsPerRound = 50;
constexpr std::size_t kMinRounds = 20;
constexpr std::size_t kHitSampleEvery = 16;
constexpr std::size_t kTracedSamples = 4;

const char* const kPolicies[] = {"formula3", "daly", "young", "none"};

enum class Kind { kHit, kMiss, kWhatIf };

/// Misses and what-ifs carry their payload on the heap, so the thousands of
/// hits in a round stay a few bytes each and peak_rss_mb stays the service's.
struct Request {
  Kind kind = Kind::kHit;
  std::size_t slot = 0;  ///< working-set index (hit)
  std::unique_ptr<const api::ScenarioSpec> spec;     ///< miss
  std::unique_ptr<const svc::WhatIfRequest> whatif;  ///< what-if
};

struct Reply {
  double latency_s = 0.0;
  bool cached = false;
  std::shared_ptr<const api::RunArtifact> artifact;
  std::string error;
  Clock::time_point end;
};

/// Inputs and the service they are served from.
struct Mix {
  std::uint64_t seed = 0;
  std::vector<api::ScenarioSpec> working_set;
  std::vector<RunDigest> working_digests;  ///< from the misses that filled it
  std::vector<api::ScenarioSpec> fork_bases;
  std::unique_ptr<svc::SimService> service;
  std::uint64_t next_miss = 0;    ///< never-requested trace seeds
  std::uint64_t next_whatif = 0;  ///< never-seen overrides
};

RunDigest digest_copy(const api::RunArtifact& artifact) {
  api::RunArtifact copy = artifact;
  return digest_of(copy);
}

svc::ServiceOptions service_options(const Args& args) {
  svc::ServiceOptions opt;
  opt.cache_capacity = 256;
  opt.snapshot_capacity = kForkBases;
  opt.threads = args.threads;
  return opt;
}

/// Set-up: a fresh service, the working set filled through one batch, and
/// one what-if per fork base to park its snapshot.
void set_up(Mix& mix, const Args& args) {
  const std::uint64_t base = mix_seed(mix.seed) % 1000000007ULL;
  mix.working_set.clear();
  for (std::size_t i = 0; i < kWorkingSet; ++i) {
    mix.working_set.push_back(service_spec(base + i, i));
  }
  mix.fork_bases.clear();
  for (std::size_t j = 0; j < kForkBases; ++j) {
    mix.fork_bases.push_back(service_spec(base + kWorkingSet + j, j));
  }
  mix.next_miss = base + kWorkingSet + kForkBases;
  mix.service.reset();
  mix.service = std::make_unique<svc::SimService>(service_options(args));
  const std::vector<svc::ServiceReply> filled =
      mix.service->batch(mix.working_set);
  mix.working_digests.clear();
  for (const svc::ServiceReply& r : filled) {
    mix.working_digests.push_back(digest_copy(*r.artifact));
  }
  for (const api::ScenarioSpec& spec : mix.fork_bases) {
    svc::WhatIfRequest req;
    req.base = spec;
    req.fork_at = kForkAt;
    req.policy = "young";
    (void)mix.service->whatif(req);
  }
}

/// One round's requests in seeded order.
std::vector<Request> plan_round(Mix& mix, std::uint64_t round) {
  std::vector<Request> reqs;
  std::uint64_t state = mix_seed(mix.seed * 1000003ULL + round);
  const auto next = [&state] { return state = mix_seed(state); };
  for (std::size_t i = 0; i < kHitsPerRound; ++i) {
    Request r;
    r.kind = Kind::kHit;
    r.slot = next() % kWorkingSet;
    reqs.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < kMissesPerRound; ++i) {
    Request r;
    r.kind = Kind::kMiss;
    r.spec = std::make_unique<const api::ScenarioSpec>(
        service_spec(mix.next_miss++, next() % 4));
    reqs.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < kWhatIfsPerRound; ++i) {
    svc::WhatIfRequest w;
    w.base = mix.fork_bases[next() % kForkBases];
    w.fork_at = kForkAt;
    w.policy = kPolicies[next() % 4];
    w.detection_delay_s = 1.0 + 1e-3 * static_cast<double>(++mix.next_whatif);
    Request r;
    r.kind = Kind::kWhatIf;
    r.whatif = std::make_unique<const svc::WhatIfRequest>(std::move(w));
    reqs.push_back(std::move(r));
  }
  for (std::size_t i = reqs.size(); i > 1; --i) {
    std::swap(reqs[i - 1], reqs[next() % i]);
  }
  return reqs;
}

struct RoundResult {
  std::vector<Reply> replies;
  Clock::time_point start, end;
  double wall_s = 0.0;
  double tail_s = 0.0;
};

/// Closed loop: each client takes the next request, waits for its reply,
/// then takes another.
RoundResult run_round(Mix& mix, const std::vector<Request>& reqs,
                      std::size_t clients) {
  RoundResult rr;
  rr.replies.resize(reqs.size());
  std::atomic<std::size_t> cursor{0};
  const auto client = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= reqs.size()) return;
      const Request& q = reqs[i];
      Reply& out = rr.replies[i];
      const auto t0 = Clock::now();
      try {
        svc::ServiceReply reply;
        switch (q.kind) {
          case Kind::kHit:
            reply = mix.service->run(mix.working_set[q.slot]);
            break;
          case Kind::kMiss:
            reply = mix.service->run(*q.spec);
            break;
          case Kind::kWhatIf:
            reply = mix.service->whatif(*q.whatif);
            break;
        }
        out.cached = reply.cached;
        out.artifact = std::move(reply.artifact);
      } catch (const std::exception& e) {
        out.error = e.what();
      }
      out.end = Clock::now();
      out.latency_s = seconds_between(t0, out.end);
    }
  };
  rr.start = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (std::size_t c = 0; c < clients; ++c) pool.emplace_back(client);
  }
  rr.end = Clock::now();
  rr.wall_s = seconds_between(rr.start, rr.end);
  Clock::time_point last = rr.start;
  for (const Reply& r : rr.replies) last = std::max(last, r.end);
  rr.tail_s = seconds_between(last, rr.end);
  return rr;
}

/// Latency samples per class, in seconds. Only every kHitSampleEvery-th
/// request's hit latency is kept, so the samples grow by kilobytes a round
/// and the peak RSS does not depend on how many rounds a run makes.
struct Samples {
  std::vector<double> hit, miss, whatif;
  double hit_total_s = 0.0;  ///< every hit's latency, summed
  double total_s = 0.0;      ///< every request's latency, summed
};

/// Verifies a finished round outside the timed window: hits against the
/// misses that filled the working set, misses against direct ScenarioRunner
/// runs, and one seeded what-if against a fresh service. Classifies
/// latencies by ServiceReply::cached and by request type.
void verify_round(Mix& mix, const Args& args, std::uint64_t round,
                  const std::vector<Request>& reqs, const RoundResult& rr,
                  Samples& samples, Outcome& out) {
  std::unordered_map<const api::RunArtifact*, RunDigest> memo;
  std::vector<std::size_t> misses;
  std::vector<std::size_t> whatifs;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& q = reqs[i];
    const Reply& r = rr.replies[i];
    ++out.attempted;
    if (!r.error.empty() || !r.artifact) {
      out.fail("request threw: " + r.error);
      continue;
    }
    samples.total_s += r.latency_s;
    if (q.kind == Kind::kWhatIf) {
      samples.whatif.push_back(r.latency_s);
      whatifs.push_back(i);
      continue;
    }
    if (!r.cached) {
      samples.miss.push_back(r.latency_s);
    } else {
      samples.hit_total_s += r.latency_s;
      if (i % kHitSampleEvery == 0) samples.hit.push_back(r.latency_s);
    }
    if (q.kind == Kind::kMiss) {
      if (r.cached) out.fail("never-seen spec answered from cache");
      misses.push_back(i);
      continue;
    }
    auto it = memo.find(r.artifact.get());
    if (it == memo.end()) {
      it = memo.emplace(r.artifact.get(), digest_copy(*r.artifact)).first;
    }
    if (!(it->second == mix.working_digests[q.slot])) {
      out.fail("hit differs from the miss that filled it");
    }
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> bad{0};
  const auto checker = [&] {
    for (;;) {
      const std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      if (k >= misses.size()) return;
      const std::size_t i = misses[k];
      try {
        api::RunArtifact direct = api::ScenarioRunner(*reqs[i].spec).run();
        if (!(digest_of(direct) == digest_copy(*rr.replies[i].artifact))) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    for (std::size_t c = 0; c < args.threads; ++c) pool.emplace_back(checker);
  }
  for (std::size_t k = 0; k < bad.load(); ++k) {
    out.fail("miss differs from a direct ScenarioRunner run");
  }

  if (!whatifs.empty()) {
    const std::size_t i =
        whatifs[mix_seed(mix.seed ^ (round * 7919ULL)) % whatifs.size()];
    svc::SimService fresh(service_options(args));
    const svc::ServiceReply ref = fresh.whatif(*reqs[i].whatif);
    if (!(digest_copy(*ref.artifact) ==
          digest_copy(*rr.replies[i].artifact))) {
      out.fail("what-if differs from a fresh service's what-if");
    }
  }
}

/// Executed (non-cached) work of a round: simulation counts and seconds.
void account_executed(const std::vector<Request>& reqs, const RoundResult& rr,
                      LayerReport& r, double& executed_latency_s) {
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Reply& reply = rr.replies[i];
    if (reply.cached || !reply.artifact) continue;
    const api::RunArtifact& a = *reply.artifact;
    add_result_counts(r, a.result);
    r.batch_busy_s += a.estimation_wall_s + a.wall_time_s;
    r.sim_self_s += a.wall_time_s;
    r.rows += a.rows_read;
    ++r.artifacts;
    executed_latency_s += reply.latency_s;
  }
}

void record_spans(SpanLog& log, const std::vector<Request>& reqs,
                  const RoundResult& rr, std::uint64_t round,
                  std::uint64_t first_id) {
  const int root = log.add("svc.round", rr.start, rr.end, round);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Reply& r = rr.replies[i];
    const char* name = reqs[i].kind == Kind::kWhatIf ? "svc.whatif"
                       : r.cached                    ? "svc.hit"
                                                     : "svc.miss";
    log.add(name,
            r.end - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(r.latency_s)),
            r.end, first_id + i, root);
  }
}

}  // namespace

Outcome run_service_mix(const Args& args) {
  Outcome out;
  Mix mix;
  mix.seed = args.seed;
  SetupTimer setups;
  setups.run([&] { set_up(mix, args); });
  out.notes.push_back(
      "input: 1800-s synthetic specs; per round " +
      std::to_string(kHitsPerRound) + " hits over a " +
      std::to_string(kWorkingSet) + "-spec working set, " +
      std::to_string(kMissesPerRound) + " misses, " +
      std::to_string(kWhatIfsPerRound) + " what-ifs over " +
      std::to_string(kForkBases) + " parked forks; " +
      std::to_string(args.threads) + " closed-loop clients");

  Samples samples;
  std::vector<double> round_walls;
  std::vector<double> rss;
  std::uint64_t round = 0;
  std::size_t requests = 0;
  double timed_s = 0.0;

  // Traced runs spend the first half untraced (the overhead baseline) and
  // the second half on a fresh, traced service.
  const double untraced_budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const auto begin = Clock::now();
  do {
    // Later set-ups stand up a spare service, so the measured one keeps its
    // cache and parked snapshots.
    if (!args.trace && setups.due()) {
      Mix spare;
      spare.seed = mix.seed;
      setups.run([&] { set_up(spare, args); });
    }
    ++round;
    const std::vector<Request> reqs = plan_round(mix, round);
    reset_peak_rss();
    const RoundResult rr = run_round(mix, reqs, args.threads);
    rss.push_back(peak_rss_mb());
    round_walls.push_back(rr.wall_s);
    timed_s += rr.wall_s;
    requests += reqs.size();
    verify_round(mix, args, round, reqs, rr, samples, out);
  } while (round < (args.trace ? kMinRounds / 2 : kMinRounds) ||
           seconds_since(begin) < untraced_budget);

  if (!args.trace) {
    out.metrics = {{"setup_s", median(setups.samples()), "s"},
                   {"wall_s", median(round_walls), "s"},
                   {"peak_rss_mb", median(rss), "MB"}};
    out.extra = {
        {"requests_per_s", static_cast<double>(requests) / timed_s, "1/s"},
        {"hit_p50_us", percentile(samples.hit, 0.5) * 1e6, "us"},
        {"hit_p99_us", percentile(samples.hit, 0.99) * 1e6, "us"},
        {"miss_p50_ms", percentile(samples.miss, 0.5) * 1e3, "ms"},
        {"miss_p99_ms", percentile(samples.miss, 0.99) * 1e3, "ms"},
        {"whatif_p50_ms", percentile(samples.whatif, 0.5) * 1e3, "ms"},
        {"whatif_p99_ms", percentile(samples.whatif, 0.99) * 1e3, "ms"}};
    const double hit_share = samples.hit_total_s / samples.total_s;
    out.notes.push_back("set-ups (s): " + list_values(setups.samples()));
    out.notes.push_back(
        "rounds: " + std::to_string(round) + ", latency samples: hit " +
        std::to_string(samples.hit.size()) + ", miss " +
        std::to_string(samples.miss.size()) + ", what-if " +
        std::to_string(samples.whatif.size()) +
        ", hit share of client time " + std::to_string(hit_share));
    return out;
  }

  // -- traced half ---------------------------------------------------------
  set_tracing(true);
  set_up(mix, args);
  const svc::ServiceStats before = mix.service->stats();
  reset_tallies();
  SpanLog log;
  LayerReport r;
  std::vector<double> traced_walls;
  std::vector<double> tails;
  double executed_latency_s = 0.0;
  std::vector<api::ScenarioSpec> key_specs;
  std::vector<api::ScenarioSpec> samples_to_replay;
  const auto traced_begin = Clock::now();
  do {
    ++round;
    const std::vector<Request> reqs = plan_round(mix, round);
    const RoundResult rr = run_round(mix, reqs, args.threads);
    traced_walls.push_back(rr.wall_s);
    tails.push_back(rr.tail_s);
    account_executed(reqs, rr, r, executed_latency_s);
    record_spans(log, reqs, rr, round, requests);
    // Verification replays must not reach the tallies.
    set_tracing(false);
    verify_round(mix, args, round, reqs, rr, samples, out);
    set_tracing(true);
    requests += reqs.size();
    if (key_specs.empty()) {
      for (const Request& q : reqs) {
        key_specs.push_back(q.kind == Kind::kHit    ? mix.working_set[q.slot]
                            : q.kind == Kind::kMiss ? *q.spec
                                                    : q.whatif->base);
        if (q.kind == Kind::kMiss && samples_to_replay.size() < kTracedSamples) {
          samples_to_replay.push_back(*q.spec);
        }
      }
    }
  } while (traced_walls.size() < kMinRounds / 2 ||
           seconds_since(traced_begin) < args.seconds / 2.0);
  r.tally = total_tally();
  const svc::ServiceStats after = mix.service->stats();
  set_tracing(false);

  // Delegates must not change results: replay sampled misses untraced and
  // through the traced rebuild, and compare them byte for byte.
  reset_tallies();
  for (std::size_t k = 0; k < samples_to_replay.size(); ++k) {
    out.attempted += 2;
    try {
      set_tracing(false);
      api::RunArtifact plain =
          api::ScenarioRunner(samples_to_replay[k]).run_streamed();
      set_tracing(true);
      cloudcr::sim::ReplayWorkspace workspace;
      ReplayTimes times;
      api::RunArtifact traced = traced_run_streamed(
          samples_to_replay[k], &workspace, log, requests + k, times);
      if (!(digest_of(plain) == digest_of(traced))) {
        out.fail("traced sample replay differs from untraced");
      }
      r.ingest_parse_s += times.ingest_open_s;
      r.chunks += times.chunks;
      r.task_rows_high_water = std::max<std::uint64_t>(
          r.task_rows_high_water, workspace.tasks.size());
      r.job_slots_high_water = std::max<std::uint64_t>(
          r.job_slots_high_water, workspace.jobs.size());
    } catch (const std::exception& e) {
      out.fail(std::string("sample replay threw: ") + e.what());
    }
  }
  set_tracing(false);
  r.ingest_pull_s = static_cast<double>(total_tally().pull_ns) * 1e-9;

  const LayerTally& t = r.tally;
  const double threads = static_cast<double>(args.threads);
  double traced_timed = 0.0;
  for (const double w : traced_walls) traced_timed += w;
  r.estimation_s = static_cast<double>(t.observe_ns + t.finalize_ns) * 1e-9;
  r.sim_self_s -=
      static_cast<double>(t.predictor_ns + t.policy_ns + t.sched_ns) * 1e-9;
  r.batch_efficiency = r.batch_busy_s / (threads * traced_timed);
  r.tail_s = median(tails);
  r.wall_s = median(traced_walls);
  r.untimed_s = executed_latency_s - r.batch_busy_s;
  r.overhead_s = r.wall_s - median(round_walls);
  r.cache_key_us = cache_key_us(key_specs);
  r.cache_hits = after.cache_hits - before.cache_hits;
  r.cache_misses = after.cache_misses - before.cache_misses;
  r.evictions = after.evictions - before.evictions;
  r.snapshot_resumes = after.snapshot_resumes - before.snapshot_resumes;
  r.snapshot_bytes = after.snapshot_bytes;
  r.hit_ratio = r.cache_hits + r.cache_misses > 0
                    ? static_cast<double>(r.cache_hits) /
                          static_cast<double>(r.cache_hits + r.cache_misses)
                    : 0.0;
  r.spans = log.size();
  if (!args.trace_out.empty() && !log.write_json(args.trace_out)) {
    out.notes.push_back("could not write spans to " + args.trace_out);
  }
  out.metrics = layer_metrics(r);
  out.notes.push_back("traced rounds: " + std::to_string(traced_walls.size()) +
                      ", untraced rounds: " +
                      std::to_string(round_walls.size()));
  return out;
}

}  // namespace perfbench
