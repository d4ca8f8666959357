// PolicyRegistry / PredictorRegistry: builtin coverage, key-argument
// parsing, unknown-name diagnostics, and custom registration.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "api/registry.hpp"
#include "api/runner.hpp"
#include "trace/generator.hpp"

namespace cloudcr::api {
namespace {

TEST(SplitKey, SeparatesNameAndArgument) {
  EXPECT_EQ(split_key("formula3").name, "formula3");
  EXPECT_EQ(split_key("formula3").arg, "");
  EXPECT_EQ(split_key("fixed:45").name, "fixed");
  EXPECT_EQ(split_key("fixed:45").arg, "45");
  EXPECT_EQ(split_key("a:b:c").name, "a");
  EXPECT_EQ(split_key("a:b:c").arg, "b:c");
}

TEST(PolicyRegistry, BuiltinsProduceCorrectPolicies) {
  auto& registry = PolicyRegistry::instance();
  EXPECT_EQ(registry.make("formula3")->name(), "formula3");
  EXPECT_EQ(registry.make("formula3:exact")->name(), "formula3");
  EXPECT_EQ(registry.make("young")->name(), "young");
  EXPECT_EQ(registry.make("daly")->name(), "daly");
  EXPECT_EQ(registry.make("none")->name(), "none");
  EXPECT_EQ(registry.make("fixed:45")->name(), "fixed(45s)");
}

TEST(PolicyRegistry, FixedParsesItsInterval) {
  const auto policy = PolicyRegistry::instance().make("fixed:120");
  core::PolicyContext ctx;
  ctx.total_work_s = 1000.0;
  ctx.remaining_work_s = 1000.0;
  ctx.checkpoint_cost_s = 1.0;
  ctx.stats = {1.0, 100.0};
  EXPECT_DOUBLE_EQ(policy->next_interval(ctx), 120.0);
}

TEST(PolicyRegistry, UnknownNameListsRegisteredOnes) {
  try {
    (void)PolicyRegistry::instance().make("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nope"), std::string::npos);
    EXPECT_NE(message.find("formula3"), std::string::npos);
    EXPECT_NE(message.find("young"), std::string::npos);
  }
}

TEST(PolicyRegistry, MalformedArgumentsThrow) {
  auto& registry = PolicyRegistry::instance();
  EXPECT_THROW((void)registry.make("fixed"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("fixed:abc"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("fixed:-5"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("formula3:bogus"), std::invalid_argument);
  // Plain keys take no argument: "young:xyz" is not a second spelling of
  // "young".
  EXPECT_THROW((void)registry.make("young:xyz"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("daly:1"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("none:q"), std::invalid_argument);
}

TEST(PolicyRegistry, ContainsAndNames) {
  const auto registry = PolicyRegistry::with_builtins();
  EXPECT_TRUE(registry.contains("daly"));
  EXPECT_TRUE(registry.contains("fixed:45"));  // name part is looked up
  EXPECT_FALSE(registry.contains("nope"));
  const auto names = registry.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_NE(std::find(names.begin(), names.end(), "formula3"), names.end());
}

TEST(PolicyRegistry, CustomRegistrationPlugsIn) {
  auto registry = PolicyRegistry::with_builtins();
  registry.add("always_100", [](const std::string&) -> core::PolicyPtr {
    return std::make_unique<core::FixedIntervalPolicy>(100.0);
  });
  EXPECT_TRUE(registry.contains("always_100"));
  EXPECT_EQ(registry.make("always_100")->name(), "fixed(100s)");
}

trace::Trace tiny_trace() {
  TraceSpec spec;
  spec.seed = 11;
  spec.horizon_s = 1800.0;
  spec.arrival_rate = 0.05;
  spec.sample_job_filter = false;
  return make_trace(spec);
}

TEST(PredictorRegistry, BuiltinsProduceCallablePredictors) {
  const auto trace = tiny_trace();
  ASSERT_FALSE(trace.jobs.empty());
  const auto& task = trace.jobs.front().tasks.front();

  auto& registry = PredictorRegistry::instance();
  for (const char* name : {"oracle", "grouped", "submission"}) {
    const auto predictor = registry.make(name, trace);
    ASSERT_TRUE(predictor) << name;
    const auto stats = predictor(task, task.priority);
    EXPECT_GE(stats.mnof, 0.0) << name;
    EXPECT_GE(stats.mtbf_s, 0.0) << name;
  }
}

TEST(PredictorRegistry, OracleWantsNoObservations) {
  // The streaming runner skips the estimation trace read entirely when the
  // builder declares it needs no observations; pin that the oracle does.
  EXPECT_FALSE(PredictorRegistry::instance()
                   .make_builder("oracle")
                   ->wants_observations());
  EXPECT_TRUE(PredictorRegistry::instance()
                  .make_builder("grouped")
                  ->wants_observations());
}

TEST(PredictorRegistry, LengthLimitArgumentChangesEstimates) {
  const auto trace = tiny_trace();
  auto& registry = PredictorRegistry::instance();
  // A very tight length limit excludes most tasks from estimation; the
  // grouped estimates must move (structure of the paper's Table 7).
  const auto unrestricted = registry.make("grouped", trace);
  const auto restricted = registry.make("grouped:60", trace);
  const auto& task = trace.jobs.front().tasks.front();
  const auto a = unrestricted(task, task.priority);
  const auto b = restricted(task, task.priority);
  EXPECT_TRUE(a.mnof != b.mnof || a.mtbf_s != b.mtbf_s);
}

TEST(PredictorRegistry, UnknownNameAndBadArgumentThrow) {
  auto& registry = PredictorRegistry::instance();
  EXPECT_THROW((void)registry.make_builder("nope"), std::invalid_argument);
  EXPECT_THROW((void)registry.make_builder("grouped:abc"),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make_builder("oracle:5"),
               std::invalid_argument);
}

/// The pooled overall group the grouped predictors fall back to, summed
/// here independently: every task within `limit`, every interval weighted
/// alike, in trace order.
core::FailureStats pooled_overall(const trace::Trace& trace, double limit) {
  std::size_t tasks = 0, failures = 0, intervals = 0;
  double interval_sum = 0.0;
  for (const auto& job : trace.jobs) {
    for (const auto& task : job.tasks) {
      if (task.length_s > limit) continue;
      ++tasks;
      failures += task.failures_within(task.length_s);
      task.for_each_uninterrupted_interval(task.length_s, [&](double v) {
        interval_sum += v;
        ++intervals;
      });
    }
  }
  return {static_cast<double>(failures) / static_cast<double>(tasks),
          interval_sum / static_cast<double>(intervals)};
}

// The replays plan with Table 7's numbers: for every priority, the grouped
// and submission predictors answer bit for bit what estimate_by_priority
// reports for it, and the pooled overall group where it saw no task.
TEST(PredictorRegistry, GroupedPredictorsAnswerTable7Estimates) {
  trace::GeneratorConfig cfg;
  cfg.seed = 2013;
  cfg.horizon_s = 86400.0;
  cfg.arrival_rate = 0.02;
  cfg.sample_job_filter = false;
  cfg.workload.priority_weights[3] = 0.0;  // priority 4 stays empty
  const auto trace = trace::TraceGenerator(cfg).generate();
  const trace::TaskRecord& probe = trace.jobs.front().tasks.front();

  auto& registry = PredictorRegistry::instance();
  for (const auto& [suffix, limit] :
       {std::pair<std::string, double>{"", trace::kNoLengthLimit},
        std::pair<std::string, double>{":1000", 1000.0}}) {
    SCOPED_TRACE("limit " + suffix);
    const auto groups = trace::estimate_by_priority(trace, limit);
    const auto fallback = pooled_overall(trace, limit);
    const auto expected = [&](int priority) {
      const auto& g = groups[static_cast<std::size_t>(priority - 1)];
      return g.empty() ? fallback : core::FailureStats{g.mnof, g.mtbf};
    };
    ASSERT_TRUE(groups[3].empty());
    ASSERT_GE(std::count_if(groups.begin(), groups.end(),
                            [](const auto& g) { return !g.empty(); }),
              10);

    const auto grouped = registry.make("grouped" + suffix, trace);
    for (int p = trace::kMinPriority; p <= trace::kMaxPriority; ++p) {
      const auto got = grouped(probe, p);
      EXPECT_EQ(got.mnof, expected(p).mnof) << "priority " << p;
      EXPECT_EQ(got.mtbf_s, expected(p).mtbf_s) << "priority " << p;
    }

    const auto submission = registry.make("submission" + suffix, trace);
    for (const auto& job : trace.jobs) {
      for (const auto& task : job.tasks) {
        const int other = task.priority % trace::kMaxPriority + 1;
        const auto got = submission(task, other);
        ASSERT_EQ(got.mnof, expected(task.priority).mnof);
        ASSERT_EQ(got.mtbf_s, expected(task.priority).mtbf_s);
      }
    }
  }
}

TEST(PredictorRegistry, UnknownNameListsChoicesWithArgGrammar) {
  try {
    (void)PredictorRegistry::with_builtins().make_builder("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nope"), std::string::npos) << message;
    EXPECT_NE(message.find("oracle"), std::string::npos) << message;
    EXPECT_NE(message.find("grouped[:max_len_s]"), std::string::npos)
        << message;
    EXPECT_NE(message.find("submission[:max_len_s]"), std::string::npos)
        << message;
  }
}

TEST(PolicyRegistry, UnknownNameListsChoicesWithArgGrammar) {
  try {
    (void)PolicyRegistry::with_builtins().make("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("fixed:<interval_s>"), std::string::npos)
        << message;
    EXPECT_NE(message.find("formula3[:exact]"), std::string::npos) << message;
  }
}

// A builder that only overrides observe_task still sees every task: the
// base observe_job forwards the job's tasks in record order.
class CountingBuilder final : public PredictorBuilder {
 public:
  void observe_task(const trace::TaskRecord&) override { ++tasks_; }
  [[nodiscard]] sim::StatsPredictor finalize() override {
    const std::size_t seen = tasks_;
    return [seen](const trace::TaskRecord&, int) {
      return core::FailureStats{static_cast<double>(seen), 300.0};
    };
  }

 private:
  std::size_t tasks_ = 0;
};

TEST(PredictorRegistry, DefaultObserveJobForwardsEveryTask) {
  const auto trace = tiny_trace();
  auto registry = PredictorRegistry::with_builtins();
  registry.add("counting", [](const std::string&) -> PredictorBuilderPtr {
    return std::make_unique<CountingBuilder>();
  });
  const auto predictor = registry.make("counting", trace);
  const auto stats = predictor(trace.jobs.front().tasks.front(), 1);
  EXPECT_DOUBLE_EQ(stats.mnof, static_cast<double>(trace.task_count()));
}

TEST(PredictorRegistry, CustomRegistrationPlugsIn) {
  class ConstantBuilder final : public PredictorBuilder {
   public:
    [[nodiscard]] bool wants_observations() const override { return false; }
    [[nodiscard]] sim::StatsPredictor finalize() override {
      return [](const trace::TaskRecord&, int) {
        return core::FailureStats{2.0, 300.0};
      };
    }
  };
  auto registry = PredictorRegistry::with_builtins();
  registry.add("constant", [](const std::string&) -> PredictorBuilderPtr {
    return std::make_unique<ConstantBuilder>();
  });
  const auto trace = tiny_trace();
  const auto predictor = registry.make("constant", trace);
  const auto stats = predictor(trace.jobs.front().tasks.front(), 1);
  EXPECT_DOUBLE_EQ(stats.mnof, 2.0);
  EXPECT_DOUBLE_EQ(stats.mtbf_s, 300.0);
}

// Registry lookups driven by a spec field report the scenario key AND the
// offending value before the registry's own diagnostic, so a bad key in a
// 40-scenario batch is attributable without a debugger. The exact prefix
// shape ("scenario key '<key>' = '<value>': ") is a CLI contract.
class RunKeyContext : public ::testing::Test {
 protected:
  static api::ScenarioSpec tiny_spec() {
    api::ScenarioSpec spec;
    spec.name = "key_context";
    spec.trace.horizon_s = 60.0;
    return spec;
  }

  static std::string run_error(const api::ScenarioSpec& spec) {
    try {
      (void)api::run_scenario(spec);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected std::invalid_argument";
    return "";
  }
};

TEST_F(RunKeyContext, PolicyErrorsNameKeyAndValue) {
  auto spec = tiny_spec();
  spec.policy = "no_such_policy";
  const std::string what = run_error(spec);
  EXPECT_EQ(what.find("scenario key 'policy' = 'no_such_policy': "), 0u)
      << what;
}

TEST_F(RunKeyContext, ArgumentOnPlainPolicyNamesKeyAndValue) {
  auto spec = tiny_spec();
  spec.policy = "young:xyz";
  EXPECT_EQ(run_error(spec),
            "scenario key 'policy' = 'young:xyz': policy young: takes no "
            "argument, got 'xyz'");
}

TEST_F(RunKeyContext, SchedErrorsNameKeyAndValue) {
  auto spec = tiny_spec();
  spec.sched = "backfill:bogus";
  const std::string what = run_error(spec);
  EXPECT_EQ(what.find("scenario key 'sched' = 'backfill:bogus': "), 0u)
      << what;
}

TEST_F(RunKeyContext, PredictorErrorsNameKeyAndValue) {
  auto spec = tiny_spec();
  spec.predictor = "grouped:not_a_number";
  const std::string what = run_error(spec);
  EXPECT_EQ(what.find("scenario key 'predictor' = 'grouped:not_a_number': "),
            0u)
      << what;
}

TEST_F(RunKeyContext, TraceSourceErrorsNameKeyAndValue) {
  auto spec = tiny_spec();
  spec.trace.source = "carrier_pigeon:coop.log";
  const std::string what = run_error(spec);
  EXPECT_EQ(
      what.find("scenario key 'trace.source' = 'carrier_pigeon:coop.log': "),
      0u)
      << what;
}

TEST_F(RunKeyContext, StreamedRunReportsTheSameContext) {
  auto spec = tiny_spec();
  spec.predictor = "no_such_predictor";
  std::string what;
  try {
    (void)api::ScenarioRunner(spec).run_streamed();
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  EXPECT_EQ(what.find("scenario key 'predictor' = 'no_such_predictor': "), 0u)
      << what;
}

}  // namespace
}  // namespace cloudcr::api
