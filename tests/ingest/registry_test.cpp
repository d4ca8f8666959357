// TraceSourceRegistry: spec parsing, built-ins, strict validation, and the
// synthetic source's equivalence with the raw generator.

#include "ingest/registry.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ingest/csv_source.hpp"
#include "ingest/google_source.hpp"
#include "ingest/synthetic_source.hpp"
#include "trace/generator.hpp"

namespace cloudcr::ingest {
namespace {

TEST(SourceSpec, Splits) {
  EXPECT_EQ(split_source_spec("synthetic").scheme, "synthetic");
  EXPECT_EQ(split_source_spec("synthetic").arg, "");
  EXPECT_EQ(split_source_spec("csv:/a/b.csv").scheme, "csv");
  EXPECT_EQ(split_source_spec("csv:/a/b.csv").arg, "/a/b.csv");
  // Only the first ':' splits (Windows-style or URL-ish paths survive).
  EXPECT_EQ(split_source_spec("google:/p?a=b:c").arg, "/p?a=b:c");
}

TEST(TraceSourceRegistry, HasBuiltins) {
  auto registry = TraceSourceRegistry::with_builtins();
  EXPECT_TRUE(registry.contains("synthetic"));
  EXPECT_TRUE(registry.contains("csv"));
  EXPECT_TRUE(registry.contains("google"));
  EXPECT_TRUE(registry.contains("slurm"));
  EXPECT_TRUE(registry.contains("csv:/some/path"));  // full specs work too
  EXPECT_FALSE(registry.contains("parquet"));
  EXPECT_EQ(registry.names().size(), 4u);
}

TEST(TraceSourceRegistry, MakeBuildsTheRightSource) {
  auto registry = TraceSourceRegistry::with_builtins();
  const auto csv = registry.make("csv:/data/jobs.csv?time_unit=ms");
  EXPECT_EQ(csv->describe(), "csv:/data/jobs.csv");
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const MappedCsvSource&>(*csv).mapping().time_scale, 1e-3);

  const auto google = registry.make("google:/logs/te.csv?memory_scale_mb=512");
  EXPECT_EQ(google->describe(), "google:/logs/te.csv");
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const GoogleTraceSource&>(*google).options().memory_scale_mb,
      512.0);
}

TEST(TraceSourceRegistry, RejectsBadSpecs) {
  auto registry = TraceSourceRegistry::with_builtins();
  EXPECT_THROW((void)registry.make("parquet:/x"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("csv:"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("google:"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("synthetic:arg"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("csv:/p?bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)registry.make("google:/p?bogus=1"),
               std::invalid_argument);
  // Construction checks the spec only; the file is first opened by
  // probe() or load().
  EXPECT_NO_THROW((void)registry.make("csv:/never/checked/until/load.csv"));
}

TEST(TraceSourceRegistry, UnknownSchemeErrorListsRegistered) {
  auto registry = TraceSourceRegistry::with_builtins();
  try {
    (void)registry.make("parquet:/x");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("google"), std::string::npos);
    EXPECT_NE(what.find("synthetic"), std::string::npos);
  }
}

TEST(TraceSourceRegistry, CustomSchemesPlugIn) {
  auto registry = TraceSourceRegistry::with_builtins();
  registry.add("fixed", [](const std::string&, const SourceEnv&) -> SourcePtr {
    trace::GeneratorConfig cfg;
    cfg.seed = 1;
    cfg.horizon_s = 600.0;
    return std::make_unique<SyntheticSource>(cfg);
  });
  EXPECT_TRUE(registry.contains("fixed"));
  EXPECT_EQ(registry.make("fixed")->load().trace.horizon_s, 600.0);
}

TEST(SyntheticSource, MatchesGeneratorExactly) {
  trace::GeneratorConfig cfg;
  cfg.seed = 77;
  cfg.horizon_s = 3600.0;
  SourceEnv env;
  env.generator = cfg;

  const auto source =
      TraceSourceRegistry::with_builtins().make("synthetic", env);
  const IngestResult result = source->load();
  const trace::Trace direct = trace::TraceGenerator(cfg).generate();

  ASSERT_EQ(result.trace.job_count(), direct.job_count());
  EXPECT_EQ(result.trace.task_count(), direct.task_count());
  EXPECT_EQ(result.report.rows_total, direct.task_count());
  EXPECT_EQ(result.report.rows_skipped, 0u);
  for (std::size_t j = 0; j < direct.jobs.size(); ++j) {
    EXPECT_EQ(result.trace.jobs[j].id, direct.jobs[j].id);
    EXPECT_EQ(result.trace.jobs[j].arrival_s, direct.jobs[j].arrival_s);
  }
}

}  // namespace
}  // namespace cloudcr::ingest
