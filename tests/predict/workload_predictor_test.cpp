#include "predict/workload_predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "trace/generator.hpp"

namespace cloudcr::predict {
namespace {

trace::TaskRecord make_task(double length, double input = 0.0,
                            int priority = 2) {
  trace::TaskRecord t;
  t.length_s = length;
  t.input_size = input;
  t.priority = priority;
  return t;
}

TEST(BiasedPredictor, ScalesByFactor) {
  const BiasedPredictor half(0.5);
  const BiasedPredictor twice(2.0);
  EXPECT_DOUBLE_EQ(half.predict(make_task(420.0)), 210.0);
  EXPECT_DOUBLE_EQ(twice.predict(make_task(420.0)), 840.0);
  EXPECT_THROW(BiasedPredictor(0.0), std::invalid_argument);
  EXPECT_THROW(BiasedPredictor(-1.0), std::invalid_argument);
}

TEST(NoisyPredictor, UnbiasedInLogSpace) {
  const NoisyPredictor p(0.3, 17);
  const auto task = make_task(1000.0);
  double log_acc = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) log_acc += std::log(p.predict(task));
  EXPECT_NEAR(log_acc / kN, std::log(1000.0), 0.01);
}

TEST(NoisyPredictor, ZeroSigmaIsExact) {
  const NoisyPredictor p(0.0, 1);
  EXPECT_DOUBLE_EQ(p.predict(make_task(77.0)), 77.0);
  EXPECT_THROW(NoisyPredictor(-0.1, 1), std::invalid_argument);
}

TEST(HistoryPredictor, LearnsPerKeyMeans) {
  HistoryPredictor p(100.0);
  EXPECT_DOUBLE_EQ(p.predict_key(5), 100.0);  // nothing observed: default
  p.observe(5, 200.0);
  p.observe(5, 400.0);
  EXPECT_DOUBLE_EQ(p.predict_key(5), 300.0);
  // Unknown key falls back to the global mean.
  EXPECT_DOUBLE_EQ(p.predict_key(9), 300.0);
  p.observe(9, 1000.0);
  EXPECT_DOUBLE_EQ(p.predict_key(9), 1000.0);
  EXPECT_EQ(p.observed_keys(), 2u);
}

TEST(HistoryPredictor, PredictUsesPriorityAsKey) {
  HistoryPredictor p;
  p.observe(2, 500.0);
  EXPECT_DOUBLE_EQ(p.predict(make_task(999.0, 0.0, 2)), 500.0);
}

TEST(HistoryPredictor, Validation) {
  EXPECT_THROW(HistoryPredictor(0.0), std::invalid_argument);
  HistoryPredictor p;
  EXPECT_THROW(p.observe(1, 0.0), std::invalid_argument);
}

TEST(RegressionPredictor, LearnsInputLengthRelation) {
  // Training data follows the generator's law: input = length^0.75, i.e.
  // length = input^(4/3).
  std::vector<double> inputs, lengths;
  for (double len = 50.0; len <= 5000.0; len += 50.0) {
    inputs.push_back(std::pow(len, 0.75));
    lengths.push_back(len);
  }
  const RegressionPredictor p(inputs, lengths, 2);
  // Interpolated prediction within a few percent.
  const double probe_input = std::pow(1234.0, 0.75);
  EXPECT_NEAR(p.predict(make_task(0.0, probe_input)), 1234.0, 60.0);
  EXPECT_GT(p.model().r_squared(), 0.995);
}

TEST(RegressionPredictor, ClampsToMinimum) {
  const std::vector<double> inputs{1.0, 2.0, 3.0};
  const std::vector<double> lengths{10.0, 20.0, 30.0};
  const RegressionPredictor p(inputs, lengths, 1, /*min_s=*/5.0);
  EXPECT_DOUBLE_EQ(p.predict(make_task(0.0, -100.0)), 5.0);
}

TEST(RegressionPredictor, EndToEndOnGeneratedTrace) {
  // Train on one trace, predict on another: median relative error must be
  // small (the generator's input/length coupling has ~15% noise).
  trace::GeneratorConfig cfg;
  cfg.seed = 31;
  cfg.horizon_s = 43200.0;
  cfg.arrival_rate = 0.05;
  cfg.sample_job_filter = false;
  cfg.workload.long_service_fraction = 0.0;
  const auto train = trace::TraceGenerator(cfg).generate();
  cfg.seed = 32;
  const auto test = trace::TraceGenerator(cfg).generate();

  std::vector<double> inputs, lengths;
  for (const auto& job : train.jobs) {
    for (const auto& task : job.tasks) {
      inputs.push_back(task.input_size);
      lengths.push_back(task.length_s);
    }
  }
  const RegressionPredictor p(inputs, lengths, 2);

  std::vector<double> rel_errors;
  for (const auto& job : test.jobs) {
    for (const auto& task : job.tasks) {
      rel_errors.push_back(
          std::abs(p.predict(task) - task.length_s) / task.length_s);
    }
  }
  ASSERT_FALSE(rel_errors.empty());
  std::nth_element(rel_errors.begin(),
                   rel_errors.begin() + static_cast<std::ptrdiff_t>(
                                            rel_errors.size() / 2),
                   rel_errors.end());
  const double median = rel_errors[rel_errors.size() / 2];
  EXPECT_LT(median, 0.30);
}

}  // namespace
}  // namespace cloudcr::predict
