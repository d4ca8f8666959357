#include "api/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "api/scenario.hpp"
#include "sim/predictors.hpp"

namespace cloudcr::api {

namespace {

[[noreturn]] void throw_unknown(const std::string& kind,
                                const std::string& name,
                                const std::vector<std::string>& known) {
  std::ostringstream os;
  os << "unknown " << kind << " '" << name << "' (registered:";
  for (const auto& n : known) os << ' ' << n;
  os << ")";
  throw std::invalid_argument(os.str());
}

/// Refuses an argument on a key that takes none ("young:xyz"), so one
/// scenario never has two spellings (two cache keys in the service).
void require_no_arg(const std::string& kind, const std::string& name,
                    const std::string& arg) {
  if (!arg.empty()) {
    throw std::invalid_argument(kind + " " + name +
                                ": takes no argument, got '" + arg + "'");
  }
}

/// Built-ins get the estimation length limit from the key argument when
/// present; no argument means unlimited.
double effective_limit(const std::string& arg) {
  if (arg.empty()) return trace::kNoLengthLimit;
  return parse_checked_double("predictor length limit", arg);
}

/// oracle — no estimation data at all; per-task truth is read during replay.
class OracleBuilder final : public PredictorBuilder {
 public:
  [[nodiscard]] bool wants_observations() const override { return false; }
  [[nodiscard]] sim::StatsPredictor finalize() override {
    return sim::make_oracle_predictor();
  }
};

/// grouped / submission — both aggregate the estimation view into a
/// trace::GroupedEstimator, the estimator behind Table 7 (O(1) memory:
/// per-priority sums only), and differ only in how the finalized predictor
/// keys its lookups.
class GroupedStatsBuilder final : public PredictorBuilder {
 public:
  enum class Kind { kGrouped, kSubmission };

  GroupedStatsBuilder(Kind kind, double length_limit)
      : kind_(kind), estimator_(length_limit) {}

  void observe_task(const trace::TaskRecord& task) override {
    estimator_.observe(task);
  }

  [[nodiscard]] sim::StatsPredictor finalize() override {
    return kind_ == Kind::kGrouped
               ? sim::make_grouped_predictor(estimator_)
               : sim::make_submission_priority_predictor(estimator_);
  }

 private:
  Kind kind_;
  trace::GroupedEstimator estimator_;
};

}  // namespace

void PredictorBuilder::observe_job(const trace::JobRecord& job) {
  for (const auto& task : job.tasks) observe_task(task);
}

void PredictorBuilder::observe_task(const trace::TaskRecord&) {}

void observe_trace(PredictorBuilder& builder, const trace::Trace& trace) {
  for (const auto& job : trace.jobs) builder.observe_job(job);
}

RegistryKey split_key(const std::string& key) {
  const auto colon = key.find(':');
  if (colon == std::string::npos) return {key, ""};
  return {key.substr(0, colon), key.substr(colon + 1)};
}

// -- PolicyRegistry ---------------------------------------------------------

PolicyRegistry::PolicyRegistry() {
  add(
      "formula3",
      [](const std::string& arg) -> core::PolicyPtr {
        if (arg.empty()) return std::make_unique<core::MnofPolicy>();
        if (arg == "exact") {
          return std::make_unique<core::MnofPolicy>(
              /*integer_rounding=*/false);
        }
        throw std::invalid_argument("policy formula3: unknown argument '" +
                                    arg + "' (want none or 'exact')");
      },
      "formula3[:exact]");
  add("young", [](const std::string& arg) -> core::PolicyPtr {
    require_no_arg("policy", "young", arg);
    return std::make_unique<core::YoungPolicy>();
  });
  add("daly", [](const std::string& arg) -> core::PolicyPtr {
    require_no_arg("policy", "daly", arg);
    return std::make_unique<core::DalyPolicy>();
  });
  add("none", [](const std::string& arg) -> core::PolicyPtr {
    require_no_arg("policy", "none", arg);
    return std::make_unique<core::NoCheckpointPolicy>();
  });
  add(
      "fixed",
      [](const std::string& arg) -> core::PolicyPtr {
        if (arg.empty()) {
          throw std::invalid_argument(
              "policy fixed: an interval is required, e.g. 'fixed:45'");
        }
        const double interval_s = parse_checked_double("policy fixed", arg);
        if (interval_s <= 0.0) {
          throw std::invalid_argument(
              "policy fixed: interval must be > 0, got '" + arg + "'");
        }
        return std::make_unique<core::FixedIntervalPolicy>(interval_s);
      },
      "fixed:<interval_s>");
}

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry;
  return registry;
}

PolicyRegistry PolicyRegistry::with_builtins() { return PolicyRegistry(); }

void PolicyRegistry::add(const std::string& name, Factory factory,
                         std::string arg_grammar) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[name] = Entry{std::move(factory), std::move(arg_grammar)};
}

bool PolicyRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(split_key(name).name) > 0;
}

std::vector<std::string> PolicyRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

core::PolicyPtr PolicyRegistry::make(const std::string& key) const {
  const auto [name, arg] = split_key(key);
  Factory factory;
  std::vector<std::string> known;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) {
      factory = it->second.factory;
    } else {
      known.reserve(entries_.size());
      for (const auto& [n, entry] : entries_) {
        known.push_back(entry.grammar.empty() ? n : entry.grammar);
      }
    }
  }
  if (!factory) throw_unknown("policy", name, known);
  return factory(arg);
}

// -- PredictorRegistry ------------------------------------------------------

PredictorRegistry::PredictorRegistry() {
  add("oracle", [](const std::string& arg) -> PredictorBuilderPtr {
    require_no_arg("predictor", "oracle", arg);
    return std::make_unique<OracleBuilder>();
  });
  add(
      "grouped",
      [](const std::string& arg) -> PredictorBuilderPtr {
        return std::make_unique<GroupedStatsBuilder>(
            GroupedStatsBuilder::Kind::kGrouped, effective_limit(arg));
      },
      "grouped[:max_len_s]");
  add(
      "submission",
      [](const std::string& arg) -> PredictorBuilderPtr {
        return std::make_unique<GroupedStatsBuilder>(
            GroupedStatsBuilder::Kind::kSubmission, effective_limit(arg));
      },
      "submission[:max_len_s]");
}

PredictorRegistry& PredictorRegistry::instance() {
  static PredictorRegistry registry;
  return registry;
}

PredictorRegistry PredictorRegistry::with_builtins() {
  return PredictorRegistry();
}

void PredictorRegistry::add(const std::string& name, Factory factory,
                            std::string arg_grammar) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[name] = Entry{std::move(factory), std::move(arg_grammar)};
}

bool PredictorRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(split_key(name).name) > 0;
}

std::vector<std::string> PredictorRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

PredictorBuilderPtr PredictorRegistry::make_builder(
    const std::string& key) const {
  const auto [name, arg] = split_key(key);
  Factory factory;
  std::vector<std::string> known;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) {
      factory = it->second.factory;
    } else {
      known.reserve(entries_.size());
      for (const auto& [n, entry] : entries_) {
        known.push_back(entry.grammar.empty() ? n : entry.grammar);
      }
    }
  }
  if (!factory) throw_unknown("predictor", name, known);
  PredictorBuilderPtr builder = factory(arg);
  if (!builder) {
    throw std::invalid_argument("predictor " + name +
                                ": factory returned a null builder");
  }
  return builder;
}

sim::StatsPredictor PredictorRegistry::make(
    const std::string& key, const trace::Trace& estimation_trace) const {
  PredictorBuilderPtr builder = make_builder(key);
  if (builder->wants_observations()) {
    observe_trace(*builder, estimation_trace);
  }
  return builder->finalize();
}

}  // namespace cloudcr::api
