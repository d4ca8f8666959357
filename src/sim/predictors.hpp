#pragma once

/// \file predictors.hpp
/// \brief Ready-made failure-statistics predictors bridging traces to
/// controllers.
///
/// The paper's experiments differ only in how MNOF/MTBF reach the formulas:
///  * Table 6 uses *precise* per-task values (the oracle predictor);
///  * Figs 9-10 use per-priority group estimates over the whole trace;
///  * Fig 11 restricts the estimation to short tasks (length classes).
///
/// The group estimates come from trace::GroupedEstimator, the estimator
/// Table 7 reports, so a replay plans with exactly the statistics Table 7
/// prints for its estimation view.

#include "sim/config.hpp"
#include "trace/estimators.hpp"

namespace cloudcr::sim {

/// Per-task oracle: the realized failure count / mean interval of the task
/// itself ("precise prediction", Table 6). Ignores the current priority.
StatsPredictor make_oracle_predictor();

/// Priority-grouped estimation (Figs 9-10): each task receives the MNOF/MTBF
/// of its priority's group, or the pooled overall group when that priority
/// saw no task (GroupedEstimator::query). Estimates are looked up by the
/// task's *current* priority, so adaptive controllers see fresh statistics
/// after a priority change.
StatsPredictor make_grouped_predictor(trace::GroupedEstimator estimator);

/// Like make_grouped_predictor but always answers with the statistics of the
/// task's *submission* priority (never updates after a change): combined
/// with AdaptationMode::kStatic this is the Fig 14 static baseline.
StatsPredictor make_submission_priority_predictor(
    trace::GroupedEstimator estimator);

/// The grouped predictor over an estimator that observed every task of
/// `trace`. `length_limit` restricts the estimation to tasks at most that
/// long (Fig 11's "MTBF (as well as MNOF) are estimated using corresponding
/// short tasks").
StatsPredictor make_grouped_predictor(
    const trace::Trace& trace,
    double length_limit = trace::kNoLengthLimit);

/// The submission-priority predictor over an estimator that observed every
/// task of `trace`.
StatsPredictor make_submission_priority_predictor(
    const trace::Trace& trace,
    double length_limit = trace::kNoLengthLimit);

}  // namespace cloudcr::sim
