#include "optimizer/optimizer.h"

#include <algorithm>

namespace hermes::optimizer {

namespace {

/// Number of CIM-redirected domain calls in a plan (tie-break preference:
/// at equal estimated cost, routing through the cache can only help).
size_t CountCimCalls(const CandidatePlan& plan) {
  size_t count = 0;
  auto count_body = [&count](const std::vector<lang::Atom>& atoms) {
    for (const lang::Atom& atom : atoms) {
      if (atom.is_domain_call() &&
          atom.call.domain.rfind("cim_", 0) == 0) {
        ++count;
      }
    }
  };
  count_body(plan.query.goals);
  for (const lang::Rule& rule : plan.program.rules) count_body(rule.body);
  return count;
}

}  // namespace

Result<OptimizerResult> QueryOptimizer::Optimize(
    const lang::Program& program, const lang::Query& query,
    OptimizationGoal goal) const {
  HERMES_ASSIGN_OR_RETURN(
      std::vector<CandidatePlan> plans,
      RuleRewriter::Rewrite(program, query, rewriter_options_));

  OptimizerResult result;
  int best_index = -1;
  // Candidates share most call patterns; each reaches the DCSM once per
  // run, and the next run sees fresh statistics.
  CostMemo memo;
  for (CandidatePlan& plan : plans) {
    Result<RuleCostEstimator::Estimate> est =
        estimator_.EstimatePlan(plan, &memo);
    if (est.ok()) {
      plan.estimated = est->cost;
      plan.estimation_ms = est->estimation_ms;
      plan.estimatable = true;
      result.total_estimation_ms += est->estimation_ms;
    } else {
      plan.estimatable = false;
    }
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!plans[i].estimatable) continue;
    if (best_index < 0) {
      best_index = static_cast<int>(i);
      continue;
    }
    const CostVector& a = plans[i].estimated;
    const CostVector& b = plans[best_index].estimated;
    double ka = goal == OptimizationGoal::kAllAnswers ? a.t_all_ms
                                                      : a.t_first_ms;
    double kb = goal == OptimizationGoal::kAllAnswers ? b.t_all_ms
                                                      : b.t_first_ms;
    double tie_band = 1e-9 * std::max({1.0, ka, kb});
    if (ka < kb - tie_band) {
      best_index = static_cast<int>(i);
    } else if (ka <= kb + tie_band &&
               CountCimCalls(plans[i]) >
                   CountCimCalls(plans[best_index])) {
      best_index = static_cast<int>(i);
    }
  }
  if (best_index < 0) {
    return Status::InvalidArgument(
        "no candidate plan is estimatable; every ordering leaves some "
        "domain-call argument free");
  }
  result.best = plans[best_index];
  result.candidates = std::move(plans);
  return result;
}

}  // namespace hermes::optimizer
