#include "optimizer/optimizer.h"

#include <algorithm>
#include <optional>

namespace hermes::optimizer {

Result<OptimizerResult> QueryOptimizer::Optimize(
    const lang::Program& program, const lang::Query& query,
    OptimizationGoal goal) const {
  OptimizerResult result;
  HERMES_ASSIGN_OR_RETURN(
      result.space, RuleRewriter::Rewrite(program, query, rewriter_options_));
  const PlanSpace& space = result.space;

  // Candidates share most call patterns; each reaches the DCSM once per
  // run, and the next run sees fresh statistics. Each variant is compiled
  // once, on its first candidate.
  CostMemo memo;
  std::vector<std::optional<RuleCostEstimator::PlanWalk>> walks(
      space.num_variants());
  std::vector<PlanSpace::Ordering> rule_orders;
  result.candidates.resize(space.size());
  for (size_t i = 0; i < space.size(); ++i) {
    const size_t v = space.VariantOf(i);
    if (!walks[v]) {
      walks[v].emplace(estimator_, space.Goals(v), space.Rules(v), &memo);
    }
    space.RuleOrderings(i, &rule_orders);
    std::optional<RuleCostEstimator::Estimate> est =
        walks[v]->TryCost(space.GoalOrdering(i), rule_orders);
    CandidateSummary& summary = result.candidates[i];
    summary.description = space.Description(i);
    if (est) {
      summary.estimated = est->cost;
      summary.estimation_ms = est->estimation_ms;
      summary.estimatable = true;
      result.total_estimation_ms += est->estimation_ms;
    }
  }

  int best_index = -1;
  for (size_t i = 0; i < space.size(); ++i) {
    if (!result.candidates[i].estimatable) continue;
    if (best_index < 0) {
      best_index = static_cast<int>(i);
      continue;
    }
    const CostVector& a = result.candidates[i].estimated;
    const CostVector& b = result.candidates[best_index].estimated;
    double ka = goal == OptimizationGoal::kAllAnswers ? a.t_all_ms
                                                      : a.t_first_ms;
    double kb = goal == OptimizationGoal::kAllAnswers ? b.t_all_ms
                                                      : b.t_first_ms;
    double tie_band = 1e-9 * std::max({1.0, ka, kb});
    // At equal estimated cost, routing through the cache can only help.
    if (ka < kb - tie_band) {
      best_index = static_cast<int>(i);
    } else if (ka <= kb + tie_band &&
               space.CimCalls(space.VariantOf(i)) >
                   space.CimCalls(space.VariantOf(best_index))) {
      best_index = static_cast<int>(i);
    }
  }
  if (best_index < 0) {
    return Status::InvalidArgument(
        "no candidate plan is estimatable; every ordering leaves some "
        "domain-call argument free");
  }
  result.best_index = static_cast<size_t>(best_index);
  result.best = space.Materialize(result.best_index);
  const CandidateSummary& winner = result.candidates[result.best_index];
  result.best.estimated = winner.estimated;
  result.best.estimation_ms = winner.estimation_ms;
  result.best.estimatable = true;
  return result;
}

}  // namespace hermes::optimizer
