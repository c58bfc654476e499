#ifndef HERMES_OPTIMIZER_OPTIMIZER_H_
#define HERMES_OPTIMIZER_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dcsm/dcsm.h"
#include "lang/ast.h"
#include "optimizer/estimator.h"
#include "optimizer/plan.h"
#include "optimizer/rewriter.h"

namespace hermes::optimizer {

/// Which cost component the optimizer minimizes — the paper's two modes of
/// operation (all answers vs. interactive).
enum class OptimizationGoal { kAllAnswers, kFirstAnswer };

/// What the optimizer reports about one candidate it costed.
struct CandidateSummary {
  std::string description;  ///< The transformations, numbered (" #i").
  CostVector estimated;
  double estimation_ms = 0.0;  ///< Simulated DCSM time spent estimating.
  bool estimatable = false;    ///< False when the ordering is infeasible.
};

/// The outcome of optimizing one query.
struct OptimizerResult {
  CandidatePlan best;  ///< The winner, materialized, with its estimate.
  size_t best_index = 0;
  /// Every candidate considered, in enumeration order, with
  /// `estimated`/`estimatable` filled — useful for the plan-choice-accuracy
  /// experiments. `space.Materialize(i)` builds candidate `i`.
  std::vector<CandidateSummary> candidates;
  PlanSpace space;
  double total_estimation_ms = 0.0;  ///< Simulated optimizer time.
};

/// End-to-end query optimizer: rewrite → estimate each candidate via DCSM,
/// in place through its ordering indexes → materialize the cheapest for the
/// requested goal.
class QueryOptimizer {
 public:
  QueryOptimizer(const dcsm::Dcsm* dcsm,
                 RuleRewriter::Options rewriter_options = {},
                 EstimatorParams estimator_params = {})
      : dcsm_(dcsm),
        rewriter_options_(std::move(rewriter_options)),
        estimator_(dcsm, estimator_params) {}

  /// Rewrites, estimates every candidate and picks the cheapest for
  /// `goal`. Candidates carry only the rules reachable from `query`. Each
  /// distinct DCSM call pattern is costed once per call (the memo does not
  /// outlive it), so a later call sees statistics recorded in between.
  Result<OptimizerResult> Optimize(const lang::Program& program,
                                   const lang::Query& query,
                                   OptimizationGoal goal) const;

  RuleRewriter::Options& rewriter_options() { return rewriter_options_; }

 private:
  const dcsm::Dcsm* dcsm_;
  RuleRewriter::Options rewriter_options_;
  RuleCostEstimator estimator_;
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_OPTIMIZER_H_
