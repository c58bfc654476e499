#ifndef HERMES_OPTIMIZER_ESTIMATOR_H_
#define HERMES_OPTIMIZER_ESTIMATOR_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sim_costs.h"
#include "dcsm/dcsm.h"
#include "lang/ast.h"
#include "optimizer/binding_env.h"
#include "optimizer/plan.h"

namespace hermes::optimizer {

/// Tuning knobs of the rule cost estimator.
struct EstimatorParams {
  double eq_selectivity = 0.10;     ///< Fraction surviving `X = const`.
  double range_selectivity = 0.33;  ///< Fraction surviving a range filter.
  double neq_selectivity = 0.90;    ///< Fraction surviving `X != const`.
  double membership_selectivity = 0.5;  ///< in(X, ...) with X already bound.
  /// Per-tuple comparison CPU time; single-sourced with the executor so
  /// estimates and execution charge the same simulated cost.
  double comparison_cost_ms = kDefaultComparisonCostMs;
  size_t max_recursion_depth = 16;
  /// Use cached per-predicate first-answer statistics (pseudo domain
  /// "idb", recorded by the executor) to override the formula-derived T_f
  /// of IDB predicate subgoals. This is the paper's Section 8 remedy for
  /// the nested-loop formula's blindness to backtracking: the formula
  /// assumes the first answer combines the first answers of each subgoal,
  /// while in reality early outer tuples may fail downstream. Only T_f is
  /// overridden — T_a and cardinality keep the compositional formula so
  /// plan orderings remain distinguishable.
  bool use_predicate_first_answer_stats = false;
  double per_predicate_stat_row_ms = 0.02;  ///< Simulated lookup charge.
};

/// Dcsm::Cost answers of one planning run, keyed by call pattern: each
/// distinct pattern reaches the DCSM once. Callers still charge the
/// answer's `lookup_ms` on every use, so simulated estimation time is what
/// it would be without the memo. A memo never sees statistics recorded
/// after it answered a pattern, so it must live no longer than one run.
class CostMemo {
 public:
  const Result<dcsm::CostEstimate>& Cost(const dcsm::Dcsm& dcsm,
                                         const lang::DomainCallSpec& pattern);

 private:
  /// Constants match only at the same type: Value equates `1` and `1.0`,
  /// but Dcsm::Cost hands the typed pattern to native cost models, so
  /// each typed pattern gets its own answer, as without the memo.
  struct PatternHash {
    size_t operator()(const lang::DomainCallSpec& pattern) const;
  };
  struct PatternEq {
    bool operator()(const lang::DomainCallSpec& a,
                    const lang::DomainCallSpec& b) const;
  };
  std::unordered_map<lang::DomainCallSpec, Result<dcsm::CostEstimate>,
                     PatternHash, PatternEq>
      answers_;
};

/// Section 7's rule cost estimator.
///
/// Walks a fully-ordered plan left to right, obtaining per-call cost
/// vectors from the DCSM and combining them with the paper's nested-loop
/// formula:
///   T_a   = Σ_i (Π_{j<i} Card_j) · T_a,i
///   T_f   = Σ_i T_f,i
///   Card  = Π_i Card_i
/// (duplicate elimination is not performed — footnote 2). IDB predicates
/// are estimated by recursively estimating their defining rules and adding
/// up cardinalities and execution times.
class RuleCostEstimator {
 public:
  RuleCostEstimator(const dcsm::Dcsm* dcsm, EstimatorParams params = {})
      : dcsm_(dcsm), params_(params) {}

  /// Estimate of one candidate plan. Returns InvalidArgument when the plan
  /// ordering is infeasible for the query's adornment (e.g. a domain call
  /// argument can be free at execution time). DCSM answers come from
  /// `memo`, which the caller scopes to one planning run; null scopes a
  /// memo to this call.
  struct Estimate {
    CostVector cost;
    double estimation_ms = 0.0;  ///< Simulated DCSM lookup time.
  };
  Result<Estimate> EstimatePlan(const CandidatePlan& plan,
                                CostMemo* memo = nullptr) const;

  /// Estimates a body (query goals or rule body) under an initial binding
  /// environment against `program`'s rules. `memo` as for EstimatePlan.
  Result<Estimate> EstimateBody(const lang::Program& program,
                                const std::vector<lang::Atom>& goals,
                                const BindingEnv& env,
                                CostMemo* memo = nullptr) const;

 private:
  Result<CostVector> EstimateBodyInternal(
      const lang::Program& program, const std::vector<lang::Atom>& goals,
      BindingEnv env, size_t depth, std::set<std::string>* active_predicates,
      double* estimation_ms, CostMemo* memo) const;

  Result<CostVector> EstimatePredicate(
      const lang::Program& program, const lang::Atom& atom,
      const BindingEnv& env, size_t depth,
      std::set<std::string>* active_predicates, double* estimation_ms,
      CostMemo* memo) const;

  /// Converts a domain-call atom to a DCSM pattern under `env`; fails if
  /// any argument variable is free.
  Result<lang::DomainCallSpec> PatternFor(const lang::DomainCallSpec& call,
                                          const BindingEnv& env) const;

  const dcsm::Dcsm* dcsm_;
  EstimatorParams params_;
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_ESTIMATOR_H_
