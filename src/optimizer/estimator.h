#ifndef HERMES_OPTIMIZER_ESTIMATOR_H_
#define HERMES_OPTIMIZER_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sim_costs.h"
#include "dcsm/dcsm.h"
#include "lang/ast.h"
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

  struct Estimate {
    CostVector cost;
    double estimation_ms = 0.0;  ///< Simulated DCSM lookup time.
  };

  /// One plan shape — query goals plus rules — costed under any number of
  /// body orderings. The shape is compiled once: variables are interned to
  /// dense slots per body, predicate goals are resolved to their rules, and
  /// each domain-call goal remembers the DCSM answer of every argument
  /// adornment it was costed under. A walk then reads goal `k` of a body as
  /// `body[order[k]]`; nothing is copied or permuted. The goals, rules and
  /// `memo` must outlive the walk.
  class PlanWalk {
   public:
    using Ordering = std::span<const uint32_t>;

    PlanWalk(const RuleCostEstimator& estimator,
             const std::vector<lang::Atom>& goals,
             std::span<const lang::Rule* const> rules, CostMemo* memo);
    PlanWalk(PlanWalk&&) noexcept;
    ~PlanWalk();

    /// Estimate of the plan whose goals run in `goal_order` and whose rule
    /// `r` body runs in `rule_orders[r]` (an empty ordering, or an empty
    /// `rule_orders`: as written). InvalidArgument when the ordering is
    /// infeasible for the query's adornment (e.g. a domain-call argument
    /// can be free at execution time).
    Result<Estimate> Cost(Ordering goal_order,
                          std::span<const Ordering> rule_orders);
    /// Cost without the reason for a failure: nullopt when Cost would
    /// return an error. The optimizer only needs to know that a candidate
    /// is infeasible, and building the message is most of that case's work.
    std::optional<Estimate> TryCost(Ordering goal_order,
                                    std::span<const Ordering> rule_orders);

   private:
    struct State;
    std::unique_ptr<State> state_;
  };

  /// Estimate of one materialized plan, as written. DCSM answers come from
  /// `memo`, which the caller scopes to one planning run; null scopes a
  /// memo to this call.
  Result<Estimate> EstimatePlan(const CandidatePlan& plan,
                                CostMemo* memo = nullptr) const;

  /// Estimates query goals, as written, against `program`'s rules. `memo`
  /// as for EstimatePlan.
  Result<Estimate> EstimateBody(const lang::Program& program,
                                const std::vector<lang::Atom>& goals,
                                CostMemo* memo = nullptr) const;

 private:
  const dcsm::Dcsm* dcsm_;
  EstimatorParams params_;
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_ESTIMATOR_H_
