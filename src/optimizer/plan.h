#ifndef HERMES_OPTIMIZER_PLAN_H_
#define HERMES_OPTIMIZER_PLAN_H_

#include <string>

#include "domain/cost.h"
#include "lang/ast.h"

namespace hermes::optimizer {

/// One fully-ordered execution plan for a query: a rewritten program (the
/// rules reachable from the query, bodies in execution order, selections
/// pushed, calls possibly redirected to CIM) plus the reordered query goals.
struct CandidatePlan {
  lang::Program program;
  lang::Query query;
  std::string description;  ///< The transformations that produced it.

  // Filled by the rule cost estimator:
  CostVector estimated;
  double estimation_ms = 0.0;  ///< Simulated DCSM time spent estimating.
  bool estimatable = false;    ///< False when the ordering is infeasible.

  std::string ToString() const {
    std::string out = "-- plan: " + description + "\n";
    out += query.ToString() + "\n";
    out += program.ToString();
    return out;
  }
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_PLAN_H_
