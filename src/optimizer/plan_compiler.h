#ifndef HERMES_OPTIMIZER_PLAN_COMPILER_H_
#define HERMES_OPTIMIZER_PLAN_COMPILER_H_

#include <memory>
#include <string>
#include <utility>

#include "engine/op/compile.h"
#include "optimizer/plan.h"

namespace hermes::dcsm {
class Dcsm;
}  // namespace hermes::dcsm

namespace hermes::optimizer {

/// A CandidatePlan lowered to its physical operator tree — the plan as an
/// executable, inspectable artifact. Owns the plan (the tree's operators
/// point into its program/query, held behind a unique_ptr so moves are
/// safe); movable, not copyable.
class CompiledPlan {
 public:
  CompiledPlan() = default;
  CompiledPlan(CompiledPlan&&) = default;
  CompiledPlan& operator=(CompiledPlan&&) = default;
  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  const CandidatePlan& plan() const { return *plan_; }
  engine::op::CompiledQuery& tree() { return tree_; }

  /// Renders the plan header (description, query, plan-level estimate)
  /// followed by the operator tree with static adornments and per-call
  /// DCSM estimates. With `actuals`, each operator also shows its post-run
  /// counters — call after executing the tree. Non-const because rendering
  /// rule bodies shares the operators' lazily-compiled subtrees.
  std::string Explain(bool actuals = false);

 private:
  friend class PlanCompiler;

  std::unique_ptr<CandidatePlan> plan_;
  engine::op::CompiledQuery tree_;
  const dcsm::Dcsm* dcsm_ = nullptr;
};

/// Lowers CandidatePlans into physical operator trees. The optional DCSM
/// annotates EXPLAIN output with per-call cost estimates (Dcsm::Cost is
/// const and thread-safe, so compilation and EXPLAIN are safe while
/// queries execute). `options` selects the lowering — notably whether
/// independent domain-call runs are grouped for async scatter-gather; the
/// compiler is where call-site independence (no shared bound variables)
/// is decided.
class PlanCompiler {
 public:
  explicit PlanCompiler(const dcsm::Dcsm* dcsm = nullptr,
                        engine::op::CompileOptions options = {})
      : dcsm_(dcsm), options_(options) {}

  CompiledPlan Compile(CandidatePlan plan) const;

 private:
  const dcsm::Dcsm* dcsm_;
  engine::op::CompileOptions options_;
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_PLAN_COMPILER_H_
