#ifndef HERMES_ENGINE_OP_SCATTER_GATHER_OP_H_
#define HERMES_ENGINE_OP_SCATTER_GATHER_OP_H_

#include <memory>
#include <vector>

#include "engine/op/domain_call_op.h"
#include "engine/op/op.h"

namespace hermes::engine::op {

/// Concurrent issue over the simulated network: a run of independent
/// domain calls (no member reads another member's output variable) whose
/// calls are all launched at the group's Open time and whose rows are then
/// joined with the usual pipelined nested-loop odometer.
///
/// Because every member's arrival base is pinned at the shared issue time,
/// the group's completion is governed by the *slowest* member — max over
/// branches — where the sequential join chain pays the sum (and re-issues
/// the inner calls once per outer row). Row enumeration order is identical
/// to the equivalent left-deep NestedLoopJoin chain, so answer sets and
/// ordering do not change; only the virtual clock (and the number of
/// source calls) does.
class ScatterGatherOp final : public PhysicalOp {
 public:
  /// `calls` must have ≥ 2 members; the compiler guarantees independence.
  explicit ScatterGatherOp(std::vector<std::unique_ptr<DomainCallOp>> calls);

  OpKind kind() const override { return OpKind::kScatterGather; }
  std::string label() const override;
  void Explain(ExplainPrinter& printer) override;

 protected:
  Status OpenImpl(ExecContext& cx, double t_open) override;
  Result<bool> NextImpl(ExecContext& cx, double t_resume,
                        double* t_out) override;
  void CloseImpl(ExecContext& cx) override;
  std::vector<PhysicalOp*> children() override;

 private:
  std::vector<std::unique_ptr<DomainCallOp>> calls_;
  /// Number of members with an open cursor (members [0, open_depth_)).
  size_t open_depth_ = 0;
};

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_SCATTER_GATHER_OP_H_
