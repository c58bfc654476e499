#ifndef HERMES_ENGINE_OP_JOIN_OP_H_
#define HERMES_ENGINE_OP_JOIN_OP_H_

#include <memory>
#include <string>
#include <utility>

#include "engine/op/op.h"

namespace hermes::engine::op {

/// The paper's Section 7 join: left-to-right pipelined nested loops with
/// no duplicate elimination. For every left row (available at time t) the
/// right subtree is re-opened at t — re-issuing its domain calls, exactly
/// as the walker re-entered the next goal per binding. The right stream's
/// completion time becomes the left producer's resume time, and the left
/// stream's completion is the join's completion.
///
/// Spine joins (the top-level left-deep chain of a query) additionally
/// participate in mid-query re-optimization: before opening the right
/// subtree for a fresh left row they give ExecContext::replan a chance to
/// splice a re-planned subtree in via ReplaceRight(). The splice point is
/// safe by construction — at that moment this join's right subtree and
/// every ancestor spine join's right subtree are closed.
class NestedLoopJoinOp final : public PhysicalOp {
 public:
  NestedLoopJoinOp(std::unique_ptr<PhysicalOp> left,
                   std::unique_ptr<PhysicalOp> right)
      : left_(std::move(left)), right_(std::move(right)) {}

  OpKind kind() const override { return OpKind::kNestedLoopJoin; }
  std::string label() const override {
    return replanned_marker_.empty() ? "NestedLoopJoin"
                                     : "NestedLoopJoin [" + replanned_marker_ +
                                           "]";
  }

  /// Position of this join on the top-level spine (-1 when it is not a
  /// spine join — rule bodies never replan). Set by CompileGoals when
  /// CompileOptions::record_spine is on.
  void set_spine_index(int index) { spine_index_ = index; }
  int spine_index() const { return spine_index_; }

  /// Swaps in a re-planned right subtree. Only legal while the right
  /// subtree is closed (the replan hook point guarantees it).
  void ReplaceRight(std::unique_ptr<PhysicalOp> right) {
    right_ = std::move(right);
  }
  PhysicalOp* right() const { return right_.get(); }

  /// Marks this join's EXPLAIN label `[replanned@...]`.
  void set_replanned_marker(std::string marker) {
    replanned_marker_ = std::move(marker);
  }

 protected:
  Status OpenImpl(ExecContext& cx, double t_open) override;
  Result<bool> NextImpl(ExecContext& cx, double t_resume,
                        double* t_out) override;
  void CloseImpl(ExecContext& cx) override;
  std::vector<PhysicalOp*> children() override {
    return {left_.get(), right_.get()};
  }

 private:
  std::unique_ptr<PhysicalOp> left_;
  std::unique_ptr<PhysicalOp> right_;
  bool right_open_ = false;
  int spine_index_ = -1;
  std::string replanned_marker_;
};

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_JOIN_OP_H_
