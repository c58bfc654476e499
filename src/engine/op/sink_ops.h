#ifndef HERMES_ENGINE_OP_SINK_OPS_H_
#define HERMES_ENGINE_OP_SINK_OPS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/op/op.h"

namespace hermes::engine::op {

/// Builds the result row (`var_names` order, unbound variables → Null)
/// from the current bindings into ExecContext::staged_row as a flat
/// arena-backed Row against ExecContext::schema. Timing-neutral.
class ProjectOp final : public PhysicalOp {
 public:
  ProjectOp(std::unique_ptr<PhysicalOp> child,
            std::vector<std::string> var_names)
      : child_(std::move(child)), var_names_(std::move(var_names)) {}

  OpKind kind() const override { return OpKind::kProject; }
  std::string label() const override;

 protected:
  Status OpenImpl(ExecContext& cx, double t_open) override;
  Result<bool> NextImpl(ExecContext& cx, double t_resume,
                        double* t_out) override;
  void CloseImpl(ExecContext& cx) override;
  std::vector<PhysicalOp*> children() override { return {child_.get()}; }

 private:
  std::unique_ptr<PhysicalOp> child_;
  std::vector<std::string> var_names_;
};

/// Accumulates the projected rows and implements the paper's two modes of
/// operation: all-answers drains the pipeline; interactive stops it after
/// the first batch (the sink keeps returning the batch's rows but never
/// pulls its child again, so no further domain calls are issued — the
/// walker's `state->stop` cut). Tracks T_f and completeness for the driver.
class AnswerSinkOp final : public PhysicalOp {
 public:
  explicit AnswerSinkOp(std::unique_ptr<PhysicalOp> child)
      : child_(std::move(child)) {}

  OpKind kind() const override { return OpKind::kAnswerSink; }
  std::string label() const override { return "AnswerSink"; }

  /// Materializes the accumulated flat rows as heap-owned value lists —
  /// the mediator-boundary conversion. Must run before the query's arena
  /// is reset (the rows alias arena storage).
  std::vector<ValueList> TakeAnswers();
  bool has_first() const { return has_first_; }
  double t_first() const { return t_first_; }
  bool complete() const { return complete_; }

 protected:
  Status OpenImpl(ExecContext& cx, double t_open) override;
  Result<bool> NextImpl(ExecContext& cx, double t_resume,
                        double* t_out) override;
  void CloseImpl(ExecContext& cx) override;
  std::vector<PhysicalOp*> children() override { return {child_.get()}; }

 private:
  std::unique_ptr<PhysicalOp> child_;
  std::vector<Row> rows_;  ///< Arena-backed; 2-word handles, no heap data.
  bool has_first_ = false;
  double t_first_ = 0.0;
  bool stopped_ = false;
  bool complete_ = true;
};

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_SINK_OPS_H_
