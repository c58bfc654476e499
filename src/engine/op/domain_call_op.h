#ifndef HERMES_ENGINE_OP_DOMAIN_CALL_OP_H_
#define HERMES_ENGINE_OP_DOMAIN_CALL_OP_H_

#include <cstddef>
#include <optional>

#include "engine/op/op.h"

namespace hermes::engine::op {

/// Executes one `in(Output, domain:function(args))` goal through the call
/// pipeline (executor layers → registry → per-domain cache/network stack).
///
/// The call itself runs at Open time — that is when the walker issued it —
/// and the rows stream out of the already-materialized CallOutput with the
/// paper's interpolated arrival offsets:
///
///  - enumeration (output variable free): answer i becomes available at
///    max(t_open + ArrivalOffsetMs(i), t_resume); exhaustion completes at
///    max(t_resume, t_open + all_ms).
///  - membership (output already ground): at most one row, at the matching
///    answer's arrival time; a miss completes at t_open + all_ms (the full
///    set had to arrive to know).
///
/// A cache-redirected plan simply points the goal at the CIM's wrapper
/// domain ("cim_<site>") — the operator is oblivious; EXPLAIN annotates it.
///
/// Async issue path: a ScatterGatherOp parent may call IssueAsync() to run
/// the call once, up front, at the gather group's open time. Subsequent
/// Open()s then reuse the materialized CallOutput (keeping the issue time
/// as the arrival base, so sibling latencies overlap instead of adding)
/// until ResetAsync() clears the issued state.
class DomainCallOp final : public PhysicalOp {
 public:
  /// `goal` (kind kDomainCall) is borrowed; it must outlive the operator
  /// (the compiled tree's plan owns the program/query the goals live in).
  explicit DomainCallOp(const lang::Atom* goal) : goal_(goal) {}

  OpKind kind() const override { return OpKind::kDomainCall; }
  std::string label() const override;
  void Explain(ExplainPrinter& printer) override;
  std::string ActualExtras() const override;

  const lang::Atom& goal() const { return *goal_; }

  /// Grounds the call from the current bindings and runs it at virtual
  /// time `t_issue`. Until ResetAsync(), Open() reuses the result instead
  /// of re-issuing, and Close() keeps it. Only a gather parent calls this;
  /// the call's arguments must not depend on sibling outputs.
  Status IssueAsync(ExecContext& cx, double t_issue);

  /// Drops the async-issued result; the next Open() issues the call again.
  void ResetAsync();

  /// Marks this call's EXPLAIN annotation `async` (set by the compiler
  /// when the call is grouped under a ScatterGatherOp).
  void set_async_marker(bool marker) { async_marker_ = marker; }

  /// The DCSM estimation pattern of this call as executed: constant args
  /// stay constants, variable args (ground by run time) become `$b`. Used
  /// by the drift tracker and the slow-query log, matching what EXPLAIN
  /// asks the DCSM for a fully-bound plan position.
  lang::DomainCallSpec EstimationPattern() const;

  /// Runtime adornment matching EstimationPattern(): 'c' per constant
  /// argument, 'b' per variable argument.
  std::string RuntimeAdornment() const;

 protected:
  Status OpenImpl(ExecContext& cx, double t_open) override;
  Result<bool> NextImpl(ExecContext& cx, double t_resume,
                        double* t_out) override;
  void CloseImpl(ExecContext& cx) override;

 private:
  /// Grounds, dispatches and materializes the call at `t_issue`; shared by
  /// the synchronous Open() path and IssueAsync().
  Status RunCall(ExecContext& cx, double t_issue);

  const lang::Atom* goal_;
  bool async_marker_ = false;

  // Per-open state.
  CallOutput output_;
  bool async_issued_ = false;  ///< output_ pinned by IssueAsync().
  double t_base_ = 0.0;
  bool membership_ = false;
  bool match_found_ = false;
  size_t match_index_ = 0;
  bool delivered_ = false;  ///< Membership: the single row was produced.
  size_t index_ = 0;        ///< Enumeration cursor.
  std::optional<BindingFrame> frame_;

  // Resilience events accumulated across opens, surfaced by ActualExtras().
  uint64_t retries_seen_ = 0;    ///< Retry attempts below this call.
  uint64_t degraded_seen_ = 0;   ///< Calls served degraded from cache.
  uint64_t lost_seen_ = 0;       ///< Failures tolerated as zero rows.
  uint64_t coalesced_seen_ = 0;  ///< Calls coalesced onto another query's.
};

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_DOMAIN_CALL_OP_H_
