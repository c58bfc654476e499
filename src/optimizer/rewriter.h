#ifndef HERMES_OPTIMIZER_REWRITER_H_
#define HERMES_OPTIMIZER_REWRITER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "lang/ast.h"
#include "optimizer/plan.h"

namespace hermes::optimizer {

/// The candidate plans of one query, held as rewritten variants plus
/// ordering indexes instead of as materialized programs.
///
/// A variant is one combination of selection push-down and CIM redirection
/// applied to the query goals and the rules reachable from them. The space
/// holds one copy of those goals and rules; a variant holds only the goal
/// list and the rules its transformations changed, and reads the rest from
/// that copy. Candidate `i` picks a variant, one executable ordering of its
/// goals and one of each reorderable rule body, in the order the rewriter
/// enumerates them. Every body's orderings lie in one buffer, a body's
/// length apart. The cost estimator walks a candidate through these
/// orderings; only the plan that is kept needs `Materialize`.
///
/// A space is move-only: its variants point into its own storage.
class PlanSpace {
 public:
  using Ordering = std::span<const uint32_t>;

  PlanSpace() = default;
  PlanSpace(PlanSpace&&) = default;
  PlanSpace& operator=(PlanSpace&&) = default;
  PlanSpace(const PlanSpace&) = delete;
  PlanSpace& operator=(const PlanSpace&) = delete;

  size_t size() const { return candidates_.size(); }
  size_t num_variants() const { return variants_.size(); }
  /// Variant `v`'s query goals, as written.
  const std::vector<lang::Atom>& Goals(size_t v) const {
    return variants_[v].own_goals ? variants_[v].goals : goals_;
  }
  /// Variant `v`'s reachable rules, in program order, as written.
  std::span<const lang::Rule* const> Rules(size_t v) const {
    return variants_[v].rules;
  }
  /// Domain calls of variant `v` routed to a CIM wrapper (`cim_*`): the
  /// optimizer's tie-break, the same for every ordering of the variant.
  size_t CimCalls(size_t v) const { return variants_[v].cim_calls; }
  /// The variant candidate `i` is drawn from.
  size_t VariantOf(size_t i) const { return candidates_[i].variant; }
  /// Candidate `i`'s description: its variant's, numbered (" #i").
  std::string Description(size_t i) const;
  /// Candidate `i`'s goal ordering, and its body ordering of every rule of
  /// its variant (empty: the body as written), written to `rule_orders`.
  Ordering GoalOrdering(size_t i) const;
  void RuleOrderings(size_t i, std::vector<Ordering>* rule_orders) const;
  /// Builds candidate `i` as a program: goals and rule bodies permuted.
  CandidatePlan Materialize(size_t i) const;

 private:
  friend class RuleRewriter;
  struct Variant {
    std::string description;  ///< "direct", "pushdown", with "+cim".
    size_t cim_calls = 0;
    /// The goals, when a transformation changed them (else the space's).
    bool own_goals = false;
    std::vector<lang::Atom> goals;
    /// The rules a transformation changed.
    std::vector<lang::Rule> changed_rules;
    /// Every reachable rule: one of the space's or of changed_rules.
    std::vector<const lang::Rule*> rules;
    /// Its entry in orderings_: a CIM variant shares the entry of its
    /// uncached twin when the two order alike.
    uint32_t orderings = 0;
  };
  /// `count` orderings of a body of `stride` atoms, consecutive in
  /// order_buffer_ from `offset`.
  struct BodyOrderings {
    uint32_t offset = 0;
    uint32_t count = 0;
    uint32_t stride = 0;
  };
  /// The executable orderings of a variant's goals, and of each rule body
  /// that has more than one.
  struct Orderings {
    BodyOrderings goals;
    struct Rule {
      uint32_t rule = 0;  ///< Index among the variant's rules.
      BodyOrderings orderings;
    };
    std::vector<Rule> rules;  ///< The reorderable rules, in rule order.
  };
  struct Candidate {
    uint32_t variant = 0;
    uint32_t goal_ordering = 0;
    uint32_t rule_choice = 0;  ///< Offset of its picks in rule_choices_.
  };
  Ordering OrderingAt(const BodyOrderings& body, size_t k) const {
    return Ordering(order_buffer_.data() + body.offset + k * body.stride,
                    body.stride);
  }
  const Orderings& OrderingsOf(const Candidate& c) const {
    return orderings_[variants_[c.variant].orderings];
  }

  /// The query goals and the reachable rules, as the query and program
  /// have them; variants read what they do not change from here.
  std::vector<lang::Atom> goals_;
  std::vector<lang::Rule> rules_;
  std::vector<Variant> variants_;
  std::vector<Orderings> orderings_;
  std::vector<uint32_t> order_buffer_;
  std::vector<Candidate> candidates_;
  /// Per candidate, one ordering index per reorderable rule.
  std::vector<uint32_t> rule_choices_;
};

/// Section 5's rule rewriter.
///
/// Given a program and a query, produces candidate plans by applying:
///   1. CIM redirection — `in(X, d:f(args))` → `in(X, cim_d:f(args))` for
///      domains that have a CIM wrapper,
///   2. selection push-down — `in(T, d:all(tbl)) & =(T.attr, c)` →
///      `in(T, d:equal(tbl, 'attr', c))` (and the comparison-select
///      family) when the domain exports the target function,
///   3. subgoal reordering — every permutation of each body that keeps
///      domain-call arguments ground at execution time.
///
/// The rewriter only transforms the rules reachable from the query, and
/// candidate plans carry only those rules: no other rule can execute.
class RuleRewriter {
 public:
  using HasFunction = std::function<bool(
      const std::string& domain, const std::string& function, size_t arity)>;

  struct Options {
    bool reorder_subgoals = true;
    bool push_selections = true;
    /// Generate CIM-redirected variants for these domains (in addition to
    /// the direct variants). Empty: no CIM variants.
    std::vector<std::string> cim_domains;
    /// When true, only CIM-redirected variants are emitted.
    bool cim_only = false;
    /// Decides whether `domain` exports `function` at `arity` (used by
    /// selection push-down). Unset: push-down applies to the select_*
    /// family by name.
    HasFunction domain_has_function;
    size_t max_orderings_per_body = 24;
    size_t max_plans = 128;
  };

  /// Enumerates the candidate plans. At least one candidate (the original
  /// ordering) exists for a well-formed input.
  static Result<PlanSpace> Rewrite(
      const lang::Program& program, const lang::Query& query,
      const Options& options);

  /// The rules of `program` reachable from `query`'s goals, in program
  /// order.
  static lang::Program ReachableRules(const lang::Program& program,
                                      const lang::Query& query);

  /// Redirects every domain call in `atoms` whose domain is in
  /// `cim_domains` to its CIM wrapper (`cim_<domain>`); returns how many
  /// calls were redirected.
  static size_t RedirectToCim(std::vector<lang::Atom>* atoms,
                              const std::vector<std::string>& cim_domains);

  /// Applies selection push-down to one body in place; returns the number
  /// of selections pushed.
  static size_t PushSelections(std::vector<lang::Atom>* body,
                               const HasFunction& domain_has_function);

  /// Enumerates permutations of `body` under which every domain call's
  /// arguments and every comparison's operands are bound when reached.
  /// The original order, when valid, is first. Capped at `max_orderings`.
  static std::vector<std::vector<lang::Atom>> ValidOrderings(
      const std::vector<lang::Atom>& body,
      const std::vector<std::string>& initially_bound, size_t max_orderings);

 private:
  /// Appends the executable orderings of variant `v`'s goals and rule
  /// bodies to `space`'s ordering buffer and returns where they lie.
  static PlanSpace::Orderings SearchOrderings(PlanSpace* space, size_t v,
                                              const Options& options);
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_REWRITER_H_
