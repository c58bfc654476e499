#include "optimizer/estimator.h"

#include <algorithm>

namespace hermes::optimizer {

namespace {

/// Resolves a term to a static binding description under `env`.
BindingInfo DescribeTerm(const lang::Term& term, const BindingEnv& env) {
  if (term.is_constant()) return BindingInfo::Const(term.constant);
  if (term.is_bound_pattern()) return BindingInfo::Bound();
  const BindingInfo& base = env.Get(term.var_name);
  if (term.path.empty()) return base;
  if (base.is_const()) {
    Result<Value> resolved = base.constant.GetPath(term.path);
    if (resolved.ok()) return BindingInfo::Const(*resolved);
    return BindingInfo::Bound();
  }
  // A path over a bound-unknown variable is bound-unknown; over a free
  // variable it is free.
  return base.is_bound() ? BindingInfo::Bound() : BindingInfo::Free();
}

}  // namespace

size_t CostMemo::PatternHash::operator()(
    const lang::DomainCallSpec& pattern) const {
  size_t h = std::hash<std::string>()(pattern.domain);
  auto mix = [&h](size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(std::hash<std::string>()(pattern.function));
  for (const lang::Term& arg : pattern.args) {
    mix(static_cast<size_t>(arg.kind));
    if (arg.is_constant()) mix(arg.constant.Hash());
  }
  return h;
}

bool CostMemo::PatternEq::operator()(const lang::DomainCallSpec& a,
                                     const lang::DomainCallSpec& b) const {
  if (!(a == b)) return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (a.args[i].is_constant() &&
        a.args[i].constant.type() != b.args[i].constant.type()) {
      return false;
    }
  }
  return true;
}

const Result<dcsm::CostEstimate>& CostMemo::Cost(
    const dcsm::Dcsm& dcsm, const lang::DomainCallSpec& pattern) {
  auto it = answers_.find(pattern);
  if (it == answers_.end()) {
    it = answers_.emplace(pattern, dcsm.Cost(pattern)).first;
  }
  return it->second;
}

Result<lang::DomainCallSpec> RuleCostEstimator::PatternFor(
    const lang::DomainCallSpec& call, const BindingEnv& env) const {
  lang::DomainCallSpec pattern;
  pattern.domain = call.domain;
  pattern.function = call.function;
  pattern.args.reserve(call.args.size());
  for (const lang::Term& arg : call.args) {
    BindingInfo info = DescribeTerm(arg, env);
    switch (info.kind) {
      case BindingInfo::Kind::kConst:
        pattern.args.push_back(lang::Term::Const(info.constant));
        break;
      case BindingInfo::Kind::kBound:
        pattern.args.push_back(lang::Term::Bound());
        break;
      case BindingInfo::Kind::kFree:
        return Status::InvalidArgument(
            "argument '" + arg.ToString() + "' of " + call.ToString() +
            " is free at execution time (invalid ordering)");
    }
  }
  return pattern;
}

Result<CostVector> RuleCostEstimator::EstimatePredicate(
    const lang::Program& program, const lang::Atom& atom,
    const BindingEnv& env, size_t depth,
    std::set<std::string>* active_predicates, double* estimation_ms,
    CostMemo* memo) const {
  std::string key = atom.predicate + "/" + std::to_string(atom.args.size());
  if (depth >= params_.max_recursion_depth ||
      active_predicates->count(key) > 0) {
    return Status::Unimplemented(
        "recursive predicate '" + key +
        "' is not supported by the cost estimator (see [33])");
  }
  active_predicates->insert(key);

  bool any_rule = false;
  double t_first = 0, t_all = 0, card = 0;
  bool first_rule = true;
  Status failure = Status::OK();

  for (const lang::Rule& rule : program.rules) {
    if (rule.head.predicate != atom.predicate ||
        rule.head.args.size() != atom.args.size()) {
      continue;
    }
    // Build the rule-local environment by unifying head terms with the
    // caller's argument descriptions.
    BindingEnv local;
    bool head_compatible = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      BindingInfo caller = DescribeTerm(atom.args[i], env);
      const lang::Term& head_term = rule.head.args[i];
      if (head_term.is_constant()) {
        if (caller.is_const() && caller.constant != head_term.constant) {
          head_compatible = false;  // this rule can never match the call
          break;
        }
        continue;
      }
      if (!head_term.is_variable()) continue;
      // Join variables repeated in the head: keep the strongest knowledge.
      const BindingInfo& existing = local.Get(head_term.var_name);
      if (!existing.is_bound() ||
          (caller.is_const() && !existing.is_const())) {
        local.Set(head_term.var_name, caller);
      }
    }
    if (!head_compatible) continue;

    Result<CostVector> body = EstimateBodyInternal(
        program, rule.body, local, depth + 1, active_predicates,
        estimation_ms, memo);
    if (!body.ok()) {
      // Recursion is a hard error (the paper defers recursive mediators to
      // [33]); an infeasible ordering merely disqualifies this rule.
      if (body.status().code() == StatusCode::kUnimplemented) {
        active_predicates->erase(key);
        return body.status();
      }
      failure = body.status();
      continue;
    }
    any_rule = true;
    // "Adding up the cardinalities and the execution times of the results
    // produced by each rule." Rules are tried sequentially, so the first
    // answer comes from the first feasible rule.
    if (first_rule) {
      t_first = body->t_first_ms;
      first_rule = false;
    }
    t_all += body->t_all_ms;
    card += body->cardinality;
  }

  active_predicates->erase(key);
  if (!any_rule) {
    if (!failure.ok()) return failure;
    return Status::NotFound("no rule defines predicate '" + key + "'");
  }

  // Predicate-Tf caching extension: replace the formula-derived T_f with
  // the observed first-answer time of comparable past invocations.
  if (params_.use_predicate_first_answer_stats) {
    lang::DomainCallSpec pattern;
    pattern.domain = "idb";
    pattern.function = atom.predicate;
    pattern.args.reserve(atom.args.size());
    for (const lang::Term& arg : atom.args) {
      BindingInfo info = DescribeTerm(arg, env);
      pattern.args.push_back(info.is_const()
                                 ? lang::Term::Const(info.constant)
                                 : lang::Term::Bound());
    }
    Result<dcsm::Aggregate> observed = dcsm_->Observed(pattern);
    if (!observed.ok()) {
      // Relax fully: any past invocation of this predicate.
      for (lang::Term& arg : pattern.args) arg = lang::Term::Bound();
      observed = dcsm_->Observed(pattern);
    }
    if (observed.ok() && observed->has_t_first) {
      t_first = observed->cost.t_first_ms;
      *estimation_ms += params_.per_predicate_stat_row_ms *
                        static_cast<double>(observed->rows_scanned);
    }
  }
  return CostVector(t_first, t_all, card);
}

Result<CostVector> RuleCostEstimator::EstimateBodyInternal(
    const lang::Program& program, const std::vector<lang::Atom>& goals,
    BindingEnv env, size_t depth, std::set<std::string>* active_predicates,
    double* estimation_ms, CostMemo* memo) const {
  double t_first = 0.0;
  double t_all = 0.0;
  double card = 1.0;
  double prefix_card = 1.0;  // Π_{j<i} Card_j

  for (const lang::Atom& goal : goals) {
    CostVector goal_cost;
    double selectivity = 1.0;

    switch (goal.kind) {
      case lang::Atom::Kind::kDomainCall: {
        HERMES_ASSIGN_OR_RETURN(lang::DomainCallSpec pattern,
                                PatternFor(goal.call, env));
        const Result<dcsm::CostEstimate>& est = memo->Cost(*dcsm_, pattern);
        if (!est.ok()) return est.status();
        *estimation_ms += est->lookup_ms;
        goal_cost = est->cost;
        BindingInfo out = DescribeTerm(goal.output, env);
        if (out.is_bound()) {
          // Membership check: at most one continuation per call.
          goal_cost.cardinality = std::min(
              1.0, goal_cost.cardinality * params_.membership_selectivity);
        } else if (goal.output.is_variable()) {
          env.MarkBound(goal.output.var_name);
        }
        break;
      }
      case lang::Atom::Kind::kComparison: {
        goal_cost = CostVector(params_.comparison_cost_ms,
                               params_.comparison_cost_ms, 1.0);
        BindingInfo lhs = DescribeTerm(goal.lhs, env);
        BindingInfo rhs = DescribeTerm(goal.rhs, env);
        if (lhs.is_const() && rhs.is_const()) {
          // Statically decidable.
          selectivity =
              lang::EvalRelOp(goal.op, lhs.constant, rhs.constant) ? 1.0 : 0.0;
        } else if (lhs.is_bound() && rhs.is_bound()) {
          switch (goal.op) {
            case lang::RelOp::kEq:
              selectivity = params_.eq_selectivity;
              break;
            case lang::RelOp::kNeq:
              selectivity = params_.neq_selectivity;
              break;
            default:
              selectivity = params_.range_selectivity;
              break;
          }
        } else if (goal.op == lang::RelOp::kEq) {
          // Assignment: binds the free side.
          const lang::Term& free_term = lhs.is_bound() ? goal.rhs : goal.lhs;
          const BindingInfo& known = lhs.is_bound() ? lhs : rhs;
          if (!free_term.is_variable() || !free_term.path.empty()) {
            return Status::InvalidArgument(
                "cannot bind through '" + free_term.ToString() + "' in " +
                goal.ToString());
          }
          if (!lhs.is_bound() && !rhs.is_bound()) {
            return Status::InvalidArgument(
                "comparison with two free variables: " + goal.ToString());
          }
          env.Set(free_term.var_name, known);
          selectivity = 1.0;
        } else {
          return Status::InvalidArgument(
              "comparison over a free variable: " + goal.ToString());
        }
        goal_cost.cardinality = selectivity;
        break;
      }
      case lang::Atom::Kind::kPredicate: {
        HERMES_ASSIGN_OR_RETURN(
            goal_cost,
            EstimatePredicate(program, goal, env, depth, active_predicates,
                              estimation_ms, memo));
        for (const lang::Term& arg : goal.args) {
          if (arg.is_variable()) env.MarkBound(arg.var_name);
        }
        break;
      }
    }

    t_first += goal_cost.t_first_ms;
    t_all += prefix_card * goal_cost.t_all_ms;
    prefix_card *= std::max(goal_cost.cardinality, 0.0);
    card = prefix_card;
  }

  return CostVector(t_first, t_all, card);
}

Result<RuleCostEstimator::Estimate> RuleCostEstimator::EstimateBody(
    const lang::Program& program, const std::vector<lang::Atom>& goals,
    const BindingEnv& env, CostMemo* memo) const {
  CostMemo call_memo;
  Estimate estimate;
  std::set<std::string> active;
  HERMES_ASSIGN_OR_RETURN(
      estimate.cost,
      EstimateBodyInternal(program, goals, env, 0, &active,
                           &estimate.estimation_ms,
                           memo != nullptr ? memo : &call_memo));
  return estimate;
}

Result<RuleCostEstimator::Estimate> RuleCostEstimator::EstimatePlan(
    const CandidatePlan& plan, CostMemo* memo) const {
  return EstimateBody(plan.program, plan.query.goals, BindingEnv(), memo);
}

}  // namespace hermes::optimizer
