#include "optimizer/estimator.h"

#include <algorithm>
#include <optional>

namespace hermes::optimizer {

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

namespace {

constexpr uint32_t kNone = UINT32_MAX;

/// Static binding knowledge about one variable during plan analysis
/// (Section 5/6's adornments): free, bound to an unknown value (`$b`), or
/// bound to a known constant, which points into the plan's own terms.
struct Slot {
  enum class Kind : uint8_t { kFree, kBound, kConst };
  Kind kind = Kind::kFree;
  const Value* constant = nullptr;  ///< Valid when kind == kConst.

  bool is_bound() const { return kind != Kind::kFree; }
  bool is_const() const { return kind == Kind::kConst; }
};

/// A body's variable names, interned to dense slot ids in order of first
/// appearance.
class VarNames {
 public:
  uint32_t Intern(const std::string& name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (*names_[i] == name) return static_cast<uint32_t>(i);
    }
    names_.push_back(&name);
    return static_cast<uint32_t>(names_.size() - 1);
  }
  uint32_t size() const { return static_cast<uint32_t>(names_.size()); }

 private:
  std::vector<const std::string*> names_;
};

std::string PredicateKey(const lang::Atom& atom) {
  return atom.predicate + "/" + std::to_string(atom.args.size());
}

/// Why a walk failed. The optimizer only needs to know that a candidate is
/// infeasible, so the message is built only when a Status is asked for.
struct Failure {
  enum class Kind : uint8_t {
    kFreeArgument,     ///< `term`, an argument of call `atom`, is free.
    kBindThroughPath,  ///< `=` would bind through `term`'s path.
    kTwoFree,          ///< Comparison `atom` has two free sides.
    kFreeComparison,   ///< Comparison `atom` reads a free variable.
    kRecursive,        ///< Predicate goal `atom` recurses (or nests too deep).
    kUndefined,        ///< No rule defines predicate goal `atom`.
    kDcsm,             ///< The DCSM answered `dcsm`.
  };
  Kind kind = Kind::kFreeArgument;
  const lang::Atom* atom = nullptr;
  const lang::Term* term = nullptr;
  const Status* dcsm = nullptr;

  bool recursive() const { return kind == Kind::kRecursive; }

  Status ToStatus() const {
    switch (kind) {
      case Kind::kFreeArgument:
        return Status::InvalidArgument(
            "argument '" + term->ToString() + "' of " + atom->call.ToString() +
            " is free at execution time (invalid ordering)");
      case Kind::kBindThroughPath:
        return Status::InvalidArgument("cannot bind through '" +
                                       term->ToString() + "' in " +
                                       atom->ToString());
      case Kind::kTwoFree:
        return Status::InvalidArgument(
            "comparison with two free variables: " + atom->ToString());
      case Kind::kFreeComparison:
        return Status::InvalidArgument("comparison over a free variable: " +
                                       atom->ToString());
      case Kind::kRecursive:
        return Status::Unimplemented(
            "recursive predicate '" + PredicateKey(*atom) +
            "' is not supported by the cost estimator (see [33])");
      case Kind::kUndefined:
        return Status::NotFound("no rule defines predicate '" +
                                PredicateKey(*atom) + "'");
      case Kind::kDcsm:
        return *dcsm;
    }
    return Status::Internal("unknown estimator failure");
  }
};

}  // namespace

/// The compiled shape and the walk's scratch state. Body 0 is the query
/// goals, body 1 + r is rule r's body. A body's slots live in one frame of
/// `slots`, pushed when the body is entered and popped when it returns, so
/// each rule starts from a fresh environment as the paper's formula
/// requires and nothing is copied between bodies.
struct RuleCostEstimator::PlanWalk::State {
  struct Term {
    enum class Kind : uint8_t { kConst, kBound, kVar };
    Kind kind = Kind::kConst;
    uint32_t var = 0;  ///< Slot within the body's frame (kVar).
    const lang::Term* src = nullptr;
  };
  /// Terms: a domain call's arguments then its output; a comparison's lhs
  /// and rhs; a predicate's arguments. `ref`: a domain call's adornment
  /// list, or a predicate goal's entry in `predicates` (kNone: no rule).
  struct Atom {
    const lang::Atom* src = nullptr;
    uint32_t first_term = 0;
    uint32_t ref = kNone;
  };
  struct Body {
    uint32_t first_atom = 0;
    uint32_t num_atoms = 0;
    uint32_t num_vars = 0;
  };
  struct Predicate {
    const std::string* name = nullptr;
    size_t arity = 0;
    std::vector<uint32_t> rules;  ///< Defining rules, in program order.
    bool active = false;          ///< Being estimated (recursion guard).
  };
  /// DCSM answer for one argument adornment of a domain-call goal: its key
  /// is `num_args` entries of `keys` from `first_key`, each the constant
  /// the argument is bound to or null for bound-unknown.
  struct Adornment {
    uint32_t first_key = 0;
    const Result<dcsm::CostEstimate>* answer = nullptr;
  };

  const RuleCostEstimator* estimator = nullptr;
  CostMemo* memo = nullptr;
  std::vector<Term> terms;
  std::vector<Atom> atoms;
  std::vector<Body> bodies;
  std::vector<uint32_t> head_terms;  ///< First head term of each rule.
  std::vector<Predicate> predicates;
  std::vector<std::vector<Adornment>> adornments;
  std::vector<const Value*> keys;
  std::vector<Slot> slots;
  std::span<const Ordering> rule_orders;
  lang::DomainCallSpec pattern;  ///< Scratch for adornment misses.
  Failure failure;               ///< Set when a walk step returns false.

  bool Fail(Failure::Kind kind, const lang::Atom* atom,
            const lang::Term* term = nullptr) {
    failure = Failure{kind, atom, term, nullptr};
    return false;
  }

  Term CompileTerm(const lang::Term& term, VarNames* names) {
    Term t;
    t.src = &term;
    if (term.is_bound_pattern()) {
      t.kind = Term::Kind::kBound;
    } else if (term.is_variable()) {
      t.kind = Term::Kind::kVar;
      t.var = names->Intern(term.var_name);
    }
    return t;
  }

  uint32_t PredicateOf(const std::string& name, size_t arity) const {
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (*predicates[i].name == name && predicates[i].arity == arity) {
        return static_cast<uint32_t>(i);
      }
    }
    return kNone;
  }

  void CompileBody(const std::vector<lang::Atom>& body, VarNames* names) {
    Body b;
    b.first_atom = static_cast<uint32_t>(atoms.size());
    b.num_atoms = static_cast<uint32_t>(body.size());
    for (const lang::Atom& src : body) {
      Atom a;
      a.src = &src;
      a.first_term = static_cast<uint32_t>(terms.size());
      switch (src.kind) {
        case lang::Atom::Kind::kDomainCall:
          for (const lang::Term& arg : src.call.args) {
            terms.push_back(CompileTerm(arg, names));
          }
          terms.push_back(CompileTerm(src.output, names));
          a.ref = static_cast<uint32_t>(adornments.size());
          adornments.emplace_back();
          break;
        case lang::Atom::Kind::kComparison:
          terms.push_back(CompileTerm(src.lhs, names));
          terms.push_back(CompileTerm(src.rhs, names));
          break;
        case lang::Atom::Kind::kPredicate:
          for (const lang::Term& arg : src.args) {
            terms.push_back(CompileTerm(arg, names));
          }
          a.ref = PredicateOf(src.predicate, src.args.size());
          break;
      }
      atoms.push_back(a);
    }
    b.num_vars = names->size();
    bodies.push_back(b);
  }

  /// The binding of `term` in the frame at `base`.
  Slot Describe(const Term& term, size_t base) const {
    switch (term.kind) {
      case Term::Kind::kConst:
        return Slot{Slot::Kind::kConst, &term.src->constant};
      case Term::Kind::kBound:
        return Slot{Slot::Kind::kBound, nullptr};
      case Term::Kind::kVar:
        break;
    }
    const Slot& var = slots[base + term.var];
    if (term.src->path.empty()) return var;
    if (var.is_const()) {
      Result<const Value*> resolved = var.constant->GetPathPtr(term.src->path);
      if (resolved.ok()) return Slot{Slot::Kind::kConst, *resolved};
      return Slot{Slot::Kind::kBound, nullptr};
    }
    // A path over a bound-unknown variable is bound-unknown; over a free
    // variable it is free.
    return var;
  }

  void MarkBound(const Term& term, size_t base) {
    Slot& slot = slots[base + term.var];
    if (slot.kind == Slot::Kind::kFree) slot.kind = Slot::Kind::kBound;
  }

  /// DCSM answer for domain-call goal `a` under the frame at `base`; null
  /// (and `failure` set) when an argument is free.
  const Result<dcsm::CostEstimate>* Answer(const Atom& a, size_t base) {
    const lang::DomainCallSpec& call = a.src->call;
    const size_t num_args = call.args.size();
    const size_t mark = keys.size();
    for (size_t i = 0; i < num_args; ++i) {
      Slot arg = Describe(terms[a.first_term + i], base);
      if (!arg.is_bound()) {
        keys.resize(mark);
        Fail(Failure::Kind::kFreeArgument, a.src, &call.args[i]);
        return nullptr;
      }
      keys.push_back(arg.constant);
    }
    std::vector<Adornment>& seen = adornments[a.ref];
    for (const Adornment& adornment : seen) {
      if (std::equal(keys.begin() + mark, keys.end(),
                     keys.begin() + adornment.first_key)) {
        keys.resize(mark);
        return adornment.answer;
      }
    }
    // First use of this adornment: the memo answers per typed pattern, so
    // equal constants at different places still reach the DCSM once.
    pattern.domain = call.domain;
    pattern.function = call.function;
    pattern.args.resize(num_args);
    for (size_t i = 0; i < num_args; ++i) {
      const Value* constant = keys[mark + i];
      pattern.args[i] = constant != nullptr ? lang::Term::Const(*constant)
                                            : lang::Term::Bound();
    }
    const Result<dcsm::CostEstimate>* answer =
        &memo->Cost(*estimator->dcsm_, pattern);
    seen.push_back(Adornment{static_cast<uint32_t>(mark), answer});
    return answer;
  }

  /// Cost of body `body_id` walked in `order` over the frame at `base`;
  /// false (and `failure` set) when the ordering is infeasible.
  bool EstimateBody(uint32_t body_id, Ordering order, size_t base,
                    size_t depth, double* estimation_ms, CostVector* cost);
  bool EstimatePredicate(const Atom& a, size_t base, size_t depth,
                         double* estimation_ms, CostVector* cost);
};

bool RuleCostEstimator::PlanWalk::State::EstimatePredicate(
    const Atom& a, size_t base, size_t depth, double* estimation_ms,
    CostVector* cost) {
  const EstimatorParams& params = estimator->params_;
  const lang::Atom& atom = *a.src;
  Predicate* predicate = a.ref == kNone ? nullptr : &predicates[a.ref];
  if (depth >= params.max_recursion_depth ||
      (predicate != nullptr && predicate->active)) {
    return Fail(Failure::Kind::kRecursive, &atom);
  }
  if (predicate == nullptr) return Fail(Failure::Kind::kUndefined, &atom);
  predicate->active = true;

  bool any_rule = false;
  double t_first = 0, t_all = 0, card = 0;
  bool first_rule = true;
  std::optional<Failure> last_failure;

  for (uint32_t r : predicate->rules) {
    const uint32_t body_id = r + 1;
    // The rule-local environment: head terms unified with the caller's
    // argument descriptions.
    const size_t local = slots.size();
    slots.resize(local + bodies[body_id].num_vars);
    bool head_compatible = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Slot caller = Describe(terms[a.first_term + i], base);
      const Term& head = terms[head_terms[r] + i];
      if (head.kind == Term::Kind::kConst) {
        if (caller.is_const() && *caller.constant != head.src->constant) {
          head_compatible = false;  // this rule can never match the call
          break;
        }
        continue;
      }
      if (head.kind != Term::Kind::kVar) continue;
      // Join variables repeated in the head: keep the strongest knowledge.
      Slot& existing = slots[local + head.var];
      if (!existing.is_bound() || (caller.is_const() && !existing.is_const())) {
        existing = caller;
      }
    }
    if (!head_compatible) {
      slots.resize(local);
      continue;
    }

    const Ordering order = rule_orders.empty() ? Ordering() : rule_orders[r];
    CostVector body;
    const bool ok =
        EstimateBody(body_id, order, local, depth + 1, estimation_ms, &body);
    slots.resize(local);
    if (!ok) {
      // Recursion is a hard error (the paper defers recursive mediators to
      // [33]); an infeasible ordering merely disqualifies this rule.
      if (failure.recursive()) {
        predicate->active = false;
        return false;
      }
      last_failure = failure;
      continue;
    }
    any_rule = true;
    // "Adding up the cardinalities and the execution times of the results
    // produced by each rule." Rules are tried sequentially, so the first
    // answer comes from the first feasible rule.
    if (first_rule) {
      t_first = body.t_first_ms;
      first_rule = false;
    }
    t_all += body.t_all_ms;
    card += body.cardinality;
  }

  predicate->active = false;
  if (!any_rule) {
    if (last_failure) {
      failure = *last_failure;
      return false;
    }
    return Fail(Failure::Kind::kUndefined, &atom);
  }

  // Predicate-Tf caching extension: replace the formula-derived T_f with
  // the observed first-answer time of comparable past invocations.
  if (params.use_predicate_first_answer_stats) {
    lang::DomainCallSpec pattern;
    pattern.domain = "idb";
    pattern.function = atom.predicate;
    pattern.args.reserve(atom.args.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Slot arg = Describe(terms[a.first_term + i], base);
      pattern.args.push_back(arg.is_const() ? lang::Term::Const(*arg.constant)
                                            : lang::Term::Bound());
    }
    const dcsm::Dcsm* dcsm = estimator->dcsm_;
    Result<dcsm::Aggregate> observed = dcsm->Observed(pattern);
    if (!observed.ok()) {
      // Relax fully: any past invocation of this predicate.
      for (lang::Term& arg : pattern.args) arg = lang::Term::Bound();
      observed = dcsm->Observed(pattern);
    }
    if (observed.ok() && observed->has_t_first) {
      t_first = observed->cost.t_first_ms;
      *estimation_ms += params.per_predicate_stat_row_ms *
                        static_cast<double>(observed->rows_scanned);
    }
  }
  *cost = CostVector(t_first, t_all, card);
  return true;
}

bool RuleCostEstimator::PlanWalk::State::EstimateBody(
    uint32_t body_id, Ordering order, size_t base, size_t depth,
    double* estimation_ms, CostVector* cost) {
  const EstimatorParams& params = estimator->params_;
  const Body body = bodies[body_id];
  double t_first = 0.0;
  double t_all = 0.0;
  double card = 1.0;
  double prefix_card = 1.0;  // Π_{j<i} Card_j

  for (uint32_t k = 0; k < body.num_atoms; ++k) {
    const Atom& a = atoms[body.first_atom + (order.empty() ? k : order[k])];
    const lang::Atom& goal = *a.src;
    CostVector goal_cost;
    double selectivity = 1.0;

    switch (goal.kind) {
      case lang::Atom::Kind::kDomainCall: {
        const Result<dcsm::CostEstimate>* est = Answer(a, base);
        if (est == nullptr) return false;
        if (!est->ok()) {
          failure = Failure{Failure::Kind::kDcsm, &goal, nullptr,
                            &est->status()};
          return false;
        }
        *estimation_ms += (*est)->lookup_ms;
        goal_cost = (*est)->cost;
        const Term& output = terms[a.first_term + goal.call.args.size()];
        if (Describe(output, base).is_bound()) {
          // Membership check: at most one continuation per call.
          goal_cost.cardinality = std::min(
              1.0, goal_cost.cardinality * params.membership_selectivity);
        } else if (output.kind == Term::Kind::kVar) {
          MarkBound(output, base);
        }
        break;
      }
      case lang::Atom::Kind::kComparison: {
        goal_cost = CostVector(params.comparison_cost_ms,
                               params.comparison_cost_ms, 1.0);
        const Term& lhs_term = terms[a.first_term];
        const Term& rhs_term = terms[a.first_term + 1];
        const Slot lhs = Describe(lhs_term, base);
        const Slot rhs = Describe(rhs_term, base);
        if (lhs.is_const() && rhs.is_const()) {
          // Statically decidable.
          selectivity =
              lang::EvalRelOp(goal.op, *lhs.constant, *rhs.constant) ? 1.0
                                                                     : 0.0;
        } else if (lhs.is_bound() && rhs.is_bound()) {
          switch (goal.op) {
            case lang::RelOp::kEq:
              selectivity = params.eq_selectivity;
              break;
            case lang::RelOp::kNeq:
              selectivity = params.neq_selectivity;
              break;
            default:
              selectivity = params.range_selectivity;
              break;
          }
        } else if (goal.op == lang::RelOp::kEq) {
          // Assignment: binds the free side.
          const Term& free_term = lhs.is_bound() ? rhs_term : lhs_term;
          const Slot known = lhs.is_bound() ? lhs : rhs;
          if (free_term.kind != Term::Kind::kVar ||
              !free_term.src->path.empty()) {
            return Fail(Failure::Kind::kBindThroughPath, &goal,
                        free_term.src);
          }
          if (!lhs.is_bound() && !rhs.is_bound()) {
            return Fail(Failure::Kind::kTwoFree, &goal);
          }
          slots[base + free_term.var] = known;
          selectivity = 1.0;
        } else {
          return Fail(Failure::Kind::kFreeComparison, &goal);
        }
        goal_cost.cardinality = selectivity;
        break;
      }
      case lang::Atom::Kind::kPredicate: {
        if (!EstimatePredicate(a, base, depth, estimation_ms, &goal_cost)) {
          return false;
        }
        for (size_t i = 0; i < goal.args.size(); ++i) {
          const Term& arg = terms[a.first_term + i];
          if (arg.kind == Term::Kind::kVar) MarkBound(arg, base);
        }
        break;
      }
    }

    t_first += goal_cost.t_first_ms;
    t_all += prefix_card * goal_cost.t_all_ms;
    prefix_card *= std::max(goal_cost.cardinality, 0.0);
    card = prefix_card;
  }

  *cost = CostVector(t_first, t_all, card);
  return true;
}

RuleCostEstimator::PlanWalk::PlanWalk(
    const RuleCostEstimator& estimator, const std::vector<lang::Atom>& goals,
    std::span<const lang::Rule* const> rules, CostMemo* memo)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.estimator = &estimator;
  s.memo = memo;
  for (size_t r = 0; r < rules.size(); ++r) {
    const lang::Atom& head = rules[r]->head;
    uint32_t p = s.PredicateOf(head.predicate, head.args.size());
    if (p == kNone) {
      p = static_cast<uint32_t>(s.predicates.size());
      s.predicates.push_back(
          State::Predicate{&head.predicate, head.args.size(), {}, false});
    }
    s.predicates[p].rules.push_back(static_cast<uint32_t>(r));
  }
  VarNames query_vars;
  s.CompileBody(goals, &query_vars);
  s.head_terms.reserve(rules.size());
  for (const lang::Rule* rule : rules) {
    VarNames vars;
    s.head_terms.push_back(static_cast<uint32_t>(s.terms.size()));
    for (const lang::Term& arg : rule->head.args) {
      s.terms.push_back(s.CompileTerm(arg, &vars));
    }
    s.CompileBody(rule->body, &vars);
  }
}

RuleCostEstimator::PlanWalk::PlanWalk(PlanWalk&&) noexcept = default;
RuleCostEstimator::PlanWalk::~PlanWalk() = default;

std::optional<RuleCostEstimator::Estimate>
RuleCostEstimator::PlanWalk::TryCost(Ordering goal_order,
                                     std::span<const Ordering> rule_orders) {
  State& s = *state_;
  s.rule_orders = rule_orders;
  s.slots.assign(s.bodies[0].num_vars, Slot{});
  Estimate estimate;
  if (!s.EstimateBody(0, goal_order, 0, 0, &estimate.estimation_ms,
                      &estimate.cost)) {
    return std::nullopt;
  }
  return estimate;
}

Result<RuleCostEstimator::Estimate> RuleCostEstimator::PlanWalk::Cost(
    Ordering goal_order, std::span<const Ordering> rule_orders) {
  std::optional<Estimate> estimate = TryCost(goal_order, rule_orders);
  if (!estimate) return state_->failure.ToStatus();
  return *estimate;
}

Result<RuleCostEstimator::Estimate> RuleCostEstimator::EstimateBody(
    const lang::Program& program, const std::vector<lang::Atom>& goals,
    CostMemo* memo) const {
  CostMemo call_memo;
  std::vector<const lang::Rule*> rules;
  rules.reserve(program.rules.size());
  for (const lang::Rule& rule : program.rules) rules.push_back(&rule);
  return PlanWalk(*this, goals, rules, memo != nullptr ? memo : &call_memo)
      .Cost({}, {});
}

Result<RuleCostEstimator::Estimate> RuleCostEstimator::EstimatePlan(
    const CandidatePlan& plan, CostMemo* memo) const {
  return EstimateBody(plan.program, plan.query.goals, memo);
}

}  // namespace hermes::optimizer
