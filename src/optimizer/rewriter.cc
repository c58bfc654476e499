#include "optimizer/rewriter.h"

#include <algorithm>
#include <cstdint>
#include <optional>

namespace hermes::optimizer {

namespace {

/// Growable bitset over a body's interned variable ids.
class VarSet {
 public:
  explicit VarSet(size_t size) : words_((size + 63) / 64, 0) {}

  bool Has(uint32_t v) const { return (words_[v / 64] >> (v % 64)) & 1; }
  /// Sets `v`; false when it was already set.
  bool Add(uint32_t v) {
    const uint64_t bit = uint64_t{1} << (v % 64);
    if (words_[v / 64] & bit) return false;
    words_[v / 64] |= bit;
    return true;
  }
  void Remove(uint32_t v) { words_[v / 64] &= ~(uint64_t{1} << (v % 64)); }

 private:
  std::vector<uint64_t> words_;
};

/// Terms equal in kind, name, path and constant — constants at the same
/// type too, since `1` and `1.0` compare equal as values but are different
/// arguments.
bool SameTerm(const lang::Term& a, const lang::Term& b) {
  return a == b && (!a.is_constant() || a.constant.type() == b.constant.type());
}

bool SameTerms(const std::vector<lang::Term>& a,
               const std::vector<lang::Term>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameTerm(a[i], b[i])) return false;
  }
  return true;
}

/// Structurally identical atoms: swapping them leaves a body unchanged.
bool SameAtom(const lang::Atom& a, const lang::Atom& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case lang::Atom::Kind::kPredicate:
      return a.predicate == b.predicate && SameTerms(a.args, b.args);
    case lang::Atom::Kind::kDomainCall:
      return a.call.domain == b.call.domain &&
             a.call.function == b.call.function &&
             SameTerm(a.output, b.output) && SameTerms(a.call.args, b.call.args);
    case lang::Atom::Kind::kComparison:
      return a.op == b.op && SameTerm(a.lhs, b.lhs) && SameTerm(a.rhs, b.rhs);
  }
  return false;
}

/// Do bodies `a` and `b` (of equal length) hold identical atoms at the
/// same pairs of positions?
bool SameEquivalence(const std::vector<lang::Atom>& a,
                     const std::vector<lang::Atom>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (SameAtom(a[i], a[j]) != SameAtom(b[i], b[j])) return false;
    }
  }
  return true;
}

/// SameEquivalence for every body of two variants of one rewriting.
bool SameEquivalences(const PlanSpace::Variant& a,
                      const PlanSpace::Variant& b) {
  if (!SameEquivalence(a.goals, b.goals)) return false;
  for (size_t r = 0; r < a.rules.size(); ++r) {
    if (!SameEquivalence(a.rules[r].body, b.rules[r].body)) return false;
  }
  return true;
}

/// A term as ordering sees it: a constant (always resolvable), `$b` (never
/// resolvable), or an interned variable, with or without an attribute path.
struct Operand {
  static constexpr uint32_t kConstant = UINT32_MAX;
  static constexpr uint32_t kNever = UINT32_MAX - 1;
  uint32_t var = kConstant;
  bool plain = true;  ///< No attribute path.

  bool is_var() const { return var < kNever; }
};

/// Executable orderings of one body. The body is compiled once: variables
/// are interned to dense ids, each atom is reduced to the operands it needs
/// resolvable and the variables it binds, and structurally identical atoms
/// share an equivalence class. The search then tracks bound variables in
/// one bitset, undoing each atom's bindings on backtrack, and works on atom
/// indexes; orderings are told apart by their class sequence.
class OrderingSearch {
 public:
  /// The variables of `initially_bound` (a rule head's arguments) are
  /// bound before the body runs.
  OrderingSearch(const std::vector<lang::Atom>& body,
                 const std::vector<lang::Term>& initially_bound)
      : steps_(body.size()), class_(body.size()), bound_(0) {
    for (size_t i = 0; i < body.size(); ++i) Compile(body[i], &steps_[i]);
    bound_ = VarSet(names_.size());
    for (const lang::Term& term : initially_bound) {
      if (!term.is_variable()) continue;
      const uint32_t id = Find(term.var_name);
      if (id < names_.size()) bound_.Add(id);
    }
    for (size_t i = 0; i < body.size(); ++i) {
      class_[i] = static_cast<uint32_t>(i);
      for (size_t j = 0; j < i; ++j) {
        if (SameAtom(body[j], body[i])) {
          class_[i] = static_cast<uint32_t>(j);
          break;
        }
      }
    }
  }

  /// The original order first when it is executable, then depth-first
  /// orderings (at most `max_orderings` + 1 generated) that differ from
  /// every ordering kept so far; at most `max_orderings` in total.
  std::vector<std::vector<uint32_t>> Orderings(size_t max_orderings) {
    std::vector<std::vector<uint32_t>> out;
    {
      std::vector<uint32_t> original(steps_.size());
      bool valid = true;
      for (size_t i = 0; i < steps_.size() && valid; ++i) {
        original[i] = static_cast<uint32_t>(i);
        valid = Execute(i);
      }
      Undo(0);
      if (valid) out.push_back(std::move(original));
    }

    std::vector<std::vector<uint32_t>> enumerated;
    std::vector<bool> used(steps_.size(), false);
    std::vector<uint32_t> current;
    current.reserve(steps_.size());
    Enumerate(max_orderings + 1, &used, &current, &enumerated);
    for (std::vector<uint32_t>& ordering : enumerated) {
      if (out.size() >= max_orderings) break;
      bool duplicate = false;
      for (const std::vector<uint32_t>& existing : out) {
        if (SameClasses(existing, ordering)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) out.push_back(std::move(ordering));
    }
    return out;
  }

 private:
  struct Step {
    lang::Atom::Kind kind = lang::Atom::Kind::kPredicate;
    /// Domain call: its arguments. Comparison: lhs, rhs. Predicate: the
    /// variable arguments, all of which it binds.
    std::vector<Operand> operands;
    Operand output;  ///< Domain call's output term.
    bool is_eq = false;
  };

  Operand Intern(const lang::Term& term) {
    Operand op;
    if (term.is_constant()) return op;
    if (term.is_bound_pattern()) {
      op.var = Operand::kNever;
      return op;
    }
    op.var = Find(term.var_name);
    if (op.var == names_.size()) names_.push_back(&term.var_name);
    op.plain = term.path.empty();
    return op;
  }

  /// Id of variable `name`; names_.size() when it is not interned.
  uint32_t Find(const std::string& name) const {
    uint32_t id = 0;
    while (id < names_.size() && *names_[id] != name) ++id;
    return id;
  }

  void Compile(const lang::Atom& atom, Step* step) {
    step->kind = atom.kind;
    switch (atom.kind) {
      case lang::Atom::Kind::kDomainCall:
        for (const lang::Term& arg : atom.call.args) {
          step->operands.push_back(Intern(arg));
        }
        if (atom.output.is_variable()) step->output = Intern(atom.output);
        break;
      case lang::Atom::Kind::kComparison:
        step->operands = {Intern(atom.lhs), Intern(atom.rhs)};
        step->is_eq = atom.op == lang::RelOp::kEq;
        break;
      case lang::Atom::Kind::kPredicate:
        for (const lang::Term& arg : atom.args) {
          if (arg.is_variable()) step->operands.push_back(Intern(arg));
        }
        break;
    }
  }

  bool Resolvable(const Operand& op) const {
    if (op.var == Operand::kConstant) return true;
    return op.var != Operand::kNever && bound_.Has(op.var);
  }

  void Bind(uint32_t var) {
    if (bound_.Add(var)) undo_.push_back(var);
  }

  /// Rolls the bound set back to the first `mark` bindings.
  void Undo(size_t mark) {
    while (undo_.size() > mark) {
      bound_.Remove(undo_.back());
      undo_.pop_back();
    }
  }

  /// Can atom `i` execute with the variables bound so far? On success the
  /// variables it binds are added (and logged for Undo).
  bool Execute(size_t i) {
    const Step& step = steps_[i];
    switch (step.kind) {
      case lang::Atom::Kind::kDomainCall: {
        for (const Operand& arg : step.operands) {
          if (!Resolvable(arg)) return false;
        }
        if (step.output.is_var()) {
          if (!step.output.plain && !bound_.Has(step.output.var)) {
            return false;  // cannot bind through an attribute path
          }
          Bind(step.output.var);
        }
        return true;
      }
      case lang::Atom::Kind::kComparison: {
        const Operand& lhs = step.operands[0];
        const Operand& rhs = step.operands[1];
        const bool lhs_ok = Resolvable(lhs);
        const bool rhs_ok = Resolvable(rhs);
        if (lhs_ok && rhs_ok) return true;
        // '=' with exactly one resolvable side binds the other, provided
        // the free side is a plain variable.
        if (step.is_eq) {
          if (lhs_ok && rhs.is_var() && rhs.plain) {
            Bind(rhs.var);
            return true;
          }
          if (rhs_ok && lhs.is_var() && lhs.plain) {
            Bind(lhs.var);
            return true;
          }
        }
        return false;
      }
      case lang::Atom::Kind::kPredicate:
        // IDB predicates can generate bindings; feasibility of the chosen
        // adornment is checked later by the cost estimator / executor.
        for (const Operand& arg : step.operands) Bind(arg.var);
        return true;
    }
    return false;
  }

  void Enumerate(size_t max_orderings, std::vector<bool>* used,
                 std::vector<uint32_t>* current,
                 std::vector<std::vector<uint32_t>>* out) {
    if (out->size() >= max_orderings) return;
    if (current->size() == steps_.size()) {
      out->push_back(*current);
      return;
    }
    for (size_t i = 0; i < steps_.size(); ++i) {
      if ((*used)[i]) continue;
      const size_t mark = undo_.size();
      if (!Execute(i)) continue;
      (*used)[i] = true;
      current->push_back(static_cast<uint32_t>(i));
      Enumerate(max_orderings, used, current, out);
      current->pop_back();
      (*used)[i] = false;
      Undo(mark);
      if (out->size() >= max_orderings) return;
    }
  }

  bool SameClasses(const std::vector<uint32_t>& a,
                   const std::vector<uint32_t>& b) const {
    for (size_t k = 0; k < a.size(); ++k) {
      if (class_[a[k]] != class_[b[k]]) return false;
    }
    return true;
  }

  std::vector<Step> steps_;
  std::vector<uint32_t> class_;  ///< Lowest index of an identical atom.
  std::vector<const std::string*> names_;  ///< Variable names by id.
  VarSet bound_;
  std::vector<uint32_t> undo_;  ///< Bindings made, in order, for Undo.
};

/// The atoms of `atoms` in `order`.
std::vector<lang::Atom> Permuted(const std::vector<lang::Atom>& atoms,
                                 const std::vector<uint32_t>& order) {
  std::vector<lang::Atom> out;
  out.reserve(order.size());
  for (uint32_t i : order) out.push_back(atoms[i]);
  return out;
}

/// Maps a comparison operator to the select-family function that
/// implements it source-side, with the comparison's constant on the right:
/// `V.attr op c`.
const char* SelectFunctionFor(lang::RelOp op) {
  switch (op) {
    case lang::RelOp::kEq: return "equal";
    case lang::RelOp::kNeq: return "select_neq";
    case lang::RelOp::kLt: return "select_lt";
    case lang::RelOp::kLe: return "select_le";
    case lang::RelOp::kGt: return "select_gt";
    case lang::RelOp::kGe: return "select_ge";
  }
  return "equal";
}

/// Push-down's lookup when none is given: assume the relational select
/// family exists; other domains should be described via
/// Options::domain_has_function.
const RuleRewriter::HasFunction& DefaultHasFunction() {
  static const RuleRewriter::HasFunction kDefault =
      [](const std::string&, const std::string& function, size_t) {
        return function == "equal" || function == "select_eq" ||
               function == "select_neq" || function == "select_lt" ||
               function == "select_le" || function == "select_gt" ||
               function == "select_ge";
      };
  return kDefault;
}

/// One applicable selection push-down: comparison `variable op constant`
/// (`variable` is `V.attr`) at index `comparison`, over the output of the
/// full-scan call at index `call`, which its domain evaluates as `function`.
struct Pushable {
  size_t comparison = 0;
  size_t call = 0;
  const lang::Term* variable = nullptr;
  const lang::Term* constant = nullptr;
  std::string function;
};

/// The first push-down applicable to `body`, scanning comparisons and then
/// calls in body order.
std::optional<Pushable> FindPushable(
    const std::vector<lang::Atom>& body,
    const RuleRewriter::HasFunction& has_function) {
  for (size_t ci = 0; ci < body.size(); ++ci) {
    const lang::Atom& cmp = body[ci];
    if (!cmp.is_comparison()) continue;

    // Normalize to: Var.attr op Constant.
    const lang::Term* var_side = nullptr;
    const lang::Term* const_side = nullptr;
    lang::RelOp op = cmp.op;
    if (cmp.lhs.is_variable() && cmp.lhs.path.size() == 1 &&
        cmp.rhs.is_constant()) {
      var_side = &cmp.lhs;
      const_side = &cmp.rhs;
    } else if (cmp.rhs.is_variable() && cmp.rhs.path.size() == 1 &&
               cmp.lhs.is_constant()) {
      var_side = &cmp.rhs;
      const_side = &cmp.lhs;
      op = lang::FlipRelOp(op);
    } else {
      continue;
    }

    // Find the full-scan call producing this variable.
    for (size_t di = 0; di < body.size(); ++di) {
      const lang::Atom& call_atom = body[di];
      if (!call_atom.is_domain_call() || !call_atom.output.is_variable() ||
          call_atom.output.var_name != var_side->var_name ||
          !call_atom.output.path.empty()) {
        continue;
      }
      if (call_atom.call.function != "all" ||
          call_atom.call.args.size() != 1) {
        continue;
      }
      std::string target = SelectFunctionFor(op);
      if (!has_function(call_atom.call.domain, target, 3)) continue;
      return Pushable{ci, di, var_side, const_side, std::move(target)};
    }
  }
  return std::nullopt;
}

/// Indexes of the rules of `program` reachable from `query`'s goals, in
/// program order.
std::vector<size_t> ReachableRuleIndexes(const lang::Program& program,
                                         const lang::Query& query) {
  std::vector<bool> reached(program.rules.size(), false);
  std::vector<const lang::Atom*> frontier;
  for (const lang::Atom& goal : query.goals) frontier.push_back(&goal);
  while (!frontier.empty()) {
    const lang::Atom* atom = frontier.back();
    frontier.pop_back();
    if (!atom->is_predicate()) continue;
    for (size_t r = 0; r < program.rules.size(); ++r) {
      const lang::Rule& rule = program.rules[r];
      if (reached[r] || rule.head.predicate != atom->predicate ||
          rule.head.args.size() != atom->args.size()) {
        continue;
      }
      reached[r] = true;
      for (const lang::Atom& sub : rule.body) frontier.push_back(&sub);
    }
  }
  std::vector<size_t> out;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    if (reached[r]) out.push_back(r);
  }
  return out;
}

/// Does `atoms` hold a domain call that CIM redirection would reroute?
bool Redirectable(const std::vector<lang::Atom>& atoms,
                  const std::vector<std::string>& cim_domains) {
  for (const lang::Atom& atom : atoms) {
    if (!atom.is_domain_call()) continue;
    for (const std::string& d : cim_domains) {
      if (atom.call.domain == d) return true;
    }
  }
  return false;
}

/// Domain calls routed to a CIM wrapper in `atoms`.
size_t CountCimCalls(const std::vector<lang::Atom>& atoms) {
  size_t count = 0;
  for (const lang::Atom& atom : atoms) {
    if (atom.is_domain_call() && atom.call.domain.rfind("cim_", 0) == 0) {
      ++count;
    }
  }
  return count;
}

}  // namespace

size_t RuleRewriter::RedirectToCim(std::vector<lang::Atom>* atoms,
                                   const std::vector<std::string>& cim_domains) {
  size_t redirected = 0;
  for (lang::Atom& atom : *atoms) {
    if (!atom.is_domain_call()) continue;
    for (const std::string& d : cim_domains) {
      if (atom.call.domain == d) {
        atom.call.domain = "cim_" + d;
        ++redirected;
        break;
      }
    }
  }
  return redirected;
}

size_t RuleRewriter::PushSelections(std::vector<lang::Atom>* body,
                                    const HasFunction& domain_has_function) {
  const HasFunction& has_function = domain_has_function
                                        ? domain_has_function
                                        : DefaultHasFunction();
  size_t pushed = 0;
  while (std::optional<Pushable> push = FindPushable(*body, has_function)) {
    // Other comparisons may still reference the variable's remaining
    // attributes — that is fine because select answers keep the full row
    // structure.
    lang::DomainCallSpec& call = (*body)[push->call].call;
    call.function = push->function;
    call.args.push_back(lang::Term::Const(Value::Str(push->variable->path[0])));
    call.args.push_back(*push->constant);
    body->erase(body->begin() + static_cast<std::ptrdiff_t>(push->comparison));
    ++pushed;
  }
  return pushed;
}

lang::Program RuleRewriter::ReachableRules(const lang::Program& program,
                                          const lang::Query& query) {
  lang::Program out;
  for (size_t r : ReachableRuleIndexes(program, query)) {
    out.rules.push_back(program.rules[r]);
  }
  return out;
}

std::vector<std::vector<lang::Atom>> RuleRewriter::ValidOrderings(
    const std::vector<lang::Atom>& body,
    const std::vector<std::string>& initially_bound, size_t max_orderings) {
  std::vector<lang::Term> bound;
  for (const std::string& name : initially_bound) {
    bound.push_back(lang::Term::Var(name));
  }
  const std::vector<std::vector<uint32_t>> orders =
      OrderingSearch(body, bound).Orderings(max_orderings);
  std::vector<std::vector<lang::Atom>> out;
  out.reserve(orders.size());
  for (const std::vector<uint32_t>& order : orders) {
    out.push_back(Permuted(body, order));
  }
  return out;
}

PlanSpace::Orderings RuleRewriter::SearchOrderings(
    const PlanSpace::Variant& variant, const Options& options) {
  PlanSpace::Orderings out;
  if (!options.reorder_subgoals) {
    out.goals.emplace_back(variant.goals.size());
    for (size_t i = 0; i < variant.goals.size(); ++i) {
      out.goals[0][i] = static_cast<uint32_t>(i);
    }
    return out;
  }
  out.goals = OrderingSearch(variant.goals, {})
                  .Orderings(options.max_orderings_per_body);
  if (out.goals.empty()) return out;
  for (size_t r = 0; r < variant.rules.size(); ++r) {
    const lang::Rule& rule = variant.rules[r];
    if (rule.body.size() <= 1) continue;
    std::vector<PlanSpace::Ordering> orderings =
        OrderingSearch(rule.body, rule.head.args)
            .Orderings(options.max_orderings_per_body);
    if (orderings.size() > 1) {
      out.reorderable_rules.push_back(r);
      out.rules.push_back(std::move(orderings));
    }
  }
  return out;
}

std::string PlanSpace::Description(size_t i) const {
  return variants_[candidates_[i].variant].description + " #" +
         std::to_string(i);
}

const PlanSpace::Ordering& PlanSpace::GoalOrdering(size_t i) const {
  const Candidate& c = candidates_[i];
  return OrderingsOf(c).goals[c.goal_ordering];
}

void PlanSpace::RuleOrderings(size_t i,
                              std::vector<const Ordering*>* rule_orders) const {
  const Candidate& c = candidates_[i];
  const Orderings& o = OrderingsOf(c);
  rule_orders->assign(variants_[c.variant].rules.size(), nullptr);
  for (size_t k = 0; k < o.reorderable_rules.size(); ++k) {
    (*rule_orders)[o.reorderable_rules[k]] =
        &o.rules[k][rule_choices_[c.rule_choice + k]];
  }
}

CandidatePlan PlanSpace::Materialize(size_t i) const {
  const Candidate& c = candidates_[i];
  const Variant& v = variants_[c.variant];
  const Orderings& o = OrderingsOf(c);
  CandidatePlan plan;
  plan.query.goals = Permuted(v.goals, o.goals[c.goal_ordering]);
  plan.program.rules.reserve(v.rules.size());
  for (size_t r = 0, k = 0; r < v.rules.size(); ++r) {
    if (k < o.reorderable_rules.size() && o.reorderable_rules[k] == r) {
      lang::Rule rule;
      rule.head = v.rules[r].head;
      rule.body = Permuted(v.rules[r].body,
                           o.rules[k][rule_choices_[c.rule_choice + k]]);
      plan.program.rules.push_back(std::move(rule));
      ++k;
    } else {
      plan.program.rules.push_back(v.rules[r]);
    }
  }
  plan.description = Description(i);
  return plan;
}

Result<PlanSpace> RuleRewriter::Rewrite(const lang::Program& program,
                                        const lang::Query& query,
                                        const Options& options) {
  // Only rules reachable from the query can execute; variants carry just
  // those.
  const std::vector<size_t> reachable = ReachableRuleIndexes(program, query);

  // Variants along two axes: selection push-down and CIM redirection. A
  // variant's text is fixed by which transformations change something, so
  // variants are deduplicated on that pair, known before any is built.
  const HasFunction& has_function = options.domain_has_function
                                        ? options.domain_has_function
                                        : DefaultHasFunction();
  bool can_push = FindPushable(query.goals, has_function).has_value();
  bool can_redirect = Redirectable(query.goals, options.cim_domains);
  for (size_t r : reachable) {
    const std::vector<lang::Atom>& body = program.rules[r].body;
    can_push = can_push || FindPushable(body, has_function).has_value();
    can_redirect = can_redirect || Redirectable(body, options.cim_domains);
  }

  std::vector<std::pair<bool, bool>> axes;
  bool with_cim = !options.cim_domains.empty();
  if (!options.cim_only) axes.push_back({false, false});
  if (options.push_selections && !options.cim_only) axes.push_back({true, false});
  if (with_cim) {
    axes.push_back({false, true});
    if (options.push_selections) axes.push_back({true, true});
  }

  PlanSpace space;
  std::vector<std::pair<bool, bool>> effects;
  for (auto [pushdown, cim] : axes) {
    const std::pair<bool, bool> effect{pushdown && can_push,
                                       cim && can_redirect};
    if (std::find(effects.begin(), effects.end(), effect) != effects.end()) {
      continue;
    }
    effects.push_back(effect);
    PlanSpace::Variant v;
    v.goals = query.goals;
    v.rules.reserve(reachable.size());
    for (size_t r : reachable) v.rules.push_back(program.rules[r]);
    if (effect.first) {
      PushSelections(&v.goals, has_function);
      for (lang::Rule& rule : v.rules) {
        PushSelections(&rule.body, has_function);
      }
    }
    if (effect.second) {
      RedirectToCim(&v.goals, options.cim_domains);
      for (lang::Rule& rule : v.rules) {
        RedirectToCim(&rule.body, options.cim_domains);
      }
    }
    v.description = effect.first ? "pushdown" : "direct";
    if (effect.second) v.description += "+cim";
    v.cim_calls = CountCimCalls(v.goals);
    for (const lang::Rule& rule : v.rules) v.cim_calls += CountCimCalls(rule.body);
    space.variants_.push_back(std::move(v));
  }

  // Expand each variant into ordered candidates: orderings of the query
  // goals × orderings of every rule body, the rule orderings advancing as
  // one cartesian cursor, with a global cap.
  for (size_t vi = 0; vi < space.variants_.size(); ++vi) {
    const PlanSpace::Variant& variant = space.variants_[vi];
    // CIM redirection renames domains, which changes no binding: unless it
    // made two atoms identical, a CIM variant orders as its uncached twin.
    uint32_t shared = UINT32_MAX;
    for (size_t vj = 0; vj < vi && effects[vi].second; ++vj) {
      if (effects[vj] == std::make_pair(effects[vi].first, false) &&
          SameEquivalences(space.variants_[vj], variant)) {
        shared = space.variant_orderings_[vj];
      }
    }
    if (shared == UINT32_MAX) {
      shared = static_cast<uint32_t>(space.orderings_.size());
      space.orderings_.push_back(SearchOrderings(variant, options));
    }
    space.variant_orderings_.push_back(shared);
    const PlanSpace::Orderings& orderings = space.orderings_[shared];
    if (orderings.goals.empty()) continue;  // no executable order

    std::vector<uint32_t> cursor(orderings.reorderable_rules.size(), 0);
    bool exhausted = false;
    while (!exhausted && space.candidates_.size() < options.max_plans) {
      for (size_t q = 0; q < orderings.goals.size(); ++q) {
        if (space.candidates_.size() >= options.max_plans) break;
        PlanSpace::Candidate candidate;
        candidate.variant = static_cast<uint32_t>(vi);
        candidate.goal_ordering = static_cast<uint32_t>(q);
        candidate.rule_choice =
            static_cast<uint32_t>(space.rule_choices_.size());
        space.rule_choices_.insert(space.rule_choices_.end(), cursor.begin(),
                                   cursor.end());
        space.candidates_.push_back(candidate);
      }
      exhausted = true;
      for (size_t k = 0; k < cursor.size(); ++k) {
        if (++cursor[k] < orderings.rules[k].size()) {
          exhausted = false;
          break;
        }
        cursor[k] = 0;
      }
      if (cursor.empty()) exhausted = true;
    }
  }

  if (space.candidates_.empty()) {
    return Status::InvalidArgument(
        "no executable ordering exists for the query (a domain call's "
        "arguments can never all be bound)");
  }
  return space;
}

}  // namespace hermes::optimizer
