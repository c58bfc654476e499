#include "optimizer/rewriter.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

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
/// resolvable and the variables it binds, and atoms with identical text
/// share an equivalence class. The search then tracks bound variables in
/// one bitset, undoing each atom's bindings on backtrack, and works on atom
/// indexes; orderings are told apart by their class sequence.
class OrderingSearch {
 public:
  OrderingSearch(const std::vector<lang::Atom>& body,
                 const std::vector<std::string>& initially_bound)
      : steps_(body.size()), class_(body.size()), bound_(0) {
    for (size_t i = 0; i < body.size(); ++i) Compile(body[i], &steps_[i]);
    bound_ = VarSet(ids_.size());
    for (const std::string& name : initially_bound) {
      auto it = ids_.find(name);
      if (it != ids_.end()) bound_.Add(it->second);
    }
    std::vector<std::string> text(body.size());
    for (size_t i = 0; i < body.size(); ++i) {
      text[i] = body[i].ToString();
      class_[i] = static_cast<uint32_t>(i);
      for (size_t j = 0; j < i; ++j) {
        if (text[j] == text[i]) {
          class_[i] = static_cast<uint32_t>(j);
          break;
        }
      }
    }
  }

  /// The original order first when it is executable, then depth-first
  /// orderings (at most `max_orderings` + 1 generated) that differ in text
  /// from every ordering kept so far; at most `max_orderings` in total.
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
    op.var = ids_.emplace(term.var_name, static_cast<uint32_t>(ids_.size()))
                 .first->second;
    op.plain = term.path.empty();
    return op;
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
  std::vector<uint32_t> class_;  ///< Lowest index of an atom with equal text.
  std::unordered_map<std::string, uint32_t> ids_;  ///< Variable → id.
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

bool DefaultDomainHasFunction(const std::string& domain,
                              const std::string& function, size_t arity) {
  (void)domain;
  (void)arity;
  // By default assume the relational select family exists; other domains
  // should be described via Options::domain_has_function.
  return function == "equal" || function == "select_eq" ||
         function == "select_neq" || function == "select_lt" ||
         function == "select_le" || function == "select_gt" ||
         function == "select_ge";
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

size_t RuleRewriter::PushSelections(
    std::vector<lang::Atom>* body,
    const std::function<bool(const std::string&, const std::string&, size_t)>&
        domain_has_function) {
  auto has_function =
      domain_has_function ? domain_has_function : DefaultDomainHasFunction;
  size_t pushed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t ci = 0; ci < body->size() && !changed; ++ci) {
      const lang::Atom& cmp = (*body)[ci];
      if (!cmp.is_comparison()) continue;

      // Normalize to: Var.attr op Constant.
      lang::Term var_side, const_side;
      lang::RelOp op = cmp.op;
      if (cmp.lhs.is_variable() && cmp.lhs.path.size() == 1 &&
          cmp.rhs.is_constant()) {
        var_side = cmp.lhs;
        const_side = cmp.rhs;
      } else if (cmp.rhs.is_variable() && cmp.rhs.path.size() == 1 &&
                 cmp.lhs.is_constant()) {
        var_side = cmp.rhs;
        const_side = cmp.lhs;
        op = lang::FlipRelOp(op);
      } else {
        continue;
      }

      // Find the full-scan call producing this variable.
      for (size_t di = 0; di < body->size() && !changed; ++di) {
        lang::Atom& call_atom = (*body)[di];
        if (!call_atom.is_domain_call() || !call_atom.output.is_variable() ||
            call_atom.output.var_name != var_side.var_name ||
            !call_atom.output.path.empty()) {
          continue;
        }
        if (call_atom.call.function != "all" ||
            call_atom.call.args.size() != 1) {
          continue;
        }
        const std::string target = SelectFunctionFor(op);
        if (!has_function(call_atom.call.domain, target, 3)) continue;

        // Other comparisons may still reference the variable's remaining
        // attributes — that is fine because select answers keep the full
        // row structure.
        call_atom.call.function = target;
        call_atom.call.args.push_back(
            lang::Term::Const(Value::Str(var_side.path[0])));
        call_atom.call.args.push_back(const_side);
        body->erase(body->begin() + ci);
        ++pushed;
        changed = true;
      }
    }
  }
  return pushed;
}

lang::Program RuleRewriter::ReachableRules(const lang::Program& program,
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
  lang::Program out;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    if (reached[r]) out.rules.push_back(program.rules[r]);
  }
  return out;
}

std::vector<std::vector<lang::Atom>> RuleRewriter::ValidOrderings(
    const std::vector<lang::Atom>& body,
    const std::vector<std::string>& initially_bound, size_t max_orderings) {
  const std::vector<std::vector<uint32_t>> orders =
      OrderingSearch(body, initially_bound).Orderings(max_orderings);
  std::vector<std::vector<lang::Atom>> out;
  out.reserve(orders.size());
  for (const std::vector<uint32_t>& order : orders) {
    out.push_back(Permuted(body, order));
  }
  return out;
}

Result<std::vector<CandidatePlan>> RuleRewriter::Rewrite(
    const lang::Program& program, const lang::Query& query,
    const Options& options) {
  // Only rules reachable from the query can execute; variants and plans
  // carry just those.
  const lang::Program reachable = ReachableRules(program, query);

  // Variants along two axes: selection push-down and CIM redirection. A
  // variant's text is fixed by which transformations changed something,
  // so variants are deduplicated on that pair.
  struct Variant {
    std::vector<lang::Atom> goals;
    std::vector<lang::Rule> rules;
    std::string description;
  };
  std::vector<Variant> variants;
  std::vector<std::pair<bool, bool>> effects;

  std::vector<std::pair<bool, bool>> axes;
  bool with_cim = !options.cim_domains.empty();
  if (!options.cim_only) axes.push_back({false, false});
  if (options.push_selections && !options.cim_only) axes.push_back({true, false});
  if (with_cim) {
    axes.push_back({false, true});
    if (options.push_selections) axes.push_back({true, true});
  }

  for (auto [pushdown, cim] : axes) {
    Variant v{query.goals, reachable.rules, ""};
    size_t pushed = 0;
    size_t redirected = 0;
    if (pushdown) {
      pushed += PushSelections(&v.goals, options.domain_has_function);
      for (lang::Rule& rule : v.rules) {
        pushed += PushSelections(&rule.body, options.domain_has_function);
      }
    }
    if (cim) {
      redirected += RedirectToCim(&v.goals, options.cim_domains);
      for (lang::Rule& rule : v.rules) {
        redirected += RedirectToCim(&rule.body, options.cim_domains);
      }
    }
    const std::pair<bool, bool> effect{pushed > 0, redirected > 0};
    if (std::find(effects.begin(), effects.end(), effect) != effects.end()) {
      continue;
    }
    effects.push_back(effect);
    v.description = effect.first ? "pushdown" : "direct";
    if (effect.second) v.description += "+cim";
    variants.push_back(std::move(v));
  }

  // Expand each variant into ordered plans: orderings of the query goals ×
  // orderings of every rule body.
  std::vector<CandidatePlan> plans;
  for (const Variant& variant : variants) {
    std::vector<std::vector<uint32_t>> query_orderings;
    if (options.reorder_subgoals) {
      query_orderings = OrderingSearch(variant.goals, {})
                            .Orderings(options.max_orderings_per_body);
    } else {
      query_orderings.emplace_back(variant.goals.size());
      for (size_t i = 0; i < variant.goals.size(); ++i) {
        query_orderings[0][i] = static_cast<uint32_t>(i);
      }
    }
    if (query_orderings.empty()) continue;  // no executable order

    // Rules with more than one ordering; the others keep their body.
    std::vector<size_t> rule_indexes;
    std::vector<std::vector<std::vector<uint32_t>>> rule_orderings;
    for (size_t r = 0; options.reorder_subgoals && r < variant.rules.size();
         ++r) {
      const lang::Rule& rule = variant.rules[r];
      if (rule.body.size() <= 1) continue;
      std::vector<std::vector<uint32_t>> orderings =
          OrderingSearch(rule.body, rule.head.Variables())
              .Orderings(options.max_orderings_per_body);
      if (orderings.size() > 1) {
        rule_indexes.push_back(r);
        rule_orderings.push_back(std::move(orderings));
      }
    }

    // Cartesian product with a global cap.
    std::vector<size_t> cursor(rule_indexes.size(), 0);
    bool exhausted = false;
    while (!exhausted && plans.size() < options.max_plans) {
      for (const std::vector<uint32_t>& qorder : query_orderings) {
        if (plans.size() >= options.max_plans) break;
        CandidatePlan plan;
        plan.query.goals = Permuted(variant.goals, qorder);
        plan.program.rules.reserve(variant.rules.size());
        for (size_t r = 0, k = 0; r < variant.rules.size(); ++r) {
          if (k < rule_indexes.size() && rule_indexes[k] == r) {
            lang::Rule rule;
            rule.head = variant.rules[r].head;
            rule.body =
                Permuted(variant.rules[r].body, rule_orderings[k][cursor[k]]);
            plan.program.rules.push_back(std::move(rule));
            ++k;
          } else {
            plan.program.rules.push_back(variant.rules[r]);
          }
        }
        plan.description = variant.description;
        plans.push_back(std::move(plan));
      }
      // Advance the cartesian cursor.
      exhausted = true;
      for (size_t k = 0; k < cursor.size(); ++k) {
        if (++cursor[k] < rule_orderings[k].size()) {
          exhausted = false;
          break;
        }
        cursor[k] = 0;
      }
      if (cursor.empty()) exhausted = true;
    }
  }

  if (plans.empty()) {
    return Status::InvalidArgument(
        "no executable ordering exists for the query (a domain call's "
        "arguments can never all be bound)");
  }
  // Number the plans for readability.
  for (size_t i = 0; i < plans.size(); ++i) {
    plans[i].description += " #" + std::to_string(i);
  }
  return plans;
}

}  // namespace hermes::optimizer
