#include "optimizer/rewriter.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <utility>

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

/// SameEquivalence for every body of variants `a` and `b` of `space`.
bool SameEquivalences(const PlanSpace& space, size_t a, size_t b) {
  if (&space.Goals(a) != &space.Goals(b) &&
      !SameEquivalence(space.Goals(a), space.Goals(b))) {
    return false;
  }
  const std::span<const lang::Rule* const> rules_a = space.Rules(a);
  const std::span<const lang::Rule* const> rules_b = space.Rules(b);
  for (size_t r = 0; r < rules_a.size(); ++r) {
    if (rules_a[r] != rules_b[r] &&
        !SameEquivalence(rules_a[r]->body, rules_b[r]->body)) {
      return false;
    }
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
      : steps_(body.size()), class_(body.size()), bound_(0),
        path_(2 * body.size()) {
    for (size_t i = 0; i < body.size(); ++i) Compile(body[i], &steps_[i]);
    bound_ = VarSet(names_.size());
    undo_.reserve(names_.size());
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
          has_duplicates_ = true;
          break;
        }
      }
    }
  }

  /// Appends to `out`, `body.size()` entries each, the original order
  /// first when it is executable, then depth-first orderings (at most
  /// `max_orderings` + 1 generated) that differ from every ordering kept
  /// so far; at most `max_orderings` in total. Returns how many.
  size_t Orderings(size_t max_orderings, std::vector<uint32_t>* out) {
    const size_t n = steps_.size();
    // With every atom distinct, the depth-first orderings are distinct
    // permutations, and the original order, when executable, is the first
    // of them (the search tries atoms in body order): the kept orderings
    // are the search's first `max_orderings`.
    if (!has_duplicates_ && max_orderings > 0) {
      out->reserve(out->size() + max_orderings * n);
      size_t count = 0;
      Enumerate(max_orderings, &count, out);
      return count;
    }
    const size_t first = out->size();
    size_t kept = 0;
    bool valid = true;
    for (size_t i = 0; i < n && valid; ++i) valid = Execute(i);
    Undo(0);
    if (valid) {
      for (size_t i = 0; i < n; ++i) out->push_back(static_cast<uint32_t>(i));
      ++kept;
    }
    std::vector<uint32_t> enumerated;
    size_t generated = 0;
    Enumerate(max_orderings + 1, &generated, &enumerated);
    for (size_t g = 0; g < generated && kept < max_orderings; ++g) {
      const uint32_t* ordering = enumerated.data() + g * n;
      bool duplicate = false;
      for (size_t k = 0; k < kept && !duplicate; ++k) {
        duplicate = SameClasses(out->data() + first + k * n, ordering);
      }
      if (!duplicate) {
        out->insert(out->end(), ordering, ordering + n);
        ++kept;
      }
    }
    return kept;
  }

 private:
  struct Step {
    lang::Atom::Kind kind = lang::Atom::Kind::kPredicate;
    /// Domain call: its arguments. Comparison: lhs, rhs. Predicate: the
    /// variable arguments, all of which it binds. `num_operands` entries
    /// of operands_ from `first_operand`.
    uint32_t first_operand = 0;
    uint32_t num_operands = 0;
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
    step->first_operand = static_cast<uint32_t>(operands_.size());
    switch (atom.kind) {
      case lang::Atom::Kind::kDomainCall:
        for (const lang::Term& arg : atom.call.args) {
          operands_.push_back(Intern(arg));
        }
        if (atom.output.is_variable()) step->output = Intern(atom.output);
        break;
      case lang::Atom::Kind::kComparison:
        operands_.push_back(Intern(atom.lhs));
        operands_.push_back(Intern(atom.rhs));
        step->is_eq = atom.op == lang::RelOp::kEq;
        break;
      case lang::Atom::Kind::kPredicate:
        for (const lang::Term& arg : atom.args) {
          if (arg.is_variable()) operands_.push_back(Intern(arg));
        }
        break;
    }
    step->num_operands =
        static_cast<uint32_t>(operands_.size()) - step->first_operand;
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
    const Operand* operands = operands_.data() + step.first_operand;
    switch (step.kind) {
      case lang::Atom::Kind::kDomainCall: {
        for (uint32_t k = 0; k < step.num_operands; ++k) {
          if (!Resolvable(operands[k])) return false;
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
        const Operand& lhs = operands[0];
        const Operand& rhs = operands[1];
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
        for (uint32_t k = 0; k < step.num_operands; ++k) Bind(operands[k].var);
        return true;
    }
    return false;
  }

  /// Appends depth-first orderings to `out` until `*count` reaches
  /// `max_orderings`. path_ holds the ordering so far, then a used flag
  /// per atom.
  void Enumerate(size_t max_orderings, size_t* count,
                 std::vector<uint32_t>* out) {
    const size_t n = steps_.size();
    if (*count >= max_orderings) return;
    if (depth_ == n) {
      out->insert(out->end(), path_.begin(), path_.begin() + n);
      ++*count;
      return;
    }
    uint32_t* used = path_.data() + n;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const size_t mark = undo_.size();
      if (!Execute(i)) continue;
      used[i] = 1;
      path_[depth_++] = static_cast<uint32_t>(i);
      Enumerate(max_orderings, count, out);
      --depth_;
      used[i] = 0;
      Undo(mark);
      if (*count >= max_orderings) return;
    }
  }

  bool SameClasses(const uint32_t* a, const uint32_t* b) const {
    for (size_t k = 0; k < steps_.size(); ++k) {
      if (class_[a[k]] != class_[b[k]]) return false;
    }
    return true;
  }

  std::vector<Step> steps_;
  std::vector<Operand> operands_;
  std::vector<uint32_t> class_;  ///< Lowest index of an identical atom.
  bool has_duplicates_ = false;  ///< Some atom's class is not its own.
  std::vector<const std::string*> names_;  ///< Variable names by id.
  VarSet bound_;
  std::vector<uint32_t> undo_;  ///< Bindings made, in order, for Undo.
  std::vector<uint32_t> path_;
  size_t depth_ = 0;
};

/// The atoms of `atoms` in `order`.
std::vector<lang::Atom> Permuted(const std::vector<lang::Atom>& atoms,
                                 PlanSpace::Ordering order) {
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
  std::vector<uint32_t> orders;
  const size_t count =
      OrderingSearch(body, bound).Orderings(max_orderings, &orders);
  std::vector<std::vector<lang::Atom>> out;
  out.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const PlanSpace::Ordering order(orders.data() + k * body.size(),
                                    body.size());
    out.push_back(Permuted(body, order));
  }
  return out;
}

PlanSpace::Orderings RuleRewriter::SearchOrderings(PlanSpace* space, size_t v,
                                                   const Options& options) {
  std::vector<uint32_t>& buffer = space->order_buffer_;
  // Orderings of `body`, appended to the buffer.
  auto search = [&](const std::vector<lang::Atom>& body,
                    const std::vector<lang::Term>& initially_bound) {
    PlanSpace::BodyOrderings out;
    out.offset = static_cast<uint32_t>(buffer.size());
    out.stride = static_cast<uint32_t>(body.size());
    out.count = static_cast<uint32_t>(
        OrderingSearch(body, initially_bound)
            .Orderings(options.max_orderings_per_body, &buffer));
    return out;
  };
  PlanSpace::Orderings out;
  const std::vector<lang::Atom>& goals = space->Goals(v);
  if (!options.reorder_subgoals) {
    out.goals.offset = static_cast<uint32_t>(buffer.size());
    out.goals.count = 1;
    out.goals.stride = static_cast<uint32_t>(goals.size());
    for (size_t i = 0; i < goals.size(); ++i) {
      buffer.push_back(static_cast<uint32_t>(i));
    }
    return out;
  }
  out.goals = search(goals, {});
  if (out.goals.count == 0) return out;
  const std::span<const lang::Rule* const> rules = space->Rules(v);
  for (size_t r = 0; r < rules.size(); ++r) {
    const lang::Rule& rule = *rules[r];
    if (rule.body.size() <= 1) continue;
    const size_t mark = buffer.size();
    const PlanSpace::BodyOrderings body = search(rule.body, rule.head.args);
    if (body.count > 1) {
      out.rules.push_back({static_cast<uint32_t>(r), body});
    } else {
      buffer.resize(mark);  // the body as written
    }
  }
  return out;
}

std::string PlanSpace::Description(size_t i) const {
  return variants_[candidates_[i].variant].description + " #" +
         std::to_string(i);
}

PlanSpace::Ordering PlanSpace::GoalOrdering(size_t i) const {
  const Candidate& c = candidates_[i];
  return OrderingAt(OrderingsOf(c).goals, c.goal_ordering);
}

void PlanSpace::RuleOrderings(size_t i,
                              std::vector<Ordering>* rule_orders) const {
  const Candidate& c = candidates_[i];
  const Orderings& o = OrderingsOf(c);
  rule_orders->assign(variants_[c.variant].rules.size(), Ordering());
  for (size_t k = 0; k < o.rules.size(); ++k) {
    (*rule_orders)[o.rules[k].rule] =
        OrderingAt(o.rules[k].orderings, rule_choices_[c.rule_choice + k]);
  }
}

CandidatePlan PlanSpace::Materialize(size_t i) const {
  const Candidate& c = candidates_[i];
  const Variant& v = variants_[c.variant];
  const Orderings& o = OrderingsOf(c);
  CandidatePlan plan;
  plan.query.goals = Permuted(Goals(c.variant), GoalOrdering(i));
  plan.program.rules.reserve(v.rules.size());
  for (size_t r = 0, k = 0; r < v.rules.size(); ++r) {
    if (k < o.rules.size() && o.rules[k].rule == r) {
      lang::Rule rule;
      rule.head = v.rules[r]->head;
      rule.body = Permuted(
          v.rules[r]->body,
          OrderingAt(o.rules[k].orderings, rule_choices_[c.rule_choice + k]));
      plan.program.rules.push_back(std::move(rule));
      ++k;
    } else {
      plan.program.rules.push_back(*v.rules[r]);
    }
  }
  plan.description = Description(i);
  return plan;
}

Result<PlanSpace> RuleRewriter::Rewrite(const lang::Program& program,
                                        const lang::Query& query,
                                        const Options& options) {
  PlanSpace space;
  // Only rules reachable from the query can execute; the space holds just
  // those, and the query goals, once.
  const std::vector<size_t> reachable = ReachableRuleIndexes(program, query);
  space.goals_ = query.goals;
  space.rules_.reserve(reachable.size());
  for (size_t r : reachable) space.rules_.push_back(program.rules[r]);

  // Which bodies each transformation changes: body 0 is the goals, body
  // 1 + r the reachable rule r. Push-down rewrites calls and redirection
  // renames domains, so neither changes whether the other applies.
  constexpr uint8_t kPushes = 1;
  constexpr uint8_t kRedirects = 2;
  const HasFunction& has_function = options.domain_has_function
                                        ? options.domain_has_function
                                        : DefaultHasFunction();
  std::vector<uint8_t> changes(1 + space.rules_.size(), 0);
  uint8_t any_change = 0;
  for (size_t b = 0; b < changes.size(); ++b) {
    const std::vector<lang::Atom>& body =
        b == 0 ? space.goals_ : space.rules_[b - 1].body;
    if (FindPushable(body, has_function)) changes[b] |= kPushes;
    if (Redirectable(body, options.cim_domains)) changes[b] |= kRedirects;
    any_change |= changes[b];
  }

  // Variants along two axes: selection push-down and CIM redirection. A
  // variant's text is fixed by which transformations change something, so
  // variants are deduplicated on that pair, known before any is built.
  std::array<std::pair<bool, bool>, 4> axes;
  size_t num_axes = 0;
  const bool with_cim = !options.cim_domains.empty();
  if (!options.cim_only) axes[num_axes++] = {false, false};
  if (options.push_selections && !options.cim_only) {
    axes[num_axes++] = {true, false};
  }
  if (with_cim) {
    axes[num_axes++] = {false, true};
    if (options.push_selections) axes[num_axes++] = {true, true};
  }
  std::array<std::pair<bool, bool>, 4> effects;
  size_t num_effects = 0;
  for (size_t a = 0; a < num_axes; ++a) {
    const std::pair<bool, bool> effect{axes[a].first && (any_change & kPushes),
                                       axes[a].second &&
                                           (any_change & kRedirects)};
    if (std::find(effects.begin(), effects.begin() + num_effects, effect) ==
        effects.begin() + num_effects) {
      effects[num_effects++] = effect;
    }
  }

  space.variants_.reserve(num_effects);
  for (size_t e = 0; e < num_effects; ++e) {
    const bool pushdown = effects[e].first;
    const bool cim = effects[e].second;
    const uint8_t applies = (pushdown ? kPushes : 0) | (cim ? kRedirects : 0);
    auto transform = [&](std::vector<lang::Atom>* body) {
      if (pushdown) PushSelections(body, has_function);
      if (cim) RedirectToCim(body, options.cim_domains);
    };
    PlanSpace::Variant v;
    v.own_goals = (changes[0] & applies) != 0;
    if (v.own_goals) {
      v.goals = space.goals_;
      transform(&v.goals);
    }
    size_t num_changed = 0;
    for (size_t r = 0; r < space.rules_.size(); ++r) {
      num_changed += (changes[1 + r] & applies) != 0;
    }
    v.changed_rules.reserve(num_changed);
    v.rules.reserve(space.rules_.size());
    for (size_t r = 0; r < space.rules_.size(); ++r) {
      if ((changes[1 + r] & applies) == 0) {
        v.rules.push_back(&space.rules_[r]);
        continue;
      }
      lang::Rule& rule = v.changed_rules.emplace_back(space.rules_[r]);
      transform(&rule.body);
      v.rules.push_back(&rule);
    }
    v.description = pushdown ? "pushdown" : "direct";
    if (cim) v.description += "+cim";
    v.cim_calls = CountCimCalls(v.own_goals ? v.goals : space.goals_);
    for (const lang::Rule* rule : v.rules) {
      v.cim_calls += CountCimCalls(rule->body);
    }
    space.variants_.push_back(std::move(v));
  }

  // Each variant's orderings. CIM redirection renames domains, which
  // changes no binding: unless it made two atoms identical, a CIM variant
  // orders as its uncached twin.
  space.orderings_.reserve(num_effects);
  for (size_t vi = 0; vi < space.variants_.size(); ++vi) {
    uint32_t shared = UINT32_MAX;
    for (size_t vj = 0; vj < vi && effects[vi].second; ++vj) {
      if (effects[vj] == std::make_pair(effects[vi].first, false) &&
          SameEquivalences(space, vj, vi)) {
        shared = space.variants_[vj].orderings;
      }
    }
    if (shared == UINT32_MAX) {
      shared = static_cast<uint32_t>(space.orderings_.size());
      space.orderings_.push_back(SearchOrderings(&space, vi, options));
    }
    space.variants_[vi].orderings = shared;
  }

  // Expand each variant into ordered candidates: orderings of the query
  // goals × orderings of every rule body, the rule orderings advancing as
  // one cartesian cursor, with a global cap.
  size_t planned = 0;
  size_t planned_choices = 0;
  for (const PlanSpace::Variant& variant : space.variants_) {
    const PlanSpace::Orderings& orderings = space.orderings_[variant.orderings];
    size_t count = orderings.goals.count;
    for (const PlanSpace::Orderings::Rule& rule : orderings.rules) {
      count = std::min(count * rule.orderings.count, options.max_plans);
    }
    count = std::min(count, options.max_plans - planned);
    planned += count;
    planned_choices += count * orderings.rules.size();
  }
  space.candidates_.reserve(planned);
  space.rule_choices_.reserve(planned_choices);
  std::vector<uint32_t> cursor;
  for (size_t vi = 0; vi < space.variants_.size(); ++vi) {
    const PlanSpace::Orderings& orderings =
        space.orderings_[space.variants_[vi].orderings];
    if (orderings.goals.count == 0) continue;  // no executable order

    cursor.assign(orderings.rules.size(), 0);
    bool exhausted = false;
    while (!exhausted && space.candidates_.size() < options.max_plans) {
      for (uint32_t q = 0; q < orderings.goals.count; ++q) {
        if (space.candidates_.size() >= options.max_plans) break;
        space.candidates_.push_back(PlanSpace::Candidate{
            static_cast<uint32_t>(vi), q,
            static_cast<uint32_t>(space.rule_choices_.size())});
        space.rule_choices_.insert(space.rule_choices_.end(), cursor.begin(),
                                   cursor.end());
      }
      exhausted = true;
      for (size_t k = 0; k < cursor.size(); ++k) {
        if (++cursor[k] < orderings.rules[k].orderings.count) {
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
