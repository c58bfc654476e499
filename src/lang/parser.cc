#include "lang/parser.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "common/strings.h"
#include "lang/lexer.h"

namespace hermes::lang {

Result<Parser> Parser::Open(std::string_view text) {
  HERMES_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  assert(!tokens.empty() && tokens.back().kind == TokenKind::kEnd);
  return Parser(text, std::move(tokens));
}

const Token& Parser::Peek() const {
  assert(pos_ < tokens_.size());
  return tokens_[pos_];
}

const Token& Parser::PeekNext() const {
  assert(pos_ < tokens_.size());
  return tokens_[pos_ + 1 < tokens_.size() ? pos_ + 1 : pos_];
}

const Token& Parser::Advance() {
  const Token& t = Peek();
  if (t.kind != TokenKind::kEnd) ++pos_;
  assert(pos_ < tokens_.size());
  return t;
}

bool Parser::Match(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenKind kind, const char* context) {
  if (Match(kind)) return Status::OK();
  return ErrorAt(Peek(), std::string("expected ") + TokenKindName(kind) +
                             " " + context + ", found " +
                             Describe(Peek(), source_));
}

Status Parser::ErrorAt(const Token& token, const std::string& message) const {
  const SourcePosition at = PositionAt(source_, token.offset);
  return Status::ParseError(message + " (line " + std::to_string(at.line) +
                            ", column " + std::to_string(at.column) + ")");
}

size_t Parser::CountItems(bool body) const {
  size_t items = 1;
  size_t depth = 0;
  for (size_t i = pos_; i < tokens_.size(); ++i) {
    switch (tokens_[i].kind) {
      case TokenKind::kLParen:
      case TokenKind::kLBracket:
        ++depth;
        break;
      case TokenKind::kRParen:
      case TokenKind::kRBracket:
        if (depth == 0) return items;
        --depth;
        break;
      case TokenKind::kComma:
        if (depth == 0) ++items;
        break;
      case TokenKind::kAmp:
        if (depth == 0 && body) ++items;
        break;
      case TokenKind::kDot:
      case TokenKind::kIf:
      case TokenKind::kImplies:
      case TokenKind::kEnd:
        return items;
      default:
        break;
    }
  }
  return items;
}

bool Parser::IsRelOpToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq:
    case TokenKind::kNeq:
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
      return true;
    default:
      return false;
  }
}

RelOp Parser::RelOpFromToken(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq: return RelOp::kEq;
    case TokenKind::kNeq: return RelOp::kNeq;
    case TokenKind::kLt: return RelOp::kLt;
    case TokenKind::kLe: return RelOp::kLe;
    case TokenKind::kGt: return RelOp::kGt;
    default: return RelOp::kGe;
  }
}

template <typename Number>
Status Parser::ConvertNumber(const Token& token, Number* out) const {
  const std::string_view text = Text(token);
  if (ParseNumber(text, out)) return Status::OK();
  return ErrorAt(token, std::string(token.kind == TokenKind::kInt
                                        ? "integer"
                                        : "double") +
                            " literal '" + std::string(text) +
                            "' is out of range");
}

Status Parser::ParseTermInto(Term* out) {
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kInt: {
      int64_t value = 0;
      HERMES_RETURN_IF_ERROR(ConvertNumber(t, &value));
      out->constant = Value::Int(value);
      break;
    }
    case TokenKind::kDouble: {
      double value = 0.0;
      HERMES_RETURN_IF_ERROR(ConvertNumber(t, &value));
      out->constant = Value::Double(value);
      break;
    }
    case TokenKind::kString:
      out->constant = Value::Str(StringValue(t, source_));
      break;
    case TokenKind::kIdent: {
      const std::string_view text = Text(t);
      if (text == "true") {
        out->constant = Value::Bool(true);
      } else if (text == "false") {
        out->constant = Value::Bool(false);
      } else if (text == "null") {
        out->constant = Value::Null();
      } else {
        out->constant = Value::Str(std::string(text));
      }
      break;
    }
    case TokenKind::kVariable: {
      out->kind = Term::Kind::kVariable;
      const std::string_view name = VariableName(t, source_);
      out->var_name.assign(name);
      // The path steps follow the name, each after a '.'.
      std::string_view steps = Text(t).substr(name.size());
      if (!steps.empty()) {
        out->path.reserve(static_cast<size_t>(
            std::count(steps.begin(), steps.end(), '.')));
      }
      while (!steps.empty()) {
        steps.remove_prefix(1);  // '.'
        const std::string_view step = steps.substr(0, steps.find('.'));
        out->path.emplace_back(step);
        steps.remove_prefix(step.size());
      }
      break;
    }
    case TokenKind::kDollarB:
      out->kind = Term::Kind::kBoundPattern;
      break;
    case TokenKind::kLBracket: {
      Advance();
      ValueList items;
      if (!Check(TokenKind::kRBracket)) {
        items.reserve(CountItems(/*body=*/false));
        while (true) {
          Term item;
          HERMES_RETURN_IF_ERROR(ParseTermInto(&item));
          if (!item.is_constant()) {
            return ErrorAt(t, "list literals may contain only constants");
          }
          items.push_back(std::move(item.constant));
          if (!Match(TokenKind::kComma)) break;
        }
      }
      HERMES_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "to close list"));
      out->constant = Value::List(std::move(items));
      return Status::OK();
    }
    default:
      return ErrorAt(t, "expected a term, found " + Describe(t, source_));
  }
  Advance();
  return Status::OK();
}

Status Parser::ParseTermsInto(std::vector<Term>* out) {
  if (Check(TokenKind::kRParen)) return Status::OK();
  out->reserve(CountItems(/*body=*/false));
  while (true) {
    HERMES_RETURN_IF_ERROR(ParseTermInto(&out->emplace_back()));
    if (!Match(TokenKind::kComma)) return Status::OK();
  }
}

Status Parser::ParseDomainCallInto(DomainCallSpec* out) {
  const Token& dom = Peek();
  if (dom.kind != TokenKind::kIdent) {
    return ErrorAt(dom,
                   "expected domain name, found " + Describe(dom, source_));
  }
  Advance();
  HERMES_RETURN_IF_ERROR(Expect(TokenKind::kColon, "after domain name"));
  const Token& fn = Peek();
  if (fn.kind != TokenKind::kIdent) {
    return ErrorAt(fn,
                   "expected function name, found " + Describe(fn, source_));
  }
  Advance();
  HERMES_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after function name"));
  out->domain.assign(Text(dom));
  out->function.assign(Text(fn));
  HERMES_RETURN_IF_ERROR(ParseTermsInto(&out->args));
  return Expect(TokenKind::kRParen, "to close domain call");
}

Status Parser::ParseInfixInto(Atom* out) {
  out->kind = Atom::Kind::kComparison;
  HERMES_RETURN_IF_ERROR(ParseTermInto(&out->lhs));
  const Token& op = Peek();
  if (!IsRelOpToken(op.kind)) {
    return ErrorAt(op, "expected comparison operator, found " +
                           Describe(op, source_));
  }
  out->op = RelOpFromToken(op.kind);
  Advance();
  return ParseTermInto(&out->rhs);
}

Status Parser::ParseAtomInto(Atom* out) {
  const Token& t = Peek();
  const Token& next = PeekNext();

  // Prefix comparison: =(X, Y), <=(X, 5), ...
  if (IsRelOpToken(t.kind) && next.kind == TokenKind::kLParen) {
    out->kind = Atom::Kind::kComparison;
    out->op = RelOpFromToken(t.kind);
    Advance();
    Advance();  // '('
    HERMES_RETURN_IF_ERROR(ParseTermInto(&out->lhs));
    HERMES_RETURN_IF_ERROR(Expect(TokenKind::kComma, "in comparison"));
    HERMES_RETURN_IF_ERROR(ParseTermInto(&out->rhs));
    return Expect(TokenKind::kRParen, "to close comparison");
  }
  // Infix comparison: Term relop Term.
  if (t.kind != TokenKind::kIdent) return ParseInfixInto(out);
  // A symbol constant as the left operand of an infix comparison; this is
  // how `'sym' = X` and `true = X` print.
  if (IsRelOpToken(next.kind)) return ParseInfixInto(out);

  // in(Output, domain:function(args)). A bare `in` is not a predicate: it
  // would print as `in()`, which reads back as a domain call.
  if (Text(t) == "in") {
    if (next.kind != TokenKind::kLParen) {
      return ErrorAt(next, "expected '(' after 'in', found " +
                               Describe(next, source_));
    }
    out->kind = Atom::Kind::kDomainCall;
    Advance();
    Advance();  // '('
    HERMES_RETURN_IF_ERROR(ParseTermInto(&out->output));
    HERMES_RETURN_IF_ERROR(
        Expect(TokenKind::kComma, "after in() output term"));
    HERMES_RETURN_IF_ERROR(ParseDomainCallInto(&out->call));
    return Expect(TokenKind::kRParen, "to close in()");
  }

  // Predicate atom: ident(...) or bare ident.
  out->kind = Atom::Kind::kPredicate;
  out->predicate.assign(Text(t));
  Advance();
  if (!Match(TokenKind::kLParen)) return Status::OK();
  HERMES_RETURN_IF_ERROR(ParseTermsInto(&out->args));
  return Expect(TokenKind::kRParen, "to close predicate");
}

Status Parser::ParseHeadAtomInto(Atom* out) {
  const Token& t = Peek();
  if (t.kind != TokenKind::kIdent) {
    return ErrorAt(t, "expected predicate name, found " + Describe(t, source_));
  }
  HERMES_RETURN_IF_ERROR(ParseAtomInto(out));
  if (!out->is_predicate()) {
    return ErrorAt(t, "rule head must be a predicate atom");
  }
  return Status::OK();
}

Status Parser::ParseBodyInto(std::vector<Atom>* out) {
  out->reserve(out->size() + CountItems(/*body=*/true));
  while (true) {
    HERMES_RETURN_IF_ERROR(ParseAtomInto(&out->emplace_back()));
    if (!Match(TokenKind::kAmp) && !Match(TokenKind::kComma)) {
      return Status::OK();
    }
  }
}

Status Parser::ParseRuleInto(Rule* out) {
  HERMES_RETURN_IF_ERROR(ParseHeadAtomInto(&out->head));
  if (Match(TokenKind::kIf)) {
    HERMES_RETURN_IF_ERROR(ParseBodyInto(&out->body));
  }
  return Expect(TokenKind::kDot, "to end rule");
}

Status Parser::ParseInvariantInto(Invariant* out) {
  std::vector<size_t> condition_tokens;  // first token of each condition
  if (!Match(TokenKind::kImplies)) {
    // Parse conditions up to '=>'.
    out->conditions.reserve(CountItems(/*body=*/true));
    while (true) {
      condition_tokens.push_back(pos_);
      Atom& cond = out->conditions.emplace_back();
      HERMES_RETURN_IF_ERROR(ParseAtomInto(&cond));
      if (!cond.is_comparison()) {
        return ErrorAt(tokens_[condition_tokens.back()],
                       "invariant conditions must be comparison atoms, got '" +
                           cond.ToString() + "'");
      }
      if (Match(TokenKind::kAmp) || Match(TokenKind::kComma)) continue;
      break;
    }
    HERMES_RETURN_IF_ERROR(Expect(TokenKind::kImplies, "after conditions"));
  }
  HERMES_RETURN_IF_ERROR(ParseDomainCallInto(&out->lhs));
  const Token& rel = Peek();
  switch (rel.kind) {
    case TokenKind::kEq:
      out->relation = InvariantRelation::kEqual;
      break;
    case TokenKind::kGe:
      out->relation = InvariantRelation::kSuperset;
      break;
    case TokenKind::kLe:
      out->relation = InvariantRelation::kSubset;
      break;
    default:
      return ErrorAt(rel, "expected invariant relation '=', '>=' or '<='");
  }
  Advance();
  HERMES_RETURN_IF_ERROR(ParseDomainCallInto(&out->rhs));
  HERMES_RETURN_IF_ERROR(Expect(TokenKind::kDot, "to end invariant"));

  // Well-formedness: no free variables — every condition variable must
  // appear in one of the two domain calls (Section 4).
  auto call_has_var = [](const DomainCallSpec& call, const std::string& name) {
    for (const Term& arg : call.args) {
      if (arg.is_variable() && arg.var_name == name) return true;
    }
    return false;
  };
  for (size_t c = 0; c < out->conditions.size(); ++c) {
    for (const std::string& var : out->conditions[c].Variables()) {
      if (!call_has_var(out->lhs, var) && !call_has_var(out->rhs, var)) {
        return ErrorAt(tokens_[condition_tokens[c]],
                       "invariant condition variable '" + var +
                           "' does not appear in either domain call");
      }
    }
  }
  return Status::OK();
}

Result<Program> Parser::ParseProgram(std::string_view text) {
  HERMES_ASSIGN_OR_RETURN(Parser parser, Open(text));
  Program program;
  while (!parser.AtEnd()) {
    HERMES_RETURN_IF_ERROR(parser.ParseRuleInto(&program.rules.emplace_back()));
  }
  return program;
}

Result<Rule> Parser::ParseRule(std::string_view text) {
  HERMES_ASSIGN_OR_RETURN(Parser parser, Open(text));
  Rule rule;
  HERMES_RETURN_IF_ERROR(parser.ParseRuleInto(&rule));
  if (!parser.AtEnd()) {
    return parser.ErrorAt(parser.Peek(), "trailing input after rule");
  }
  return rule;
}

Result<Query> Parser::ParseQuery(std::string_view text) {
  HERMES_ASSIGN_OR_RETURN(Parser parser, Open(text));
  parser.Match(TokenKind::kQuery);  // optional '?-'
  Query query;
  HERMES_RETURN_IF_ERROR(parser.ParseBodyInto(&query.goals));
  HERMES_RETURN_IF_ERROR(parser.Expect(TokenKind::kDot, "to end query"));
  if (!parser.AtEnd()) {
    return parser.ErrorAt(parser.Peek(), "trailing input after query");
  }
  return query;
}

Result<Invariant> Parser::ParseInvariant(std::string_view text) {
  HERMES_ASSIGN_OR_RETURN(Parser parser, Open(text));
  Invariant inv;
  HERMES_RETURN_IF_ERROR(parser.ParseInvariantInto(&inv));
  if (!parser.AtEnd()) {
    return parser.ErrorAt(parser.Peek(), "trailing input after invariant");
  }
  return inv;
}

Result<std::vector<Invariant>> Parser::ParseInvariants(std::string_view text) {
  HERMES_ASSIGN_OR_RETURN(Parser parser, Open(text));
  std::vector<Invariant> out;
  while (!parser.AtEnd()) {
    HERMES_RETURN_IF_ERROR(parser.ParseInvariantInto(&out.emplace_back()));
  }
  return out;
}

Result<DomainCallSpec> Parser::ParseCallPattern(std::string_view text) {
  HERMES_ASSIGN_OR_RETURN(Parser parser, Open(text));
  DomainCallSpec spec;
  HERMES_RETURN_IF_ERROR(parser.ParseDomainCallInto(&spec));
  parser.Match(TokenKind::kDot);  // optional terminator
  if (!parser.AtEnd()) {
    return parser.ErrorAt(parser.Peek(), "trailing input after call pattern");
  }
  for (const Term& arg : spec.args) {
    if (arg.is_variable()) {
      return Status::ParseError(
          "call patterns may not contain variables; use '$b' for bound-"
          "unknown arguments (got '" + arg.ToString() + "')");
    }
  }
  return spec;
}

}  // namespace hermes::lang
