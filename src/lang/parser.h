#ifndef HERMES_LANG_PARSER_H_
#define HERMES_LANG_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "lang/ast.h"
#include "lang/token.h"

namespace hermes::lang {

/// Recursive-descent parser for the mediator language.
///
/// Accepted syntax (see DESIGN.md and the paper's Sections 2, 4–6):
///
///   rule       := head [ ":-" body ] "."
///   body       := atom { ("&" | ",") atom }
///   atom       := "in" "(" term "," domaincall ")"
///               | relop "(" term "," term ")"          // prefix form
///               | term relop term                      // infix form
///               | ident [ "(" terms ")" ]              // predicate
///     (an ident followed by a relop opens an infix comparison; a
///     predicate may not be named `in`)
///   domaincall := ident ":" ident "(" [ terms ] ")"
///   term       := number | string | ident | Variable[.path] | "$b"
///               | "[" [ constants ] "]"
///   query      := [ "?-" ] body "."
///   invariant  := [ conditions "=>" ] domaincall rel domaincall "."
///                 where rel ∈ { "=", ">=", "<=" }  (⊇ spelled ">=")
///
/// Lowercase identifiers are symbol constants; uppercase/`$`/`_`-initial
/// identifiers are variables. `%` and `//` start comments.
class Parser {
 public:
  /// Parses a whole program (zero or more rules).
  static Result<Program> ParseProgram(std::string_view text);
  /// Parses exactly one rule.
  static Result<Rule> ParseRule(std::string_view text);
  /// Parses a query; the leading `?-` is optional.
  static Result<Query> ParseQuery(std::string_view text);
  /// Parses exactly one invariant.
  static Result<Invariant> ParseInvariant(std::string_view text);
  /// Parses zero or more invariants.
  static Result<std::vector<Invariant>> ParseInvariants(std::string_view text);
  /// Parses a domain-call pattern such as `d:f(5, $b)`.
  static Result<DomainCallSpec> ParseCallPattern(std::string_view text);

 private:
  Parser(std::string_view source, std::vector<Token> tokens)
      : source_(source), tokens_(std::move(tokens)) {}
  /// Lexes `text` into a parser positioned at its first token.
  static Result<Parser> Open(std::string_view text);

  // The token cursor: a token array ending in kEnd, and a position that
  // never moves past that kEnd.
  const Token& Peek() const;
  /// The token after Peek(); kEnd at the end of input.
  const Token& PeekNext() const;
  const Token& Advance();
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind);
  Status Expect(TokenKind kind, const char* context);
  Status ErrorAt(const Token& token, const std::string& message) const;
  bool AtEnd() const { return Check(TokenKind::kEnd); }
  std::string_view Text(const Token& token) const {
    return token.Text(source_);
  }
  /// Items of the list that starts at the current token, for reserving:
  /// one more than its separators at nesting depth 0 (',' and, in a
  /// `body`, '&') before its closing bracket, '.', ':-', '=>' or the end.
  size_t CountItems(bool body) const;

  // Each Parse*Into builds its construct in place in a default-constructed
  // `out`; on error `out` is left partly built.
  Status ParseRuleInto(Rule* out);
  Status ParseBodyInto(std::vector<Atom>* out);
  Status ParseAtomInto(Atom* out);
  Status ParseInfixInto(Atom* out);
  Status ParseHeadAtomInto(Atom* out);
  Status ParseDomainCallInto(DomainCallSpec* out);
  /// The terms of a parenthesized list, up to (not including) its ')'.
  Status ParseTermsInto(std::vector<Term>* out);
  Status ParseTermInto(Term* out);
  Status ParseInvariantInto(Invariant* out);
  template <typename Number>
  Status ConvertNumber(const Token& token, Number* out) const;
  static bool IsRelOpToken(TokenKind kind);
  static RelOp RelOpFromToken(TokenKind kind);

  std::string_view source_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace hermes::lang

#endif  // HERMES_LANG_PARSER_H_
