#ifndef HERMES_LANG_TOKEN_H_
#define HERMES_LANG_TOKEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace hermes::lang {

/// Lexical token kinds of the mediator language.
enum class TokenKind {
  kEnd,         // end of input
  kIdent,       // lowercase-initial identifier: constant symbol / names
  kVariable,    // uppercase/underscore/$-initial identifier, with opt. path
  kInt,         // integer literal
  kDouble,      // floating literal
  kString,      // 'single-quoted' string
  kLParen,      // (
  kRParen,      // )
  kLBracket,    // [
  kRBracket,    // ]
  kComma,       // ,
  kDot,         // . (clause terminator)
  kColon,       // :
  kAmp,         // &
  kIf,          // :-
  kQuery,       // ?-
  kImplies,     // =>
  kEq,          // =
  kNeq,         // != or <>
  kLt,          // <
  kLe,          // <=
  kGt,          // >
  kGe,          // >=
  kDollarB,     // $b  (the "bound, value unknown" pattern symbol)
};

/// Human-readable token-kind name for diagnostics.
const char* TokenKindName(TokenKind kind);

/// One lexical token: its kind and where its spelling lies in the source
/// text, which the token does not own. The spelling of a kVariable
/// includes any attribute path (`Var.attr.2`); that of a kString includes
/// its quotes, escapes undecoded.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  uint32_t offset = 0;  ///< Start of the spelling in the source text.
  uint32_t length = 0;

  std::string_view Text(std::string_view source) const {
    return source.substr(offset, length);
  }
};
static_assert(std::is_trivially_copyable_v<Token>);

/// A 1-based line and column (in bytes) of the source text.
struct SourcePosition {
  int line = 1;
  int column = 1;
};

/// The position of byte `offset` of `source`. Positions are computed only
/// for diagnostics, so this scans the text up to `offset`.
SourcePosition PositionAt(std::string_view source, size_t offset);

/// The name of a kVariable token: its spelling up to the first path step.
std::string_view VariableName(const Token& token, std::string_view source);

/// The value of a kString token: its spelling without the quotes, with
/// `\n`, `\t` and `\<char>` escapes decoded.
std::string StringValue(const Token& token, std::string_view source);

/// Token kind plus spelling (an identifier, a variable's name, a number as
/// written, a string's value) for diagnostics.
std::string Describe(const Token& token, std::string_view source);

}  // namespace hermes::lang

#endif  // HERMES_LANG_TOKEN_H_
