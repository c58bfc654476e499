#ifndef HERMES_LANG_LEXER_H_
#define HERMES_LANG_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "lang/token.h"

namespace hermes::lang {

/// Tokenizes mediator-language text.
///
/// Conventions:
///  - `%` and `//` start line comments.
///  - Identifiers beginning with a lowercase letter are constant symbols;
///    identifiers beginning with an uppercase letter, `_`, or `$` are
///    variables. `$b` is the special bound-pattern token.
///  - A variable immediately followed by `.attr` or `.3` (no whitespace)
///    lexes as a single variable token spelling the attribute path, which
///    keeps the clause-terminating dot unambiguous.
///
/// Tokens locate their spelling by offset and are read against the same
/// text. The lexer neither copies the text (which must outlive it) nor
/// converts numbers or decodes strings; the parser does, on use.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// Lexes the entire input. On success the final token is kEnd.
  Result<std::vector<Token>> Tokenize();

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  void SkipWhitespaceAndComments();
  /// Lexes the token starting at pos_ into `kind`; pos_ is left after its
  /// spelling.
  Status LexOne(TokenKind* kind);
  TokenKind LexNumber();
  Status LexString();
  Status LexWord(TokenKind* kind);
  /// ParseError `message` at the current position.
  Status ErrorHere(const std::string& message) const;

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace hermes::lang

#endif  // HERMES_LANG_LEXER_H_
