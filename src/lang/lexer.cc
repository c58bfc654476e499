#include "lang/lexer.h"

#include <array>
#include <cstdint>

namespace hermes::lang {

namespace {

// Character classes of the C locale, by byte: what <cctype> answers there,
// without a call per byte.
enum CharClass : uint8_t {
  kSpace = 1,
  kDigit = 2,
  kUpper = 4,
  kLower = 8,
};

constexpr std::array<uint8_t, 256> MakeClasses() {
  std::array<uint8_t, 256> classes{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[static_cast<uint8_t>(c)] = kSpace;
  }
  for (int c = '0'; c <= '9'; ++c) classes[c] = kDigit;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kUpper;
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kLower;
  return classes;
}

constexpr std::array<uint8_t, 256> kClasses = MakeClasses();

bool Is(char c, uint8_t classes) {
  return (kClasses[static_cast<uint8_t>(c)] & classes) != 0;
}

bool IsDigit(char c) { return Is(c, kDigit); }

bool IsIdentStart(char c) {
  return Is(c, kUpper | kLower) || c == '_' || c == '$';
}

bool IsIdentChar(char c) { return Is(c, kUpper | kLower | kDigit) || c == '_'; }

bool IsVariableStart(char c) { return Is(c, kUpper) || c == '_' || c == '$'; }

}  // namespace

void Lexer::SkipWhitespaceAndComments() {
  while (!AtEnd()) {
    char c = Peek();
    if (Is(c, kSpace)) {
      ++pos_;
    } else if (c == '%' || (c == '/' && Peek(1) == '/')) {
      while (!AtEnd() && Peek() != '\n') ++pos_;
    } else {
      break;
    }
  }
}

Status Lexer::ErrorHere(const std::string& message) const {
  const SourcePosition at = PositionAt(text_, pos_);
  return Status::ParseError(message + " at line " + std::to_string(at.line) +
                            ", column " + std::to_string(at.column));
}

Result<std::vector<Token>> Lexer::Tokenize() {
  if (text_.size() >= UINT32_MAX) {
    return Status::ParseError("input of " + std::to_string(text_.size()) +
                              " bytes is too long to parse");
  }
  std::vector<Token> out;
  // Every token but kEnd spells at least one byte.
  out.reserve(text_.size() + 1);
  while (true) {
    SkipWhitespaceAndComments();
    const size_t start = pos_;
    TokenKind kind = TokenKind::kEnd;
    if (!AtEnd()) HERMES_RETURN_IF_ERROR(LexOne(&kind));
    out.push_back(Token{kind, static_cast<uint32_t>(start),
                        static_cast<uint32_t>(pos_ - start)});
    if (kind == TokenKind::kEnd) return out;
  }
}

Status Lexer::LexOne(TokenKind* kind) {
  char c = Peek();
  if (IsDigit(c) || (c == '-' && IsDigit(Peek(1)))) {
    *kind = LexNumber();
    return Status::OK();
  }
  if (c == '\'' || c == '"') {
    *kind = TokenKind::kString;
    return LexString();
  }
  if (IsIdentStart(c)) return LexWord(kind);

  ++pos_;
  // Two-character operators consume their second character.
  auto second = [this](char want) {
    if (Peek() != want) return false;
    ++pos_;
    return true;
  };
  switch (c) {
    case '(': *kind = TokenKind::kLParen; break;
    case ')': *kind = TokenKind::kRParen; break;
    case '[': *kind = TokenKind::kLBracket; break;
    case ']': *kind = TokenKind::kRBracket; break;
    case ',': *kind = TokenKind::kComma; break;
    case '.': *kind = TokenKind::kDot; break;
    case '&': *kind = TokenKind::kAmp; break;
    case ':': *kind = second('-') ? TokenKind::kIf : TokenKind::kColon; break;
    case '?':
      if (!second('-')) return ErrorHere("unexpected '?'");
      *kind = TokenKind::kQuery;
      break;
    case '=':
      if (second('>')) {
        *kind = TokenKind::kImplies;
      } else {
        second('=');  // '==' is accepted as '='.
        *kind = TokenKind::kEq;
      }
      break;
    case '!':
      if (!second('=')) return ErrorHere("unexpected '!'");
      *kind = TokenKind::kNeq;
      break;
    case '<':
      *kind = second('=')   ? TokenKind::kLe
              : second('>') ? TokenKind::kNeq
                            : TokenKind::kLt;
      break;
    case '>': *kind = second('=') ? TokenKind::kGe : TokenKind::kGt; break;
    default:
      return ErrorHere(std::string("unexpected character '") + c + "'");
  }
  return Status::OK();
}

TokenKind Lexer::LexNumber() {
  if (Peek() == '-') ++pos_;
  while (IsDigit(Peek())) ++pos_;
  bool is_double = false;
  // A '.' continues the number only when followed by a digit; otherwise it
  // is the clause terminator.
  if (Peek() == '.' && IsDigit(Peek(1))) {
    is_double = true;
    ++pos_;
    while (IsDigit(Peek())) ++pos_;
  }
  if (Peek() == 'e' || Peek() == 'E') {
    const size_t look = Peek(1) == '+' || Peek(1) == '-' ? 2 : 1;
    if (IsDigit(Peek(look))) {
      is_double = true;
      pos_ += look;
      while (IsDigit(Peek())) ++pos_;
    }
  }
  return is_double ? TokenKind::kDouble : TokenKind::kInt;
}

Status Lexer::LexString() {
  const char quote = Peek();
  ++pos_;
  while (true) {
    if (AtEnd()) return ErrorHere("unterminated string literal");
    const char c = text_[pos_++];
    if (c == quote) return Status::OK();
    if (c == '\\' && !AtEnd()) ++pos_;  // the escaped byte
  }
}

Status Lexer::LexWord(TokenKind* kind) {
  const size_t start = pos_;
  ++pos_;  // ident start (may be '$')
  while (IsIdentChar(Peek())) ++pos_;
  const std::string_view word = text_.substr(start, pos_ - start);

  if (word == "$") return ErrorHere("'$' must begin a variable name");
  if (word == "$b" || !IsVariableStart(word[0])) {
    *kind = word == "$b" ? TokenKind::kDollarB : TokenKind::kIdent;
    return Status::OK();
  }
  // Attribute path: Var.attr, Var.2, $ans.1.name — consumed only when the
  // dot is immediately adjacent and followed by an identifier or number.
  // Adjacency also rules out a digit-led step being a new numeric token
  // after a clause terminator.
  while (Peek() == '.' && (IsIdentStart(Peek(1)) || IsDigit(Peek(1)))) {
    ++pos_;  // '.'
    const size_t step = pos_;
    while (IsIdentChar(Peek())) ++pos_;
    if (pos_ == step) return ErrorHere("empty attribute path step");
  }
  *kind = TokenKind::kVariable;
  return Status::OK();
}

}  // namespace hermes::lang
