#include "lang/token.h"

namespace hermes::lang {

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd: return "end-of-input";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kVariable: return "variable";
    case TokenKind::kInt: return "integer";
    case TokenKind::kDouble: return "double";
    case TokenKind::kString: return "string";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kComma: return "','";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kColon: return "':'";
    case TokenKind::kAmp: return "'&'";
    case TokenKind::kIf: return "':-'";
    case TokenKind::kQuery: return "'?-'";
    case TokenKind::kImplies: return "'=>'";
    case TokenKind::kEq: return "'='";
    case TokenKind::kNeq: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
    case TokenKind::kDollarB: return "'$b'";
  }
  return "?";
}

SourcePosition PositionAt(std::string_view source, size_t offset) {
  SourcePosition pos;
  for (size_t i = 0; i < offset && i < source.size(); ++i) {
    if (source[i] == '\n') {
      ++pos.line;
      pos.column = 1;
    } else {
      ++pos.column;
    }
  }
  return pos;
}

std::string_view VariableName(const Token& token, std::string_view source) {
  std::string_view text = token.Text(source);
  return text.substr(0, text.find('.'));
}

std::string StringValue(const Token& token, std::string_view source) {
  std::string_view body = token.Text(source).substr(1, token.length - 2);
  if (body.find('\\') == std::string_view::npos) return std::string(body);
  std::string out;
  out.reserve(body.size());
  for (size_t i = 0; i < body.size(); ++i) {
    char c = body[i];
    // The lexer ends a string only at an unescaped quote, so a backslash
    // is never the body's last byte.
    if (c == '\\') {
      c = body[++i];
      if (c == 'n') c = '\n';
      if (c == 't') c = '\t';
    }
    out += c;
  }
  return out;
}

std::string Describe(const Token& token, std::string_view source) {
  std::string out = TokenKindName(token.kind);
  std::string spelling;
  switch (token.kind) {
    case TokenKind::kIdent:
    case TokenKind::kInt:
    case TokenKind::kDouble:
      spelling = token.Text(source);
      break;
    case TokenKind::kVariable:
      spelling = VariableName(token, source);
      break;
    case TokenKind::kString:
      spelling = StringValue(token, source);
      break;
    default:
      break;
  }
  if (!spelling.empty()) {
    out += " '";
    out += spelling;
    out += "'";
  }
  return out;
}

}  // namespace hermes::lang
