#include "lang/lexer.h"

#include <gtest/gtest.h>

#include <string_view>
#include <type_traits>
#include <utility>

namespace hermes::lang {
namespace {

std::vector<Token> MustLex(std::string_view text) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  EXPECT_TRUE(tokens.ok()) << tokens.status();
  return tokens.ok() ? *tokens : std::vector<Token>{};
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  std::vector<Token> t = MustLex("");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].kind, TokenKind::kEnd);
}

TEST(LexerTest, LowercaseIdentifierIsConstantSymbol) {
  const std::string_view src = "rupert";
  std::vector<Token> t = MustLex(src);
  EXPECT_EQ(t[0].kind, TokenKind::kIdent);
  EXPECT_EQ(t[0].Text(src), "rupert");
}

TEST(LexerTest, UppercaseAndUnderscoreAreVariables) {
  EXPECT_EQ(MustLex("From")[0].kind, TokenKind::kVariable);
  EXPECT_EQ(MustLex("_x")[0].kind, TokenKind::kVariable);
  EXPECT_EQ(MustLex("$ans")[0].kind, TokenKind::kVariable);
}

TEST(LexerTest, DollarBIsItsOwnToken) {
  EXPECT_EQ(MustLex("$b")[0].kind, TokenKind::kDollarB);
}

TEST(LexerTest, VariableAttributePathIsLexedIntoTheToken) {
  const std::string_view src = "$ans.1.name";
  std::vector<Token> t = MustLex(src);
  ASSERT_EQ(t[0].kind, TokenKind::kVariable);
  EXPECT_EQ(t[0].Text(src), "$ans.1.name");
  EXPECT_EQ(VariableName(t[0], src), "$ans");
  EXPECT_EQ(t[1].kind, TokenKind::kEnd);
}

TEST(LexerTest, ClauseTerminatorDotIsSeparateFromPath) {
  // "q(B,C)." — the final dot must be a kDot token, not a path step.
  const std::string_view src = "q(B,C).";
  std::vector<Token> t = MustLex(src);
  ASSERT_GE(t.size(), 8u);
  EXPECT_EQ(t[4].kind, TokenKind::kVariable);
  EXPECT_EQ(t[4].Text(src), "C");
  EXPECT_EQ(t[5].kind, TokenKind::kRParen);
  EXPECT_EQ(t[6].kind, TokenKind::kDot);
}

TEST(LexerTest, VariableDotFollowedByIdentIsPath) {
  const std::string_view src = "P.name = A";
  std::vector<Token> t = MustLex(src);
  EXPECT_EQ(t[0].kind, TokenKind::kVariable);
  EXPECT_EQ(t[0].Text(src), "P.name");
  EXPECT_EQ(t[1].kind, TokenKind::kEq);
}

TEST(LexerTest, IntAndDoubleLiterals) {
  const std::string_view src = "42 -7 2.5 1e3 -1.5e-2";
  std::vector<Token> t = MustLex(src);
  const std::pair<TokenKind, std::string_view> expected[] = {
      {TokenKind::kInt, "42"},
      {TokenKind::kInt, "-7"},
      {TokenKind::kDouble, "2.5"},
      {TokenKind::kDouble, "1e3"},
      {TokenKind::kDouble, "-1.5e-2"}};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t[i].kind, expected[i].first);
    EXPECT_EQ(t[i].Text(src), expected[i].second);
  }
}

TEST(LexerTest, OutOfRangeNumbersLexAsTheirSpelling) {
  // Numbers are converted when the parser reads them (parser_test pins the
  // positioned out-of-range errors); lexing never fails on magnitude.
  const std::string_view src = "99999999999999999999 1e999 4e-400";
  std::vector<Token> t = MustLex(src);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0].kind, TokenKind::kInt);
  EXPECT_EQ(t[0].Text(src), "99999999999999999999");
  EXPECT_EQ(t[1].kind, TokenKind::kDouble);
  EXPECT_EQ(t[2].kind, TokenKind::kDouble);
  EXPECT_EQ(t[2].Text(src), "4e-400");
}

TEST(LexerTest, NumberFollowedByClauseDot) {
  // "f(142)." — 142 then ')' then '.'
  std::vector<Token> t = MustLex("f(142).");
  EXPECT_EQ(t[2].kind, TokenKind::kInt);
  EXPECT_EQ(t[3].kind, TokenKind::kRParen);
  EXPECT_EQ(t[4].kind, TokenKind::kDot);
}

TEST(LexerTest, SingleAndDoubleQuotedStrings) {
  const std::string_view src = "'h-22 fuel' \"rope\"";
  std::vector<Token> t = MustLex(src);
  EXPECT_EQ(t[0].kind, TokenKind::kString);
  EXPECT_EQ(StringValue(t[0], src), "h-22 fuel");
  EXPECT_EQ(t[1].kind, TokenKind::kString);
  EXPECT_EQ(StringValue(t[1], src), "rope");
}

TEST(LexerTest, StringEscapes) {
  const std::string_view src = R"('it\'s\n')";
  std::vector<Token> t = MustLex(src);
  EXPECT_EQ(t[0].Text(src), src);
  EXPECT_EQ(StringValue(t[0], src), "it's\n");
}

TEST(LexerTest, UnterminatedStringIsParseError) {
  Lexer lexer("'oops");
  EXPECT_TRUE(lexer.Tokenize().status().IsParseError());
}

TEST(LexerTest, OperatorsAndPunctuation) {
  std::vector<Token> t = MustLex(":- ?- => = == != <> < <= > >= & , ( ) [ ] :");
  std::vector<TokenKind> kinds;
  for (const Token& tok : t) kinds.push_back(tok.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIf, TokenKind::kQuery, TokenKind::kImplies,
                       TokenKind::kEq, TokenKind::kEq, TokenKind::kNeq,
                       TokenKind::kNeq, TokenKind::kLt, TokenKind::kLe,
                       TokenKind::kGt, TokenKind::kGe, TokenKind::kAmp,
                       TokenKind::kComma, TokenKind::kLParen,
                       TokenKind::kRParen, TokenKind::kLBracket,
                       TokenKind::kRBracket, TokenKind::kColon,
                       TokenKind::kEnd}));
}

TEST(LexerTest, CommentsAreSkipped) {
  const std::string_view src =
      "% a comment line\n"
      "foo // trailing comment\n"
      "bar";
  std::vector<Token> t = MustLex(src);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].Text(src), "foo");
  EXPECT_EQ(t[1].Text(src), "bar");
}

TEST(LexerTest, TracksLineAndColumn) {
  const std::string_view src = "a\n  b";
  std::vector<Token> t = MustLex(src);
  const SourcePosition a = PositionAt(src, t[0].offset);
  const SourcePosition b = PositionAt(src, t[1].offset);
  EXPECT_EQ(a.line, 1);
  EXPECT_EQ(a.column, 1);
  EXPECT_EQ(b.line, 2);
  EXPECT_EQ(b.column, 3);
}

TEST(LexerTest, TokensAreTriviallyCopyableViews) {
  static_assert(std::is_trivially_copyable_v<Token>);
  const std::string_view src = "in(X, d:f('a b'))";
  std::vector<Token> t = MustLex(src);
  ASSERT_EQ(t.size(), 12u);
  EXPECT_EQ(t[8].kind, TokenKind::kString);
  EXPECT_EQ(t[8].offset, 10u);
  EXPECT_EQ(t[8].length, 5u);
  EXPECT_EQ(t[11].kind, TokenKind::kEnd);
  EXPECT_EQ(t[11].offset, src.size());
}

TEST(LexerTest, UnexpectedCharacterReportsPosition) {
  Lexer lexer("foo @");
  Status s = lexer.Tokenize().status();
  ASSERT_TRUE(s.IsParseError());
  EXPECT_EQ(s.message(), "unexpected character '@' at line 1, column 6");
}

TEST(LexerTest, LoneDollarIsError) {
  Lexer lexer("$ x");
  EXPECT_TRUE(lexer.Tokenize().status().IsParseError());
}

}  // namespace
}  // namespace hermes::lang
