// Seeded, grammar-aware mutation fuzzer of the front end: the rule,
// query, invariant and call-pattern parsers and the fault-plan grammar.
//
// Each case takes a corpus input (tests/lang/parse_corpus.h), splits it
// into lexemes and applies one to three mutations: insert a lexeme drawn
// from the grammar's vocabulary, delete one, swap two, or flip a byte. The
// mutant must parse or fail with a Status; no exception may escape. When
// it parses, printing it and parsing the print must give the same print:
// print∘parse reaches a fixpoint after one step. The iteration count is
// fixed and the generator seeded, so every run checks the same inputs.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "lang/parse_corpus.h"

namespace hermes::lang_corpus {
namespace {

constexpr int kCasesPerGrammar = 2000;

/// splitmix64: a fixed generator, so the cases do not depend on the
/// standard library's distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$' ||
         c == '.';
}

/// Splits `text` into lexemes: words (identifiers, variables with paths,
/// numbers), quoted strings, whitespace runs, two-character operators and
/// single characters. Concatenating the pieces gives `text` back.
std::vector<std::string> Split(const std::string& text) {
  static const char* const kTwoChar[] = {":-", "?-", "=>", "<=", ">=",
                                         "!=", "<>", "==", "//"};
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    size_t j = i + 1;
    const char c = text[i];
    if (IsWordChar(c)) {
      while (j < text.size() && IsWordChar(text[j])) ++j;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      while (j < text.size() &&
             std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
    } else if (c == '\'' || c == '"') {
      while (j < text.size() && text[j] != c) j += text[j] == '\\' ? 2 : 1;
      j = std::min(j + 1, text.size());
    } else {
      for (const char* op : kTwoChar) {
        if (text.compare(i, 2, op) == 0) j = i + 2;
      }
    }
    out.push_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

/// Lexemes any input of `grammar` may gain by insertion, besides those of
/// its corpus inputs.
std::vector<std::string> Extras(Grammar grammar) {
  if (grammar == Grammar::kFaultPlan) {
    return {"seed",     "outage",  "flaky",     "latency",      "slow",
            "site=*",   "site=",   "p=0.5",     "p=nan",        "p=-1",
            "from=10",  "until=5", "factor=2",  "factor=1e-3",  "extra_ms=7",
            "from=1e9", "#",       "\n",        " ",            "=",
            "7",        "-1",      "seed=1",    "until=inf",    "x=y"};
  }
  return {"(",   ")",   "[",     "]",     ",",    ".",     ":",  "&",
          ":-",  "?-",  "=>",    "=",     "!=",   "<>",    "<",  "<=",
          ">",   ">=",  "==",    "$b",    "$",    "in",    "X",  "Y",
          "X.a", "X.1", "_",     "$ans",  "p",    "d:f",   "1",  "-2",
          "2.5", "1e3", "-1.5e-2", "true", "false", "null", "'s'", "\"q\"",
          "'it\\'s'", "%",  "//", "\n",   " ",    "0",     "-"};
}

std::string Mutate(Rng& rng, const std::vector<std::string>& vocabulary,
                   const std::string& text) {
  std::vector<std::string> pieces = Split(text);
  const size_t rounds = 1 + rng.Below(3);
  for (size_t round = 0; round < rounds; ++round) {
    switch (rng.Below(4)) {
      case 0:  // insert a lexeme
        pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(
                                           rng.Below(pieces.size() + 1)),
                      vocabulary[rng.Below(vocabulary.size())]);
        break;
      case 1:  // delete a lexeme
        if (!pieces.empty()) {
          pieces.erase(pieces.begin() +
                       static_cast<std::ptrdiff_t>(rng.Below(pieces.size())));
        }
        break;
      case 2:  // swap two lexemes
        if (!pieces.empty()) {
          std::swap(pieces[rng.Below(pieces.size())],
                    pieces[rng.Below(pieces.size())]);
        }
        break;
      default: {  // flip a byte: one bit, or a byte of any value
        std::string joined;
        for (const std::string& piece : pieces) joined += piece;
        if (joined.empty()) break;
        const size_t at = rng.Below(joined.size());
        if (rng.Below(2) == 0) {
          joined[at] = static_cast<char>(joined[at] ^ (1u << rng.Below(8)));
        } else {
          joined[at] = static_cast<char>(rng.Below(256));
        }
        pieces = Split(joined);
        break;
      }
    }
  }
  std::string out;
  for (const std::string& piece : pieces) out += piece;
  return out;
}

/// Parses `text`; on success re-parses the print and checks it prints the
/// same. Returns whether `text` was accepted.
bool Check(Grammar grammar, const std::string& text) {
  try {
    Result<std::string> first = ParseAndPrint(grammar, text);
    if (!first.ok()) {
      EXPECT_FALSE(first.status().message().empty()) << text;
      return false;
    }
    Result<std::string> second = ParseAndPrint(grammar, *first);
    EXPECT_TRUE(second.ok()) << "input:\n" << text << "\nprinted:\n"
                             << *first << "\nreparse: " << second.status();
    if (second.ok()) {
      EXPECT_EQ(*first, *second) << "input:\n" << text;
    }
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "exception escaped (" << e.what() << ") on input:\n"
                  << text;
  } catch (...) {
    ADD_FAILURE() << "non-standard exception escaped on input:\n" << text;
  }
  return false;
}

class GrammarFuzzTest : public ::testing::TestWithParam<Grammar> {};

TEST_P(GrammarFuzzTest, MutantsParseOrFailCleanlyAndRoundTrip) {
  const Grammar grammar = GetParam();
  std::vector<std::string> seeds;
  std::vector<std::string> vocabulary = Extras(grammar);
  for (const Entry& entry : Corpus()) {
    if (entry.grammar != grammar) continue;
    seeds.push_back(entry.text);
    for (std::string& piece : Split(entry.text)) {
      vocabulary.push_back(std::move(piece));
    }
  }
  ASSERT_FALSE(seeds.empty());
  for (const std::string& seed : seeds) EXPECT_TRUE(Check(grammar, seed));

  Rng rng(0x5eed0000u + static_cast<uint64_t>(grammar));
  size_t accepted = 0;
  for (int i = 0; i < kCasesPerGrammar && !HasFailure(); ++i) {
    const std::string& seed = seeds[rng.Below(seeds.size())];
    if (Check(grammar, Mutate(rng, vocabulary, seed))) ++accepted;
  }
  // The mutants must reach past the first error: some still parse.
  EXPECT_GT(accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grammars, GrammarFuzzTest,
    ::testing::Values(Grammar::kProgram, Grammar::kQuery, Grammar::kInvariants,
                      Grammar::kCallPattern, Grammar::kFaultPlan),
    [](const ::testing::TestParamInfo<Grammar>& info) {
      std::string name = GrammarName(info.param);
      std::string out;
      for (char c : name) {
        if (c != '-') out += c;
      }
      return out;
    });

}  // namespace
}  // namespace hermes::lang_corpus
