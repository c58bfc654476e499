// Golden test of the front end's outputs: for every corpus input and every
// malformed input of tests/lang/parse_corpus.h, the printed AST or the
// exact error message, positions included. Any change to what the lexer
// and parser accept, build or report shows up as a byte diff. Regenerate
// after an intentional change with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/lang_parse_corpus_test

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "golden_file.h"
#include "lang/parse_corpus.h"

namespace hermes::lang_corpus {
namespace {

std::string Render(const std::vector<Entry>& entries) {
  std::string out;
  for (const Entry& entry : entries) {
    out += "== ";
    out += GrammarName(entry.grammar);
    out += "\n";
    out += entry.text;
    out += "\n-> ";
    Result<std::string> printed = ParseAndPrint(entry.grammar, entry.text);
    out += printed.ok() ? *printed : "error: " + printed.status().message();
    out += "\n";
  }
  return out;
}

TEST(ParseCorpusGoldenTest, PrintedAstsAndErrorsMatchTheGolden) {
  std::vector<Entry> entries = Corpus();
  for (Entry& entry : Malformed()) entries.push_back(std::move(entry));
  testing_golden::CompareGolden("parse_corpus.txt", Render(entries));
}

}  // namespace
}  // namespace hermes::lang_corpus
