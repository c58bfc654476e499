#ifndef HERMES_TESTS_LANG_PARSE_CORPUS_H_
#define HERMES_TESTS_LANG_PARSE_CORPUS_H_

// The front end's input corpus, shared by the grammar fuzzer (which mutates
// it) and the parse-corpus golden (which pins what each input parses to):
// the rope scenario's rules and invariants, the appendix and topology
// queries, perfbench's DCSM cost probes and the canned chaos fault plan,
// plus hand-written malformed inputs that reach each parse error.

#include <string>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "lang/parser.h"
#include "net/faults/fault_plan.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace hermes::lang_corpus {

/// The entry point an input is parsed with.
enum class Grammar { kProgram, kQuery, kInvariants, kCallPattern, kFaultPlan };

inline const char* GrammarName(Grammar grammar) {
  switch (grammar) {
    case Grammar::kProgram: return "program";
    case Grammar::kQuery: return "query";
    case Grammar::kInvariants: return "invariants";
    case Grammar::kCallPattern: return "call-pattern";
    case Grammar::kFaultPlan: return "fault-plan";
  }
  return "?";
}

struct Entry {
  Grammar grammar;
  std::string text;
};

/// The rope scenario's frame invariants, as the scenario loads them.
inline const char* kRopeInvariants = R"(
  % A wider frame range sees at least the objects of a narrower one.
  F2 <= F1 & L1 <= L2 =>
      video:frames_to_objects(V, F2, L2) >=
      video:frames_to_objects(V, F1, L1).
  % 'rope' has 130000 frames; ranges beyond that are equivalent to
  % the clamped range (the paper's range-shrinking equality example).
  L >= 130000 =>
      video:frames_to_objects('rope', F, L) =
      video:frames_to_objects('rope', F, 129999).
)";

/// Well-formed seed inputs.
inline std::vector<Entry> Corpus() {
  std::vector<Entry> out;
  out.push_back({Grammar::kProgram, testbed::kAppendixProgram});
  out.push_back({Grammar::kProgram,
                 "objects(F, L, O) :- "
                 "in(O, video:frames_to_objects('rope', F, L))."});
  out.push_back({Grammar::kInvariants, kRopeInvariants});
  for (int number = 1; number <= 4; ++number) {
    for (bool primed : {false, true}) {
      if (primed && number > 2) continue;
      out.push_back({Grammar::kQuery,
                     testbed::AppendixQuery(number, primed, 4, 47)});
    }
  }
  out.push_back(
      {Grammar::kQuery, testbed::AppendixQuery(3, false, 130, 140500)});
  testbed::TopologyInfo topology;
  for (int site = 0; site < 32; ++site) {
    topology.domains.push_back("s" + std::to_string(site));
  }
  for (size_t fanout : {1, 4, 6}) {
    out.push_back(
        {Grammar::kQuery, testbed::TopologyQuery(topology, 96, fanout)});
  }
  for (const char* probe :
       {"video:frames_to_objects('rope', 10, 200)",
        "video:object_to_frames('rope', $b)",
        "relation:equal('cast', role, $b)", "relation:all('cast')",
        "cim_video:frames_to_objects('rope', 10, 200)",
        "cim_relation:equal('cast', role, $b)", "s7:work(1543)"}) {
    out.push_back({Grammar::kCallPattern, probe});
  }
  // Every term and atom form the printer emits.
  out.push_back({Grammar::kQuery,
                 "?- in(T, d:f(1, -2, 2.5, 'it\\'s', \"q\", sym, "
                 "[1, ['x'], []])) & "
                 "=(T.name, A) & T.qty.1 >= -1.5e-2 & true != $ans.2 & "
                 "<(A, null) & p(A, $b, _) & r()."});
  out.push_back({Grammar::kCallPattern, "d:f(1.5, 'x', $b, [1, 2], false)"});
  Result<std::string> faults = ReadFileToString(
      std::string(HERMES_TEST_SRCDIR) + "/chaos/chaos.faults");
  out.push_back({Grammar::kFaultPlan, faults.ok() ? *faults : ""});
  return out;
}

/// Inputs that fail to parse, one per error the front end reports, with
/// positions past the first line.
inline std::vector<Entry> Malformed() {
  std::vector<Entry> out;
  for (const char* text : {
           "?- p(@).", "?- p(X) ? q.", "?- p(!x).", "?- p('abc",
           "?- p(\"two\nlines", "?- p($ x).", "?- p(X.$y).", "?- p(X)",
           "?- p(X). q.", "?- in(X, d:f(1)", "?- in(X, 5:f()).",
           "?- in(X, d:5()).", "?- in(X, d f()).", "?- in(X d:f()).",
           "?- [X].", "?- X.", "?- X @ 1.", "?- p(X) & .", "?- =(X, Y.",
           "?- =(X Y).", "?- p(,).", "?- X.a 1.", "?- .", "",
           "% only a comment\n", "?- p(X) &\n   q(Y\n.",
           "?- p(X) &\n\t% comment\n   r(Y) s.", "?- [1, 2.", "?- p([a, ]).",
           "?- in(X, d:f(1)) & X.a.", "?- in(X, 'd':f()).",
           "?- in(X, 'a\\'b\\n':f()).", "?- in(X, '':f()).",
           "?- in(X, 2.50:f()).", "?- in(X, -1e3:f()).", "?- in(X, Y.a.1:f()).",
           "?- in(X, $b:f()).", "?- in(X, [1]:f()).",
           "?- p(99999999999999999999).", "?- p(-99999999999999999999).",
           "?- p(1e999).", "?- in(X, d:f()) &\n   X.a = 4e-400.",
           "?- p & in.", "?- in = X & in."}) {
    out.push_back({Grammar::kQuery, text});
  }
  for (const char* text : {
           ":- p.", "X = 1 :- p.", "p(X) :- =(X,1) ", "p(X) :- in(X, d:f(1)",
           "in(X, d:f()) :- p.", "p(X) :- q(X).\nr(Y) :-\n  s(Y) t(Y).",
           "p(X) :- .", "p(X) q."}) {
    out.push_back({Grammar::kProgram, text});
  }
  for (const char* text : {
           "=> d:f(X) ~ d:g(X).", "=> d:f(X) d:g(X).",
           "X > 1 d:f(X) = d:g(X).", "Z > 1 => d:f(X) = d:g(X).",
           "=> d:f(X) = d:g(X)", "=> f(X) = d:g(X).",
           "X > 1 &\n  Y < 2 => d:f(X) = d:g(X).",
           "X > 1 &\n  p(X) => d:f(X) = d:g(X)."}) {
    out.push_back({Grammar::kInvariants, text});
  }
  for (const char* text :
       {"d:f(X)", "d:f(1) extra", "d:f(1", "f(1)", "d:f(1).."}) {
    out.push_back({Grammar::kCallPattern, text});
  }
  for (const char* text : {
           "seed", "seed x", "outage", "bogus site=a", "outage site=a p",
           "flaky site=a p=2", "latency site=* factor=0",
           "outage site=a from=5 until=1", "slow site=a extra_ms=abc",
           "outage site=a colour=red"}) {
    out.push_back({Grammar::kFaultPlan, text});
  }
  return out;
}

/// Parses `text` with `grammar`'s entry point and prints the result back
/// in the language's own syntax; the parse error otherwise.
inline Result<std::string> ParseAndPrint(Grammar grammar,
                                         const std::string& text) {
  switch (grammar) {
    case Grammar::kProgram: {
      HERMES_ASSIGN_OR_RETURN(lang::Program program,
                              lang::Parser::ParseProgram(text));
      return program.ToString();
    }
    case Grammar::kQuery: {
      HERMES_ASSIGN_OR_RETURN(lang::Query query,
                              lang::Parser::ParseQuery(text));
      return query.ToString();
    }
    case Grammar::kInvariants: {
      HERMES_ASSIGN_OR_RETURN(std::vector<lang::Invariant> invariants,
                              lang::Parser::ParseInvariants(text));
      std::string out;
      for (const lang::Invariant& inv : invariants) {
        out += inv.ToString();
        out += "\n";
      }
      return out;
    }
    case Grammar::kCallPattern: {
      HERMES_ASSIGN_OR_RETURN(lang::DomainCallSpec spec,
                              lang::Parser::ParseCallPattern(text));
      return spec.ToString();
    }
    case Grammar::kFaultPlan: {
      HERMES_ASSIGN_OR_RETURN(net::FaultPlan plan, net::FaultPlan::Parse(text));
      return plan.ToString();
    }
  }
  return Status::Internal("unknown grammar");
}

}  // namespace hermes::lang_corpus

#endif  // HERMES_TESTS_LANG_PARSE_CORPUS_H_
