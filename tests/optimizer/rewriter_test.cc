#include "optimizer/rewriter.h"

#include <gtest/gtest.h>

#include "lang/parser.h"

namespace hermes::optimizer {
namespace {

lang::Program MustProgram(const std::string& text) {
  Result<lang::Program> p = lang::Parser::ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status();
  return p.ok() ? *p : lang::Program{};
}

lang::Query MustQuery(const std::string& text) {
  Result<lang::Query> q = lang::Parser::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return q.ok() ? *q : lang::Query{};
}

std::string BodyString(const std::vector<lang::Atom>& body) {
  std::string out;
  for (size_t i = 0; i < body.size(); ++i) {
    if (i > 0) out += " & ";
    out += body[i].ToString();
  }
  return out;
}

/// Every candidate of `space`, built as a program.
std::vector<CandidatePlan> MaterializeAll(const PlanSpace& space) {
  std::vector<CandidatePlan> plans;
  for (size_t i = 0; i < space.size(); ++i) {
    plans.push_back(space.Materialize(i));
  }
  return plans;
}

TEST(ValidOrderingsTest, DomainCallArgsMustBeBound) {
  // in(C, d:f(B)) cannot run before B is produced.
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(C) :- in(B, d1:p()) & in(C, d2:q(B)).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_EQ(orderings.size(), 1u);
  EXPECT_EQ(BodyString(orderings[0]),
            "in(B, d1:p()) & in(C, d2:q(B))");
}

TEST(ValidOrderingsTest, IndependentCallsPermute) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A, B) :- in(A, d1:p()) & in(B, d2:q()).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  EXPECT_EQ(orderings.size(), 2u);
  // The original order is listed first.
  EXPECT_EQ(BodyString(orderings[0]), "in(A, d1:p()) & in(B, d2:q())");
}

TEST(ValidOrderingsTest, InitiallyBoundVarsEnableMoreOrders) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(B, C) :- in(B, d1:p()) & in(C, d2:q(B)).");
  // With B initially bound (head adornment bb), d2:q(B) may run first.
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {"B"}, 10);
  EXPECT_EQ(orderings.size(), 2u);
}

TEST(ValidOrderingsTest, ComparisonNeedsBoundOperands) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(X) :- in(X, d:f()) & X > 5.");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_EQ(orderings.size(), 1u);  // the comparison cannot lead
}

TEST(ValidOrderingsTest, EqualityAssignmentBindsFreeSide) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A) :- in(T, d:f()) & =(A, T.name) & in(X, e:g(A)).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_GE(orderings.size(), 1u);
  EXPECT_EQ(BodyString(orderings[0]),
            "in(T, d:f()) & A = T.name & in(X, e:g(A))");
}

TEST(ValidOrderingsTest, CapIsHonored) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A, B, C, D) :- in(A, d:f()) & in(B, d:f()) & in(C, d:f()) & "
      "in(D, d:f()).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 5);
  EXPECT_EQ(orderings.size(), 5u);  // 4! = 24 valid, capped at 5
}

TEST(ValidOrderingsTest, OrderingsWithIdenticalTextCollapse) {
  // Swapping the two identical atoms gives the same text: of the 3! index
  // permutations only the 3 positions of the g() call remain.
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A, B) :- in(A, d:f()) & in(A, d:f()) & in(B, d:g()).");
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_EQ(orderings.size(), 3u);
  EXPECT_EQ(BodyString(orderings[0]),
            "in(A, d:f()) & in(A, d:f()) & in(B, d:g())");
  EXPECT_EQ(BodyString(orderings[1]),
            "in(A, d:f()) & in(B, d:g()) & in(A, d:f())");
  EXPECT_EQ(BodyString(orderings[2]),
            "in(B, d:g()) & in(A, d:f()) & in(A, d:f())");
}

TEST(ValidOrderingsTest, BindingChainsLongerThanAWordOfVariables) {
  // X0 ← f(), then X(k+1) ← g(Xk), written in reverse: 100 variables, one
  // executable order, found whatever the number of variables.
  std::string text = "m(X99) :- ";
  for (int k = 98; k >= 0; --k) {
    text += "in(X" + std::to_string(k + 1) + ", d:g(X" + std::to_string(k) +
            ")) & ";
  }
  text += "in(X0, d:f()).";
  lang::Rule rule = *lang::Parser::ParseRule(text);
  std::vector<std::vector<lang::Atom>> orderings =
      RuleRewriter::ValidOrderings(rule.body, {}, 10);
  ASSERT_EQ(orderings.size(), 1u);
  std::vector<lang::Atom> expected(rule.body.rbegin(), rule.body.rend());
  EXPECT_EQ(BodyString(orderings[0]), BodyString(expected));
}

TEST(RedirectToCimTest, RewritesOnlyListedDomains) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "m(A, B) :- in(A, video:f()) & in(B, relation:g(A)).");
  size_t n = RuleRewriter::RedirectToCim(&rule.body, {"video"});
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(rule.body[0].call.domain, "cim_video");
  EXPECT_EQ(rule.body[1].call.domain, "relation");
}

TEST(PushSelectionsTest, EqualityPushesIntoEqualCall) {
  // The paper's query4 → query3 rewriting: relation:all + =(P.role, c)
  // becomes relation:equal('cast', 'role', c).
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(A) :- in(P, relation:all('cast')) & =(P.role, 'rupert') & "
      "=(P.name, A).");
  size_t pushed = RuleRewriter::PushSelections(&rule.body, nullptr);
  EXPECT_EQ(pushed, 1u);
  ASSERT_EQ(rule.body.size(), 2u);
  EXPECT_EQ(rule.body[0].call.function, "equal");
  ASSERT_EQ(rule.body[0].call.args.size(), 3u);
  EXPECT_EQ(rule.body[0].call.args[1].constant, Value::Str("role"));
  EXPECT_EQ(rule.body[0].call.args[2].constant, Value::Str("rupert"));
}

TEST(PushSelectionsTest, RangePushesIntoSelectFamily) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(P) :- in(P, relation:all('inv')) & P.qty < 10.");
  size_t pushed = RuleRewriter::PushSelections(&rule.body, nullptr);
  EXPECT_EQ(pushed, 1u);
  EXPECT_EQ(rule.body[0].call.function, "select_lt");
}

TEST(PushSelectionsTest, FlippedComparisonNormalizes) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(P) :- in(P, relation:all('inv')) & 10 < P.qty.");
  size_t pushed = RuleRewriter::PushSelections(&rule.body, nullptr);
  EXPECT_EQ(pushed, 1u);
  EXPECT_EQ(rule.body[0].call.function, "select_gt");
}

TEST(PushSelectionsTest, RespectsDomainFunctionAvailability) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(P) :- in(P, video:all('x')) & =(P.role, 'y').");
  auto has_fn = [](const std::string& domain, const std::string&, size_t) {
    return domain != "video";  // video exports no select family
  };
  EXPECT_EQ(RuleRewriter::PushSelections(&rule.body, has_fn), 0u);
  EXPECT_EQ(rule.body.size(), 2u);
}

TEST(PushSelectionsTest, MultipleSelectionsCascade) {
  lang::Rule rule = *lang::Parser::ParseRule(
      "q(P, Q) :- in(P, r:all('a')) & =(P.x, 1) & in(Q, r:all('b')) & "
      "=(Q.y, 2).");
  size_t pushed = RuleRewriter::PushSelections(&rule.body, nullptr);
  EXPECT_EQ(pushed, 2u);
  EXPECT_EQ(rule.body.size(), 2u);
}

TEST(RewriteTest, PaperSectionFivePlansP8AndP12) {
  // The (M1)/(Q7) example: with the query binding A and asking for C, the
  // rewriter must produce both plan P8 (d1 first) and P12 (d2 first).
  lang::Program program = MustProgram(R"(
    m(A, C) :- p(A, B) & q(B, C).
    p(A, B) :- in(B, d1:p_bf(A)).
    q(B, C) :- in(C, d2:q_bf(B)).
  )");
  lang::Query query = MustQuery("?- m('a', C).");
  RuleRewriter::Options options;
  Result<PlanSpace> plans = RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok()) << plans.status();
  // Both orderings of m's body appear in some plan.
  bool p_first = false, q_first = false;
  for (const CandidatePlan& plan : MaterializeAll(*plans)) {
    for (const lang::Rule& rule : plan.program.rules) {
      if (rule.head.predicate != "m") continue;
      if (rule.body[0].predicate == "p") p_first = true;
      if (rule.body[0].predicate == "q") q_first = true;
    }
  }
  EXPECT_TRUE(p_first);
  EXPECT_TRUE(q_first);
}

TEST(RewriteTest, CimVariantsGenerated) {
  lang::Program program = MustProgram("m(A) :- in(A, video:f(1)).");
  lang::Query query = MustQuery("?- m(A).");
  RuleRewriter::Options options;
  options.cim_domains = {"video"};
  Result<PlanSpace> plans = RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok());
  bool direct = false, cim = false;
  for (const CandidatePlan& plan : MaterializeAll(*plans)) {
    for (const lang::Rule& rule : plan.program.rules) {
      for (const lang::Atom& atom : rule.body) {
        if (!atom.is_domain_call()) continue;
        if (atom.call.domain == "video") direct = true;
        if (atom.call.domain == "cim_video") cim = true;
      }
    }
  }
  EXPECT_TRUE(direct);
  EXPECT_TRUE(cim);
}

TEST(RewriteTest, PlansCarryOnlyReachableRules) {
  // Only `other` calls the cached domain, and the query cannot reach it:
  // redirecting it changes nothing the plan can execute, so no CIM variant
  // appears, and the plan holds m's and n's rules only.
  lang::Program program = MustProgram(R"(
    m(A) :- n(A).
    other(B) :- in(B, video:f(2)).
    n(A) :- in(A, d:g(1)).
  )");
  lang::Query query = MustQuery("?- m(A).");
  RuleRewriter::Options options;
  options.cim_domains = {"video"};
  Result<PlanSpace> plans = RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok()) << plans.status();
  ASSERT_EQ(plans->size(), 1u);
  EXPECT_EQ(plans->Materialize(0).description, "direct #0");
  EXPECT_EQ(plans->Materialize(0).program.ToString(),
            "m(A) :- n(A).\nn(A) :- in(A, d:g(1)).\n");
}

TEST(RewriteTest, VariantsShareTheRulesTheyDoNotChange) {
  // Redirection changes only m's rule and the goals that reach the cached
  // domain; n's rule and (for push-down, which finds nothing) every body
  // are read from the space's one copy.
  lang::Program program = MustProgram(R"(
    m(A) :- in(A, video:f(1)) & n(A).
    n(A) :- in(A, d:g(1)).
  )");
  lang::Query query = MustQuery("?- m(A) & in(B, video:h(2)).");
  RuleRewriter::Options options;
  options.cim_domains = {"video"};
  Result<PlanSpace> plans = RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok()) << plans.status();
  ASSERT_EQ(plans->num_variants(), 2u);  // direct, direct+cim
  EXPECT_EQ(plans->CimCalls(0), 0u);
  EXPECT_EQ(plans->CimCalls(1), 2u);
  EXPECT_NE(&plans->Goals(0), &plans->Goals(1));
  EXPECT_EQ(plans->Goals(1)[1].call.domain, "cim_video");
  EXPECT_NE(plans->Rules(0)[0], plans->Rules(1)[0]);
  EXPECT_EQ(plans->Rules(0)[1], plans->Rules(1)[1]);
  EXPECT_EQ(plans->Rules(1)[0]->body[0].call.domain, "cim_video");
  EXPECT_EQ(plans->Rules(0)[0]->body[0].call.domain, "video");

  // The space owns what its variants read: it outlives the program and
  // query it was built from, and moving it keeps every variant intact.
  PlanSpace moved = std::move(*plans);
  program = lang::Program{};
  query = lang::Query{};
  // The CIM variant's first candidate: every body in its written order.
  size_t first_cim = 0;
  while (moved.VariantOf(first_cim) != 1) ++first_cim;
  const CandidatePlan cim = moved.Materialize(first_cim);
  EXPECT_EQ(cim.query.ToString(), "?- m(A) & in(B, cim_video:h(2)).");
  EXPECT_EQ(cim.program.ToString(),
            "m(A) :- in(A, cim_video:f(1)) & n(A).\n"
            "n(A) :- in(A, d:g(1)).\n");
}

TEST(RewriteTest, CimOnlySuppressesDirectPlans) {
  lang::Program program = MustProgram("m(A) :- in(A, video:f(1)).");
  lang::Query query = MustQuery("?- m(A).");
  RuleRewriter::Options options;
  options.cim_domains = {"video"};
  options.cim_only = true;
  Result<PlanSpace> plans = RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok());
  for (const CandidatePlan& plan : MaterializeAll(*plans)) {
    for (const lang::Rule& rule : plan.program.rules) {
      for (const lang::Atom& atom : rule.body) {
        if (atom.is_domain_call()) {
          EXPECT_EQ(atom.call.domain, "cim_video");
        }
      }
    }
  }
}

TEST(RewriteTest, InfeasibleQueryGoalsRejected) {
  // A query whose own goals can never be ordered executably is rejected
  // outright (rule-level infeasibility is left to the cost estimator,
  // which knows the actual adornments).
  lang::Program program = MustProgram("m(A) :- in(A, d:f(1)).");
  lang::Query query = MustQuery("?- in(A, d:f(X)).");
  EXPECT_FALSE(
      RuleRewriter::Rewrite(program, query, RuleRewriter::Options{}).ok());
}

TEST(RewriteTest, PlanCapRespected) {
  lang::Program program = MustProgram(
      "m(A, B, C) :- in(A, d:f()) & in(B, d:f()) & in(C, d:f()).");
  lang::Query query = MustQuery("?- m(A, B, C).");
  RuleRewriter::Options options;
  options.max_plans = 4;
  Result<PlanSpace> plans = RuleRewriter::Rewrite(program, query, options);
  ASSERT_TRUE(plans.ok());
  EXPECT_LE(plans->size(), 4u);
}

}  // namespace
}  // namespace hermes::optimizer
