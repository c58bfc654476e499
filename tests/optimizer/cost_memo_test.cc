// The optimizer's per-run cost memo: each distinct DCSM call pattern is
// looked up once per Optimize call, every use still charges its simulated
// lookup time, and nothing is remembered across calls — statistics recorded
// between two runs reach the second one.

#include <gtest/gtest.h>

#include <string>

#include "lang/parser.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"

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

TEST(CostMemoTest, SecondOptimizeSeesStatisticsRecordedBetweenRuns) {
  dcsm::Dcsm dcsm;
  const DomainCall call{"s", "f", {Value::Int(1)}};
  dcsm.RecordExecution(call, CostVector(1, 10, 1));
  QueryOptimizer optimizer(&dcsm);
  const lang::Program program = MustProgram("m(X) :- in(X, s:f(1)).");
  const lang::Query query = MustQuery("?- m(X).");

  Result<OptimizerResult> before =
      optimizer.Optimize(program, query, OptimizationGoal::kAllAnswers);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_DOUBLE_EQ(before->best.estimated.t_all_ms, 10.0);

  dcsm::CostRecord slow;
  slow.call = call;
  slow.cost = CostVector(1, 1000, 1);
  dcsm.RecordBatch({slow, slow, slow});

  Result<OptimizerResult> after =
      optimizer.Optimize(program, query, OptimizationGoal::kAllAnswers);
  ASSERT_TRUE(after.ok()) << after.status();
  Result<dcsm::CostEstimate> direct =
      dcsm.Cost(*lang::Parser::ParseCallPattern("s:f(1)"));
  ASSERT_TRUE(direct.ok());
  EXPECT_GT(after->best.estimated.t_all_ms, 10.0);
  EXPECT_DOUBLE_EQ(after->best.estimated.t_all_ms, direct->cost.t_all_ms);
}

TEST(CostMemoTest, RepeatedPatternsReachTheDcsmOncePerRun) {
  dcsm::Dcsm dcsm;
  obs::MetricsRegistry registry;
  dcsm.BindMetrics(registry);
  dcsm.RecordExecution(DomainCall{"s", "f", {Value::Int(1)}},
                       CostVector(2, 5, 3));
  QueryOptimizer optimizer(&dcsm);
  // Two orderings of the same call pattern: four uses, one distinct pattern.
  Result<OptimizerResult> planned = optimizer.Optimize(
      lang::Program{}, MustQuery("?- in(A, s:f(1)) & in(B, s:f(1))."),
      OptimizationGoal::kAllAnswers);
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_EQ(planned->candidates.size(), 2u);
  EXPECT_NE(registry.ExposePrometheus().find("hermes_dcsm_estimates_total 1\n"),
            std::string::npos)
      << registry.ExposePrometheus();

  // Each use still charges the lookup: per-candidate and total simulated
  // estimation time match a memo-less estimate of every candidate.
  RuleCostEstimator estimator(&dcsm);
  double total = 0.0;
  for (size_t i = 0; i < planned->candidates.size(); ++i) {
    const CandidateSummary& summary = planned->candidates[i];
    Result<RuleCostEstimator::Estimate> alone =
        estimator.EstimatePlan(planned->space.Materialize(i));
    ASSERT_TRUE(alone.ok());
    EXPECT_GT(alone->estimation_ms, 0.0);
    EXPECT_EQ(summary.estimation_ms, alone->estimation_ms);
    EXPECT_EQ(summary.estimated.t_all_ms, alone->cost.t_all_ms);
    total += alone->estimation_ms;
  }
  EXPECT_EQ(planned->total_estimation_ms, total);
}

TEST(CostMemoTest, ConstantsOfDifferentTypesAreDistinctPatterns) {
  dcsm::Dcsm dcsm;
  CostMemo memo;
  lang::DomainCallSpec as_int{"s", "f", {lang::Term::Const(Value::Int(1))}};
  lang::DomainCallSpec as_double{
      "s", "f", {lang::Term::Const(Value::Double(1.0))}};
  const Result<dcsm::CostEstimate>& a = memo.Cost(dcsm, as_int);
  const Result<dcsm::CostEstimate>& b = memo.Cost(dcsm, as_double);
  const Result<dcsm::CostEstimate>& again = memo.Cost(dcsm, as_int);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &again);
}

}  // namespace
}  // namespace hermes::optimizer
