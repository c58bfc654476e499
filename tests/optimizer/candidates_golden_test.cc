// Golden test of the optimizer's full candidate list: for the appendix
// queries (two frame windows, CIM on/off, both optimization goals), a
// fanout-4 topology query, and topology queries where both enumeration caps
// bind, every candidate's description, goal order, reachable rule bodies
// (as materialized from the plan space), estimate (at %.17g) and simulated
// estimation time, plus the winner. Any planner change that alters the
// candidates, their order, their estimates or the choice shows up as a byte
// diff. Regenerate after an intentional change with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/optimizer_candidates_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/mediator.h"
#include "golden_file.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace hermes {
namespace {

using testing_golden::CompareGolden;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Predicates reachable from the plan's query goals (name/arity).
std::set<std::pair<std::string, size_t>> Reachable(
    const optimizer::CandidatePlan& plan) {
  std::set<std::pair<std::string, size_t>> seen;
  std::vector<const lang::Atom*> frontier;
  for (const lang::Atom& goal : plan.query.goals) frontier.push_back(&goal);
  while (!frontier.empty()) {
    const lang::Atom* atom = frontier.back();
    frontier.pop_back();
    if (!atom->is_predicate()) continue;
    if (!seen.insert({atom->predicate, atom->args.size()}).second) continue;
    for (const lang::Rule& rule : plan.program.rules) {
      if (rule.head.predicate == atom->predicate &&
          rule.head.args.size() == atom->args.size()) {
        for (const lang::Atom& a : rule.body) frontier.push_back(&a);
      }
    }
  }
  return seen;
}

void Render(const std::string& label,
            const Result<optimizer::OptimizerResult>& planned,
            std::string* out) {
  *out += "== " + label + "\n";
  if (!planned.ok()) {
    *out += "error: " + planned.status().ToString() + "\n";
    return;
  }
  *out += "winner: " + planned->best.description + "\n";
  *out += "total_estimation_ms: " + Num(planned->total_estimation_ms) + "\n";
  for (size_t i = 0; i < planned->candidates.size(); ++i) {
    const optimizer::CandidateSummary& summary = planned->candidates[i];
    const optimizer::CandidatePlan plan = planned->space.Materialize(i);
    *out += "- " + summary.description + " | ";
    if (summary.estimatable) {
      *out += "Tf=" + Num(summary.estimated.t_first_ms) +
              " Ta=" + Num(summary.estimated.t_all_ms) +
              " card=" + Num(summary.estimated.cardinality) +
              " est_ms=" + Num(summary.estimation_ms) + "\n";
    } else {
      *out += "not estimatable\n";
    }
    *out += "  " + plan.query.ToString() + "\n";
    std::set<std::pair<std::string, size_t>> reachable = Reachable(plan);
    for (const lang::Rule& rule : plan.program.rules) {
      if (reachable.count({rule.head.predicate, rule.head.args.size()})) {
        *out += "  " + rule.ToString() + "\n";
      }
    }
  }
}

const char* GoalName(optimizer::OptimizationGoal goal) {
  return goal == optimizer::OptimizationGoal::kAllAnswers ? "all" : "first";
}

TEST(CandidatesGolden, AppendixQueries) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  // Warm the DCSM as written, with and without the CIM, over a few frame
  // windows so estimates differ between orderings and variants.
  const std::pair<int, bool> queries[] = {{1, false}, {1, true}, {2, false},
                                          {2, true},  {3, false}, {4, false}};
  const std::pair<int64_t, int64_t> warm_windows[] = {
      {1, 50}, {30, 120}, {100, 400}};
  for (bool use_cim : {true, false}) {
    QueryOptions warm;
    warm.use_optimizer = false;
    warm.use_cim = use_cim;
    for (auto [first, last] : warm_windows) {
      for (auto [number, primed] : queries) {
        ASSERT_TRUE(
            med.Query(testbed::AppendixQuery(number, primed, first, last),
                      warm)
                .ok());
      }
    }
  }

  std::string out;
  const std::pair<int64_t, int64_t> windows[] = {{4, 47}, {10, 200}};
  for (auto [number, primed] : queries) {
    for (auto [first, last] : windows) {
      for (bool use_cim : {true, false}) {
        for (optimizer::OptimizationGoal goal :
             {optimizer::OptimizationGoal::kAllAnswers,
              optimizer::OptimizationGoal::kFirstAnswer}) {
          QueryOptions options;
          options.use_cim = use_cim;
          options.goal = goal;
          const std::string text =
              testbed::AppendixQuery(number, primed, first, last);
          Render(text + " cim=" + (use_cim ? "on" : "off") +
                     " goal=" + GoalName(goal),
                 med.Plan(text, options), &out);
        }
      }
    }
  }
  CompareGolden("candidates_appendix.txt", out);
}

TEST(CandidatesGolden, TopologyFanoutFour) {
  Mediator med;
  testbed::TopologyInfo info;
  ASSERT_TRUE(testbed::SetupOverloadTopology(&med, {}, &info).ok());
  // Fast-tier sites only (k mod 4 == 0), so the warm-up never fails.
  for (uint64_t k : {0u, 4u, 32u, 64u}) {
    ASSERT_TRUE(med.Query(testbed::TopologyQuery(info, k, 4), {}).ok());
  }

  std::string out;
  for (uint64_t k : {96u, 1u}) {
    for (optimizer::OptimizationGoal goal :
         {optimizer::OptimizationGoal::kAllAnswers,
          optimizer::OptimizationGoal::kFirstAnswer}) {
      QueryOptions options;
      options.goal = goal;
      const std::string text = testbed::TopologyQuery(info, k, 4);
      Render(text + " goal=" + GoalName(goal), med.Plan(text, options), &out);
    }
  }
  CompareGolden("candidates_topology.txt", out);
}

// Both caps bind: a fanout-6 query has 720 executable orderings, cut to
// max_orderings_per_body = 24, and two reorderable 4-goal rule bodies
// (24 × 24 orderings, times 2 query orders) are cut to max_plans = 128.
TEST(CandidatesGolden, TopologyCapsBind) {
  Mediator med;
  testbed::TopologyInfo info;
  ASSERT_TRUE(testbed::SetupOverloadTopology(&med, {}, &info).ok());
  for (uint64_t k : {0u, 4u, 8u, 36u}) {
    ASSERT_TRUE(med.Query(testbed::TopologyQuery(info, k, 4), {}).ok());
  }
  ASSERT_TRUE(med.LoadProgram(
                     "pa(A, B, C, D) :- in(A, s0:work(1)) & in(B, s4:work(2)) "
                     "& in(C, s8:work(3)) & in(D, s0:work(4)).\n"
                     "pb(E, F, G, H) :- in(E, s4:work(5)) & in(F, s0:work(6)) "
                     "& in(G, s8:work(7)) & in(H, s4:work(8)).\n")
                  .ok());

  std::string out;
  for (const std::string& text :
       {testbed::TopologyQuery(info, 96, 6),
        std::string("?- pa(A, B, C, D) & pb(E, F, G, H).")}) {
    for (optimizer::OptimizationGoal goal :
         {optimizer::OptimizationGoal::kAllAnswers,
          optimizer::OptimizationGoal::kFirstAnswer}) {
      QueryOptions options;
      options.goal = goal;
      Render(text + " goal=" + GoalName(goal), med.Plan(text, options), &out);
    }
  }
  CompareGolden("candidates_capped.txt", out);
}

}  // namespace
}  // namespace hermes
