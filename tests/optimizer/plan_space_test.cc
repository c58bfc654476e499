// The optimizer costs each candidate in place, walking the plan space's
// ordering indexes with one memo per run. These tests pin that this is
// only a faster way to get the same numbers: every candidate's estimate
// and simulated estimation time equal, bit for bit, those of the
// materialized candidate costed on its own with a fresh memo, and the
// winner is the one that materializing every candidate and then picking
// would choose.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace hermes {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

size_t CountCimCalls(const optimizer::CandidatePlan& plan) {
  size_t count = 0;
  auto count_body = [&count](const std::vector<lang::Atom>& atoms) {
    for (const lang::Atom& atom : atoms) {
      if (atom.is_domain_call() && atom.call.domain.rfind("cim_", 0) == 0) {
        ++count;
      }
    }
  };
  count_body(plan.query.goals);
  for (const lang::Rule& rule : plan.program.rules) count_body(rule.body);
  return count;
}

/// Plans `text` through the mediator and checks every candidate against
/// its materialized plan costed alone, then the winner against a
/// materialize-everything-then-pick selection.
void ExpectInPlaceMatchesMaterialized(Mediator& med, const std::string& text,
                                      const QueryOptions& options) {
  SCOPED_TRACE(text);
  Result<optimizer::OptimizerResult> planned = med.Plan(text, options);
  ASSERT_TRUE(planned.ok()) << planned.status();
  const optimizer::PlanSpace& space = planned->space;
  ASSERT_EQ(planned->candidates.size(), space.size());
  optimizer::RuleCostEstimator estimator(&med.dcsm(), med.estimator_params());

  std::vector<optimizer::CandidatePlan> plans;
  double total = 0.0;
  for (size_t i = 0; i < space.size(); ++i) {
    const optimizer::CandidateSummary& summary = planned->candidates[i];
    optimizer::CandidatePlan plan = space.Materialize(i);
    EXPECT_EQ(plan.description, summary.description);
    Result<optimizer::RuleCostEstimator::Estimate> alone =
        estimator.EstimatePlan(plan);
    ASSERT_EQ(alone.ok(), summary.estimatable) << summary.description;
    if (alone.ok()) {
      plan.estimated = alone->cost;
      plan.estimation_ms = alone->estimation_ms;
      plan.estimatable = true;
      EXPECT_EQ(Bits(summary.estimated.t_first_ms),
                Bits(alone->cost.t_first_ms))
          << summary.description;
      EXPECT_EQ(Bits(summary.estimated.t_all_ms), Bits(alone->cost.t_all_ms))
          << summary.description;
      EXPECT_EQ(Bits(summary.estimated.cardinality),
                Bits(alone->cost.cardinality))
          << summary.description;
      EXPECT_EQ(Bits(summary.estimation_ms), Bits(alone->estimation_ms))
          << summary.description;
      total += alone->estimation_ms;
    }
    plans.push_back(std::move(plan));
  }
  EXPECT_EQ(Bits(planned->total_estimation_ms), Bits(total));

  // Materialize everything, then pick: cheapest for the goal, ties (within
  // the relative band) broken toward more CIM-redirected calls.
  int best = -1;
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!plans[i].estimatable) continue;
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const bool all = options.goal == optimizer::OptimizationGoal::kAllAnswers;
    const double ka = all ? plans[i].estimated.t_all_ms
                          : plans[i].estimated.t_first_ms;
    const double kb = all ? plans[best].estimated.t_all_ms
                          : plans[best].estimated.t_first_ms;
    const double band = 1e-9 * std::max({1.0, ka, kb});
    if (ka < kb - band ||
        (ka <= kb + band &&
         CountCimCalls(plans[i]) > CountCimCalls(plans[best]))) {
      best = static_cast<int>(i);
    }
  }
  ASSERT_GE(best, 0);
  EXPECT_EQ(planned->best_index, static_cast<size_t>(best));
  EXPECT_EQ(planned->best.ToString(), plans[best].ToString());
  EXPECT_EQ(Bits(planned->best.estimated.t_all_ms),
            Bits(plans[best].estimated.t_all_ms));
}

const optimizer::OptimizationGoal kGoals[] = {
    optimizer::OptimizationGoal::kAllAnswers,
    optimizer::OptimizationGoal::kFirstAnswer};

/// The rope scenario with its DCSM warmed as written, with and without the
/// CIM, so estimates differ between orderings and variants.
void WarmRope(Mediator* med) {
  ASSERT_TRUE(testbed::SetupRopeScenario(med, {}).ok());
  for (bool use_cim : {true, false}) {
    QueryOptions warm;
    warm.use_optimizer = false;
    warm.use_cim = use_cim;
    for (int number = 1; number <= 4; ++number) {
      for (bool primed : {false, true}) {
        if (primed && number > 2) continue;
        ASSERT_TRUE(
            med->Query(testbed::AppendixQuery(number, primed, 20, 300), warm)
                .ok());
      }
    }
  }
}

TEST(PlanSpaceTest, AppendixQueriesCostInPlaceAsMaterialized) {
  Mediator med;
  WarmRope(&med);
  for (int number = 1; number <= 4; ++number) {
    for (bool primed : {false, true}) {
      if (primed && number > 2) continue;
      for (bool use_cim : {true, false}) {
        for (optimizer::OptimizationGoal goal : kGoals) {
          QueryOptions options;
          options.use_cim = use_cim;
          options.goal = goal;
          ExpectInPlaceMatchesMaterialized(
              med, testbed::AppendixQuery(number, primed, 4, 47), options);
        }
      }
    }
  }
}

TEST(PlanSpaceTest, TopologyFanoutOneToSixCostsInPlaceAsMaterialized) {
  Mediator med;
  testbed::TopologyInfo info;
  ASSERT_TRUE(testbed::SetupOverloadTopology(&med, {}, &info).ok());
  for (uint64_t k : {0u, 4u, 8u}) {
    ASSERT_TRUE(med.Query(testbed::TopologyQuery(info, k, 4), {}).ok());
  }
  for (size_t fanout = 1; fanout <= 6; ++fanout) {
    for (optimizer::OptimizationGoal goal : kGoals) {
      QueryOptions options;
      options.goal = goal;
      ExpectInPlaceMatchesMaterialized(
          med, testbed::TopologyQuery(info, 96, fanout), options);
    }
  }
}

TEST(PlanSpaceTest, PushDownProgramCostsInPlaceAsMaterialized) {
  Mediator med;
  WarmRope(&med);
  ASSERT_TRUE(med.LoadProgram(
                     "pushed(Name, Other) :- in(P, relation:all('cast')) & "
                     "=(P.role, 'rupert') & =(Name, P.name) & "
                     "in(Q, relation:all('cast')) & <(Q.role, 'm') & "
                     "=(Other, Q.name).\n")
                  .ok());
  const std::string text = "?- pushed(Name, Other).";
  Result<optimizer::OptimizerResult> planned = med.Plan(text, {});
  ASSERT_TRUE(planned.ok()) << planned.status();
  bool pushdown = false;
  for (const optimizer::CandidateSummary& c : planned->candidates) {
    pushdown = pushdown || c.description.rfind("pushdown", 0) == 0;
  }
  EXPECT_TRUE(pushdown) << "no push-down variant was generated";
  for (bool use_cim : {true, false}) {
    for (optimizer::OptimizationGoal goal : kGoals) {
      QueryOptions options;
      options.use_cim = use_cim;
      options.goal = goal;
      ExpectInPlaceMatchesMaterialized(med, text, options);
    }
  }
}

TEST(PlanSpaceTest, NestedPredicateProgramCostsInPlaceAsMaterialized) {
  Mediator med;
  WarmRope(&med);
  // Two rule levels, a predicate defined by two rules, a head constant
  // that rules one of them out for some calls, and an infeasible ordering
  // (the inner call's argument free) among the candidates.
  ASSERT_TRUE(med.LoadProgram(R"(
    objects(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).
    actor(O, A) :- in(T, relation:equal('cast', role, O)) & =(A, T.name).
    actor('nobody', A) :- =(A, 'none').
    scene(F, L, O, A, S) :- objects(F, L, O) & actor(O, A) &
        in(S, video:video_size('rope')).
  )")
                  .ok());
  for (const std::string& text :
       {std::string("?- scene(4, 47, O, A, S)."),
        std::string("?- actor(O, A) & objects(10, 200, O).")}) {
    for (bool use_cim : {true, false}) {
      for (optimizer::OptimizationGoal goal : kGoals) {
        QueryOptions options;
        options.use_cim = use_cim;
        options.goal = goal;
        ExpectInPlaceMatchesMaterialized(med, text, options);
      }
    }
  }
}

}  // namespace
}  // namespace hermes
