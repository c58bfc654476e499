// Optimizer tour: watch the cost-based optimizer enumerate rewritings of
// one query (subgoal reorderings, selection push-down, CIM redirection),
// price them against the statistics cache, and converge on the cheap plan
// as the DCSM learns — the paper's Sections 5–7 in one run.
//
// Build & run:  ./build/examples/optimizer_tour

#include <cstdio>

#include "engine/mediator.h"
#include "testbed/scenario.h"

using namespace hermes;

int main() {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::UsaSite("umd");
  options.sites.relation_site = net::UsaSite("cornell");
  if (!testbed::SetupRopeScenario(&med, options).ok()) return 1;

  // Part 1: selection push-down. A scan-then-filter query is rewritten to
  // call the source's select function directly (the paper's query4→query3
  // transformation).
  const std::string scan_query =
      "?- in(P, relation:all('cast')) & =(P.role, 'rupert') & =(A, P.name).";
  std::printf("push-down demo: %s\n", scan_query.c_str());
  Result<optimizer::OptimizerResult> pushed =
      med.Plan(scan_query, QueryOptions{});
  if (pushed.ok()) {
    std::printf("  chosen plan [%s]:\n    %s\n",
                pushed->best.description.c_str(),
                pushed->best.query.ToString().c_str());
  }

  // Part 2: plan enumeration + cost-based learning on the appendix's
  // query4 (whose filter binds a join variable, so it cannot be pushed —
  // reordering and CIM redirection are the optimizer's levers instead).
  const std::string query = testbed::AppendixQuery(4, false, 4, 127);
  std::printf("\nquery: %s\n", query.c_str());

  for (int round = 1; round <= 4; ++round) {
    Result<optimizer::OptimizerResult> plan = med.Plan(query, QueryOptions{});
    if (!plan.ok()) {
      std::printf("plan error: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    std::printf("\n-- round %d: %zu candidate plans\n", round,
                plan->candidates.size());
    // Show the cheapest few candidates.
    std::vector<const optimizer::CandidateSummary*> ranked;
    for (const optimizer::CandidateSummary& c : plan->candidates) {
      if (c.estimatable) ranked.push_back(&c);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const optimizer::CandidateSummary* a,
                 const optimizer::CandidateSummary* b) {
                return a->estimated.t_all_ms < b->estimated.t_all_ms;
              });
    for (size_t i = 0; i < ranked.size() && i < 4; ++i) {
      std::printf("   %zu. %-24s predicted Ta=%8.0fms Tf=%7.0fms Card=%5.1f\n",
                  i + 1, ranked[i]->description.c_str(),
                  ranked[i]->estimated.t_all_ms,
                  ranked[i]->estimated.t_first_ms,
                  ranked[i]->estimated.cardinality);
    }

    Result<QueryResult> res = med.Query(query, QueryOptions{});
    if (!res.ok()) {
      std::printf("query error: %s\n", res.status().ToString().c_str());
      return 1;
    }
    std::printf("   executed [%s]: actual Ta=%8.0fms Tf=%7.0fms, "
                "%zu answers, %llu calls\n",
                res->plan_description.c_str(), res->execution.t_all_ms,
                res->execution.t_first_ms, res->execution.answers.size(),
                (unsigned long long)res->execution.domain_calls);
    if (res->predicted_valid) {
      double err = res->execution.t_all_ms > 0
                       ? 100.0 *
                             (res->predicted.t_all_ms -
                              res->execution.t_all_ms) /
                             res->execution.t_all_ms
                       : 0.0;
      std::printf("   prediction error for the chosen plan: %+.0f%%\n", err);
    }
  }

  std::printf("\nstatistics cache: %zu cost-vector records across %zu call "
              "groups\n",
              med.dcsm().database().TotalRecords(),
              med.dcsm().database().Groups().size());
  return 0;
}
