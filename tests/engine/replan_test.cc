// Mid-query re-optimization end to end: a breaker opening on a suffix
// goal's site makes the executing join splice in a CIM-redirected subtree,
// the EXPLAIN carries the replanned@ marker with the before/after suffix,
// and the hermes_replan_* counters and diagnostics bundles record the
// decision. Golden test at the bottom pins the replanned EXPLAIN; after an
// intentional format change regenerate with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/engine_replan_test

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "engine/mediator.h"
#include "golden_file.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

// The appendix queries are single rule-predicate goals, whose bodies
// execute inside one RulePredicateOp — nothing for the top-level spine to
// replan. The flattened form exposes the goal chain to the spine: the
// video call (umd) feeds per-object relation lookups (cornell), so killing
// cornell mid-join leaves an unexecuted suffix worth re-planning.
const char kFlattenedQuery[] =
    "?- in(Object, video:frames_to_objects('rope', 4, 47)) & "
    "in(T, relation:equal('cast', role, Object)) & =(Actor, T.name).";

std::unique_ptr<Mediator> RopeMediator() {
  auto med = std::make_unique<Mediator>();
  EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), {}).ok());
  return med;
}

QueryOptions DirectQuery() {
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;  // replan's redirect must be the one adding CIM
  options.partial_results = true;
  options.explain = true;
  return options;
}

/// Warms the CIM wrappers (so the redirect target has answers), then kills
/// the relation site and arms a hair-trigger breaker on it.
void WarmCimThenKillRelationSite(Mediator* med) {
  QueryOptions warm;
  warm.use_optimizer = false;
  warm.use_cim = true;
  Result<QueryResult> warmed = med->Query(kFlattenedQuery, warm);
  ASSERT_TRUE(warmed.ok()) << warmed.status();
  ASSERT_FALSE(warmed->execution.answers.empty());

  med->remote_link("relation")->mutable_site().availability = 0.0;
  resilience::ResiliencePolicy policy;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 2;
  policy.breaker.probe_interval = 1e9;  // no half-open probe mid-query
  ASSERT_TRUE(med->SetResiliencePolicy("relation", policy).ok());
}

TEST(ReplanTest, BreakerOpenSplicesCimRedirectIntoTheRunningJoin) {
  std::unique_ptr<Mediator> med = RopeMediator();
  // Diagnostics wires the flight recorder the kReplan event lands in.
  ASSERT_TRUE(med->EnableDiagnostics({}).ok());
  WarmCimThenKillRelationSite(med.get());

  engine::op::ReplanOptions replan;
  replan.enabled = true;
  med->set_replan_options(replan);

  Result<QueryResult> res = med->Query(kFlattenedQuery, DirectQuery());
  ASSERT_TRUE(res.ok()) << res.status();

  // The replan fired on the breaker and redirected the suffix to the CIM.
  ASSERT_EQ(res->replan_events.size(), 1u);
  const engine::op::ReplanEvent& ev = res->replan_events[0];
  EXPECT_NE(ev.trigger.find("breaker_open"), std::string::npos) << ev.trigger;
  EXPECT_NE(ev.trigger.find("site=cornell"), std::string::npos) << ev.trigger;
  EXPECT_NE(ev.trigger.find("domain=relation"), std::string::npos);
  EXPECT_NE(ev.old_suffix.find("relation:equal"), std::string::npos);
  EXPECT_NE(ev.new_suffix.find("cim_relation:equal"), std::string::npos);

  // The join rows issued before the breaker opened lost their source; every
  // row after the splice was answered from the warmed CIM.
  EXPECT_FALSE(res->execution.answers.empty());
  EXPECT_NE(res->completeness, QueryCompleteness::kComplete);

  // EXPLAIN shows which operator was replanned, plus the decision record.
  EXPECT_NE(res->explain_text.find("replanned@cim_relation:equal"),
            std::string::npos)
      << res->explain_text;
  EXPECT_NE(res->explain_text.find("trigger=breaker_open"), std::string::npos);

  // Observability: counters moved and the per-query flight stream has the
  // replan event.
  std::string prom = med->metrics().ExposePrometheus();
  EXPECT_NE(prom.find("hermes_replan_triggers_total 1"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hermes_replan_splices_total 1"), std::string::npos);
  bool saw_replan_event = false;
  for (const obs::FlightEvent& fe :
       med->flight_recorder()->SnapshotQuery(res->query_id)) {
    if (fe.kind == obs::FlightEventKind::kReplan) saw_replan_event = true;
  }
  EXPECT_TRUE(saw_replan_event);
}

TEST(ReplanTest, DisabledByDefaultEvenUnderAnOpenBreaker) {
  std::unique_ptr<Mediator> med = RopeMediator();
  WarmCimThenKillRelationSite(med.get());

  Result<QueryResult> res = med->Query(kFlattenedQuery, DirectQuery());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_TRUE(res->replan_events.empty());
  EXPECT_EQ(res->explain_text.find("replanned@"), std::string::npos);
  // Without the replan every per-row relation call is shed by the breaker:
  // the join streams zero answers.
  EXPECT_TRUE(res->execution.answers.empty());
  std::string prom = med->metrics().ExposePrometheus();
  EXPECT_NE(prom.find("hermes_replan_triggers_total 0"), std::string::npos);
}

TEST(ReplanTest, MaxReplansBoundsSplicesPerQuery) {
  std::unique_ptr<Mediator> med = RopeMediator();
  WarmCimThenKillRelationSite(med.get());

  engine::op::ReplanOptions replan;
  replan.enabled = true;
  replan.max_replans = 0;  // armed but budgetless: must behave as disabled
  med->set_replan_options(replan);

  Result<QueryResult> res = med->Query(kFlattenedQuery, DirectQuery());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_TRUE(res->replan_events.empty());
  EXPECT_TRUE(res->execution.answers.empty());
}

TEST(ReplanTest, DiagnosticsBundleCapturesTheReplanDecision) {
  std::unique_ptr<Mediator> med = RopeMediator();

  DiagnosticsOptions diag;
  // Isolate the replan capture reason from the breaker-open one (which is
  // checked first and would otherwise claim this bundle).
  diag.capture_on_breaker_open = false;
  diag.capture_on_partial = false;
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "replan_bundles";
  std::filesystem::remove_all(dir);
  diag.bundle_dir = dir.string();
  ASSERT_TRUE(med->EnableDiagnostics(diag).ok());

  WarmCimThenKillRelationSite(med.get());
  engine::op::ReplanOptions replan;
  replan.enabled = true;
  med->set_replan_options(replan);

  Result<QueryResult> res = med->Query(kFlattenedQuery, DirectQuery());
  ASSERT_TRUE(res.ok()) << res.status();
  ASSERT_FALSE(res->replan_events.empty());

  std::vector<DebugBundle> bundles = med->diagnostics()->bundles();
  ASSERT_EQ(bundles.size(), 1u);
  const DebugBundle& bundle = bundles[0];
  EXPECT_EQ(bundle.reason, "replan");
  EXPECT_NE(bundle.replan_text.find("trigger=breaker_open"),
            std::string::npos);
  EXPECT_NE(bundle.replan_text.find("cim_relation:equal"), std::string::npos);
  EXPECT_NE(bundle.explain_text.find("replanned@"), std::string::npos);
  // Persisted alongside the other components, and listed in the manifest.
  EXPECT_TRUE(
      std::filesystem::exists(std::filesystem::path(bundle.dir) /
                              "replan.txt"));
  EXPECT_NE(bundle.ManifestJson().find("\"replan\":\"replan.txt\""),
            std::string::npos);
}

// ---- Golden: the replanned EXPLAIN rendering ------------------------------

using testing_golden::CompareGolden;

TEST(ReplanGolden, BreakerRedirectExplain) {
  std::unique_ptr<Mediator> med = RopeMediator();
  WarmCimThenKillRelationSite(med.get());
  engine::op::ReplanOptions replan;
  replan.enabled = true;
  med->set_replan_options(replan);

  QueryOptions options = DirectQuery();
  options.query_id = 42;  // pin the id so the explain header is stable
  Result<QueryResult> res = med->Query(kFlattenedQuery, options);
  ASSERT_TRUE(res.ok()) << res.status();
  ASSERT_FALSE(res->replan_events.empty());
  CompareGolden("explain_replanned_breaker.txt", res->explain_text);
}

}  // namespace
}  // namespace hermes
