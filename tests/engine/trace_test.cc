#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "engine/mediator.h"
#include "lang/parser.h"
#include "obs/trace.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

TEST(TraceTest, OffByDefault) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::LocalSite();
  options.sites.relation_site = net::LocalSite();
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), QueryOptions{});
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->execution.trace.empty());
}

TEST(TraceTest, OptimizeSpanBracketsThePlanningWork) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  obs::Tracer tracer;
  QueryOptions qo;
  qo.tracer = &tracer;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), qo);
  ASSERT_TRUE(res.ok()) << res.status();

  const obs::Span* optimize = nullptr;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name == "optimize") optimize = &span;
  }
  ASSERT_NE(optimize, nullptr);
  ASSERT_NE(optimize->parent, 0u);
  const obs::Span& query = tracer.spans()[optimize->parent - 1];
  EXPECT_EQ(query.name, "query");
  EXPECT_GE(optimize->wall_begin_us, query.wall_begin_us);
  EXPECT_LE(optimize->wall_end_us, query.wall_end_us);
  // Opened before the optimizer runs, so the rewrite and estimation show
  // up as the span's own wall time: a sizable share of what planning the
  // same query costs on its own (a span stamped after the optimizer
  // returned lasts a few bookkeeping calls).
  double plan_us = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 5; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(med.Plan(testbed::AppendixQuery(3, false, 4, 47), {}).ok());
    plan_us = std::min(
        plan_us, std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  EXPECT_GT(optimize->wall_end_us - optimize->wall_begin_us, plan_us / 4);
  // Simulated clock: from 0 to the optimizer's DCSM lookup time.
  EXPECT_DOUBLE_EQ(optimize->sim_begin_ms, 0.0);
  EXPECT_DOUBLE_EQ(optimize->sim_end_ms, res->optimize_ms);
}

TEST(TraceTest, RecordsEveryCallInPipelineOrder) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::LocalSite();
  options.sites.relation_site = net::LocalSite();
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  QueryOptions qo;
  qo.use_optimizer = false;
  qo.use_cim = false;
  qo.collect_trace = true;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), qo);
  ASSERT_TRUE(res.ok()) << res.status();
  const std::vector<engine::CallTrace>& trace = res->execution.trace;
  ASSERT_EQ(trace.size(), res->execution.domain_calls);
  // The first call is the frames_to_objects sweep; each relation probe
  // follows, with non-decreasing pipeline start times.
  EXPECT_EQ(trace[0].call.function, "frames_to_objects");
  double prev = -1.0;
  for (const engine::CallTrace& t : trace) {
    EXPECT_FALSE(t.failed);
    EXPECT_GE(t.t_start_ms, prev);
    prev = t.t_start_ms;
    EXPECT_FALSE(t.ToString().empty());
  }
  // 1 video call + one relation call per object in [4,47].
  EXPECT_EQ(trace.size(), 8u);
}

TEST(TraceTest, RecordsFailures) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site.availability = 0.0;
  options.enable_caching = false;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  QueryOptions qo;
  qo.use_optimizer = false;
  qo.use_cim = false;
  qo.collect_trace = true;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(1, true, 4, 47), qo);
  EXPECT_TRUE(res.status().IsUnavailable());
  // The trace lives in the (failed) execution, which Result discards —
  // so failure tracing is exercised at the executor level instead.
  engine::Executor executor(&med.registry(), nullptr,
                            [] {
                              engine::ExecutorOptions o;
                              o.collect_trace = true;
                              return o;
                            }());
  Result<lang::Query> query = lang::Parser::ParseQuery(
      "?- in(O, video:frames_to_objects('rope', 4, 47)).");
  ASSERT_TRUE(query.ok());
  Result<engine::QueryExecution> exec =
      executor.Execute(med.program(), *query);
  EXPECT_TRUE(exec.status().IsUnavailable());
}

TEST(TraceTest, TraceShowsCimServingFromCache) {
  Mediator med;
  ASSERT_TRUE(
      testbed::SetupRopeScenario(&med, testbed::RopeScenarioOptions{}).ok());
  QueryOptions qo;
  qo.use_optimizer = false;
  qo.use_cim = true;
  qo.collect_trace = true;
  std::string query = testbed::AppendixQuery(1, true, 4, 47);
  ASSERT_TRUE(med.Query(query, qo).ok());  // warm
  Result<QueryResult> warm = med.Query(query, qo);
  ASSERT_TRUE(warm.ok());
  ASSERT_FALSE(warm->execution.trace.empty());
  // Calls route to the CIM wrapper and return in ~cache time.
  EXPECT_EQ(warm->execution.trace[0].call.domain, "cim_video");
  EXPECT_LT(warm->execution.trace[0].all_ms, 10.0);
}

}  // namespace
}  // namespace hermes
