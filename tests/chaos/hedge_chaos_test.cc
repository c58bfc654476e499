// Chaos suite with hedged requests armed in the resilience layer while the
// canned fault plan batters a generated multi-tier topology through a
// concurrent QueryPool. On trial:
//
//   1. Liveness — every query terminates cleanly with hedging in the hot
//      path, and the faults actually drive it: stragglers and failures are
//      hedged, and some replicas beat their primaries.
//   2. Determinism — per-query outcomes, every hedge issue and hedge win
//      included, are bit-identical at 1, 4 and 8 worker threads, and match
//      tests/golden/hedge_chaos_outcomes.txt byte for byte. Latency rings
//      and hedge budgets live on the query's own CallContext, so
//      scheduling cannot change them.
//
// CI also runs this binary under ThreadSanitizer as part of the chaos
// stress job.

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "engine/query_pool.h"
#include "golden_file.h"
#include "testbed/topology.h"

namespace hermes {
namespace {

constexpr size_t kQueries = 64;

std::string CannedPlanPath() {
  return std::string(HERMES_TEST_SRCDIR) + "/chaos/hedge.faults";
}

/// One query's outcome as one golden row: status, answers, Ta at full
/// precision, the resilience counters, completeness, and every lost source
/// with its masked flag.
std::string Row(uint64_t id, const Result<QueryResult>& res) {
  char buf[512];
  if (!res.ok()) {
    std::snprintf(buf, sizeof(buf), "q=%llu ok=0 error=%s\n",
                  static_cast<unsigned long long>(id),
                  res.status().ToString().c_str());
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "q=%llu ok=1 answers=%zu t_all_ms=%.17g retries=%llu "
                "failovers=%llu hedges=%llu hedge_wins=%llu completeness=%s "
                "lost=",
                static_cast<unsigned long long>(id),
                res->execution.answers.size(), res->execution.t_all_ms,
                static_cast<unsigned long long>(res->metrics.retries),
                static_cast<unsigned long long>(res->metrics.failovers),
                static_cast<unsigned long long>(res->metrics.hedges),
                static_cast<unsigned long long>(res->metrics.hedge_wins),
                QueryCompletenessName(res->completeness));
  std::string row = buf;
  for (size_t i = 0; i < res->lost_sources.size(); ++i) {
    const SourceError& e = res->lost_sources[i];
    if (i > 0) row += ",";
    row += e.site + ":" + e.cause + ":" + (e.masked ? "masked" : "unmasked");
  }
  return row + "\n";
}

struct PoolRun {
  std::string rows;
  uint64_t failed = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t with_faults = 0;  ///< Queries that retried or failed over.
  std::string prometheus;
};

std::unique_ptr<Mediator> HedgeChaosMediator(testbed::TopologyInfo* info) {
  auto med = std::make_unique<Mediator>();
  resilience::ResiliencePolicy policy;
  policy.retry.max_retries = 1;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 3;
  policy.breaker.probe_interval = 1e9;  // no probe within a query
  policy.call_deadline_ms = 10000.0;  // abandons the 30s slow injections
  policy.hedge.enabled = true;
  policy.hedge.quantile = 0.5;
  policy.hedge.min_samples = 3;  // the ring fills within one scatter
  policy.hedge.budget_percent = 50.0;
  med->set_default_resilience_policy(policy);

  testbed::TopologyOptions topo;
  topo.num_sites = 8;  // two of each tier; replicas behind every slow tier
  EXPECT_TRUE(testbed::SetupOverloadTopology(med.get(), topo, info).ok());
  med->set_per_query_network_rng(true);
  med->set_async_execution(true);  // branches scatter from one instant
  EXPECT_TRUE(med->LoadFaultPlan(CannedPlanPath()).ok());
  return med;
}

PoolRun RunPool(size_t threads) {
  testbed::TopologyInfo info;
  std::unique_ptr<Mediator> med = HedgeChaosMediator(&info);
  QueryPoolOptions pool_options;
  pool_options.num_threads = threads;
  std::unique_ptr<QueryPool> pool = med->Serve(pool_options);
  QueryOptions options;
  options.use_optimizer = false;
  options.partial_results = true;
  // Shared DCSM writes would make the cold-ring baseline depend on which
  // queries completed first.
  options.record_statistics = false;
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    QueryOptions pinned = options;
    pinned.query_id = 1000 + i;
    futures.push_back(
        pool->Submit(testbed::TopologyQuery(info, i, /*fanout=*/8), pinned));
  }
  PoolRun run;
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<QueryResult> res = futures[i].get();
    run.rows += Row(1000 + i, res);
    if (!res.ok()) {
      ++run.failed;
      continue;
    }
    run.hedges += res->metrics.hedges;
    run.hedge_wins += res->metrics.hedge_wins;
    run.with_faults += (res->metrics.retries + res->metrics.failovers) > 0;
  }
  pool->Shutdown();
  run.prometheus = med->metrics().ExposePrometheus();
  return run;
}

TEST(HedgeChaosTest, EveryQueryTerminatesWithHedgingArmed) {
  PoolRun run = RunPool(8);
  EXPECT_EQ(run.failed, 0u) << run.rows;
  // The faults drove every hedge path: stragglers and failures hedged, at
  // least one replica beat its primary home, and resilience retried or
  // failed over where hedges could not help.
  EXPECT_GT(run.hedges, 0u);
  EXPECT_GT(run.hedge_wins, 0u);
  EXPECT_GT(run.with_faults, 0u);
  EXPECT_NE(run.prometheus.find("hermes_hedge_issued_total"),
            std::string::npos);
}

TEST(HedgeChaosTest, OutcomesMatchTheGoldenAtEveryThreadCount) {
  const std::string serial = RunPool(1).rows;
  testing_golden::CompareGolden("hedge_chaos_outcomes.txt", serial);
  EXPECT_EQ(serial, RunPool(4).rows) << "4 threads diverged from 1";
  EXPECT_EQ(serial, RunPool(8).rows) << "8 threads diverged from 1";
}

}  // namespace
}  // namespace hermes
