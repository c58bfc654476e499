// Pooled queries with predicate first-answer statistics on. Each query's
// optimizer reads the predicate's observed statistics while other workers
// flush their own observations into the DCSM, so the read must take the
// DCSM's shared lock. This is a ThreadSanitizer workload (CI's chaos-tsan
// job builds and runs it): an unguarded read races with RecordBatch
// growing the same record group.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "engine/query_pool.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

constexpr const char* kBacktrackRule =
    "mismatched(F, L, Y) :- "
    "in(X, video:frames_to_objects('rope', F, L)) & "
    "in(T, relation:equal('cast', 'name', X)) & =(Y, T.role).";

TEST(PredicateStatsRaceTest, PooledQueriesReadObservedStatsUnderTheLock) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.enable_caching = false;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  ASSERT_TRUE(med.LoadProgram(kBacktrackRule).ok());
  med.estimator_params().use_predicate_first_answer_stats = true;

  // One observation up front, so every planning run finds the group.
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  ASSERT_TRUE(med.Query("?- mismatched(4, 47, Y).", direct).ok());

  QueryPoolOptions pool_options;
  pool_options.num_threads = 8;
  std::unique_ptr<QueryPool> pool = med.Serve(pool_options);
  QueryOptions optimized;
  optimized.use_cim = false;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool->Submit(
        "?- mismatched(4, " + std::to_string(40 + i % 8) + ", Y).",
        optimized));
  }
  for (std::future<Result<QueryResult>>& future : futures) {
    Result<QueryResult> res = future.get();
    ASSERT_TRUE(res.ok()) << res.status();
  }
  pool.reset();

  const std::vector<dcsm::CostRecord>* group = med.dcsm().database().GetGroup(
      dcsm::CallGroupKey{"idb", "mismatched", 3});
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->size(), 33u);
}

}  // namespace
}  // namespace hermes
