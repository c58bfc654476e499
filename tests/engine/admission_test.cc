// QueryPool admission: the pool is one bounded FIFO, and a submission
// that finds it full is refused with a typed kResourceExhausted carrying
// the queue's depth and capacity.
//
// Service pacing stretches each query's simulated latency into real worker
// occupancy, so the test creates genuine backlog and asserts on typed
// outcomes, never on exact timings.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "engine/query_pool.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

std::string FramesQuery(int first, int last) {
  return "?- in(O, video:frames_to_objects('rope', " + std::to_string(first) +
         ", " + std::to_string(last) + ")).";
}

QueryOptions RawQuery() {
  QueryOptions q;
  q.use_optimizer = false;
  return q;
}

std::unique_ptr<Mediator> PacedMediator(double pacing) {
  auto med = std::make_unique<Mediator>();
  EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), {}).ok());
  med->set_service_pacing(pacing);
  return med;
}

TEST(AdmissionTest, FullQueueRejectionIsTypedWithQueueContext) {
  std::unique_ptr<Mediator> med = PacedMediator(0.05);
  QueryPoolOptions pool_options;
  pool_options.num_threads = 1;
  pool_options.queue_capacity = 1;
  std::unique_ptr<QueryPool> pool = med->Serve(pool_options);

  // Occupy the worker, fill the 1-slot queue, then overflow it.
  std::future<Result<QueryResult>> blocker =
      pool->Submit(FramesQuery(300, 900), RawQuery());
  std::vector<std::future<Result<QueryResult>>> accepted;
  Status refused = Status::OK();
  for (int i = 0; i < 3 && refused.ok(); ++i) {
    std::future<Result<QueryResult>> out;
    refused = pool->TrySubmit(FramesQuery(4, 20 + i),
                              RawQuery(), &out);
    if (refused.ok()) accepted.push_back(std::move(out));
  }
  ASSERT_FALSE(refused.ok()) << "queue never filled";
  EXPECT_TRUE(refused.IsResourceExhausted()) << refused;
  // The status carries the queue's depth and capacity at rejection time.
  EXPECT_NE(refused.ToString().find("submission queue full: depth 1/1"),
            std::string::npos)
      << refused;
  EXPECT_GT(pool->stats().rejected, 0u);
  std::string prom = med->metrics().ExposePrometheus();
  EXPECT_NE(prom.find("hermes_pool_rejected_total"), std::string::npos);
  EXPECT_NE(prom.find("reason=\"full\""), std::string::npos);
  EXPECT_NE(prom.find("hermes_pool_queue_depth"), std::string::npos);
  ASSERT_TRUE(blocker.get().ok());
  for (auto& f : accepted) EXPECT_TRUE(f.get().ok());
}

}  // namespace
}  // namespace hermes
