// Allocation budget of the per-query front end on the fanout-4 topology
// query (perfbench's fanout_miss shape): parsing the query text, and
// rewriting it into its plan space (one variant, 24 goal orderings).

#include <gtest/gtest.h>

#include <string>

#include "alloc_guard.h"
#include "lang/parser.h"
#include "optimizer/rewriter.h"
#include "testbed/topology.h"

namespace hermes {
namespace {

std::string FanoutQuery() {
  testbed::TopologyInfo topology;
  for (int site = 0; site < 32; ++site) {
    topology.domains.push_back("s" + std::to_string(site));
  }
  return testbed::TopologyQuery(topology, 96, 4);
}

TEST(FrontEndAllocTest, ParseQueryOfTheFanoutQuery) {
  const std::string text = FanoutQuery();
  ::hermes::testing::AllocCounterScope scope;
  Result<lang::Query> query = lang::Parser::ParseQuery(text);
  const size_t count = scope.count();
  ASSERT_TRUE(query.ok()) << query.status();
  ASSERT_EQ(query->goals.size(), 4u);
  EXPECT_LE(count, 7u) << "ParseQuery performed " << count
                        << " heap allocations";
}

TEST(FrontEndAllocTest, RewriteOfTheFanoutQuery) {
  Result<lang::Query> query = lang::Parser::ParseQuery(FanoutQuery());
  ASSERT_TRUE(query.ok()) << query.status();
  const lang::Program program;
  const optimizer::RuleRewriter::Options options;
  ::hermes::testing::AllocCounterScope scope;
  Result<optimizer::PlanSpace> space =
      optimizer::RuleRewriter::Rewrite(program, *query, options);
  const size_t count = scope.count();
  ASSERT_TRUE(space.ok()) << space.status();
  ASSERT_EQ(space->size(), 24u);
  EXPECT_LE(count, 36u) << "Rewrite performed " << count
                        << " heap allocations";
}

}  // namespace
}  // namespace hermes
