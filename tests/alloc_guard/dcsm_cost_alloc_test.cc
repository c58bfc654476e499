// Allocation budget of a warm Dcsm::Cost. The raw-database path answers
// each lattice point from the group's aggregate index, so the number of
// heap allocations per estimate must not grow with the number of recorded
// executions, and a lattice point that matches nothing builds no status
// text.

#include <gtest/gtest.h>

#include <string>

#include "alloc_guard.h"
#include "dcsm/dcsm.h"
#include "lang/parser.h"

namespace hermes::dcsm {
namespace {

void Load(Dcsm* dcsm, size_t records) {
  for (size_t i = 0; i < records; ++i) {
    const auto a = static_cast<int64_t>(i % 16);
    const auto b = static_cast<int64_t>(i % 5);
    dcsm->RecordExecution(
        DomainCall{"d", "f", {Value::Int(a), Value::Int(b)}},
        CostVector(10, 100.0 * static_cast<double>(a + 1), 5));
  }
}

/// Heap allocations of one warm Cost call (indexes already built).
size_t WarmCostAllocs(const Dcsm& dcsm, const std::string& text) {
  Result<lang::DomainCallSpec> pattern = lang::Parser::ParseCallPattern(text);
  EXPECT_TRUE(pattern.ok()) << pattern.status();
  EXPECT_TRUE(dcsm.Cost(*pattern).ok());
  ::hermes::testing::AllocCounterScope scope;
  Result<CostEstimate> est = dcsm.Cost(*pattern);
  const size_t count = scope.count();
  EXPECT_TRUE(est.ok());
  EXPECT_EQ(est->source, "raw") << text;
  return count;
}

TEST(DcsmCostAllocTest, WarmCostAllocatesTheSameAtAnyGroupSize) {
  Dcsm small;
  Load(&small, 100);
  Dcsm large;
  Load(&large, 25600);
  // Direct hits, a miss relaxed to one constant, and three misses relaxed
  // to none.
  for (const char* text : {"d:f(3, $b)", "d:f(3, 4)", "d:f(3, 999)",
                           "d:f(999, 999)"}) {
    EXPECT_EQ(WarmCostAllocs(small, text), WarmCostAllocs(large, text))
        << text;
  }
}

TEST(DcsmCostAllocTest, LatticeMissesAllocateNothing) {
  Dcsm dcsm;
  Load(&dcsm, 1600);
  // Same constant count, so the same per-call bookkeeping; the second
  // pattern misses three lattice points before the fully relaxed one.
  EXPECT_EQ(WarmCostAllocs(dcsm, "d:f(3, 4)"),
            WarmCostAllocs(dcsm, "d:f(999, 999)"));
}

}  // namespace
}  // namespace hermes::dcsm
