// PlanCompiler + EXPLAIN: structural checks of the lowered operator tree
// and golden-file tests of the EXPLAIN rendering for the paper's appendix
// queries over the rope testbed. Regenerate goldens after an intentional
// format change with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/optimizer_plan_compiler_test

#include <gtest/gtest.h>

#include <string>

#include "engine/mediator.h"
#include "golden_file.h"
#include "optimizer/plan_compiler.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

using testing_golden::CompareGolden;

struct RopeFixture {
  Mediator med;

  RopeFixture() {
    EXPECT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  }
};

TEST(PlanCompilerTest, CompiledPlanExposesTreeAndPlan) {
  RopeFixture fx;
  Result<optimizer::OptimizerResult> planned =
      fx.med.Plan(testbed::AppendixQuery(3, false, 4, 47), {});
  ASSERT_TRUE(planned.ok()) << planned.status();

  optimizer::PlanCompiler compiler(&fx.med.dcsm());
  optimizer::CompiledPlan compiled = compiler.Compile(planned->best);
  EXPECT_EQ(compiled.plan().description, planned->best.description);
  ASSERT_NE(compiled.tree().root, nullptr);
  EXPECT_EQ(compiled.tree().root->kind(),
            engine::op::OpKind::kAnswerSink);

  std::string text = compiled.Explain();
  EXPECT_NE(text.find("plan: "), std::string::npos);
  EXPECT_NE(text.find("AnswerSink"), std::string::npos);
  // Moving the compiled plan keeps the tree's borrowed pointers valid.
  optimizer::CompiledPlan moved = std::move(compiled);
  EXPECT_EQ(moved.Explain(), text);
}

TEST(PlanCompilerTest, CimRedirectionIsPlanVisible) {
  RopeFixture fx;
  QueryOptions as_written;
  as_written.use_optimizer = false;
  Result<std::string> with_cim =
      fx.med.Explain(testbed::AppendixQuery(3, false, 4, 47), as_written);
  ASSERT_TRUE(with_cim.ok()) << with_cim.status();
  EXPECT_NE(with_cim->find("cim_video:"), std::string::npos) << *with_cim;
  EXPECT_NE(with_cim->find(", cim"), std::string::npos) << *with_cim;

  as_written.use_cim = false;
  Result<std::string> direct =
      fx.med.Explain(testbed::AppendixQuery(3, false, 4, 47), as_written);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->find("cim_video:"), std::string::npos) << *direct;
  EXPECT_EQ(direct->find(", cim"), std::string::npos) << *direct;
}

TEST(PlanCompilerGolden, AppendixQuery3AsWritten) {
  RopeFixture fx;
  QueryOptions options;
  options.use_optimizer = false;
  Result<std::string> text =
      fx.med.Explain(testbed::AppendixQuery(3, false, 4, 47), options);
  ASSERT_TRUE(text.ok()) << text.status();
  CompareGolden("explain_query3_as_written.txt", *text);
}

TEST(PlanCompilerGolden, AppendixQuery1AsWritten) {
  RopeFixture fx;
  QueryOptions options;
  options.use_optimizer = false;
  Result<std::string> text =
      fx.med.Explain(testbed::AppendixQuery(1, false, 4, 47), options);
  ASSERT_TRUE(text.ok()) << text.status();
  CompareGolden("explain_query1_as_written.txt", *text);
}

TEST(PlanCompilerGolden, AppendixQuery2NoCim) {
  RopeFixture fx;
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;
  Result<std::string> text =
      fx.med.Explain(testbed::AppendixQuery(2, false, 4, 47), options);
  ASSERT_TRUE(text.ok()) << text.status();
  CompareGolden("explain_query2_no_cim.txt", *text);
}

TEST(PlanCompilerGolden, AppendixQuery3Optimized) {
  // Fresh DCSM: every call pattern estimates at the deterministic default
  // cost vector, so the optimizer's choice — and the rendering — is stable.
  RopeFixture fx;
  Result<std::string> text =
      fx.med.Explain(testbed::AppendixQuery(3, false, 4, 47), {});
  ASSERT_TRUE(text.ok()) << text.status();
  CompareGolden("explain_query3_optimized.txt", *text);
}

}  // namespace
}  // namespace hermes
