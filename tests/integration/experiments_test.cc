// Integration tests asserting the *shape* of every reproduced experiment:
// who wins, by roughly what factor, and where the crossovers fall — the
// qualitative results of the paper's Section 8 — and golden files pinning
// every Figure 5, Figure 6 and plan-choice row at full precision, so a
// change meant to leave the experiments alone is checked byte for byte.
// Regenerate after an intentional change with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/integration_experiments_test

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "experiments/claims.h"
#include "experiments/fig5.h"
#include "experiments/fig6.h"
#include "experiments/tradeoff.h"
#include "golden_file.h"

namespace hermes::experiments {
namespace {

using testing_golden::CompareGolden;

/// One golden line: each text field followed by " | ", then the numbers at
/// %.17g separated by spaces.
std::string Fields(std::initializer_list<std::string> text,
                   std::initializer_list<double> numbers) {
  std::string out;
  for (const std::string& t : text) out += t + " | ";
  char buf[64];
  for (double v : numbers) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
    out += " ";
  }
  out.back() = '\n';
  return out;
}

class Fig5Shape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    static Result<std::vector<Fig5Row>> result = RunFig5();
    ASSERT_TRUE(result.ok()) << result.status();
    rows_ = &*result;
  }
  static const std::vector<Fig5Row>* rows_;

  static const Fig5Row& Find(const std::string& query, Fig5Config config,
                             const std::string& site) {
    for (const Fig5Row& row : *rows_) {
      if (row.query == query && row.config == config && row.site == site) {
        return row;
      }
    }
    static Fig5Row missing;
    ADD_FAILURE() << "row not found: " << query << " / "
                  << Fig5ConfigName(config) << " / " << site;
    return missing;
  }
};

const std::vector<Fig5Row>* Fig5Shape::rows_ = nullptr;

TEST_F(Fig5Shape, AllRowsPresent) {
  EXPECT_EQ(rows_->size(), 3u * 2u * 4u);
}

TEST_F(Fig5Shape, RowsMatchGolden) {
  std::string out;
  for (const Fig5Row& row : *rows_) {
    out += Fields({row.query, Fig5ConfigName(row.config), row.site},
                  {row.t_first_ms, row.t_all_ms,
                   static_cast<double>(row.tuples),
                   static_cast<double>(row.bytes)});
  }
  CompareGolden("experiments_fig5.txt", out);
}

TEST_F(Fig5Shape, SameAnswersAcrossConfigurations) {
  // Caching and invariants must never change the answers.
  std::map<std::string, size_t> tuples;
  for (const Fig5Row& row : *rows_) {
    auto [it, inserted] = tuples.emplace(row.query, row.tuples);
    if (!inserted) {
      EXPECT_EQ(it->second, row.tuples)
          << row.query << " / " << Fig5ConfigName(row.config);
    }
  }
}

TEST_F(Fig5Shape, CachingAlwaysSavesTime) {
  // "Using caches always leads to savings in time when the software/data
  // is located at remote sites."
  for (const Fig5Row& row : *rows_) {
    if (row.config == Fig5Config::kNoCacheNoInvariants) continue;
    const Fig5Row& baseline =
        Find(row.query, Fig5Config::kNoCacheNoInvariants, row.site);
    EXPECT_LT(row.t_first_ms, baseline.t_first_ms)
        << row.query << " / " << Fig5ConfigName(row.config) << " @ "
        << row.site;
  }
}

TEST_F(Fig5Shape, ExactHitBeatsEqualityBeatsPartialFirstAnswer) {
  for (const std::string& query :
       {std::string("actors in 'rope'"), std::string("objects in frames [4,47]"),
        std::string("objects in frames [4,127]")}) {
    for (const std::string& site : {std::string("usa"), std::string("italy")}) {
      const Fig5Row& exact = Find(query, Fig5Config::kCacheOnly, site);
      const Fig5Row& equality =
          Find(query, Fig5Config::kCacheEqualityInvariant, site);
      EXPECT_LT(exact.t_first_ms, equality.t_first_ms) << query << "@" << site;
    }
  }
}

TEST_F(Fig5Shape, PartialInvariantGivesFastFirstAnswerButFullCompletion) {
  for (const std::string& site : {std::string("usa"), std::string("italy")}) {
    const Fig5Row& none =
        Find("objects in frames [4,127]", Fig5Config::kNoCacheNoInvariants,
             site);
    const Fig5Row& partial =
        Find("objects in frames [4,127]", Fig5Config::kCachePartialInvariant,
             site);
    // First answers come from the cache: much faster than the remote call.
    EXPECT_LT(partial.t_first_ms, none.t_first_ms / 4.0) << site;
    // But the actual call still has to complete the answer set.
    EXPECT_GT(partial.t_all_ms, none.t_all_ms / 2.0) << site;
  }
}

TEST_F(Fig5Shape, ItalyFarSlowerThanUsaWithoutCache) {
  for (const std::string& query :
       {std::string("actors in 'rope'"), std::string("objects in frames [4,47]")}) {
    const Fig5Row& usa = Find(query, Fig5Config::kNoCacheNoInvariants, "usa");
    const Fig5Row& italy =
        Find(query, Fig5Config::kNoCacheNoInvariants, "italy");
    EXPECT_GT(italy.t_first_ms, 10.0 * usa.t_first_ms) << query;
  }
}

TEST_F(Fig5Shape, CacheHitTimeIsSiteIndependent) {
  const Fig5Row& usa =
      Find("objects in frames [4,47]", Fig5Config::kCacheOnly, "usa");
  const Fig5Row& italy =
      Find("objects in frames [4,47]", Fig5Config::kCacheOnly, "italy");
  EXPECT_NEAR(usa.t_all_ms, italy.t_all_ms, 1.0);
}

class Fig6Shape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    static Result<std::vector<Fig6Row>> result = RunFig6();
    ASSERT_TRUE(result.ok()) << result.status();
    rows_ = &*result;
  }
  static const std::vector<Fig6Row>* rows_;
};

const std::vector<Fig6Row>* Fig6Shape::rows_ = nullptr;

TEST_F(Fig6Shape, SixQueriesReported) { EXPECT_EQ(rows_->size(), 6u); }

TEST_F(Fig6Shape, RowsMatchGolden) {
  std::string out;
  for (const Fig6Row& row : *rows_) {
    out += Fields({row.query},
                  {row.actual_first_ms, row.actual_all_ms,
                   row.lossless_first_ms, row.lossless_all_ms,
                   row.lossy_first_ms, row.lossy_all_ms});
  }
  CompareGolden("experiments_fig6.txt", out);
}

TEST_F(Fig6Shape, LosslessPredictionsCloseForAllAnswers) {
  // "The Lossy and the Lossless DCSM predictions closely match the actual
  // running times" — lossless within 25% on every query.
  for (const Fig6Row& row : *rows_) {
    double rel = std::abs(row.lossless_all_ms - row.actual_all_ms) /
                 row.actual_all_ms;
    EXPECT_LT(rel, 0.25) << row.query;
  }
}

TEST_F(Fig6Shape, LossyWorseThanLosslessOnAverage) {
  EXPECT_GT(MeanRelativeErrorAll(*rows_, /*lossy=*/true),
            MeanRelativeErrorAll(*rows_, /*lossy=*/false));
}

TEST_F(Fig6Shape, RewritingPairsHaveAConsistentWinner) {
  // query1 beats query1' (video_size once vs once per object) and the
  // prediction agrees.
  const Fig6Row *q1 = nullptr, *q1p = nullptr, *q3 = nullptr, *q4 = nullptr;
  for (const Fig6Row& row : *rows_) {
    if (row.query == "query1") q1 = &row;
    if (row.query == "query1'") q1p = &row;
    if (row.query == "query3") q3 = &row;
    if (row.query == "query4") q4 = &row;
  }
  ASSERT_NE(q1, nullptr);
  ASSERT_NE(q1p, nullptr);
  EXPECT_LT(q1->actual_all_ms, q1p->actual_all_ms);
  EXPECT_LT(q1->lossless_all_ms, q1p->lossless_all_ms);
  ASSERT_NE(q3, nullptr);
  ASSERT_NE(q4, nullptr);
  // query3 pushes the selection into the source; query4 scans 'cast'.
  EXPECT_LT(q3->actual_all_ms, q4->actual_all_ms);
  EXPECT_LT(q3->lossless_all_ms, q4->lossless_all_ms);
}

class ClaimsShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    static Result<std::vector<PlanChoicePoint>> result = RunPlanChoice();
    ASSERT_TRUE(result.ok()) << result.status();
    points_ = &*result;
  }
  static const std::vector<PlanChoicePoint>* points_;
};

const std::vector<PlanChoicePoint>* ClaimsShape::points_ = nullptr;

TEST_F(ClaimsShape, PointsMatchGolden) {
  std::string out;
  for (const PlanChoicePoint& p : *points_) {
    out += Fields({p.pair_label},
                  {static_cast<double>(p.first_frame),
                   static_cast<double>(p.last_frame), p.predicted_a_all,
                   p.predicted_b_all, p.actual_a_all, p.actual_b_all,
                   p.predicted_a_first, p.predicted_b_first,
                   p.actual_a_first, p.actual_b_first});
  }
  CompareGolden("experiments_claims.txt", out);
}

TEST_F(ClaimsShape, AllAnswersWinnerAlmostAlwaysCorrect) {
  PlanChoiceSummary summary = SummarizePlanChoice(*points_);
  EXPECT_GE(summary.all_answers_accuracy, 0.9);  // "almost always"
  EXPECT_GE(summary.points, 30u);
}

TEST_F(ClaimsShape, BigFirstAnswerMarginsAreReliable) {
  PlanChoiceSummary summary = SummarizePlanChoice(*points_);
  ASSERT_GT(summary.big_margin_points, 0u);
  EXPECT_GE(summary.first_big_margin_accuracy, 0.9);
}

TEST_F(ClaimsShape, SmallMarginsLessReliableThanBig) {
  PlanChoiceSummary summary = SummarizePlanChoice(*points_);
  ASSERT_GT(summary.small_margin_points, 0u);
  EXPECT_LE(summary.first_small_margin_accuracy,
            summary.first_big_margin_accuracy);
}

TEST(TradeoffShape, LossySummariesTinyAndInaccurate) {
  Result<std::vector<TradeoffPoint>> points =
      RunSummarizationTradeoff({200, 3200});
  ASSERT_TRUE(points.ok()) << points.status();
  for (const TradeoffPoint& p : *points) {
    // Storage: fully-lossy ≪ program-lossy ≪ raw. The program-lossy table
    // has one row per distinct signal value, so its size is constant while
    // the raw database grows.
    EXPECT_LT(p.lossy_bytes, p.program_lossy_bytes);
    EXPECT_LT(p.program_lossy_bytes, p.raw_bytes / 5);
    // Lookup: summaries answer in O(1) simulated time, raw scales.
    EXPECT_LT(p.lossless_lookup_ms, p.raw_lookup_ms);
    // Accuracy: dropping the signal dimension destroys the estimate.
    EXPECT_LT(p.lossless_error, 0.1);
    EXPECT_GT(p.lossy_error, 0.5);
  }
  // Raw lookup cost grows with the database; summary lookup does not.
  EXPECT_GT((*points)[1].raw_lookup_ms, (*points)[0].raw_lookup_ms * 4);
  // At scale the program-lossy table is orders of magnitude below raw.
  EXPECT_LT((*points)[1].program_lossy_bytes, (*points)[1].raw_bytes / 100);
  EXPECT_NEAR((*points)[1].lossless_lookup_ms, (*points)[0].lossless_lookup_ms,
              1e-9);
}

}  // namespace
}  // namespace hermes::experiments
