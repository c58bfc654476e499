// Equivalence of the DCSM's per-mask aggregate indexes with the raw scan
// they replace. Seeded random record streams (arity 0-4; string, int and
// double arguments with cross-type equal numbers; missing metrics; -0.0
// costs) are interleaved with estimates over every mask and with Clear().
// Every aggregate and every CostEstimate must equal, bit for bit, a
// reference scan and a reference relaxation walk kept in this file.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dcsm/dcsm.h"

namespace hermes::dcsm {
namespace {

constexpr int64_t k2p53 = int64_t{1} << 53;

/// The raw scan as Section 6.1 describes it: visit every record of the
/// group, keep those whose arguments equal the pattern's constants at the
/// masked positions, and average their metrics (recency-weighted when
/// `halflife` > 0).
std::optional<Aggregate> ReferenceScan(const std::vector<CostRecord>& records,
                                       const lang::DomainCallSpec& pattern,
                                       ArgMask const_mask, double halflife,
                                       uint64_t now) {
  Aggregate agg;
  double w_tf = 0, w_ta = 0, w_card = 0;
  double sum_tf = 0, sum_ta = 0, sum_card = 0;
  for (const CostRecord& record : records) {
    ++agg.rows_scanned;
    bool matches = true;
    for (size_t i = 0; i < pattern.args.size(); ++i) {
      if (i < 64 && (const_mask & (ArgMask{1} << i)) == 0) continue;
      const lang::Term& t = pattern.args[i];
      if (t.is_constant() && t.constant != record.call.args[i]) {
        matches = false;
        break;
      }
    }
    if (!matches) continue;
    ++agg.matched;
    double weight = 1.0;
    if (halflife > 0.0) {
      double age = static_cast<double>(now - record.record_time);
      weight = std::pow(0.5, age / halflife);
    }
    if (record.has_t_first) {
      sum_tf += weight * record.cost.t_first_ms;
      w_tf += weight;
    }
    if (record.has_t_all) {
      sum_ta += weight * record.cost.t_all_ms;
      w_ta += weight;
    }
    if (record.has_cardinality) {
      sum_card += weight * record.cost.cardinality;
      w_card += weight;
    }
  }
  if (agg.matched == 0) return std::nullopt;
  if (w_tf > 0) {
    agg.cost.t_first_ms = sum_tf / w_tf;
    agg.has_t_first = true;
  }
  if (w_ta > 0) {
    agg.cost.t_all_ms = sum_ta / w_ta;
    agg.has_t_all = true;
  }
  if (w_card > 0) {
    agg.cost.cardinality = sum_card / w_card;
    agg.has_cardinality = true;
  }
  return agg;
}

/// Section 6.3's relaxation walk over raw statistics only (no summaries or
/// native models are configured in these tests), charging every lattice
/// point a scan of the whole group.
bool ReferenceRelax(const CostVectorDatabase& db,
                    const lang::DomainCallSpec& pattern,
                    const DcsmCostParams& params, double halflife,
                    CostEstimate* out, double* lookup_ms,
                    size_t* rows_scanned) {
  const std::vector<CostRecord>* records = db.GetGroup(
      CallGroupKey{pattern.domain, pattern.function, pattern.args.size()});
  if (records == nullptr) return false;
  std::vector<size_t> constants;
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    if (pattern.args[i].is_constant()) constants.push_back(i);
  }
  const size_t n = constants.size();
  for (size_t keep = n + 1; keep-- > 0;) {
    for (uint64_t subset = 0; subset < (1ULL << n); ++subset) {
      if (static_cast<size_t>(__builtin_popcountll(subset)) != keep) continue;
      ArgMask mask = 0;
      for (size_t b = 0; b < n; ++b) {
        if (subset & (1ULL << b)) mask |= ArgMask{1} << constants[b];
      }
      *lookup_ms +=
          params.per_record_ms * static_cast<double>(records->size());
      *rows_scanned += records->size();
      std::optional<Aggregate> agg =
          ReferenceScan(*records, pattern, mask, halflife, db.now());
      if (agg.has_value()) {
        out->cost = agg->cost;
        out->source = "raw";
        out->records_matched = agg->matched;
        return true;
      }
    }
  }
  return false;
}

CostEstimate ReferenceCost(const Dcsm& dcsm, double halflife,
                           const lang::DomainCallSpec& pattern) {
  const CostVectorDatabase& db = dcsm.database();
  const DcsmCostParams& params = dcsm.cost_params();
  CostEstimate est;
  double lookup_ms = 0.0;
  size_t rows = 0;
  bool found =
      ReferenceRelax(db, pattern, params, halflife, &est, &lookup_ms, &rows);
  if (!found && pattern.domain.rfind("cim_", 0) == 0) {
    lang::DomainCallSpec underlying = pattern;
    underlying.domain = pattern.domain.substr(4);
    found = ReferenceRelax(db, underlying, params, halflife, &est, &lookup_ms,
                           &rows);
    if (found) est.source += "+cim-fallback";
  }
  est.lookup_ms = lookup_ms;
  est.rows_scanned = rows;
  if (!found) {
    est.cost = DcsmOptions{}.default_cost;
    est.source = "default";
  }
  return est;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ExpectSameCost(const CostVector& got, const CostVector& want,
                    const std::string& where) {
  EXPECT_TRUE(SameBits(got.t_first_ms, want.t_first_ms))
      << where << ": Tf " << got.t_first_ms << " vs " << want.t_first_ms;
  EXPECT_TRUE(SameBits(got.t_all_ms, want.t_all_ms))
      << where << ": Ta " << got.t_all_ms << " vs " << want.t_all_ms;
  EXPECT_TRUE(SameBits(got.cardinality, want.cardinality))
      << where << ": Card " << got.cardinality << " vs " << want.cardinality;
}

void ExpectSameAggregate(const std::optional<Aggregate>& got,
                         const std::optional<Aggregate>& want,
                         const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got.has_value()) return;
  EXPECT_EQ(got->matched, want->matched) << where;
  EXPECT_EQ(got->rows_scanned, want->rows_scanned) << where;
  EXPECT_EQ(got->has_t_first, want->has_t_first) << where;
  EXPECT_EQ(got->has_t_all, want->has_t_all) << where;
  EXPECT_EQ(got->has_cardinality, want->has_cardinality) << where;
  ExpectSameCost(got->cost, want->cost, where);
}

void ExpectSameEstimate(const Result<CostEstimate>& got,
                        const CostEstimate& want, const std::string& where) {
  ASSERT_TRUE(got.ok()) << where << ": " << got.status();
  EXPECT_EQ(got->source, want.source) << where;
  EXPECT_TRUE(SameBits(got->lookup_ms, want.lookup_ms))
      << where << ": lookup_ms " << got->lookup_ms << " vs " << want.lookup_ms;
  EXPECT_EQ(got->rows_scanned, want.rows_scanned) << where;
  EXPECT_EQ(got->records_matched, want.records_matched) << where;
  ExpectSameCost(got->cost, want.cost, where);
}

/// Argument values: strings, ints and doubles, with 1 / 1.0 and 0 / 0.0 /
/// -0.0 equal across types. With `large_ints`, also the integers 2^53 and
/// 2^53 + 1, which both equal the double 2^53 but not each other — the
/// case that keeps an index out of use.
Value RandomArg(Rng& rng, bool large_ints) {
  switch (rng.NextBelow(large_ints ? 14 : 11)) {
    case 0: return Value::Str("a");
    case 1: return Value::Str("b");
    case 2: return Value::Int(0);
    case 3: return Value::Int(1);
    case 4: return Value::Int(2);
    case 5: return Value::Double(1.0);
    case 6: return Value::Double(0.0);
    case 7: return Value::Double(-0.0);
    case 8: return Value::Double(2.5);
    case 9: return Value::Int(3);
    case 10: return Value::Str("c");
    case 11: return Value::Int(k2p53 + 1);
    case 12: return Value::Int(k2p53);
    default: return Value::Double(static_cast<double>(k2p53));
  }
}

double RandomCost(Rng& rng) {
  switch (rng.NextBelow(6)) {
    case 0: return -0.0;
    case 1: return 0.0;
    case 2: return 0.1;
    case 3: return 1e-3 * static_cast<double>(rng.NextBelow(1000));
    case 4: return 7.25;
    default: return rng.NextDoubleIn(0.0, 1e6);
  }
}

CostRecord RandomRecord(Rng& rng, bool large_ints) {
  CostRecord record;
  const size_t arity = rng.NextBelow(5);
  record.call.domain = "d";
  record.call.function = "f" + std::to_string(arity);
  for (size_t i = 0; i < arity; ++i) {
    record.call.args.push_back(RandomArg(rng, large_ints));
  }
  record.cost = CostVector(RandomCost(rng), RandomCost(rng), RandomCost(rng));
  record.has_t_first = rng.NextBelow(5) != 0;
  record.has_t_all = rng.NextBelow(5) != 0;
  record.has_cardinality = rng.NextBelow(5) != 0;
  return record;
}

lang::DomainCallSpec RandomPattern(Rng& rng, bool large_ints) {
  lang::DomainCallSpec pattern;
  const size_t arity = rng.NextBelow(5);
  pattern.domain = rng.NextBelow(4) == 0 ? "cim_d" : "d";
  pattern.function = "f" + std::to_string(arity);
  for (size_t i = 0; i < arity; ++i) {
    if (rng.NextBelow(3) == 0) {
      pattern.args.push_back(lang::Term::Bound());
    } else {
      // Occasionally a constant no record holds, so lattice points miss.
      pattern.args.push_back(lang::Term::Const(
          rng.NextBelow(10) == 0 ? Value::Str("unseen")
                                 : RandomArg(rng, large_ints)));
    }
  }
  return pattern;
}

/// Checks every public estimation path of `dcsm`, whose recency half-life
/// is `halflife`, against the references.
void CheckPattern(const Dcsm& dcsm, double halflife,
                  const lang::DomainCallSpec& pattern,
                  const std::string& where) {
  const CostVectorDatabase& db = dcsm.database();
  ExpectSameEstimate(dcsm.Cost(pattern), ReferenceCost(dcsm, halflife, pattern),
                     where + " Cost " + pattern.ToString());

  const CostVectorDatabase::Group* group = db.FindGroup(
      CallGroupKey{pattern.domain, pattern.function, pattern.args.size()});
  if (group == nullptr) return;
  for (ArgMask mask = 0; mask < (ArgMask{1} << pattern.args.size()); ++mask) {
    ExpectSameAggregate(
        db.EstimateGroup(*group, pattern, mask, halflife),
        ReferenceScan(group->records(), pattern, mask, halflife, db.now()),
        where + " mask " + std::to_string(mask) + " " + pattern.ToString());
  }
  Result<Aggregate> whole = db.Estimate(pattern, halflife);
  std::optional<Aggregate> want =
      ReferenceScan(group->records(), pattern, kAllArgs, halflife, db.now());
  ASSERT_EQ(whole.ok(), want.has_value()) << where << " " << whole.status();
  if (whole.ok()) ExpectSameAggregate(*whole, want, where + " Estimate");

  // Observed never weights by recency.
  Result<Aggregate> observed = dcsm.Observed(pattern);
  want = ReferenceScan(group->records(), pattern, kAllArgs, 0.0, db.now());
  ASSERT_EQ(observed.ok(), want.has_value()) << where << " Observed";
  if (observed.ok()) ExpectSameAggregate(*observed, want, where + " Observed");
}

void RunStream(uint64_t seed, double halflife, bool large_ints = false) {
  Rng rng(seed);
  DcsmOptions options;
  options.recency_halflife = halflife;
  Dcsm dcsm(options);
  for (int step = 0; step < 4000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 60) {
      dcsm.Record(RandomRecord(rng, large_ints));
    } else if (op < 62) {
      std::vector<CostRecord> batch;
      for (uint64_t i = rng.NextBelow(6); i > 0; --i) {
        batch.push_back(RandomRecord(rng, large_ints));
      }
      dcsm.RecordBatch(std::move(batch));
    } else if (op == 62 && rng.NextBelow(4) == 0) {
      dcsm.database().Clear();
    } else {
      CheckPattern(dcsm, halflife, RandomPattern(rng, large_ints),
                   "seed " + std::to_string(seed) + " step " +
                       std::to_string(step));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(AggregateIndexTest, RandomStreamsMatchTheScan) {
  for (uint64_t seed = 1; seed <= 4; ++seed) RunStream(seed, 0.0);
}

TEST(AggregateIndexTest, StreamsWithLargeIntegersMatchTheScan) {
  for (uint64_t seed = 21; seed <= 24; ++seed) RunStream(seed, 0.0, true);
}

TEST(AggregateIndexTest, RecencyWeightedStreamsMatchTheScan) {
  for (uint64_t seed = 11; seed <= 12; ++seed) RunStream(seed, 3.0);
}

TEST(AggregateIndexTest, NegativeZeroCostReadsLikeTheScan) {
  // A lone record answers through the same accumulator as a scan: its sums
  // start at +0.0, so a -0.0 cost reads back as +0.0 either way.
  Dcsm dcsm;
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Int(1)}},
                       CostVector(-0.0, -0.0, -0.0));
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Int(2)}},
                       CostVector(-0.0, 5.0, -0.0));
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Int(2)}},
                       CostVector(-0.0, 7.0, -0.0));
  for (int key : {1, 2}) {
    lang::DomainCallSpec pattern{
        "d", "f", {lang::Term::Const(Value::Int(key))}};
    CheckPattern(dcsm, 0.0, pattern, "key " + std::to_string(key));
    Result<CostEstimate> est = dcsm.Cost(pattern);
    ASSERT_TRUE(est.ok());
    EXPECT_FALSE(std::signbit(est->cost.t_first_ms));
  }
}

TEST(AggregateIndexTest, CrossTypeNumbersShareOneKey) {
  Dcsm dcsm;
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Int(1), Value::Str("x")}},
                       CostVector(1, 10, 1));
  dcsm.RecordExecution(
      DomainCall{"d", "f", {Value::Double(1.0), Value::Str("y")}},
      CostVector(2, 20, 2));
  lang::DomainCallSpec pattern{
      "d", "f", {lang::Term::Const(Value::Int(1)), lang::Term::Bound()}};
  Result<CostEstimate> est = dcsm.Cost(pattern);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->records_matched, 2u);
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, 15.0);
  CheckPattern(dcsm, 0.0, pattern, "int constant");
  pattern.args[0] = lang::Term::Const(Value::Double(1.0));
  CheckPattern(dcsm, 0.0, pattern, "double constant");
}

TEST(AggregateIndexTest, IntegersBeyondDoublePrecisionFallBackToTheScan) {
  // 2^53 and 2^53 + 1 are different integers, yet both equal the double
  // 2^53. A key index would merge or split them wrongly; the scan is exact.
  Dcsm dcsm;
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Int(k2p53 + 1)}},
                       CostVector(1, 10, 1));
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Int(k2p53)}},
                       CostVector(3, 30, 3));
  lang::DomainCallSpec pattern{
      "d", "f", {lang::Term::Const(Value::Double(static_cast<double>(k2p53)))}};
  Result<CostEstimate> est = dcsm.Cost(pattern);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->records_matched, 2u);
  CheckPattern(dcsm, 0.0, pattern, "double 2^53");
  pattern.args[0] = lang::Term::Const(Value::Int(k2p53));
  est = dcsm.Cost(pattern);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->records_matched, 1u);
  CheckPattern(dcsm, 0.0, pattern, "int 2^53");

  // Only the question holds the large integer: the integer 2^53 and the
  // double 2^53 share a key, but 2^53 + 1 equals only the double.
  dcsm.RecordExecution(DomainCall{"d", "g", {Value::Int(k2p53)}},
                       CostVector(1, 10, 1));
  dcsm.RecordExecution(
      DomainCall{"d", "g", {Value::Double(static_cast<double>(k2p53))}},
      CostVector(3, 30, 3));
  pattern = {"d", "g", {lang::Term::Const(Value::Int(k2p53 + 1))}};
  est = dcsm.Cost(pattern);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->records_matched, 1u);
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, 30.0);
  CheckPattern(dcsm, 0.0, pattern, "int 2^53 + 1 against safe keys");
}

TEST(AggregateIndexTest, IndexesFollowLaterRecordsAndClear) {
  Dcsm dcsm;
  lang::DomainCallSpec pattern{
      "d", "f", {lang::Term::Const(Value::Str("k")), lang::Term::Bound()}};
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Str("k"), Value::Int(1)}},
                       CostVector(1, 10, 1));
  ASSERT_TRUE(dcsm.Cost(pattern).ok());  // builds the index
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Str("k"), Value::Int(2)}},
                       CostVector(3, 30, 3));
  Result<CostEstimate> est = dcsm.Cost(pattern);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->records_matched, 2u);
  EXPECT_EQ(est->rows_scanned, 2u);
  EXPECT_DOUBLE_EQ(est->cost.t_all_ms, 20.0);

  dcsm.database().Clear();
  est = dcsm.Cost(pattern);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source, "default");
  dcsm.RecordExecution(DomainCall{"d", "f", {Value::Str("k"), Value::Int(3)}},
                       CostVector(5, 50, 5));
  CheckPattern(dcsm, 0.0, pattern, "after Clear");
}

}  // namespace
}  // namespace hermes::dcsm
