// Concurrent estimation against the DCSM's aggregate indexes. Eight readers
// ask Dcsm::Cost about one call group, each under a different constant
// mask, so the group's indexes are created concurrently, while two writers
// append statistics with RecordBatch. Every answer must equal a
// single-threaded replay at the same record count. This is also a
// ThreadSanitizer workload (CI's chaos-tsan job builds and runs it).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dcsm/dcsm.h"

namespace hermes::dcsm {
namespace {

constexpr size_t kInitial = 48;  // covers every (a, b, c) combination
constexpr size_t kBatch = 6;
constexpr size_t kBatchesPerWriter = 60;
constexpr size_t kWriters = 2;
constexpr size_t kReaders = 8;
constexpr size_t kAsksPerReader = 1000;

Value ArgA(size_t i) { return Value::Int(static_cast<int64_t>(i % 4)); }
Value ArgB(size_t i) { return Value::Str(std::string(1, 'x' + i % 3)); }
Value ArgC(size_t i) {
  return Value::Double(0.5 * static_cast<double>(i / 4 % 2));
}

CostRecord Row(size_t i) {
  CostRecord record;
  record.call = DomainCall{"d", "f", {ArgA(i), ArgB(i), ArgC(i)}};
  const double x = static_cast<double>(i);
  record.cost = CostVector(0.1 * x + 0.37, 3.3 * x + 1.1, x / 7.0);
  record.has_t_first = i % 5 != 0;
  return record;
}

/// Every writer appends this same batch, so the statistics after k batches
/// are the same whichever writer added them.
std::vector<CostRecord> Batch() {
  std::vector<CostRecord> batch;
  for (size_t j = 0; j < kBatch; ++j) batch.push_back(Row(kInitial + 5 * j));
  return batch;
}

/// Reader `reader`'s `n`-th question: constants at the positions in the
/// reader's mask, `$b` elsewhere. Every constant combination occurs among
/// the initial rows, so the first lattice point always answers and
/// `rows_scanned` is the group size at the time of asking.
lang::DomainCallSpec Question(size_t reader, size_t n) {
  const Value args[3] = {ArgA(n), ArgB(n / 4), ArgC(n / 12)};
  lang::DomainCallSpec pattern{"d", "f", {}};
  for (size_t i = 0; i < 3; ++i) {
    pattern.args.push_back((reader & (size_t{1} << i)) != 0
                               ? lang::Term::Const(args[i])
                               : lang::Term::Bound());
  }
  return pattern;
}

struct Answer {
  size_t reader;
  size_t n;
  CostEstimate est;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(AggregateIndexRaceTest, ConcurrentIndexCreationMatchesReplay) {
  Dcsm dcsm;
  for (size_t i = 0; i < kInitial; ++i) dcsm.Record(Row(i));

  std::atomic<bool> go{false};
  std::vector<std::vector<Answer>> answers(kReaders);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        dcsm.RecordBatch(Batch());
        std::this_thread::yield();
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (!go.load()) std::this_thread::yield();
      for (size_t n = 0; n < kAsksPerReader; ++n) {
        Result<CostEstimate> est = dcsm.Cost(Question(r, n));
        ASSERT_TRUE(est.ok()) << est.status();
        answers[r].push_back(Answer{r, n, *est});
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(::testing::Test::HasFailure());

  std::vector<Answer> all;
  for (const std::vector<Answer>& per_reader : answers) {
    all.insert(all.end(), per_reader.begin(), per_reader.end());
  }
  std::sort(all.begin(), all.end(), [](const Answer& a, const Answer& b) {
    return a.est.rows_scanned < b.est.rows_scanned;
  });

  // Replay single-threaded, growing the group one batch at a time.
  Dcsm replay;
  for (size_t i = 0; i < kInitial; ++i) replay.Record(Row(i));
  size_t records = kInitial;
  for (const Answer& answer : all) {
    const size_t at = answer.est.rows_scanned;
    ASSERT_GE(at, kInitial);
    ASSERT_EQ((at - kInitial) % kBatch, 0u) << at;
    while (records < at) {
      replay.RecordBatch(Batch());
      records += kBatch;
    }
    Result<CostEstimate> want = replay.Cost(Question(answer.reader, answer.n));
    ASSERT_TRUE(want.ok());
    const std::string where = "reader " + std::to_string(answer.reader) +
                              " ask " + std::to_string(answer.n) + " at " +
                              std::to_string(at) + " records";
    EXPECT_EQ(answer.est.source, want->source) << where;
    EXPECT_EQ(answer.est.rows_scanned, want->rows_scanned) << where;
    EXPECT_EQ(answer.est.records_matched, want->records_matched) << where;
    EXPECT_TRUE(SameBits(answer.est.lookup_ms, want->lookup_ms)) << where;
    EXPECT_TRUE(SameBits(answer.est.cost.t_first_ms, want->cost.t_first_ms))
        << where;
    EXPECT_TRUE(SameBits(answer.est.cost.t_all_ms, want->cost.t_all_ms))
        << where;
    EXPECT_TRUE(SameBits(answer.est.cost.cardinality, want->cost.cardinality))
        << where;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(dcsm.database().TotalRecords(),
            kInitial + kWriters * kBatchesPerWriter * kBatch);
}

}  // namespace
}  // namespace hermes::dcsm
