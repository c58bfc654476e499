#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's three seeded workloads: query-stream generation, the
// wiring of a fresh measured mediator, and the answer check.
//
// The mediator only ever sees generated query text. Everything here goes
// through the public API (testbed set-up, Mediator::Query, Parser).

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "engine/executor.h"
#include "engine/mediator.h"
#include "testbed/topology.h"

namespace perfbench {

enum class WorkloadKind { kAppendixZipf, kHitStream, kFanoutMiss };

/// False when `name` is not a workload.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);

/// One generated workload: query texts plus what the checks and probes need.
struct QueryStream {
  WorkloadKind kind = WorkloadKind::kAppendixZipf;
  /// Run during set-up on every freshly wired mediator (caches fill, lazy
  /// state settles); never timed as a query.
  std::vector<std::string> warmup;
  /// The measured stream; both phases replay it, each on its own mediator.
  std::vector<std::string> queries;
  /// Call patterns (Parser::ParseCallPattern syntax) probed with
  /// Dcsm::Cost at the start and end of the single-client phase.
  std::vector<std::string> cost_probes;
  /// fanout_miss: the expected echoed arguments of queries[i] / warmup[i].
  std::vector<std::vector<int64_t>> echoes;
  std::vector<std::vector<int64_t>> warmup_echoes;
};

/// Generates round `round`'s stream of `kind` for `seed`, with
/// `num_queries` measured queries. Equal arguments give an identical
/// stream; every round draws a fresh, independent one.
QueryStream MakeStream(WorkloadKind kind, uint64_t seed, size_t round,
                       size_t num_queries);

/// The fanout_miss topology as SetupOverloadTopology builds it by default.
const hermes::testbed::TopologyInfo& FanoutTopology();

/// Wires a freshly constructed mediator the way the paper's testbed does
/// for `kind`: sites, EnableCaching, AddInvariants and LoadProgram through
/// the testbed helpers, every option at its default.
hermes::Status WireMeasured(WorkloadKind kind, hermes::Mediator* med);

/// Order-independent fingerprint of an answer multiset.
struct AnswerPrint {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xor_ = 0;
  bool operator==(const AnswerPrint&) const = default;
};
AnswerPrint Fingerprint(const std::vector<hermes::ValueList>& answers);

/// Reference answers, one per distinct query text, computed on a local-site
/// copy of the scenario with the as-written plan (optimizer, CIM and
/// statistics off). fanout_miss references are the echoed arguments.
class AnswerKey {
 public:
  /// Builds references for every text in `stream` (warm-up included).
  static hermes::Result<std::unique_ptr<AnswerKey>> Build(
      const QueryStream& stream);

  /// True when `answers` is the reference multiset of `text`.
  bool Matches(const std::string& text,
               const std::vector<hermes::ValueList>& answers) const;

 private:
  std::unordered_map<std::string, AnswerPrint> expected_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
