#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

// The two measured phases of a round, each on its own freshly wired
// mediator, and the per-layer accounting of a traced single-client phase.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "obs/trace.h"
#include "workload.h"

namespace perfbench {

/// Wall-clock self times of one traced query, read off its span tree.
struct QuerySelfTimes {
  double request_us = 0.0;  ///< The benchmark's per-query envelope span.
  double parse_us = 0.0;    ///< lang.parse: Parser::ParseQuery on the text.
  double plan_us = 0.0;     ///< The optimize span (see AnalyzeTrace).
  double exec_us = 0.0;     ///< The query span minus the optimize span.
  double hop_us = 0.0;      ///< Self time of every network-hop span.
  double self_sum_us = 0.0; ///< Sum of every span's self time.
};

/// Reads `tracer`'s spans. The program stamps its `optimize` span after
/// QueryOptimizer::Optimize returns, so the span itself is empty on the
/// wall clock; planning is the interval from the `query` span's start to
/// the `optimize` span's end, and the analysis widens the span to that
/// interval before taking self times (the widened span overlaps no sibling:
/// compilation and execution start after it).
QuerySelfTimes AnalyzeTrace(const hermes::obs::Tracer& tracer);

/// Per-layer counters and timings of one single-client phase.
struct LayerTotals {
  uint64_t queries = 0;
  uint64_t candidates = 0;
  uint64_t cim_plans = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t domain_calls = 0;
  uint64_t answers = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  uint64_t bytes = 0;
  double network_ms = 0.0;
  // CIM outcomes over the phase, summed over every cached domain.
  uint64_t cim_exact = 0;
  uint64_t cim_invariant = 0;
  uint64_t cim_miss = 0;
  uint64_t cim_actual_calls = 0;
  // Dcsm::Cost probes of the workload's patterns before and after.
  double cost_us_start = 0.0;
  double cost_us_end = 0.0;
  uint64_t rows_scanned_start = 0;
  uint64_t rows_scanned_end = 0;
  uint64_t dcsm_records = 0;
  // Traced phases only: one entry per query.
  std::vector<QuerySelfTimes> self_times;
  uint64_t self_sum_mismatches = 0;

  /// Adds `o`'s counters and probe counts (not its probe wall times or
  /// self times) into this one.
  void Add(const LayerTotals& o);
};

/// A fixed piece of host work that never calls the program: it cuts and
/// formats strings and groups them in a fresh hash map of vectors, the
/// allocation-heavy kind of work the mediator does. Timed right after each
/// query, it tells how fast the shared host runs at that moment, whatever
/// the program does. Of the kernels tried (warm hash lookups and a sort, a
/// 256 KiB pointer chase, this one), this one slowed down most nearly in
/// proportion with Mediator::Query as the host's speed changed.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Runs the work twice (the first run re-warms the caches and the
  /// allocator's free lists the query used) and returns the second run's
  /// wall time in microseconds.
  double Measure();

 private:
  static constexpr int kWords = 64;
  double RunOnce();
  std::vector<std::string> words_;
};

/// The speed reference-speed times are stated at: the host speed at which
/// SpeedProbe takes this long (about its tenth percentile on the 4-vCPU
/// host the benchmark was tuned on).
constexpr double kReferenceProbeUs = 4.5;

/// Scales each wall time to the reference host speed: host_us[i] times
/// kReferenceProbeUs over the median probe time of queries i-6..i+6. The
/// host's speed changes over milliseconds to minutes; a local median
/// follows it without the noise of single probes.
std::vector<double> AtReferenceSpeed(const std::vector<double>& host_us,
                                     const std::vector<double>& probe_us);

/// Outcome of one single-client (closed loop, one caller) phase.
struct SinglePhase {
  std::vector<double> host_us;  ///< Wall time of each Mediator::Query call.
  std::vector<double> probe_us; ///< SpeedProbe time right after each call.
  std::vector<double> tf_ms;    ///< Simulated time to first answer.
  std::vector<double> ta_ms;    ///< Simulated time to all answers.
  uint64_t remote_calls = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  LayerTotals layers;
};

/// Runs `stream.queries` through `med->Query` one after another with
/// default options. With `traced` every query records its span tree (the
/// benchmark's spans around its calls plus the program's own); while
/// `keep` is non-null and holds fewer than `keep_limit` tracers, each
/// query's tracer is moved into it.
SinglePhase RunSinglePhase(
    hermes::Mediator* med, const QueryStream& stream, const AnswerKey& key,
    bool traced, std::vector<std::unique_ptr<hermes::obs::Tracer>>* keep,
    size_t keep_limit);

/// Outcome of one pool phase.
struct PoolPhase {
  double seconds = 0.0;
  uint64_t completed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  double queue_wait_ms_p50 = 0.0;  ///< hermes_pool_queue_wait_ms.
  double busy_frac = 0.0;          ///< hermes_pool_service_ms over capacity.
};

/// Serves `med` with a QueryPool of `workers` threads; one generator thread
/// keeps at most `workers` queries outstanding (closed loop) and checks each
/// answer as it is collected.
PoolPhase RunPoolPhase(hermes::Mediator* med, const QueryStream& stream,
                       const AnswerKey& key, size_t workers);

/// Runs `texts` with default options and checks the answers (set-up's
/// warm-up). Returns the first failure, or "" when all passed.
std::string RunWarmup(hermes::Mediator* med,
                      const std::vector<std::string>& texts,
                      const AnswerKey& key);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
