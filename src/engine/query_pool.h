#ifndef HERMES_ENGINE_QUERY_POOL_H_
#define HERMES_ENGINE_QUERY_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/mediator.h"
#include "obs/metrics.h"

namespace hermes {

/// Counters of one QueryPool's lifetime — a snapshot view over the pool's
/// live obs counters (registered with the mediator's MetricsRegistry under
/// hermes_pool_*; a newer pool's series replace an older pool's there).
struct QueryPoolStats {
  uint64_t submitted = 0;  ///< Queries accepted into the queue.
  uint64_t completed = 0;  ///< Queries whose future was fulfilled.
  uint64_t rejected = 0;   ///< Submissions refused (queue full/shutdown).
};

/// The mediator's concurrent frontend: a fixed pool of worker threads
/// draining one bounded FIFO submission queue of queries, results
/// delivered through futures — how N clients share one mediator.
///
/// Created via Mediator::Serve(). While any pool is live the mediator's
/// wiring is frozen (wiring calls return FailedPrecondition), so workers
/// race only on structures designed for it: the lock-striped result cache,
/// the batch-flushed DCSM and the atomic network statistics.
///
/// The bounded queue is the pool's whole overload policy: a full queue
/// blocks Submit and makes TrySubmit fail fast with a typed
/// kResourceExhausted (see DESIGN.md §10 "Hedged requests" for the A/B
/// that retired the shedding machinery built on top of it).
///
/// Query ids are reserved at Submit time, in submission order — a query's
/// id (and therefore its per-query RNG stream, when enabled) is fixed
/// before any worker touches it, independent of scheduling.
///
/// Submit/TrySubmit are safe from any thread. Destruction (or Shutdown)
/// stops intake, drains queued work, joins the workers and unfreezes the
/// mediator.
class QueryPool {
 public:
  /// Prefer Mediator::Serve() over constructing directly. `mediator` must
  /// outlive the pool.
  QueryPool(Mediator* mediator, QueryPoolOptions options);
  ~QueryPool();

  QueryPool(const QueryPool&) = delete;
  QueryPool& operator=(const QueryPool&) = delete;

  /// Enqueues a query; blocks while the queue is full. The future carries
  /// the query's Result exactly as Mediator::Query would have returned it.
  std::future<Result<QueryResult>> Submit(std::string query_text,
                                          QueryOptions options = {});

  /// Non-blocking Submit. OK means the query was enqueued and `*out` holds
  /// its future; otherwise `*out` is untouched and the status says why —
  /// kResourceExhausted with the queue depth and capacity when the queue is
  /// full, kFailedPrecondition after Shutdown.
  Status TrySubmit(std::string query_text, QueryOptions options,
                   std::future<Result<QueryResult>>* out);

  /// Stops intake, drains already-queued queries, joins workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }
  size_t queue_capacity() const { return queue_capacity_; }
  QueryPoolStats stats() const;

 private:
  struct Task {
    std::string text;
    QueryOptions options;
    std::promise<Result<QueryResult>> promise;
    /// Wall-clock enqueue instant; the dequeueing worker observes the
    /// difference as queue wait.
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void WorkerLoop();
  /// Enqueues `task` and returns its future; requires mu_ held and room in
  /// the queue.
  std::future<Result<QueryResult>> EnqueueLocked(Task task);

  Mediator* mediator_;
  size_t queue_capacity_;

  mutable std::mutex mu_;
  std::condition_variable queue_ready_;   ///< Signals workers: work/stop.
  std::condition_variable queue_space_;   ///< Signals submitters: capacity.
  std::deque<Task> queue_;
  bool stopping_ = false;

  // Live statistics (per-pool; registered with the mediator's registry at
  // construction). The histograms measure HOST wall-clock milliseconds —
  // queue wait and service time are real implementation costs, not part of
  // the simulated-latency model.
  std::shared_ptr<obs::Counter> submitted_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> completed_ = std::make_shared<obs::Counter>();
  // hermes_pool_rejected_total{reason=full|shutdown}.
  std::shared_ptr<obs::Counter> rejected_full_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> rejected_shutdown_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Gauge> queue_depth_ = std::make_shared<obs::Gauge>();
  std::shared_ptr<obs::Histogram> queue_wait_ms_;
  std::shared_ptr<obs::Histogram> service_ms_;

  std::vector<std::thread> workers_;
};

}  // namespace hermes

#endif  // HERMES_ENGINE_QUERY_POOL_H_
