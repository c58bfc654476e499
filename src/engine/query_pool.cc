#include "engine/query_pool.h"

#include <algorithm>
#include <utility>

namespace hermes {

std::unique_ptr<QueryPool> Mediator::Serve(QueryPoolOptions options) {
  return std::make_unique<QueryPool>(this, options);
}

QueryPool::QueryPool(Mediator* mediator, QueryPoolOptions options)
    : mediator_(mediator),
      queue_capacity_(options.queue_capacity > 0
                          ? options.queue_capacity
                          : 2 * std::max<size_t>(options.num_threads, 1)),
      queue_wait_ms_(std::make_shared<obs::Histogram>(
          obs::Histogram::ExponentialBounds(0.01, 4.0, 12))),
      service_ms_(std::make_shared<obs::Histogram>(
          obs::Histogram::ExponentialBounds(0.01, 4.0, 12))) {
  obs::MetricsRegistry& registry = mediator_->metrics();
  registry.Register("hermes_pool_submitted_total",
                    "Queries accepted into the pool's queue", {}, submitted_);
  registry.Register("hermes_pool_completed_total",
                    "Queries whose future was fulfilled", {}, completed_);
  const std::string rejected_help =
      "Submissions refused, by reason (full, shutdown)";
  registry.Register("hermes_pool_rejected_total", rejected_help,
                    {{"reason", "full"}}, rejected_full_);
  registry.Register("hermes_pool_rejected_total", rejected_help,
                    {{"reason", "shutdown"}}, rejected_shutdown_);
  registry.Register("hermes_pool_queue_depth",
                    "Queries currently waiting in the submission queue", {},
                    queue_depth_);
  registry.Register("hermes_pool_queue_wait_ms",
                    "Wall-clock milliseconds a query waited in the queue", {},
                    queue_wait_ms_);
  registry.Register("hermes_pool_service_ms",
                    "Wall-clock milliseconds a worker spent serving a query",
                    {}, service_ms_);
  mediator_->BeginServing();
  size_t threads = std::max<size_t>(options.num_threads, 1);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryPool::~QueryPool() { Shutdown(); }

std::future<Result<QueryResult>> QueryPool::EnqueueLocked(Task task) {
  std::future<Result<QueryResult>> future = task.promise.get_future();
  // Fix the query id now, in submission order, so it does not depend on
  // which worker picks the task up when.
  if (task.options.query_id == 0) {
    task.options.query_id = mediator_->ReserveQueryId();
  }
  task.enqueued_at = std::chrono::steady_clock::now();
  queue_.push_back(std::move(task));
  submitted_->Add(1);
  queue_depth_->Set(static_cast<double>(queue_.size()));
  queue_ready_.notify_one();
  return future;
}

std::future<Result<QueryResult>> QueryPool::Submit(std::string query_text,
                                                   QueryOptions options) {
  Task task;
  task.text = std::move(query_text);
  task.options = options;

  std::unique_lock<std::mutex> lock(mu_);
  queue_space_.wait(
      lock, [this] { return stopping_ || queue_.size() < queue_capacity_; });
  if (stopping_) {
    rejected_shutdown_->Add(1);
    task.promise.set_value(Status::FailedPrecondition(
        "QueryPool is shut down; no further submissions accepted"));
    return task.promise.get_future();
  }
  return EnqueueLocked(std::move(task));
}

Status QueryPool::TrySubmit(std::string query_text, QueryOptions options,
                            std::future<Result<QueryResult>>* out) {
  Task task;
  task.text = std::move(query_text);
  task.options = options;

  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    rejected_shutdown_->Add(1);
    return Status::FailedPrecondition(
        "QueryPool is shut down; no further submissions accepted");
  }
  if (queue_.size() >= queue_capacity_) {
    rejected_full_->Add(1);
    return Status::ResourceExhausted(
        "submission queue full: depth " + std::to_string(queue_.size()) +
        "/" + std::to_string(queue_capacity_));
  }
  *out = EnqueueLocked(std::move(task));
  return Status::OK();
}

void QueryPool::WorkerLoop() {
  using Clock = std::chrono::steady_clock;
  auto ms_between = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->Set(static_cast<double>(queue_.size()));
      queue_space_.notify_one();
    }
    Clock::time_point started = Clock::now();
    queue_wait_ms_->Observe(ms_between(task.enqueued_at, started));
    Result<QueryResult> result = mediator_->Query(task.text, task.options);
    service_ms_->Observe(ms_between(started, Clock::now()));
    task.promise.set_value(std::move(result));
    completed_->Add(1);
  }
}

void QueryPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (!workers_.empty()) {
    workers_.clear();
    mediator_->EndServing();
  }
}

QueryPoolStats QueryPool::stats() const {
  QueryPoolStats snapshot;
  snapshot.submitted = submitted_->Value();
  snapshot.completed = completed_->Value();
  snapshot.rejected = static_cast<uint64_t>(rejected_full_->Value()) +
                      static_cast<uint64_t>(rejected_shutdown_->Value());
  return snapshot;
}

}  // namespace hermes
