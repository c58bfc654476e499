#ifndef HERMES_DOMAIN_RESILIENCE_RESILIENCE_H_
#define HERMES_DOMAIN_RESILIENCE_RESILIENCE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/sim_costs.h"
#include "domain/pipeline.h"
#include "net/network_interceptor.h"
#include "obs/metrics.h"

namespace hermes::resilience {

/// Bounded-retry policy: a failed (Unavailable) call is reattempted up to
/// `max_retries` times, waiting base * multiplier^attempt (+/- jitter) of
/// simulated time between attempts. Waits are charged on the simulated
/// clock — never slept — and the wait advances the call's view of the
/// query clock, so a retry scheduled past the end of an outage window
/// succeeds.
struct RetryPolicy {
  int max_retries = 0;  ///< Extra attempts after the first (0 = no retry).
  double backoff_base_ms = kDefaultRetryBackoffBaseMs;
  double backoff_multiplier = kDefaultRetryBackoffMultiplier;
  /// Relative jitter on each wait, drawn from a per-(query, call, attempt)
  /// stream — the schedule replays bit-identically at any thread count.
  double backoff_jitter = kDefaultRetryBackoffJitter;
};

/// Per-site circuit breaker (closed → open → half-open). State is scoped
/// to the query's CallContext, so breaker transitions are a pure function
/// of the query's own call sequence (thread-count-invariant replay).
struct BreakerPolicy {
  bool enabled = false;
  /// Consecutive final failures (retries included) that trip the breaker.
  uint64_t failure_threshold = 3;
  /// While open, every `probe_interval`-th call becomes a half-open probe
  /// that actually goes out; the rest are shed without any attempt.
  uint64_t probe_interval = 8;
};

/// Hedged requests: an attempt whose primary response is slower than the
/// per-(query, site) trailing-latency quantile gets a speculative second
/// request to the failover replica at that trigger time on the simulated
/// clock; the first response wins and the loser is cancelled. An attempt
/// that fails outright adopts the hedge's answer (a rescue). Needs a wired
/// failover replica (Mediator::AddFailover) but not `enable_failover`;
/// half-open probes are never hedged.
struct HedgePolicy {
  bool enabled = false;
  double quantile = 0.95;    ///< Trailing-latency quantile that arms a hedge.
  size_t min_samples = 4;    ///< Observations before the trigger is armed.
  /// Max speculative hedges as % of the query's answered calls to the
  /// site (the first is free; rescues are not gated).
  double budget_percent = 5.0;
  /// While the trailing ring has fewer than min_samples observations, arm
  /// the hedge at baseline_trigger_factor × the DCSM baseline for the call
  /// shape instead of leaving it unarmed. Early failures on a cold ring are
  /// exactly the tail a hedge exists to cut; 0 disables the fallback.
  double baseline_trigger_factor = 2.0;
};

/// Size of the trailing-latency ring the hedge trigger reads, per query
/// and site.
inline constexpr size_t kHedgeWindow = 32;

/// Everything the resilience layer enforces for one site's calls.
struct ResiliencePolicy {
  RetryPolicy retry;
  BreakerPolicy breaker;
  HedgePolicy hedge;
  /// Per-call deadline on the simulated clock: a call (retries, backoff
  /// and response time included) that would complete later is abandoned
  /// with DeadlineExceeded. +inf = none.
  double call_deadline_ms = std::numeric_limits<double>::infinity();
  /// Allow failover to a wired alternate source on final failure.
  bool enable_failover = true;
};

/// The resilience layer of the call pipeline. Sits between the cache layer
/// and the network layer ([cache →] resilience → network → domain) and
/// implements the degradation ladder's active steps:
///
///   1. circuit breaker: under sustained failure, shed calls without
///      attempting them (half-open probes excepted);
///   2. bounded retries with exponential backoff + jitter, charged on the
///      simulated clock; each attempt may be hedged to the failover
///      replica (HedgePolicy);
///   3. per-call and per-query deadlines (slow responses are abandoned);
///   4. failover to an alternate source exporting the same function;
///   5. structured SourceError recording — the cache layer above may still
///      mask the failure from stale material (marked degraded), and the
///      engine folds unmasked errors into QueryResult::completeness.
///
/// With the default policy the layer is pass-through: one attempt, no
/// breaker, no hedge, no deadline, identical latencies and statuses — which
/// is what keeps the historical experiment tables byte-identical.
///
/// Breaker, hedge and retry state lives on the query's CallContext, so
/// every decision is a pure function of the query's own call sequence on
/// the simulated clock (bit-identical replay at any QueryPool thread
/// count). Shared members are metrics only.
class ResilienceInterceptor : public CallInterceptor {
 public:
  using FailoverFn =
      std::function<Result<CallOutput>(CallContext&, const DomainCall&)>;
  /// Expected all_ms of `call` from the DCSM; <= 0 means unknown.
  using BaselineFn = std::function<double(const DomainCall&)>;

  /// `link` is the network layer below (for the site's availability and
  /// retry timeout); may be null for local domains, in which case
  /// estimates pass through and penalties use the defaults. `seed` salts
  /// the backoff-jitter streams (the mediator passes the network seed).
  ResilienceInterceptor(std::string site_name, uint64_t seed,
                        std::shared_ptr<net::NetworkInterceptor> link,
                        ResiliencePolicy policy = {})
      : site_name_(std::move(site_name)),
        seed_(seed),
        link_(std::move(link)),
        policy_(policy) {}

  const std::string& name() const override;

  Result<CallOutput> Intercept(CallContext& ctx, const DomainCall& call,
                               const Next& next) override;

  /// Adds the expected retry penalty — (1-availability)-weighted retry
  /// timeouts plus expected backoff waits — onto the inner estimate. A
  /// fully available site passes through unchanged.
  Result<CostVector> EstimateCost(const lang::DomainCallSpec& pattern,
                                  const EstimateNext& next) const override;

  const ResiliencePolicy& policy() const { return policy_; }
  /// Wiring-time only: policies must not change while queries run.
  void set_policy(const ResiliencePolicy& policy) { policy_ = policy; }

  /// Wiring-time only: where to send a call whose site was given up on —
  /// and where hedges go. Mediator::AddFailover installs a function that
  /// reroutes the call to an alternate registered domain exporting the
  /// same function.
  void set_failover(FailoverFn failover) { failover_ = std::move(failover); }
  bool has_failover() const { return failover_ != nullptr; }

  /// Wiring-time only: the cold-ring hedge trigger's baseline.
  void set_baseline(BaselineFn baseline) { baseline_ = std::move(baseline); }

  /// Registers the hermes_resilience_* and hermes_hedge_* counters with
  /// `registry`, labeled {site=<site name>, domain=<domain>}.
  void BindMetrics(obs::MetricsRegistry& registry,
                   const std::string& domain = "");

 private:
  /// The retry loop: runs Attempt up to 1 + max_retries times (once for
  /// a half-open `probe`), charging failed-attempt penalties and backoff
  /// waits into `*waited_ms` and advancing the call's clock view between
  /// attempts.
  Result<CallOutput> AttemptWithRetries(CallContext& ctx,
                                        const DomainCall& call,
                                        const Next& next, bool probe,
                                        double* waited_ms);

  /// One attempt through `next`, hedged to the failover replica when the
  /// HedgePolicy arms it (never for a probe).
  Result<CallOutput> Attempt(CallContext& ctx, const DomainCall& call,
                             const Next& next, bool probe);

  /// The armed hedge trigger for `st`: the trailing-quantile latency once
  /// the ring has min_samples, else baseline_trigger_factor × the DCSM
  /// baseline for `call`, else negative (unarmed).
  double HedgeTriggerMs(const CallContext::HedgeState& st,
                        const DomainCall& call) const;

  /// Final-failure path: failover if wired, else record a SourceError and
  /// propagate `failure` annotated with site and cause.
  Result<CallOutput> GiveUp(CallContext& ctx, const DomainCall& call,
                            Status failure, const std::string& cause,
                            double lost_ms);

  std::string site_name_;
  uint64_t seed_;
  std::shared_ptr<net::NetworkInterceptor> link_;
  ResiliencePolicy policy_;
  FailoverFn failover_;
  BaselineFn baseline_;

  // hermes_resilience_* instruments (count whether or not bound).
  std::shared_ptr<obs::Counter> retries_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> giveups_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> shed_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> to_open_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> to_half_open_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> to_closed_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> deadline_aborts_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> failovers_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::FloatCounter> backoff_ms_ =
      std::make_shared<obs::FloatCounter>();
  std::shared_ptr<obs::Counter> hedges_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> hedge_wins_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> hedge_cancelled_ =
      std::make_shared<obs::Counter>();
};

}  // namespace hermes::resilience

#endif  // HERMES_DOMAIN_RESILIENCE_RESILIENCE_H_
