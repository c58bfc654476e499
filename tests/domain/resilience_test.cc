#include "domain/resilience/resilience.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "domain/pipeline.h"

namespace hermes::resilience {
namespace {

constexpr double kTimeoutMs = 2000.0;  // per-failure penalty the fake charges

DomainCall TheCall() { return DomainCall{"video", "frames", {Value::Int(4)}}; }

/// A fake inner layer (the network + domain below the resilience layer):
/// unavailable until the query clock reaches `recover_at_ms`, then answers
/// with fixed latencies. Each failed attempt charges the retry timeout the
/// way NetworkInterceptor does.
struct FlakySite {
  double recover_at_ms = 0.0;
  int attempts = 0;
  double slow_all_ms = 10.0;  // latency of a successful response

  CallInterceptor::Next AsNext() {
    return [this](CallContext& ctx, const DomainCall&) -> Result<CallOutput> {
      ++attempts;
      if (ctx.now_ms < recover_at_ms) {
        ctx.last_failure_site = "umd";
        ctx.last_failure_cause = "outage";
        ctx.last_call_penalty_ms = kTimeoutMs;
        return Status::Unavailable("site 'umd' is down");
      }
      CallOutput out;
      out.answers = {Value::Int(1)};
      out.first_ms = 5.0;
      out.all_ms = slow_all_ms;
      return out;
    };
  }
};

ResiliencePolicy NoJitterRetries(int max_retries) {
  ResiliencePolicy policy;
  policy.retry.max_retries = max_retries;
  policy.retry.backoff_base_ms = 100.0;
  policy.retry.backoff_multiplier = 2.0;
  policy.retry.backoff_jitter = 0.0;
  return policy;
}

TEST(ResilienceTest, DefaultPolicyIsSingleAttemptPassThrough) {
  FlakySite site;
  site.recover_at_ms = 1e12;  // never recovers
  ResilienceInterceptor shield("umd", 1996, nullptr);
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsUnavailable());
  EXPECT_EQ(site.attempts, 1);
  EXPECT_EQ(ctx.metrics.retries, 0u);
  // Giving up names the lost source.
  ASSERT_EQ(ctx.source_errors.size(), 1u);
  EXPECT_EQ(ctx.source_errors[0].site, "umd");
  EXPECT_EQ(ctx.source_errors[0].cause, "outage");
  EXPECT_FALSE(ctx.source_errors[0].masked);
}

TEST(ResilienceTest, BackoffRidesOutAnOutageWindow) {
  // Attempt 0 at t=0 fails (+2000ms timeout, +100ms backoff); attempt 1 at
  // t=2100 fails (+2000, +200); attempt 2 at t=4300 is past the outage.
  FlakySite site;
  site.recover_at_ms = 2500.0;
  ResilienceInterceptor shield("umd", 1996, nullptr, NoJitterRetries(3));
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(site.attempts, 3);
  EXPECT_EQ(ctx.metrics.retries, 2u);
  EXPECT_DOUBLE_EQ(ctx.metrics.retry_backoff_ms, 300.0);  // 100 + 200
  // The waits ride on the answer's simulated latency.
  EXPECT_DOUBLE_EQ(run->all_ms, 4300.0 + 10.0);
  EXPECT_DOUBLE_EQ(run->first_ms, 4300.0 + 5.0);
  EXPECT_TRUE(ctx.source_errors.empty());  // it recovered: nothing lost
}

TEST(ResilienceTest, BackoffJitterIsDeterministicPerQueryAndCall) {
  ResiliencePolicy policy = NoJitterRetries(2);
  policy.retry.backoff_jitter = 0.10;
  auto run_once = [&](uint64_t seed, uint64_t query_id) {
    FlakySite site;
    site.recover_at_ms = 1e12;
    ResilienceInterceptor shield("umd", seed, nullptr, policy);
    CallContext ctx;
    ctx.query_id = query_id;
    (void)shield.Intercept(ctx, TheCall(), site.AsNext());
    return ctx.metrics.retry_backoff_ms;
  };
  double first = run_once(1996, 7);
  EXPECT_DOUBLE_EQ(first, run_once(1996, 7));  // bit-identical replay
  // Jitter stays inside the +/-10% band around the nominal 100+200ms.
  EXPECT_GE(first, 300.0 * 0.9);
  EXPECT_LE(first, 300.0 * 1.1);
  // ... and the stream really is keyed on (seed, query).
  EXPECT_NE(first, run_once(1996, 8));
  EXPECT_NE(first, run_once(2024, 7));
}

TEST(ResilienceTest, CallDeadlineBoundsTheRetrySchedule) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResiliencePolicy policy = NoJitterRetries(5);
  policy.call_deadline_ms = 1500.0;  // one 2000ms timeout already overshoots
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsDeadlineExceeded());
  EXPECT_EQ(site.attempts, 1);  // attempt 2 was never issued
  EXPECT_EQ(ctx.metrics.deadline_aborts, 1u);
  ASSERT_EQ(ctx.source_errors.size(), 1u);
  EXPECT_EQ(ctx.source_errors[0].cause, "deadline");
}

TEST(ResilienceTest, QueryDeadlineAbortsBeforeAnyAttempt) {
  FlakySite site;
  ResilienceInterceptor shield("umd", 1996, nullptr, NoJitterRetries(2));
  CallContext ctx;
  ctx.now_ms = 10.0;
  ctx.deadline_ms = 5.0;  // already past the query deadline
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsDeadlineExceeded());
  EXPECT_EQ(site.attempts, 0);
  EXPECT_EQ(ctx.metrics.deadline_aborts, 1u);
}

TEST(ResilienceTest, SlowResponseIsAbandonedAtTheCallDeadline) {
  FlakySite site;
  site.slow_all_ms = 50000.0;  // a slow-injection-sized response
  ResiliencePolicy policy;
  policy.call_deadline_ms = 10000.0;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsDeadlineExceeded());
  EXPECT_EQ(ctx.metrics.deadline_aborts, 1u);
}

TEST(ResilienceTest, BreakerOpensShedsAndProbesBackClosed) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResiliencePolicy policy;  // no retries: one attempt per call
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 2;
  policy.breaker.probe_interval = 4;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  CallContext ctx;

  // Calls 1-2 attempt and fail: the breaker trips at the threshold.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  }
  EXPECT_EQ(site.attempts, 2);
  ASSERT_EQ(ctx.breaker_states.count("umd"), 1u);
  EXPECT_EQ(ctx.breaker_states["umd"].state,
            CallContext::BreakerState::kOpen);

  // Calls 3-5 are shed without touching the site; call 6 is the probe.
  for (int i = 0; i < 3; ++i) {
    Result<CallOutput> shed = shield.Intercept(ctx, TheCall(), site.AsNext());
    EXPECT_FALSE(shed.ok());
  }
  EXPECT_EQ(site.attempts, 2);  // load was shed, not attempted
  EXPECT_EQ(ctx.metrics.breaker_shed, 3u);
  EXPECT_EQ(ctx.source_errors.back().cause, "breaker-open");

  site.recover_at_ms = 0.0;  // the site comes back...
  Result<CallOutput> probe = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(probe.ok()) << probe.status();  // ...and the probe finds out
  EXPECT_EQ(site.attempts, 3);
  EXPECT_EQ(ctx.breaker_states["umd"].state,
            CallContext::BreakerState::kClosed);
  // Closed again: the next call goes straight through.
  EXPECT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  EXPECT_EQ(site.attempts, 4);
  EXPECT_EQ(ctx.metrics.breaker_shed, 3u);
}

TEST(ResilienceTest, FailedProbeReopensTheBreaker) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResiliencePolicy policy;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 1;
  policy.breaker.probe_interval = 2;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  CallContext ctx;
  EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());  // trip
  EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());  // shed
  EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());  // probe
  EXPECT_EQ(site.attempts, 2);  // trip + failed probe
  EXPECT_EQ(ctx.breaker_states["umd"].state,
            CallContext::BreakerState::kOpen);
  EXPECT_EQ(ctx.metrics.breaker_shed, 1u);
}

TEST(ResilienceTest, FailoverReroutesAfterGivingUp) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResilienceInterceptor shield("umd", 1996, nullptr);
  shield.set_failover([](CallContext&, const DomainCall&) {
    CallOutput out;
    out.answers = {Value::Str("mirror")};
    out.first_ms = 1.0;
    out.all_ms = 2.0;
    return Result<CallOutput>(std::move(out));
  });
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->answers.size(), 1u);
  EXPECT_EQ(run->answers[0], Value::Str("mirror"));
  EXPECT_EQ(ctx.metrics.failovers, 1u);
  // The time burned on the dead primary precedes the alternate's answer.
  EXPECT_DOUBLE_EQ(run->all_ms, kTimeoutMs + 2.0);
  EXPECT_TRUE(ctx.source_errors.empty());  // nothing was lost in the end
}

TEST(ResilienceTest, FailoverCanBeDisabledByPolicy) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResiliencePolicy policy;
  policy.enable_failover = false;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  bool failover_ran = false;
  shield.set_failover([&](CallContext&, const DomainCall&) {
    failover_ran = true;
    return Result<CallOutput>(CallOutput{});
  });
  CallContext ctx;
  EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  EXPECT_FALSE(failover_ran);
  EXPECT_EQ(ctx.metrics.failovers, 0u);
}

TEST(ResilienceTest, NonRetryableErrorsPassThroughUntouched) {
  ResilienceInterceptor shield("umd", 1996, nullptr, NoJitterRetries(3));
  CallContext ctx;
  int attempts = 0;
  auto next = [&](CallContext&, const DomainCall&) -> Result<CallOutput> {
    ++attempts;
    return Status::InvalidArgument("bad call shape");
  };
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), next);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(attempts, 1);  // invariant violations are not retried
  EXPECT_EQ(ctx.metrics.retries, 0u);
  EXPECT_TRUE(ctx.source_errors.empty());  // and not a "lost source" either
}

TEST(ResilienceTest, EstimatePassesThroughForFullyAvailableSites) {
  ResilienceInterceptor shield("umd", 1996, nullptr, NoJitterRetries(3));
  lang::DomainCallSpec spec;
  auto next = [](const lang::DomainCallSpec&) {
    return Result<CostVector>(CostVector(10.0, 20.0, 5.0));
  };
  Result<CostVector> cost = shield.EstimateCost(spec, next);
  ASSERT_TRUE(cost.ok());
  // No link → availability 1 → byte-identical inner estimate (what keeps
  // the historical experiment tables unchanged).
  EXPECT_DOUBLE_EQ(cost->t_first_ms, 10.0);
  EXPECT_DOUBLE_EQ(cost->t_all_ms, 20.0);
  EXPECT_DOUBLE_EQ(cost->cardinality, 5.0);
}

// ---- Hedged requests -------------------------------------------------------

/// Fake inner layer for the hedge tests: answers each attempt with a
/// scripted latency; a negative entry fails that attempt with Unavailable.
/// Like NetworkInterceptor it leaves only failure breadcrumbs and the
/// timeout penalty on the context — it records no SourceError (only the
/// resilience layer's GiveUp does).
struct ScriptedSite {
  std::vector<double> latencies_ms;
  size_t attempts = 0;

  CallInterceptor::Next AsNext() {
    return [this](CallContext& ctx, const DomainCall&) -> Result<CallOutput> {
      double ms =
          attempts < latencies_ms.size() ? latencies_ms[attempts] : 10.0;
      ++attempts;
      if (ms < 0.0) {
        ctx.last_failure_site = "umd";
        ctx.last_failure_cause = "outage";
        ctx.last_call_penalty_ms = kTimeoutMs;
        return Status::Unavailable("site 'umd' is down");
      }
      CallOutput out;
      out.answers = {Value::Int(1)};
      out.first_ms = ms / 2.0;
      out.all_ms = ms;
      return out;
    };
  }
};

/// A failover replica that always answers in `ms` and records when it was
/// asked.
struct Replica {
  double ms = 5.0;
  std::vector<double> asked_at_ms;

  ResilienceInterceptor::FailoverFn AsRoute() {
    return [this](CallContext& ctx, const DomainCall&) -> Result<CallOutput> {
      asked_at_ms.push_back(ctx.now_ms);
      CallOutput out;
      out.answers = {Value::Int(2)};
      out.first_ms = ms / 2.0;
      out.all_ms = ms;
      return out;
    };
  }
};

ResiliencePolicy HedgeOnly(double quantile = 0.5, size_t min_samples = 2,
                           double budget_percent = 100.0) {
  ResiliencePolicy policy;
  policy.hedge.enabled = true;
  policy.hedge.quantile = quantile;
  policy.hedge.min_samples = min_samples;
  policy.hedge.budget_percent = budget_percent;
  policy.hedge.baseline_trigger_factor = 0.0;  // ring-armed only
  return policy;
}

TEST(ResilienceTest, HedgingIsOffByDefault) {
  ScriptedSite site{{10.0, 10.0, 100.0}};
  Replica replica;
  ResilienceInterceptor shield("umd", 1996, nullptr);
  shield.set_failover(replica.AsRoute());
  CallContext ctx;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  }
  EXPECT_TRUE(replica.asked_at_ms.empty());
  EXPECT_EQ(ctx.metrics.hedges, 0u);
  EXPECT_TRUE(ctx.hedge_states.empty());  // no state is even touched
}

TEST(ResilienceTest, HedgeWinAdoptsTheFasterReplicaAnswer) {
  // Warm the ring with two 10ms calls (median trigger = 10ms), then a
  // 100ms straggler: the hedge opens at t=10 on the simulated clock and
  // its 5ms answer lands at 15ms — it wins.
  ScriptedSite site{{10.0, 10.0, 100.0}};
  Replica replica;
  ResilienceInterceptor shield("umd", 1996, nullptr, HedgeOnly());
  shield.set_failover(replica.AsRoute());
  CallContext ctx;
  ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 15.0);  // trigger 10 + replica 5
  EXPECT_EQ(run->answers[0], Value::Int(2));
  EXPECT_EQ(ctx.metrics.hedges, 1u);
  EXPECT_EQ(ctx.metrics.hedge_wins, 1u);
  EXPECT_EQ(ctx.metrics.failovers, 0u);  // a hedge is not a failover
  ASSERT_EQ(replica.asked_at_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(replica.asked_at_ms[0], 10.0);  // opened at the trigger
  EXPECT_DOUBLE_EQ(ctx.now_ms, 0.0);  // the clock was restored
}

TEST(ResilienceTest, SlowReplicaLosesAndThePrimaryAnswerStands) {
  ScriptedSite site{{10.0, 10.0, 100.0}};
  Replica replica;
  replica.ms = 500.0;  // slower than the primary even from the trigger
  ResilienceInterceptor shield("umd", 1996, nullptr, HedgeOnly());
  shield.set_failover(replica.AsRoute());
  CallContext ctx;
  ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 100.0);  // the primary stood
  EXPECT_EQ(run->answers[0], Value::Int(1));
  EXPECT_EQ(ctx.metrics.hedges, 1u);
  EXPECT_EQ(ctx.metrics.hedge_wins, 0u);
}

TEST(ResilienceTest, HedgeBudgetCapsSpeculativeHedges) {
  // 10% budget: the first hedge is free, the second needs >= 10 answered
  // calls to the site. Every call past the warmup is a 100ms straggler.
  ScriptedSite site{{10.0, 10.0, 100.0, 100.0, 100.0}};
  Replica replica;
  ResilienceInterceptor shield("umd", 1996, nullptr,
                               HedgeOnly(0.5, 2, /*budget_percent=*/10.0));
  shield.set_failover(replica.AsRoute());
  CallContext ctx;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  }
  EXPECT_EQ(ctx.metrics.hedges, 1u);  // the free one; budget blocked the rest
  EXPECT_EQ(replica.asked_at_ms.size(), 1u);
}

TEST(ResilienceTest, ColdRingFallsBackToBaselineTrigger) {
  // No warmup at all: the ring is cold, but a DCSM baseline of 10ms with
  // factor 2 arms the hedge at t=20 for the very first call.
  ScriptedSite site{{100.0}};
  Replica replica;
  ResiliencePolicy policy = HedgeOnly(0.5, /*min_samples=*/4);
  policy.hedge.baseline_trigger_factor = 2.0;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  shield.set_failover(replica.AsRoute());
  shield.set_baseline([](const DomainCall&) { return 10.0; });
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 25.0);  // trigger 20 + replica 5
  EXPECT_EQ(ctx.metrics.hedge_wins, 1u);

  // Without a baseline the cold ring leaves the hedge unarmed.
  ScriptedSite cold{{100.0}};
  ResilienceInterceptor unarmed("umd", 1996, nullptr, policy);
  unarmed.set_failover(replica.AsRoute());
  CallContext ctx2;
  Result<CallOutput> slow = unarmed.Intercept(ctx2, TheCall(), cold.AsNext());
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_DOUBLE_EQ(slow->all_ms, 100.0);
  EXPECT_EQ(ctx2.metrics.hedges, 0u);
}

TEST(ResilienceTest, FailedAttemptIsRescuedByTheHedgeAndMasksNothing) {
  // Warmup, then the primary fails outright: the hedge that was already in
  // flight at the trigger adopts the call. The rescued call lost nothing,
  // so it records no SourceError — and must not mask one an earlier call
  // to another site recorded for the same function.
  ScriptedSite site{{10.0, 10.0, -1.0}};
  Replica replica;
  ResilienceInterceptor shield("umd", 1996, nullptr, HedgeOnly());
  shield.set_failover(replica.AsRoute());
  CallContext ctx;
  SourceError earlier;
  earlier.site = "elsewhere";
  earlier.domain = "mirror";
  earlier.function = TheCall().function;
  earlier.cause = "outage";
  ctx.source_errors.push_back(earlier);
  ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 15.0);  // trigger 10 + replica 5
  EXPECT_EQ(ctx.metrics.hedges, 1u);
  EXPECT_EQ(ctx.metrics.hedge_wins, 1u);
  EXPECT_EQ(ctx.metrics.failovers, 0u);  // rescued before any give-up
  ASSERT_EQ(ctx.source_errors.size(), 1u);  // nothing new recorded
  EXPECT_FALSE(ctx.source_errors[0].masked);  // and nothing masked
}

TEST(ResilienceTest, HalfOpenProbeIsNeverHedged) {
  // A warmed ring would hedge a 100ms straggler — but not a half-open
  // probe: the probe must reach the struggling site itself, or the breaker
  // would close on a replica's answer. Probes also leave the ring alone.
  ScriptedSite site{{10.0, 10.0, 100.0}};
  Replica replica;
  ResiliencePolicy policy = HedgeOnly();
  policy.breaker.enabled = true;
  policy.breaker.probe_interval = 1;  // the next call while open probes
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  shield.set_failover(replica.AsRoute());
  CallContext ctx;
  ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ASSERT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ctx.breaker_states["umd"].state = CallContext::BreakerState::kOpen;
  Result<CallOutput> probe = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_DOUBLE_EQ(probe->all_ms, 100.0);  // the primary's own answer
  EXPECT_TRUE(replica.asked_at_ms.empty());
  EXPECT_EQ(ctx.metrics.hedges, 0u);
  EXPECT_EQ(ctx.breaker_states["umd"].state,
            CallContext::BreakerState::kClosed);
  EXPECT_EQ(ctx.hedge_states["umd"].calls_seen, 2u);
  EXPECT_EQ(ctx.hedge_states["umd"].latency_window.size(), 2u);
}

TEST(ResilienceTest, HedgeDecisionsReplayPerQuery) {
  // Every hedge decision reads only the query's own CallContext: replaying
  // the call sequence is bit-identical, and another query interleaving its
  // calls through the same shared interceptor changes nothing.
  ResiliencePolicy policy = NoJitterRetries(1);
  policy.hedge = HedgeOnly(0.5, 2, 50.0).hedge;
  policy.hedge.baseline_trigger_factor = 2.0;
  const std::vector<double> script = {10.0, 12.0, -1.0, 100.0,
                                      11.0, -1.0, 100.0, 9.0};
  auto run_once = [&](bool interleave) {
    ScriptedSite site{script};
    ScriptedSite other{{300.0, -1.0, 300.0, 300.0, -1.0, 300.0, 300.0, 1.0,
                        300.0, 300.0}};
    Replica replica;
    ResilienceInterceptor shield("umd", 1996, nullptr, policy);
    shield.set_failover(replica.AsRoute());
    shield.set_baseline([](const DomainCall&) { return 8.0; });
    CallContext ctx;
    ctx.query_id = 7;
    CallContext neighbor;
    neighbor.query_id = 8;
    std::string trace;
    while (site.attempts < script.size()) {
      ctx.now_ms = 5.0 * static_cast<double>(site.attempts);
      Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g;",
                    run.ok() ? run->all_ms : -1.0);
      trace += buf;
      if (interleave) {
        (void)shield.Intercept(neighbor, TheCall(), other.AsNext());
      }
    }
    trace += std::to_string(ctx.metrics.hedges) + "/" +
             std::to_string(ctx.metrics.hedge_wins) + "/" +
             std::to_string(ctx.metrics.retries);
    return trace;
  };
  const std::string first = run_once(false);
  EXPECT_EQ(first, run_once(false));
  EXPECT_EQ(first, run_once(true));
}

}  // namespace
}  // namespace hermes::resilience
