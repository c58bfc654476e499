#include "domain/resilience/resilience.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace hermes::resilience {

namespace {

/// Flight-recorder note of a breaker state change on `site` at `sim_ms`.
void RecordBreakerEvent(CallContext& ctx, const std::string& site,
                        const char* to_state, double sim_ms,
                        uint64_t consecutive_failures) {
  if (ctx.recorder == nullptr) return;
  obs::FlightEvent ev =
      obs::FlightEvent::Make(obs::FlightEventKind::kBreakerTransition,
                             ctx.query_id, ctx.recorder_seq++, sim_ms);
  ev.set_site(site);
  ev.set_detail(to_state);
  ev.aux = consecutive_failures;
  ctx.recorder->Emit(ev);
}

/// Flight-recorder note of a hedge step ("issued", "win", "cancelled") on
/// `site` at `sim_ms`.
void RecordHedgeEvent(CallContext& ctx, const std::string& site,
                      const std::string& domain, const char* detail,
                      double sim_ms, double value, uint64_t hedges_issued) {
  if (ctx.recorder == nullptr) return;
  obs::FlightEvent ev = obs::FlightEvent::Make(
      obs::FlightEventKind::kHedge, ctx.query_id, ctx.recorder_seq++, sim_ms);
  ev.set_site(site);
  ev.set_domain(domain);
  ev.set_detail(detail);
  ev.value = value;
  ev.aux = hedges_issued;
  ctx.recorder->Emit(ev);
}

/// Salt separating the backoff-jitter streams from the network-jitter and
/// fault-plan streams derived from the same base seed.
constexpr uint64_t kBackoffStreamSalt = 0xb0ff0e75ULL;

using BreakerState = CallContext::BreakerState;

}  // namespace

const std::string& ResilienceInterceptor::name() const {
  static const std::string kName = "resilience";
  return kName;
}

void ResilienceInterceptor::BindMetrics(obs::MetricsRegistry& registry,
                                        const std::string& domain) {
  obs::Labels labels = {{"site", site_name_}};
  if (!domain.empty()) labels.push_back({"domain", domain});
  registry.Register("hermes_resilience_retries_total",
                    "Retry attempts issued after a failed call", labels,
                    retries_);
  registry.Register("hermes_resilience_giveups_total",
                    "Calls abandoned after exhausting the retry budget",
                    labels, giveups_);
  registry.Register("hermes_resilience_breaker_shed_total",
                    "Calls short-circuited by an open circuit breaker",
                    labels, shed_);
  obs::Labels open_labels = labels;
  open_labels.push_back({"to", "open"});
  registry.Register("hermes_resilience_breaker_transitions_total",
                    "Circuit-breaker state transitions", open_labels,
                    to_open_);
  obs::Labels half_labels = labels;
  half_labels.push_back({"to", "half_open"});
  registry.Register("hermes_resilience_breaker_transitions_total",
                    "Circuit-breaker state transitions", half_labels,
                    to_half_open_);
  obs::Labels closed_labels = labels;
  closed_labels.push_back({"to", "closed"});
  registry.Register("hermes_resilience_breaker_transitions_total",
                    "Circuit-breaker state transitions", closed_labels,
                    to_closed_);
  registry.Register("hermes_resilience_deadline_aborts_total",
                    "Calls abandoned at a per-call or per-query deadline",
                    labels, deadline_aborts_);
  registry.Register("hermes_resilience_failovers_total",
                    "Calls rerouted to an alternate source after giving up",
                    labels, failovers_);
  registry.Register("hermes_resilience_backoff_sim_ms_total",
                    "Simulated time spent waiting between retry attempts",
                    labels, backoff_ms_);
  registry.Register("hermes_hedge_issued_total",
                    "Speculative hedge calls issued past the trailing-latency "
                    "trigger",
                    labels, hedges_);
  registry.Register("hermes_hedge_wins_total",
                    "Hedge calls whose response beat the primary", labels,
                    hedge_wins_);
  registry.Register("hermes_hedge_cancelled_total",
                    "Hedge calls cancelled because the primary won", labels,
                    hedge_cancelled_);
}

double ResilienceInterceptor::HedgeTriggerMs(
    const CallContext::HedgeState& st, const DomainCall& call) const {
  if (st.latency_window.size() < policy_.hedge.min_samples) {
    // Cold ring: borrow the cross-query DCSM baseline so the first few
    // calls of a query are still hedgeable. The factor keeps ordinary
    // jitter (bounded well under 2× the mean) from wasting budget.
    if (policy_.hedge.baseline_trigger_factor > 0.0 && baseline_) {
      double base = baseline_(call);
      if (base > 0.0) return policy_.hedge.baseline_trigger_factor * base;
    }
    return -1.0;
  }
  // Nearest-rank quantile over a copy of the trailing ring; the ring is
  // bounded by kHedgeWindow so this stays cheap.
  std::vector<double> sorted(st.latency_window);
  std::sort(sorted.begin(), sorted.end());
  double rank = policy_.hedge.quantile * static_cast<double>(sorted.size() - 1);
  size_t index = static_cast<size_t>(rank);
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

Result<CallOutput> ResilienceInterceptor::Attempt(CallContext& ctx,
                                                  const DomainCall& call,
                                                  const Next& next,
                                                  bool probe) {
  // A half-open probe goes out alone: it is the traffic that decides
  // whether the breaker closes, so a replica must not answer for it.
  if (!policy_.hedge.enabled || failover_ == nullptr || probe) {
    return next(ctx, call);
  }
  const std::string& site_key = site_name_.empty() ? call.domain : site_name_;
  CallContext::HedgeState& st = ctx.hedge_states[site_key];
  const double t_open = ctx.now_ms;
  auto note = [&](const char* step, double sim_ms, double value) {
    RecordHedgeEvent(ctx, site_key, call.domain, step, sim_ms, value,
                     st.hedges_issued);
  };
  // Opens the hedge at t_open + trigger on the simulated clock. The route
  // runs the replica's full pipeline under this query's context, so its
  // traffic and latency are charged to this query. A failed hedge is
  // cancelled, not lost: the replica's failure record (its SourceError,
  // failure site and cause, timeout penalty) is rolled back, so the
  // primary's retry loop and give-up see only the primary's own failure.
  auto hedge = [&](double trigger) {
    ++st.hedges_issued;
    ++ctx.metrics.hedges;
    hedges_->Add(1);
    note("issued", t_open + trigger, trigger);
    const size_t errors = ctx.source_errors.size();
    std::string failure_site = ctx.last_failure_site;
    std::string failure_cause = ctx.last_failure_cause;
    const double penalty_ms = ctx.last_call_penalty_ms;
    ctx.now_ms = t_open + trigger;
    Result<CallOutput> alt = failover_(ctx, call);
    ctx.now_ms = t_open;
    if (!alt.ok()) {
      ctx.source_errors.erase(
          ctx.source_errors.begin() + static_cast<std::ptrdiff_t>(errors),
          ctx.source_errors.end());
      ctx.last_failure_site = std::move(failure_site);
      ctx.last_failure_cause = std::move(failure_cause);
      ctx.last_call_penalty_ms = penalty_ms;
    }
    return alt;
  };
  auto won = [&](double sim_ms, double value) {
    ++ctx.metrics.hedge_wins;
    hedge_wins_->Add(1);
    note("win", sim_ms, value);
  };

  Result<CallOutput> run = next(ctx, call);
  if (!run.ok()) {
    // Failure rescue: on the simulated clock the speculative request was
    // already in flight at trigger time, so a failed attempt adopts the
    // hedge's answer instead of surfacing the failure. This is the hedge
    // win that cuts the *unavailability* tail (timeout penalties), not
    // just the jitter tail. Rescues are deliberately not budget-gated:
    // GiveUp's failover would send this call to the same replica anyway —
    // after the full timeout penalty. The rescue is that call moved earlier.
    // Nothing is recorded or masked: no SourceError exists for this call
    // yet (only GiveUp records one), and the rescued call lost nothing.
    const double trigger = HedgeTriggerMs(st, call);
    if (trigger < 0.0) return run;
    obs::SpanScope span(ctx.tracer, "hedge", "resilience", t_open + trigger);
    Result<CallOutput> alt = hedge(trigger);
    if (!alt.ok()) {
      span.MarkFailed(alt.status().ToString());
      hedge_cancelled_->Add(1);
      note("cancelled", t_open + trigger, 0.0);
      return run;
    }
    CallOutput out = std::move(alt).value();
    out.first_ms += trigger;
    out.all_ms += trigger;
    span.set_sim_end(t_open + out.all_ms);
    won(t_open + out.all_ms, out.all_ms);
    ++st.calls_seen;
    return out;
  }
  CallOutput out = std::move(run).value();
  ++st.calls_seen;

  // Hedge decision — after the primary's simulated latency is known, which
  // on the simulated clock is equivalent to arming a timer at the trigger:
  // the hedge runs iff the primary is still in flight at trigger time.
  const double primary_ms = out.all_ms;
  const double trigger = HedgeTriggerMs(st, call);
  // Speculative hedges draw down the budget: the first is free, after that
  // issued hedges (rescues included) must stay inside budget_percent of
  // this query's calls to the site.
  const bool budget_ok =
      static_cast<double>(st.hedges_issued) * 100.0 <=
      policy_.hedge.budget_percent * static_cast<double>(st.calls_seen);
  if (trigger >= 0.0 && primary_ms > trigger && budget_ok) {
    obs::SpanScope span(ctx.tracer, "hedge", "resilience", t_open + trigger);
    Result<CallOutput> alt = hedge(trigger);
    if (alt.ok() && trigger + alt->all_ms < primary_ms) {
      // The hedge answered first: adopt it and cancel the primary (its
      // remaining in-flight time is abandoned on the simulated clock).
      const double first_ms = std::min(out.first_ms, trigger + alt->first_ms);
      out = std::move(alt).value();
      out.first_ms = first_ms;
      out.all_ms += trigger;
      span.set_sim_end(t_open + out.all_ms);
      won(t_open + out.all_ms, primary_ms - out.all_ms);
    } else {
      // The primary won (or the hedge failed): the hedge is cancelled at
      // the primary's completion time.
      span.set_sim_end(t_open + primary_ms);
      hedge_cancelled_->Add(1);
      note("cancelled", t_open + primary_ms, primary_ms);
    }
  }

  // Trailing-latency ring, observed from the primary's raw latency after
  // this call's own trigger was computed — a call never hedges against
  // itself.
  if (st.latency_window.size() < kHedgeWindow) {
    st.latency_window.push_back(primary_ms);
  } else {
    st.latency_window[st.latency_next % kHedgeWindow] = primary_ms;
  }
  ++st.latency_next;
  return out;
}

Result<CallOutput> ResilienceInterceptor::AttemptWithRetries(
    CallContext& ctx, const DomainCall& call, const Next& next, bool probe,
    double* waited_ms) {
  const double t_call = ctx.now_ms;
  const int attempts = probe ? 1 : policy_.retry.max_retries + 1;
  double waited = 0.0;
  Status last_failure;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // Deadlines bound the whole retry schedule, not just the first try.
    const char* expired = nullptr;
    if (t_call + waited >= ctx.deadline_ms) {
      expired = "query";
    } else if (waited >= policy_.call_deadline_ms) {
      expired = "call";
    }
    if (expired != nullptr) {
      ++ctx.metrics.deadline_aborts;
      deadline_aborts_->Add(1);
      ctx.last_failure_site = site_name_;
      ctx.last_failure_cause = "deadline";
      ctx.last_call_penalty_ms = waited;
      *waited_ms = waited;
      return Status::DeadlineExceeded(
          std::string(expired) + " deadline expired before attempt " +
          std::to_string(attempt + 1) + " of " + call.ToString());
    }

    // The attempt sees the query clock advanced by the waits so far: an
    // outage window can end while the call backs off, and the fault plan
    // redraws this attempt's fate under its own attempt index.
    ctx.call_attempt = static_cast<uint64_t>(attempt);
    ctx.now_ms = t_call + waited;
    ctx.last_call_penalty_ms = 0.0;
    Result<CallOutput> run = Attempt(ctx, call, next, probe);
    ctx.now_ms = t_call;
    ctx.call_attempt = 0;

    if (run.ok()) {
      CallOutput out = std::move(run).value();
      out.first_ms += waited;
      out.all_ms += waited;
      if (out.all_ms > policy_.call_deadline_ms) {
        // Slow-response injection landed: the answers would arrive, but
        // past the deadline — the caller abandons the call at the
        // deadline instead of waiting them out.
        ++ctx.metrics.deadline_aborts;
        deadline_aborts_->Add(1);
        ctx.last_failure_site = site_name_;
        ctx.last_failure_cause = "deadline";
        ctx.last_call_penalty_ms = policy_.call_deadline_ms;
        *waited_ms = policy_.call_deadline_ms;
        return Status::DeadlineExceeded(
            "response to " + call.ToString() + " abandoned at the " +
            std::to_string(policy_.call_deadline_ms) + "ms call deadline");
      }
      *waited_ms = waited;
      return out;
    }

    last_failure = run.status();
    if (!last_failure.IsUnavailable()) {
      *waited_ms = waited;
      return last_failure;  // non-retryable error class
    }
    waited += ctx.last_call_penalty_ms;  // the failed attempt's timeout
    if (attempt + 1 < attempts) {
      double backoff = policy_.retry.backoff_base_ms *
                       std::pow(policy_.retry.backoff_multiplier, attempt);
      if (policy_.retry.backoff_jitter > 0.0) {
        Rng jitter(Rng::StreamSeed(
            Rng::StreamSeed(
                Rng::StreamSeed(seed_ ^ kBackoffStreamSalt, ctx.query_id),
                static_cast<uint64_t>(call.Hash())),
            static_cast<uint64_t>(attempt)));
        backoff *=
            1.0 + policy_.retry.backoff_jitter * (2.0 * jitter.NextDouble() - 1.0);
      }
      obs::SpanScope wait(ctx.tracer, "retry-wait", "resilience",
                          t_call + waited);
      wait.AddArg("attempt", std::to_string(attempt + 1));
      wait.set_sim_end(t_call + waited + backoff);
      waited += backoff;
      ++ctx.metrics.retries;
      ctx.metrics.retry_backoff_ms += backoff;
      retries_->Add(1);
      backoff_ms_->Add(backoff);
      if (ctx.recorder != nullptr) {
        obs::FlightEvent ev =
            obs::FlightEvent::Make(obs::FlightEventKind::kRetry, ctx.query_id,
                                   ctx.recorder_seq++, t_call + waited);
        ev.set_site(site_name_);
        ev.set_domain(call.domain);
        ev.set_detail(ctx.last_failure_cause);
        ev.value = backoff;
        ev.aux = static_cast<uint64_t>(attempt) + 1;
        ctx.recorder->Emit(ev);
      }
    }
  }
  ctx.last_call_penalty_ms = waited;
  *waited_ms = waited;
  return last_failure;
}

Result<CallOutput> ResilienceInterceptor::GiveUp(CallContext& ctx,
                                                 const DomainCall& call,
                                                 Status failure,
                                                 const std::string& cause,
                                                 double lost_ms) {
  if (policy_.enable_failover && failover_ != nullptr) {
    ++ctx.metrics.failovers;
    failovers_->Add(1);
    obs::SpanScope span(ctx.tracer, "failover", "resilience", ctx.now_ms);
    span.AddArg("from", site_name_);
    Result<CallOutput> alternate = failover_(ctx, call);
    if (alternate.ok()) {
      CallOutput out = std::move(alternate).value();
      out.first_ms += lost_ms;  // the time lost before failing over
      out.all_ms += lost_ms;
      span.set_sim_end(ctx.now_ms + out.all_ms);
      return out;
    }
    span.MarkFailed(alternate.status().ToString());
  }

  SourceError err;
  err.site = ctx.last_failure_site.empty() ? site_name_ : ctx.last_failure_site;
  err.domain = call.domain;
  err.function = call.function;
  err.cause = cause;
  err.message = failure.ToString();
  err.t_ms = ctx.now_ms + lost_ms;
  err.masked = false;  // the cache layer above flips this when it masks
  ctx.source_errors.push_back(std::move(err));
  ctx.last_failure_cause = cause;
  if (ctx.last_failure_site.empty()) ctx.last_failure_site = site_name_;
  return failure;
}

Result<CallOutput> ResilienceInterceptor::Intercept(CallContext& ctx,
                                                    const DomainCall& call,
                                                    const Next& next) {
  const std::string& breaker_key =
      site_name_.empty() ? call.domain : site_name_;
  BreakerState* breaker = nullptr;
  bool probe = false;
  if (policy_.breaker.enabled) {
    breaker = &ctx.breaker_states[breaker_key];
    if (breaker->state != BreakerState::kClosed) {
      ++breaker->shed_since_probe;
      if (policy_.breaker.probe_interval > 0 &&
          breaker->shed_since_probe % policy_.breaker.probe_interval == 0) {
        probe = true;
        breaker->state = BreakerState::kHalfOpen;
        to_half_open_->Add(1);
        RecordBreakerEvent(ctx, breaker_key, "half_open", ctx.now_ms,
                           breaker->consecutive_failures);
      } else {
        // Shed: fail fast without attempting the call (that is the load
        // the breaker takes off a struggling site).
        ++ctx.metrics.breaker_shed;
        shed_->Add(1);
        obs::SpanScope span(ctx.tracer, "breaker-shed", "resilience",
                            ctx.now_ms);
        span.MarkFailed("breaker-open");
        ctx.last_failure_site = site_name_;
        ctx.last_failure_cause = "breaker-open";
        ctx.last_call_penalty_ms = 0.0;
        return GiveUp(ctx, call,
                      Status::Unavailable("circuit breaker open for site '" +
                                          site_name_ + "': " +
                                          call.ToString() + " shed"),
                      "breaker-open", 0.0);
      }
    }
  }

  double waited = 0.0;
  Result<CallOutput> run = AttemptWithRetries(ctx, call, next, probe, &waited);
  if (run.ok()) {
    if (breaker != nullptr) {
      if (breaker->state != BreakerState::kClosed) {
        to_closed_->Add(1);
        RecordBreakerEvent(ctx, breaker_key, "closed", ctx.now_ms + waited, 0);
      }
      breaker->state = BreakerState::kClosed;
      breaker->consecutive_failures = 0;
      breaker->shed_since_probe = 0;
    }
    return run;
  }
  if (!run.status().IsUnavailable() && !run.status().IsDeadlineExceeded()) {
    return run;  // invariant violations etc. are not resilience's business
  }

  if (breaker != nullptr) {
    ++breaker->consecutive_failures;
    bool opened = false;
    if (breaker->state == BreakerState::kHalfOpen) {
      opened = true;  // failed probe re-opens
    } else if (breaker->state == BreakerState::kClosed &&
               breaker->consecutive_failures >=
                   policy_.breaker.failure_threshold) {
      opened = true;
    }
    if (opened) {
      breaker->state = BreakerState::kOpen;
      breaker->shed_since_probe = 0;
      to_open_->Add(1);
      RecordBreakerEvent(ctx, breaker_key, "open", ctx.now_ms + waited,
                         breaker->consecutive_failures);
    }
  }
  giveups_->Add(1);
  std::string cause = !ctx.last_failure_cause.empty()
                          ? ctx.last_failure_cause
                          : std::string(run.status().IsDeadlineExceeded()
                                            ? "deadline"
                                            : "unavailable");
  return GiveUp(ctx, call, run.status(), cause, waited);
}

Result<CostVector> ResilienceInterceptor::EstimateCost(
    const lang::DomainCallSpec& pattern, const EstimateNext& next) const {
  HERMES_ASSIGN_OR_RETURN(CostVector inner, next(pattern));
  double availability = link_ != nullptr ? link_->site().availability : 1.0;
  double p = 1.0 - availability;
  if (p <= 0.0) return inner;  // fully available: exact pass-through
  double timeout = link_ != nullptr ? link_->site().retry_timeout_ms
                                    : kDefaultRetryTimeoutMs;
  // Expected penalty of the retry schedule: attempt k (k = 0..R) fails
  // with probability p^(k+1), costing one retry timeout; each retry k is
  // reached with probability p^(k+1) and waits the k-th backoff first.
  double penalty = 0.0;
  double p_k = p;
  double backoff = policy_.retry.backoff_base_ms;
  for (int k = 0; k <= policy_.retry.max_retries; ++k) {
    penalty += p_k * timeout;
    if (k < policy_.retry.max_retries) {
      penalty += p_k * backoff;
      backoff *= policy_.retry.backoff_multiplier;
    }
    p_k *= p;
  }
  return CostVector(inner.t_first_ms + penalty, inner.t_all_ms + penalty,
                    inner.cardinality);
}

}  // namespace hermes::resilience
