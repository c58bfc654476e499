#include "phases.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <unordered_map>
#include <utility>

#include "cim/cim.h"
#include "engine/query_pool.h"
#include "lang/parser.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using hermes::Mediator;
using hermes::QueryResult;
using hermes::obs::Span;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double Duration(const Span& s) { return s.wall_end_us - s.wall_begin_us; }

// Length of the union of `intervals` clipped to [lo, hi].
double Covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, reach);
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return covered;
}

std::string Describe(const std::string& text, const std::string& why) {
  return "query \"" + text + "\": " + why;
}

hermes::cim::CimStats CimTotals(Mediator* med) {
  hermes::cim::CimStats total;
  for (const std::string& name : med->CachedDomains()) {
    hermes::cim::CimDomain* cim = med->cim(name);
    if (cim == nullptr) continue;
    const hermes::cim::CimStats s = cim->stats();
    total.exact_hits += s.exact_hits;
    total.equality_hits += s.equality_hits;
    total.partial_hits += s.partial_hits;
    total.misses += s.misses;
    total.actual_calls += s.actual_calls;
  }
  return total;
}

// Median wall time of Dcsm::Cost over the workload's probe patterns,
// summed; rows scanned summed over one pass.
void ProbeDcsm(Mediator* med, const std::vector<std::string>& patterns,
               double* cost_us, uint64_t* rows_scanned) {
  constexpr int kRepeats = 15;
  *cost_us = 0.0;
  *rows_scanned = 0;
  for (const std::string& text : patterns) {
    hermes::Result<hermes::lang::DomainCallSpec> spec =
        hermes::lang::Parser::ParseCallPattern(text);
    if (!spec.ok()) continue;
    std::vector<double> times;
    for (int i = 0; i < kRepeats; ++i) {
      const Clock::time_point t0 = Clock::now();
      hermes::Result<hermes::dcsm::CostEstimate> est = med->dcsm().Cost(*spec);
      times.push_back(MicrosSince(t0));
      if (i == 0 && est.ok()) *rows_scanned += est->rows_scanned;
    }
    std::nth_element(times.begin(), times.begin() + kRepeats / 2, times.end());
    *cost_us += times[kRepeats / 2];
  }
}

void CountResult(const QueryResult& r, LayerTotals* layers) {
  layers->queries += 1;
  layers->candidates += r.candidates.size();
  if (r.plan_description.find("+cim") != std::string::npos) {
    layers->cim_plans += 1;
  }
  if (r.plan_cache_hit) layers->plan_cache_hits += 1;
  layers->domain_calls += r.metrics.domain_calls;
  layers->answers += r.execution.answers.size();
  layers->retries += r.metrics.retries;
  layers->failovers += r.metrics.failovers;
  layers->bytes += r.metrics.bytes_transferred;
  layers->network_ms += r.metrics.network_ms;
}

// Keeps the probe's work observable, so the compiler cannot drop it.
volatile uint64_t g_probe_sink = 0;

}  // namespace

SpeedProbe::SpeedProbe() {
  for (int i = 0; i < kWords; ++i) {
    words_.push_back("video:frames_to_objects('rope', " +
                     std::to_string(i * 37) + ", " +
                     std::to_string(i * 37 + 200) + ")");
  }
}

double SpeedProbe::RunOnce() {
  const Clock::time_point t0 = Clock::now();
  std::unordered_map<std::string, std::vector<int>> groups;
  for (const std::string& w : words_) {
    groups[w.substr(6, 20) + std::to_string(w.size())].push_back(
        static_cast<int>(w.size()));
  }
  g_probe_sink = g_probe_sink + groups.size();
  return MicrosSince(t0);
}

double SpeedProbe::Measure() {
  RunOnce();
  return RunOnce();
}

std::vector<double> AtReferenceSpeed(const std::vector<double>& host_us,
                                     const std::vector<double>& probe_us) {
  constexpr size_t kHalfWindow = 6;
  const size_t n = std::min(host_us.size(), probe_us.size());
  std::vector<double> scaled(n);
  std::vector<double> window;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= kHalfWindow ? i - kHalfWindow : 0;
    const size_t hi = std::min(n, i + kHalfWindow + 1);
    window.assign(probe_us.begin() + lo, probe_us.begin() + hi);
    const auto mid = window.begin() + window.size() / 2;
    std::nth_element(window.begin(), mid, window.end());
    scaled[i] = host_us[i] * kReferenceProbeUs / *mid;
  }
  return scaled;
}

void LayerTotals::Add(const LayerTotals& o) {
  queries += o.queries;
  candidates += o.candidates;
  cim_plans += o.cim_plans;
  plan_cache_hits += o.plan_cache_hits;
  domain_calls += o.domain_calls;
  answers += o.answers;
  retries += o.retries;
  failovers += o.failovers;
  bytes += o.bytes;
  network_ms += o.network_ms;
  cim_exact += o.cim_exact;
  cim_invariant += o.cim_invariant;
  cim_miss += o.cim_miss;
  cim_actual_calls += o.cim_actual_calls;
  rows_scanned_start += o.rows_scanned_start;
  rows_scanned_end += o.rows_scanned_end;
  dcsm_records += o.dcsm_records;
}

QuerySelfTimes AnalyzeTrace(const hermes::obs::Tracer& tracer) {
  std::vector<Span> spans = tracer.spans();
  QuerySelfTimes out;
  const Span* query = nullptr;
  for (Span& s : spans) {
    if (s.name == "query" && s.parent != 0) query = &s;
    if (s.name == "optimize" && s.parent != 0) {
      s.wall_begin_us = spans[s.parent - 1].wall_begin_us;
    }
  }
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent - 1].emplace_back(s.wall_begin_us, s.wall_end_us);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self =
        Duration(s) - Covered(children[i], s.wall_begin_us, s.wall_end_us);
    out.self_sum_us += self;
    if (s.parent == 0) out.request_us += Duration(s);
    if (s.name == "lang.parse") out.parse_us += Duration(s);
    if (s.name == "optimize") out.plan_us += self;
    if (s.name == "network-hop") out.hop_us += self;
  }
  if (query != nullptr) out.exec_us = Duration(*query) - out.plan_us;
  return out;
}

SinglePhase RunSinglePhase(
    Mediator* med, const QueryStream& stream, const AnswerKey& key,
    bool traced, std::vector<std::unique_ptr<hermes::obs::Tracer>>* keep,
    size_t keep_limit) {
  SinglePhase phase;
  LayerTotals& layers = phase.layers;
  phase.host_us.reserve(stream.queries.size());
  phase.tf_ms.reserve(stream.queries.size());
  phase.ta_ms.reserve(stream.queries.size());
  if (traced) layers.self_times.reserve(stream.queries.size());

  ProbeDcsm(med, stream.cost_probes, &layers.cost_us_start,
            &layers.rows_scanned_start);
  SpeedProbe probe;
  const hermes::cim::CimStats cim_before = CimTotals(med);

  for (const std::string& text : stream.queries) {
    phase.attempted += 1;
    hermes::QueryOptions options;
    std::unique_ptr<hermes::obs::Tracer> tracer;
    uint64_t request_span = 0;
    if (traced) {
      tracer = std::make_unique<hermes::obs::Tracer>();
      request_span = tracer->BeginSpan("bench.request", "bench", 0.0);
      const uint64_t parse_span = tracer->BeginSpan("lang.parse", "bench", 0.0);
      hermes::Result<hermes::lang::Query> parsed =
          hermes::lang::Parser::ParseQuery(text);
      tracer->EndSpan(parse_span, 0.0);
      if (!parsed.ok()) {
        tracer->MarkFailed(parse_span, parsed.status().ToString());
      }
      options.tracer = tracer.get();
    }
    const uint64_t query_span =
        traced ? tracer->BeginSpan("mediator.query", "bench", 0.0) : 0;
    const Clock::time_point t0 = Clock::now();
    hermes::Result<QueryResult> r = med->Query(text, options);
    phase.host_us.push_back(MicrosSince(t0));
    if (traced) tracer->EndSpan(query_span, 0.0);

    std::string failure;
    if (!r.ok()) {
      failure = r.status().ToString();
    } else {
      if (traced) {
        const uint64_t check_span =
            tracer->BeginSpan("bench.check", "bench", 0.0);
        if (!key.Matches(text, r->execution.answers)) {
          failure = "answers differ from the reference";
        }
        tracer->EndSpan(check_span, 0.0);
      } else if (!key.Matches(text, r->execution.answers)) {
        failure = "answers differ from the reference";
      }
      phase.tf_ms.push_back(r->tf_sim_ms);
      phase.ta_ms.push_back(r->ta_sim_ms);
      phase.remote_calls += r->traffic.remote_calls;
      CountResult(*r, &layers);
    }
    if (!failure.empty()) {
      phase.failed += 1;
      if (phase.first_failure.empty()) {
        phase.first_failure = Describe(text, failure);
      }
    }
    if (traced) {
      tracer->EndSpan(request_span, 0.0);
      const QuerySelfTimes t = AnalyzeTrace(*tracer);
      // Self times partition the envelope; allow float rounding only.
      if (std::abs(t.self_sum_us - t.request_us) >
          1e-6 * t.request_us + 1e-3) {
        layers.self_sum_mismatches += 1;
      }
      layers.self_times.push_back(t);
      if (keep != nullptr && keep->size() < keep_limit) {
        keep->push_back(std::move(tracer));
      }
    }
    // Outside every span, so traced self times do not include it.
    phase.probe_us.push_back(probe.Measure());
  }

  const hermes::cim::CimStats cim_after = CimTotals(med);
  layers.cim_exact = cim_after.exact_hits - cim_before.exact_hits;
  layers.cim_invariant = (cim_after.equality_hits + cim_after.partial_hits) -
                         (cim_before.equality_hits + cim_before.partial_hits);
  layers.cim_miss = cim_after.misses - cim_before.misses;
  layers.cim_actual_calls = cim_after.actual_calls - cim_before.actual_calls;
  ProbeDcsm(med, stream.cost_probes, &layers.cost_us_end,
            &layers.rows_scanned_end);
  layers.dcsm_records = med->dcsm().database().TotalRecords();
  return phase;
}

PoolPhase RunPoolPhase(Mediator* med, const QueryStream& stream,
                       const AnswerKey& key, size_t workers) {
  PoolPhase phase;
  hermes::QueryPoolOptions options;
  options.num_threads = workers;
  std::unique_ptr<hermes::QueryPool> pool = med->Serve(options);

  std::deque<std::pair<size_t, std::future<hermes::Result<QueryResult>>>>
      inflight;
  auto collect = [&] {
    auto& [index, future] = inflight.front();
    const std::string& text = stream.queries[index];
    hermes::Result<QueryResult> r = future.get();
    std::string failure;
    if (!r.ok()) {
      failure = r.status().ToString();
    } else if (!key.Matches(text, r->execution.answers)) {
      failure = "answers differ from the reference (pool)";
    } else {
      phase.completed += 1;
    }
    if (!failure.empty()) {
      phase.failed += 1;
      if (phase.first_failure.empty()) {
        phase.first_failure = Describe(text, failure);
      }
    }
    inflight.pop_front();
  };

  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < stream.queries.size(); ++i) {
    while (inflight.size() >= workers) collect();
    phase.attempted += 1;
    inflight.emplace_back(i, pool->Submit(stream.queries[i]));
  }
  while (!inflight.empty()) collect();
  phase.seconds = MicrosSince(t0) / 1e6;
  pool->Shutdown();

  hermes::obs::MetricsRegistry& registry = med->metrics();
  const hermes::obs::HistogramSnapshot waits =
      registry.GetOrAddHistogram("hermes_pool_queue_wait_ms", "", {0.01})
          ->Snapshot();
  const hermes::obs::HistogramSnapshot service =
      registry.GetOrAddHistogram("hermes_pool_service_ms", "", {0.01})
          ->Snapshot();
  phase.queue_wait_ms_p50 = waits.Quantile(0.5);
  phase.busy_frac =
      service.sum / (static_cast<double>(workers) * phase.seconds * 1e3);
  return phase;
}

std::string RunWarmup(Mediator* med, const std::vector<std::string>& texts,
                      const AnswerKey& key) {
  for (const std::string& text : texts) {
    hermes::Result<QueryResult> r = med->Query(text);
    if (!r.ok()) return Describe(text, "warm-up: " + r.status().ToString());
    if (!key.Matches(text, r->execution.answers)) {
      return Describe(text, "warm-up answers differ from the reference");
    }
  }
  return "";
}

}  // namespace perfbench
