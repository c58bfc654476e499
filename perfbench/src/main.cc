// perfbench: the repository benchmark.
//
// Runs one seeded workload through the public Mediator / QueryPool API at
// service pacing 0, checks every answer, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See perfbench/README.md for the workloads and metric definitions.
//
//   perfbench --workload appendix_zipf --seed 1 --seconds 10 --trace 0

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "obs/trace.h"
#include "phases.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Distinct query streams per run. Round r replays stream r mod kStreams;
// the first kStreams rounds feed the simulated-clock metrics.
constexpr size_t kStreams = 6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t queries = 0;     ///< Per phase per round; 0 = the workload default.
  std::string out_dir;    ///< Where results and the span file go ("" = none).
  std::string commit = "unknown";
  bool dump_stream = false;
};

// Measured queries per phase per round. Host cost grows with the DCSM
// history a mediator accumulates, so every round replays a fixed count on
// fresh mediators.
size_t DefaultQueries(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kAppendixZipf: return 1000;
    case WorkloadKind::kHitStream: return 1500;
    case WorkloadKind::kFanoutMiss: return 750;
  }
  return 1000;
}

// Wall seconds one pass over the kStreams streams takes at the default
// query counts (4-vCPU host, RelWithDebInfo), untraced and traced.
double PassSeconds(WorkloadKind kind, bool trace) {
  switch (kind) {
    case WorkloadKind::kAppendixZipf: return trace ? 12.0 : 7.5;
    case WorkloadKind::kHitStream: return trace ? 4.5 : 3.0;
    case WorkloadKind::kFanoutMiss: return trace ? 5.0 : 3.5;
  }
  return 10.0;
}

// The run's round count: the whole passes that fit in --seconds at the
// speed PassSeconds records, at least one. It depends on the arguments
// only, never on how fast this run goes, so every program version keeps
// the fastest of the same number of replays.
size_t PlannedRounds(WorkloadKind kind, bool trace, double seconds) {
  const double passes = std::floor(seconds / PassSeconds(kind, trace));
  return kStreams * static_cast<size_t>(std::max(passes, 1.0));
}

// A run that has not finished its rounds after this long fails instead of
// reporting from fewer replays (and ends well inside a 180 s limit at 40 s).
double CapSeconds(double seconds) { return 3.0 * seconds + 30.0; }

// Queries whose span trees go into the span file (per run).
constexpr size_t kKeptTraces = 200;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--queries N] [--out DIR] [--commit ID] "
               "[--dump-stream]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (flag == "--queries") {
        a.queries = std::stoull(value());
      } else if (flag == "--out") {
        a.out_dir = value();
      } else if (flag == "--commit") {
        a.commit = value();
      } else if (flag == "--dump-stream") {
        a.dump_stream = true;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds < 0.0) Usage("--seconds must not be negative");
  return a;
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  return std::string(PERFBENCH_BUILD_TYPE) != "Debug";
#else
  return false;
#endif
}

// Peak resident set of this process image. VmHWM, not getrusage's
// ru_maxrss: the latter survives execve, so under a launcher it reports the
// launcher's peak when that is larger.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Linear-interpolated percentile (q in [0, 100]) of `v`.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Sample counts and the like, for the human report.
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// Everything one run measured, across its rounds.
//
// Host latency: round r replays stream r mod kStreams on fresh mediators,
// so query i of a stream does the same work in every replay (same input,
// same history before it). On a shared host the CPU speed swings between
// states far apart, for milliseconds to minutes, so each call's wall time
// is first scaled to the reference host speed by the SpeedProbe run right
// after it (AtReferenceSpeed); that removes the drift between runs, which
// no estimator over one run's own timings can. Each query then keeps the
// fastest of its replays, against what single probes miss (interrupts,
// bursts shorter than the probe window), and the percentiles are taken
// over those. Throughput has no per-query identity, so
// qps is each stream's best round, median over the streams. The number of
// rounds is fixed by the arguments (PlannedRounds), so every program
// version takes the fastest of the same number of replays.
struct RunTotals {
  std::vector<double> setup_s;             // at the reference host speed
  std::vector<double> setup_wall_s;
  // [stream][query]: fastest untraced / traced replay, microseconds at the
  // reference host speed; and the fastest untraced replay on the wall clock.
  std::vector<std::vector<double>> fastest_us =
      std::vector<std::vector<double>>(kStreams);
  std::vector<std::vector<double>> wall_fastest_us =
      std::vector<std::vector<double>>(kStreams);
  std::vector<double> probe_us;            // untraced SpeedProbe times
  std::vector<std::vector<double>> traced_fastest_us =
      std::vector<std::vector<double>>(kStreams);
  std::vector<double> traced_p50;          // per round, traced
  std::vector<double> qps;                 // per round, pool phase
  std::vector<double> queue_wait_ms_p50;   // per round, pool phase
  std::vector<double> busy_frac;           // per round, pool phase
  std::vector<LayerTotals> layers;         // per round, traced phase
  uint64_t pool_queries = 0;
  // Simulated clock: the first kStreams rounds' single-client phases.
  std::vector<double> tf_ms, ta_ms;
  // Per stream of the first pass: mean Tf, mean Ta, remote calls per query.
  std::vector<double> stream_tf_mean, stream_ta_mean, stream_remote;
  size_t sim_rounds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  double rss_mib = 0.0;                    // after round 1's single phase
  size_t rounds = 0;
  size_t workers = 0;
};

size_t ArgMin(const std::vector<double>& v) {
  return static_cast<size_t>(std::min_element(v.begin(), v.end()) - v.begin());
}

// Lowers each entry of `fastest` to the matching entry of `times`.
void KeepFastest(const std::vector<double>& times,
                 std::vector<double>* fastest) {
  if (fastest->empty()) {
    *fastest = times;
    return;
  }
  for (size_t i = 0; i < times.size() && i < fastest->size(); ++i) {
    (*fastest)[i] = std::min((*fastest)[i], times[i]);
  }
}

std::vector<double> Concat(const std::vector<std::vector<double>>& parts) {
  std::vector<double> all;
  for (const std::vector<double>& p : parts) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

// Median over streams of each stream's highest per-round value (round r
// replays stream r mod kStreams).
double BestPerStream(const std::vector<double>& values) {
  std::vector<double> best;
  for (size_t s = 0; s < kStreams && s < values.size(); ++s) {
    double top = values[s];
    for (size_t r = s; r < values.size(); r += kStreams) {
      top = std::max(top, values[r]);
    }
    best.push_back(top);
  }
  return Median(best);
}

void NoteFailure(RunTotals* run, const std::string& what) {
  if (run->failures.size() < 10) run->failures.push_back(what);
}

std::unique_ptr<hermes::Mediator> Wire(WorkloadKind kind,
                                       const QueryStream& stream,
                                       const AnswerKey& key,
                                       RunTotals* run) {
  auto med = std::make_unique<hermes::Mediator>();
  hermes::Status st = WireMeasured(kind, med.get());
  if (!st.ok()) {
    NoteFailure(run, "wiring failed: " + st.ToString());
    return nullptr;
  }
  const std::string warm = RunWarmup(med.get(), stream.warmup, key);
  if (!warm.empty()) {
    NoteFailure(run, warm);
    return nullptr;
  }
  return med;
}

// Times the steps of a round's set-up and probes the host speed after each
// one, so set-up time too is stated at the reference host speed.
class SetupClock {
 public:
  SetupClock() : start_(Clock::now()) {}

  /// Ends a step: adds its wall time, probes, and starts the next step.
  void Lap() {
    wall_s_ += std::chrono::duration<double>(Clock::now() - start_).count();
    for (int i = 0; i < 3; ++i) probe_us_.push_back(probe_.Measure());
    start_ = Clock::now();
  }

  double wall_s() const { return wall_s_; }
  double reference_s() const {
    return wall_s_ * kReferenceProbeUs / Median(probe_us_);
  }

 private:
  SpeedProbe probe_;
  std::vector<double> probe_us_;
  double wall_s_ = 0.0;
  Clock::time_point start_;
};

// One round: set up (reference answers + fresh wired, warmed mediators),
// then the single-client phase(s) and the pool phase. Returns false when
// the round could not run at all.
bool RunRound(const Args& args, WorkloadKind kind, size_t queries,
              std::vector<std::unique_ptr<hermes::obs::Tracer>>* kept,
              RunTotals* run) {
  const size_t stream_index = run->rounds % kStreams;
  const QueryStream stream = MakeStream(kind, args.seed, stream_index, queries);
  SetupClock setup;
  hermes::Result<std::unique_ptr<AnswerKey>> key = AnswerKey::Build(stream);
  if (!key.ok()) {
    NoteFailure(run, "reference answers: " + key.status().ToString());
    return false;
  }
  setup.Lap();
  std::unique_ptr<hermes::Mediator> single = Wire(kind, stream, **key, run);
  setup.Lap();
  std::unique_ptr<hermes::Mediator> traced;
  if (args.trace) {
    traced = Wire(kind, stream, **key, run);
    setup.Lap();
  }
  std::unique_ptr<hermes::Mediator> pooled = Wire(kind, stream, **key, run);
  setup.Lap();
  if (!single || !pooled || (args.trace && !traced)) return false;
  run->setup_s.push_back(setup.reference_s());
  run->setup_wall_s.push_back(setup.wall_s());

  const bool first = run->rounds == 0;
  auto account_single = [&](const SinglePhase& p) {
    run->attempted += p.attempted;
    run->failed += p.failed;
    if (!p.first_failure.empty()) NoteFailure(run, p.first_failure);
  };

  // Traced runs alternate which single-client phase goes first, so the
  // overhead ratio does not inherit a first-phase warm-up bias.
  auto run_plain = [&] {
    SinglePhase plain =
        RunSinglePhase(single.get(), stream, **key, false, nullptr, 0);
    single.reset();
    account_single(plain);
    KeepFastest(AtReferenceSpeed(plain.host_us, plain.probe_us),
                &run->fastest_us[stream_index]);
    KeepFastest(plain.host_us, &run->wall_fastest_us[stream_index]);
    run->probe_us.insert(run->probe_us.end(), plain.probe_us.begin(),
                         plain.probe_us.end());
    if (first) run->rss_mib = PeakRssMiB();
    if (run->rounds < kStreams) {
      // One pass over the streams, so the simulated metrics are a
      // function of the seed alone.
      run->tf_ms.insert(run->tf_ms.end(), plain.tf_ms.begin(),
                        plain.tf_ms.end());
      run->ta_ms.insert(run->ta_ms.end(), plain.ta_ms.begin(),
                        plain.ta_ms.end());
      run->stream_tf_mean.push_back(Mean(plain.tf_ms));
      run->stream_ta_mean.push_back(Mean(plain.ta_ms));
      run->stream_remote.push_back(
          Ratio(static_cast<double>(plain.remote_calls),
                static_cast<double>(plain.attempted)));
      run->sim_rounds += 1;
    }
  };
  auto run_traced = [&] {
    // Only the first round keeps span trees for the span file.
    SinglePhase t = RunSinglePhase(traced.get(), stream, **key, true,
                                   first ? kept : nullptr, kKeptTraces);
    traced.reset();
    account_single(t);
    if (t.layers.self_sum_mismatches > 0) {
      run->failed += 1;
      NoteFailure(run, std::to_string(t.layers.self_sum_mismatches) +
                           " traced queries whose self times do not add up "
                           "to their span");
    }
    run->traced_p50.push_back(Percentile(t.host_us, 50));
    KeepFastest(AtReferenceSpeed(t.host_us, t.probe_us),
                &run->traced_fastest_us[stream_index]);
    run->layers.push_back(std::move(t.layers));
  };
  if (traced && run->rounds % 2 == 1) {
    run_traced();
    run_plain();
  } else {
    run_plain();
    if (traced) run_traced();
  }

  const PoolPhase pool =
      RunPoolPhase(pooled.get(), stream, **key, run->workers);
  pooled.reset();
  run->attempted += pool.attempted;
  run->failed += pool.failed;
  if (!pool.first_failure.empty()) NoteFailure(run, pool.first_failure);
  run->pool_queries += pool.completed;
  run->qps.push_back(Ratio(static_cast<double>(pool.completed), pool.seconds));
  run->queue_wait_ms_p50.push_back(pool.queue_wait_ms_p50);
  run->busy_frac.push_back(pool.busy_frac);
  run->rounds += 1;
  return true;
}

std::vector<Metric> EndToEnd(const RunTotals& run) {
  const std::vector<double> fastest = Concat(run.fastest_us);
  const std::string per_query =
      "n=" + std::to_string(fastest.size()) + " queries, each the fastest of " +
      std::to_string(run.rounds / kStreams) + " replays at reference speed";
  const std::string n_sim =
      "n=" + std::to_string(run.ta_ms.size()) + " queries, rounds 1-" +
      std::to_string(run.sim_rounds);
  // One stream whose hottest windows the optimizer locks onto the direct
  // plan moves the pooled mean by a tenth; the median over the streams'
  // means does not follow that one stream.
  const std::string per_stream =
      "median over the means of streams 1-" + std::to_string(run.sim_rounds) +
      ", " + std::to_string(run.ta_ms.size()) + " queries";
  return {
      {"setup_s", Median(run.setup_s), "s",
       "median of " + std::to_string(run.setup_s.size()) +
           " set-ups at reference speed"},
      {"host_us_p50", Percentile(fastest, 50), "us", per_query},
      {"sim_tf_ms_mean", Median(run.stream_tf_mean), "ms", per_stream},
      {"sim_ta_ms_mean", Median(run.stream_ta_mean), "ms", per_stream},
      {"sim_ta_ms_p995", Percentile(run.ta_ms, 99.5), "ms", n_sim},
      {"remote_calls_per_query", Median(run.stream_remote), "count",
       per_stream},
      {"rss_mb", run.rss_mib, "MiB",
       "peak resident set after round 1's single-client phase"},
  };
}

// Printed beside the end-to-end metrics but not part of the result line.
// The host p99 and the pool's qps follow the shared host's speed drift
// between runs more than the program (their spreads over ten seeds reached
// 0.33). The simulated
// clock is multi-modal (CIM hits, misses, failovers) and these percentiles
// sit on a boundary between modes on some workload, so they jump with the
// seed; the means and p99.5 carry the gate instead.
std::vector<Metric> EndToEndInfo(const RunTotals& run) {
  const std::vector<double> fastest = Concat(run.fastest_us);
  const std::string n_sim =
      "n=" + std::to_string(run.ta_ms.size()) + " queries, rounds 1-" +
      std::to_string(run.sim_rounds);
  return {
      {"setup_wall_s", Median(run.setup_wall_s), "s",
       "as setup_s, on the wall clock (not scaled)"},
      {"host_wall_us_p50", Percentile(Concat(run.wall_fastest_us), 50), "us",
       "as host_us_p50, on the wall clock (not scaled)"},
      {"speed_probe_us_p50", Median(run.probe_us), "us",
       "SpeedProbe, reference " + Num(kReferenceProbeUs) + " us; n=" +
           std::to_string(run.probe_us.size())},
      {"host_us_p99", Percentile(fastest, 99), "us",
       "n=" + std::to_string(fastest.size()) + " fastest replays"},
      {"qps", BestPerStream(run.qps), "1/s",
       "median over streams of the best round, " +
           std::to_string(run.workers) + " workers"},
      {"sim_tf_ms_p50", Percentile(run.tf_ms, 50), "ms", n_sim},
      {"sim_ta_ms_p50", Percentile(run.ta_ms, 50), "ms", n_sim},
      {"sim_ta_ms_p99", Percentile(run.ta_ms, 99), "ms", n_sim},
      {"failed_frac",
       Ratio(static_cast<double>(run.failed),
             static_cast<double>(run.attempted)),
       "frac", "errors and wrong answers over attempted, both phases"},
  };
}

std::vector<Metric> PerLayer(const RunTotals& run) {
  // Counters sum the first kStreams traced rounds (a function of the seed
  // alone); the DCSM probe counts are their mean over those rounds. Wall
  // times come from the traced round with the lowest p50, the least
  // disturbed one, so that one round's layer times sit together.
  LayerTotals l;
  const size_t counted = std::min(run.layers.size(), kStreams);
  for (size_t r = 0; r < counted; ++r) l.Add(run.layers[r]);
  auto per_round = [counted](uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(counted);
  };
  const size_t best = ArgMin(run.traced_p50);
  const LayerTotals& timed = run.layers[best];
  const double q = static_cast<double>(std::max<uint64_t>(l.queries, 1));
  std::vector<double> parse, plan, exec, hop;
  const size_t n = timed.self_times.size();
  const size_t tenth = std::max<size_t>(n / 10, 1);
  std::vector<double> head, tail;
  for (size_t i = 0; i < n; ++i) {
    const QuerySelfTimes& s = timed.self_times[i];
    parse.push_back(s.parse_us);
    plan.push_back(s.plan_us);
    exec.push_back(s.exec_us);
    hop.push_back(s.hop_us);
    if (i < tenth) head.push_back(s.plan_us);
    if (i + tenth >= n) tail.push_back(s.plan_us);
  }
  const uint64_t cim_total = l.cim_exact + l.cim_invariant + l.cim_miss;
  const double cim_n = static_cast<double>(cim_total);
  const std::string n_traced = "median of the best traced round's " +
                               std::to_string(n) + " queries";
  const std::string n_probe =
      "mean over traced rounds 1-" + std::to_string(counted);
  auto per_query = [q](double total) { return total / q; };
  return {
      {"lang.parse_us", Median(parse), "us", n_traced},
      {"optimizer.plan_us", Median(plan), "us", n_traced},
      {"optimizer.candidates_per_query",
       per_query(static_cast<double>(l.candidates)), "count", ""},
      {"optimizer.plan_us_growth", Ratio(Median(tail), Median(head)), "ratio",
       "last tenth over first tenth of the best traced round"},
      {"optimizer.cim_plan_frac", per_query(static_cast<double>(l.cim_plans)),
       "frac", ""},
      {"optimizer.plan_cache_hit_frac",
       per_query(static_cast<double>(l.plan_cache_hits)), "frac", ""},
      {"dcsm.cost_us_start", timed.cost_us_start, "us",
       "phase start, best traced round"},
      {"dcsm.cost_us", timed.cost_us_end, "us", "phase end, best traced round"},
      {"dcsm.rows_scanned_start", per_round(l.rows_scanned_start), "count",
       "phase start, " + n_probe},
      {"dcsm.rows_scanned", per_round(l.rows_scanned_end), "count",
       "phase end, " + n_probe},
      {"dcsm.records", per_round(l.dcsm_records), "count",
       "phase end, " + n_probe},
      {"cim.exact_hit_frac", Ratio(static_cast<double>(l.cim_exact), cim_n),
       "frac", std::to_string(cim_total) + " lookups"},
      {"cim.invariant_hit_frac",
       Ratio(static_cast<double>(l.cim_invariant), cim_n), "frac", ""},
      {"cim.miss_frac", Ratio(static_cast<double>(l.cim_miss), cim_n), "frac",
       ""},
      {"cim.actual_calls_per_query",
       per_query(static_cast<double>(l.cim_actual_calls)), "count", ""},
      {"engine.exec_us", Median(exec), "us", n_traced},
      {"engine.domain_calls_per_query",
       per_query(static_cast<double>(l.domain_calls)), "count", ""},
      {"engine.answers_per_query", per_query(static_cast<double>(l.answers)),
       "count", ""},
      {"domain.retries_per_query", per_query(static_cast<double>(l.retries)),
       "count", ""},
      {"domain.failovers_per_query",
       per_query(static_cast<double>(l.failovers)), "count", ""},
      {"net.network_ms_per_query", per_query(l.network_ms), "ms",
       "simulated"},
      {"net.bytes_per_query", per_query(static_cast<double>(l.bytes)),
       "bytes", ""},
      {"net.hop_us", Median(hop), "us", n_traced},
      {"pool.queue_wait_ms_p50", Median(run.queue_wait_ms_p50), "ms",
       "hermes_pool_queue_wait_ms, median over rounds"},
      {"pool.busy_frac", Median(run.busy_frac), "frac",
       "hermes_pool_service_ms over workers x wall, median over rounds"},
      {"obs.trace_overhead_frac",
       Ratio(Percentile(Concat(run.traced_fastest_us), 50),
             Percentile(Concat(run.fastest_us), 50)) -
           1.0,
       "frac", "traced over untraced host_us_p50 (same rule), minus 1"},
  };
}

std::string ContextJson(const Args& args, const RunTotals& run,
                        size_t planned, size_t queries) {
  return std::string("{\"workload\": ") + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(Nproc()) +
         ", \"pool_workers\": " + std::to_string(run.workers) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(Compiler()) +
         ", \"commit\": " + JsonString(args.commit) +
         ", \"rounds\": " + std::to_string(run.rounds) +
         ", \"planned_rounds\": " + std::to_string(planned) +
         ", \"queries_per_phase\": " + std::to_string(queries) +
         ", \"sim_rounds\": " + std::to_string(run.sim_rounds) +
         ", \"single_client_calls\": " +
         std::to_string(run.rounds * queries) +
         ", \"traced_calls\": " +
         std::to_string(run.traced_p50.size() * queries) +
         ", \"pool_queries\": " + std::to_string(run.pool_queries) +
         ", \"service_pacing\": 0}";
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadKind kind;
  if (!ParseWorkload(args.workload, &kind)) {
    Usage("unknown workload '" + args.workload + "'");
  }
  const size_t queries = args.queries > 0 ? args.queries : DefaultQueries(kind);
  if (args.dump_stream) {
    for (size_t round = 0; round < kStreams; ++round) {
      const QueryStream stream = MakeStream(kind, args.seed, round, queries);
      for (const std::string& text : stream.warmup) {
        std::printf("%zu W %s\n", round + 1, text.c_str());
      }
      for (const std::string& text : stream.queries) {
        std::printf("%zu Q %s\n", round + 1, text.c_str());
      }
    }
    return 0;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build without "
                 "optimization; configure with RelWithDebInfo or Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  RunTotals run;
  // Half the CPUs serve: the generator thread and the machine's other load
  // then disturb the closed loop far less than with every CPU busy.
  run.workers = std::max<size_t>(Nproc() / 2, 1);
  std::vector<std::unique_ptr<hermes::obs::Tracer>> kept;
  const size_t planned = PlannedRounds(kind, args.trace, args.seconds);
  const double cap = CapSeconds(args.seconds);
  const Clock::time_point start = Clock::now();
  while (run.rounds < planned) {
    if (!RunRound(args, kind, queries, &kept, &run)) break;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (run.rounds < planned && elapsed > cap) {
      run.failed += 1;
      NoteFailure(&run, "only " + std::to_string(run.rounds) + " of " +
                      std::to_string(planned) + " rounds within " +
                      Num(cap) + " s");
      break;
    }
  }
  const bool ran = run.rounds > 0;
  if (!ran) run.failed += 1;

  std::vector<Metric> metrics;
  if (ran) metrics = args.trace ? PerLayer(run) : EndToEnd(run);
  const std::string context = ContextJson(args, run, planned, queries);

  std::printf("perfbench %s seed=%llu trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("context %s\n", context.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  if (ran && !args.trace) {
    for (const Metric& m : EndToEndInfo(run)) {
      std::printf("info   %-32s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }

  const bool correct = run.failed == 0 && run.failures.empty();
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<uint64_t>(run.attempted, 1)) +
      ", \"failed\": " + std::to_string(run.failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "");
    WriteFile(stem + ".json", "{\"context\": " + context +
                                  ", \"result\": " + result + "}\n");
    if (args.trace) {
      std::vector<const hermes::obs::Tracer*> tracers;
      for (const auto& t : kept) tracers.push_back(t.get());
      WriteFile(stem + ".spans.json", hermes::obs::ChromeTraceJson(tracers));
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
