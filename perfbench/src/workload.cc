#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "testbed/scenario.h"

namespace perfbench {

namespace {

using hermes::Mediator;
using hermes::Status;

// The single-goal rule hit_stream queries.
constexpr const char* kObjectsRule =
    "objects(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).";

// appendix_zipf: a universe of frame windows, far larger than its hot set,
// drawn by Zipf popularity. Windows are short (100-500 frames) with free
// start frames, so a new window often contains no cached one and misses
// outright; the rest hit exactly or through the frame invariants.
constexpr size_t kZipfWindows = 2048;
constexpr double kZipfExponent = 1.0;
constexpr size_t kZipfWarmup = 128;
// hit_stream: a few hot windows, each warmed twice during set-up.
constexpr size_t kHotWindows = 4;
// fanout_miss: goals per query and warm-up queries per set-up.
constexpr size_t kFanout = 4;
constexpr size_t kFanoutWarmup = 64;

struct Window {
  int64_t first = 0;
  int64_t last = 0;
  bool operator<(const Window& o) const {
    return first != o.first ? first < o.first : last < o.last;
  }
};

// `count` distinct windows over the 'rope' video. One in eight ends past
// the video's last frame (130000), where the clamp invariant applies.
std::vector<Window> MakeWindows(hermes::Rng& rng, size_t count) {
  std::set<Window> seen;
  std::vector<Window> windows;
  while (windows.size() < count) {
    Window w;
    w.first = rng.NextInRange(1, 800) * 10;
    w.last = rng.NextInRange(0, 7) == 0
                 ? 130000 + rng.NextInRange(0, 600) * 100
                 : w.first + rng.NextInRange(1, 5) * 100;
    if (seen.insert(w).second) windows.push_back(w);
  }
  return windows;
}

// Zipf(kZipfExponent) ranks over [0, n) by inverse CDF.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(hermes::Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::string AppendixText(hermes::Rng& rng, const Window& w) {
  // Appendix queries 1, 1', 2, 2', 3 and 4, equally likely.
  static constexpr std::pair<int, bool> kShapes[] = {
      {1, false}, {1, true}, {2, false}, {2, true}, {3, false}, {4, false}};
  const auto& [number, primed] = kShapes[rng.NextInRange(0, 5)];
  return hermes::testbed::AppendixQuery(number, primed, w.first, w.last);
}

std::string ObjectsText(const Window& w) {
  return "?- objects(" + std::to_string(w.first) + ", " +
         std::to_string(w.last) + ", O).";
}

std::vector<int64_t> Echo(uint64_t k) {
  std::vector<int64_t> args;
  for (size_t j = 0; j < kFanout; ++j) {
    args.push_back(static_cast<int64_t>(k * kFanout + j));
  }
  return args;
}

std::string FramesProbe(const Window& w) {
  return "video:frames_to_objects('rope', " + std::to_string(w.first) + ", " +
         std::to_string(w.last) + ")";
}

// `patterns` plus each one's CIM-wrapper twin: the statistics of a call
// routed through the CIM are recorded under the wrapper's domain name.
std::vector<std::string> WithCimTwins(std::vector<std::string> patterns) {
  const size_t n = patterns.size();
  for (size_t i = 0; i < n; ++i) patterns.push_back("cim_" + patterns[i]);
  return patterns;
}

uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  if (name == "appendix_zipf") {
    *kind = WorkloadKind::kAppendixZipf;
  } else if (name == "hit_stream") {
    *kind = WorkloadKind::kHitStream;
  } else if (name == "fanout_miss") {
    *kind = WorkloadKind::kFanoutMiss;
  } else {
    return false;
  }
  return true;
}

QueryStream MakeStream(WorkloadKind kind, uint64_t seed, size_t round,
                       size_t num_queries) {
  QueryStream s;
  s.kind = kind;
  const uint64_t round_seed = hermes::Rng::StreamSeed(seed, round);
  hermes::Rng shape_rng(hermes::Rng::StreamSeed(round_seed, 1));
  hermes::Rng draw_rng(hermes::Rng::StreamSeed(round_seed, 2));
  switch (kind) {
    case WorkloadKind::kAppendixZipf: {
      std::vector<Window> windows = MakeWindows(shape_rng, kZipfWindows);
      // Popularity order is a seeded shuffle of the universe.
      for (size_t i = windows.size(); i > 1; --i) {
        std::swap(windows[i - 1], windows[static_cast<size_t>(
                                      shape_rng.NextBelow(i))]);
      }
      const Zipf zipf(windows.size());
      for (size_t i = 0; i < kZipfWarmup; ++i) {
        s.warmup.push_back(AppendixText(draw_rng, windows[zipf.Draw(draw_rng)]));
      }
      for (size_t i = 0; i < num_queries; ++i) {
        s.queries.push_back(
            AppendixText(draw_rng, windows[zipf.Draw(draw_rng)]));
      }
      s.cost_probes = WithCimTwins(
          {FramesProbe(windows[0]), "video:video_size('rope')",
           "video:object_to_frames('rope', $b)",
           "relation:equal('cast', role, $b)", "relation:all('cast')"});
      break;
    }
    case WorkloadKind::kHitStream: {
      const std::vector<Window> hot = MakeWindows(shape_rng, kHotWindows);
      for (int pass = 0; pass < 2; ++pass) {
        for (const Window& w : hot) s.warmup.push_back(ObjectsText(w));
      }
      for (size_t i = 0; i < num_queries; ++i) {
        s.queries.push_back(ObjectsText(
            hot[static_cast<size_t>(draw_rng.NextBelow(kHotWindows))]));
      }
      s.cost_probes = WithCimTwins({FramesProbe(hot[0])});
      break;
    }
    case WorkloadKind::kFanoutMiss: {
      const hermes::testbed::TopologyInfo& topo = FanoutTopology();
      // A seeded base keeps arguments unique within a run and moves which
      // site (and tier) each position of the stream lands on.
      const uint64_t base =
          1'000'000 + (hermes::Rng::StreamSeed(round_seed, 3) % 1'000'000) *
                          4096;
      for (size_t i = 0; i < kFanoutWarmup; ++i) {
        const uint64_t k = base - kFanoutWarmup + i;
        s.warmup.push_back(hermes::testbed::TopologyQuery(topo, k, kFanout));
        s.warmup_echoes.push_back(Echo(k));
      }
      for (size_t i = 0; i < num_queries; ++i) {
        const uint64_t k = base + i;
        s.queries.push_back(hermes::testbed::TopologyQuery(topo, k, kFanout));
        s.echoes.push_back(Echo(k));
      }
      // One probe per tier (sites are tiered round-robin).
      for (size_t t = 0; t < 4; ++t) {
        s.cost_probes.push_back(topo.domains[t] + ":work(" +
                                std::to_string(base * kFanout) + ")");
      }
      break;
    }
  }
  return s;
}

const hermes::testbed::TopologyInfo& FanoutTopology() {
  static const hermes::testbed::TopologyInfo kInfo = [] {
    Mediator scratch;
    hermes::testbed::TopologyInfo info;
    (void)hermes::testbed::SetupOverloadTopology(&scratch, {}, &info);
    return info;
  }();
  return kInfo;
}

Status WireMeasured(WorkloadKind kind, Mediator* med) {
  switch (kind) {
    case WorkloadKind::kAppendixZipf:
      return hermes::testbed::SetupRopeScenario(med, {});
    case WorkloadKind::kHitStream:
      HERMES_RETURN_IF_ERROR(hermes::testbed::SetupRopeScenario(med, {}));
      return med->LoadProgram(kObjectsRule);
    case WorkloadKind::kFanoutMiss:
      return hermes::testbed::SetupOverloadTopology(med, {});
  }
  return Status::InvalidArgument("unknown workload");
}

AnswerPrint Fingerprint(const std::vector<hermes::ValueList>& answers) {
  AnswerPrint p;
  for (const hermes::ValueList& row : answers) {
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (const hermes::Value& v : row) h = Mix(h ^ v.Hash());
    p.rows += 1;
    p.sum += h;
    p.xor_ ^= h;
  }
  return p;
}

hermes::Result<std::unique_ptr<AnswerKey>> AnswerKey::Build(
    const QueryStream& stream) {
  auto key = std::make_unique<AnswerKey>();
  if (stream.kind == WorkloadKind::kFanoutMiss) {
    auto add = [&key](const std::vector<std::string>& texts,
                      const std::vector<std::vector<int64_t>>& echoes) {
      for (size_t i = 0; i < texts.size(); ++i) {
        hermes::ValueList row;
        for (int64_t a : echoes[i]) row.push_back(hermes::Value::Int(a));
        key->expected_[texts[i]] = Fingerprint({row});
      }
    };
    add(stream.warmup, stream.warmup_echoes);
    add(stream.queries, stream.echoes);
    return key;
  }

  // Local-site copy of the rope scenario: the same sources registered
  // without links, no CIM, and the same program.
  Mediator local;
  HERMES_RETURN_IF_ERROR(local.RegisterDomain(
      "video", std::make_shared<hermes::avis::AvisDomain>(
                   "avis", hermes::testbed::MakeRopeVideoDatabase())));
  HERMES_RETURN_IF_ERROR(local.RegisterDomain(
      "relation", std::make_shared<hermes::relational::RelationalDomain>(
                      "ingres", hermes::testbed::MakeCastDatabase(),
                      hermes::relational::RelationalCostParams{}, false)));
  HERMES_RETURN_IF_ERROR(local.LoadProgram(hermes::testbed::kAppendixProgram));
  HERMES_RETURN_IF_ERROR(local.LoadProgram(kObjectsRule));

  hermes::QueryOptions as_written;
  as_written.use_optimizer = false;
  as_written.use_cim = false;
  as_written.record_statistics = false;
  for (const auto* texts : {&stream.warmup, &stream.queries}) {
    for (const std::string& text : *texts) {
      if (key->expected_.count(text) > 0) continue;
      HERMES_ASSIGN_OR_RETURN(hermes::QueryResult r,
                              local.Query(text, as_written));
      key->expected_[text] = Fingerprint(r.execution.answers);
    }
  }
  return key;
}

bool AnswerKey::Matches(const std::string& text,
                        const std::vector<hermes::ValueList>& answers) const {
  auto it = expected_.find(text);
  return it != expected_.end() && it->second == Fingerprint(answers);
}

}  // namespace perfbench
