#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

namespace hermes::obs {

namespace {

/// Monotone source of recorder ids. Starts at 1 so the "empty" TLS cache
/// entry (id 0) never matches a live recorder.
std::atomic<uint64_t> g_next_recorder_id{1};

/// Per-thread cache of (recorder id -> ring) resolutions. A thread usually
/// talks to one recorder (its mediator's); tests create several, so this is
/// a small vector rather than a single slot. Entries for destroyed
/// recorders are harmless tombstones: their ids are never issued again.
struct TlsRingCache {
  std::vector<std::pair<uint64_t, void*>> entries;
};

TlsRingCache& LocalCache() {
  thread_local TlsRingCache cache;
  return cache;
}

std::string JsonEscapeEvent(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 4);
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

std::string FormatMs(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kQueryStart: return "query_start";
    case FlightEventKind::kQueryEnd: return "query_end";
    case FlightEventKind::kCallIssued: return "call_issued";
    case FlightEventKind::kCallCompleted: return "call_completed";
    case FlightEventKind::kCallFailed: return "call_failed";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kBreakerTransition: return "breaker_transition";
    case FlightEventKind::kCacheOutcome: return "cache_outcome";
    case FlightEventKind::kSingleFlight: return "single_flight";
    case FlightEventKind::kScatterFanout: return "scatter_fanout";
    case FlightEventKind::kArenaHighWater: return "arena_high_water";
    case FlightEventKind::kDriftExceeded: return "drift_exceeded";
    case FlightEventKind::kReplan: return "replan";
    case FlightEventKind::kHedge: return "hedge";
  }
  return "unknown";
}

std::string FlightEvent::ToString() const {
  std::string out = "[q" + std::to_string(query_id) + " #" +
                    std::to_string(seq) + " t=" + FormatMs(sim_ms) + "ms] " +
                    FlightEventKindName(kind);
  if (site[0] != '\0') out += " site=" + site_str();
  if (domain[0] != '\0') out += " domain=" + domain_str();
  if (detail[0] != '\0') out += " detail=" + detail_str();
  if (value != 0.0) out += " value=" + FormatMs(value);
  if (aux != 0) out += " aux=" + std::to_string(aux);
  return out;
}

std::string FlightEvent::ToJson() const {
  std::string out = "{\"query_id\":" + std::to_string(query_id) +
                    ",\"seq\":" + std::to_string(seq) + ",\"kind\":\"" +
                    FlightEventKindName(kind) +
                    "\",\"sim_ms\":" + FormatMs(sim_ms) +
                    ",\"value\":" + FormatMs(value) +
                    ",\"aux\":" + std::to_string(aux);
  if (site[0] != '\0') out += ",\"site\":\"" + JsonEscapeEvent(site_str()) + "\"";
  if (domain[0] != '\0') {
    out += ",\"domain\":\"" + JsonEscapeEvent(domain_str()) + "\"";
  }
  if (detail[0] != '\0') {
    out += ",\"detail\":\"" + JsonEscapeEvent(detail_str()) + "\"";
  }
  out += "}";
  return out;
}

FlightRecorder::FlightRecorder(size_t ring_capacity)
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::LocalRing() {
  TlsRingCache& cache = LocalCache();
  for (const auto& [id, ring] : cache.entries) {
    if (id == id_) return static_cast<Ring*>(ring);
  }
  auto owned = std::make_unique<Ring>();
  owned->slots.resize(capacity_);
  Ring* ring = owned.get();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings_.push_back(std::move(owned));
  }
  cache.entries.emplace_back(id_, ring);
  return ring;
}

void FlightRecorder::Emit(const FlightEvent& ev) {
  Ring* ring = LocalRing();
  {
    // The writer is the only thread that ever takes this mutex outside a
    // snapshot, so the lock is uncontended on the hot path.
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->slots[ring->next] = ev;
    ring->next = (ring->next + 1) % capacity_;
    if (ring->size < capacity_) {
      ++ring->size;
    } else {
      ++ring->dropped;
      events_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  events_total_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::SnapshotQuery(
    uint64_t query_id) const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mu_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      size_t start = (ring->next + capacity_ - ring->size) % capacity_;
      for (size_t i = 0; i < ring->size; ++i) {
        const FlightEvent& ev = ring->slots[(start + i) % capacity_];
        if (ev.query_id == query_id) out.push_back(ev);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::SnapshotAll() const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mu_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      size_t start = (ring->next + capacity_ - ring->size) % capacity_;
      for (size_t i = 0; i < ring->size; ++i) {
        out.push_back(ring->slots[(start + i) % capacity_]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.sim_ms != b.sim_ms) return a.sim_ms < b.sim_ms;
              if (a.query_id != b.query_id) return a.query_id < b.query_id;
              return a.seq < b.seq;
            });
  return out;
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return rings_.size();
}

void FlightRecorder::BindMetrics(MetricsRegistry& registry) {
  registry.RegisterCallbackGauge(
      "hermes_flight_events_total",
      "Flight-recorder events emitted since the recorder was created.", {},
      [this] { return static_cast<double>(total_events()); });
  registry.RegisterCallbackGauge(
      "hermes_flight_events_dropped_total",
      "Flight-recorder events overwritten by ring wraparound.", {},
      [this] { return static_cast<double>(dropped_events()); });
}

}  // namespace hermes::obs
