#ifndef HERMES_OBS_FLIGHT_RECORDER_H_
#define HERMES_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hermes::obs {

/// What happened. The recorder is a diagnostic black box, not a metrics
/// pipeline: kinds are coarse and the free-form `detail` field carries the
/// discriminating information ("open", "follower", "exact-hit", ...).
enum class FlightEventKind : uint8_t {
  kQueryStart = 0,
  kQueryEnd,
  kCallIssued,
  kCallCompleted,
  kCallFailed,
  kRetry,
  kBreakerTransition,
  kCacheOutcome,
  kSingleFlight,
  kScatterFanout,
  kArenaHighWater,
  kDriftExceeded,
  kReplan,
  kHedge,
};

const char* FlightEventKindName(FlightEventKind kind);

/// One structured recorder event. Trivially copyable by design: rings hold
/// events by value, snapshots memcpy them out, and nothing here allocates.
/// Strings are fixed-size truncating buffers — diagnostics want the first
/// 20 characters of a site name far more than they want a heap pointer.
struct FlightEvent {
  static constexpr size_t kSiteChars = 24;
  static constexpr size_t kDomainChars = 24;
  static constexpr size_t kDetailChars = 32;

  uint64_t query_id = 0;  ///< 0 = not attributable to one query.
  uint32_t seq = 0;       ///< Per-query emission order (deterministic).
  FlightEventKind kind = FlightEventKind::kQueryStart;
  double sim_ms = 0.0;    ///< Simulated clock at emission.
  double value = 0.0;     ///< Kind-specific magnitude (ms, bytes, fanout).
  uint64_t aux = 0;       ///< Kind-specific count (attempt, rows).
  char site[kSiteChars] = {};
  char domain[kDomainChars] = {};
  char detail[kDetailChars] = {};

  static FlightEvent Make(FlightEventKind kind, uint64_t query_id,
                          uint32_t seq, double sim_ms) {
    FlightEvent ev;
    ev.kind = kind;
    ev.query_id = query_id;
    ev.seq = seq;
    ev.sim_ms = sim_ms;
    return ev;
  }

  void set_site(const std::string& s) { CopyTo(site, kSiteChars, s); }
  void set_domain(const std::string& s) { CopyTo(domain, kDomainChars, s); }
  void set_detail(const std::string& s) { CopyTo(detail, kDetailChars, s); }

  std::string site_str() const { return std::string(site); }
  std::string domain_str() const { return std::string(domain); }
  std::string detail_str() const { return std::string(detail); }

  bool operator==(const FlightEvent& other) const {
    return query_id == other.query_id && seq == other.seq &&
           kind == other.kind && sim_ms == other.sim_ms &&
           value == other.value && aux == other.aux &&
           std::memcmp(site, other.site, kSiteChars) == 0 &&
           std::memcmp(domain, other.domain, kDomainChars) == 0 &&
           std::memcmp(detail, other.detail, kDetailChars) == 0;
  }
  bool operator!=(const FlightEvent& other) const { return !(*this == other); }

  /// One-line rendering for slow-query logs and bundle manifests.
  std::string ToString() const;
  /// JSON object rendering for bundle `events.json`.
  std::string ToJson() const;

 private:
  static void CopyTo(char* dst, size_t cap, const std::string& s) {
    size_t n = s.size() < cap - 1 ? s.size() : cap - 1;
    std::memcpy(dst, s.data(), n);
    dst[n] = '\0';
  }
};

/// A lock-light per-thread flight recorder: each writer thread gets its own
/// bounded ring of FlightEvents (overwrite-oldest), so emission never
/// contends with other writers. Snapshots walk every ring under its (in
/// practice uncontended) mutex without stopping the world.
///
/// Rings are keyed in thread-local storage by a process-unique recorder id
/// that is never reused, so a cached ring pointer can never dangle into a
/// different (later) recorder: a destroyed recorder's id simply never
/// matches again.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t ring_capacity = 4096);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends `ev` to the calling thread's ring, evicting the oldest event
  /// when the ring is full.
  void Emit(const FlightEvent& ev);

  /// All events for `query_id` across every ring, ordered by `seq`. A
  /// query executes on one thread, so its events live in one ring in
  /// emission order — the sort makes the result ring-layout independent.
  std::vector<FlightEvent> SnapshotQuery(uint64_t query_id) const;

  /// Every resident event across all rings, ordered by
  /// (sim_ms, query_id, seq).
  std::vector<FlightEvent> SnapshotAll() const;

  size_t ring_capacity() const { return capacity_; }
  size_t ring_count() const;
  uint64_t total_events() const {
    return events_total_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_events() const {
    return events_dropped_.load(std::memory_order_relaxed);
  }

  /// Registers `hermes_flight_events_total` / `hermes_flight_events_dropped_total`.
  void BindMetrics(MetricsRegistry& registry);

 private:
  struct Ring {
    mutable std::mutex mu;
    std::vector<FlightEvent> slots;  ///< capacity_ entries, lazily sized.
    size_t next = 0;                 ///< Next write position.
    size_t size = 0;                 ///< Resident events (<= capacity).
    uint64_t dropped = 0;            ///< Overwritten events.
  };

  Ring* LocalRing();

  const uint64_t id_;  ///< Process-unique, never reused.
  const size_t capacity_;

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;

  std::atomic<uint64_t> events_total_{0};
  std::atomic<uint64_t> events_dropped_{0};
};

}  // namespace hermes::obs

#endif  // HERMES_OBS_FLIGHT_RECORDER_H_
