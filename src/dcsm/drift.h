#ifndef HERMES_DCSM_DRIFT_H_
#define HERMES_DCSM_DRIFT_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "dcsm/dcsm.h"
#include "domain/cost.h"
#include "lang/ast.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace hermes::dcsm {

/// Tuning of the drift EWMA (see DESIGN.md "Diagnostics & drift").
struct DriftOptions {
  /// EWMA smoothing factor: err_ewma <- alpha*err + (1-alpha)*err_ewma.
  double alpha = 0.2;
  /// Relative-error level at which a group is flagged as drifted (1.0 =
  /// the observation is 100% away from the estimate, sustained).
  double threshold = 1.0;
  /// EWMA warm-up: groups with fewer samples are never flagged, and the
  /// EWMA seeds from the *trimmed mean* (max sample dropped, per
  /// dimension) of the first min_samples observations — one outlier in
  /// the warm-up window cannot trip `drift_exceeded` on its own.
  uint64_t min_samples = 3;
};

/// Drift state of one (site, domain, adornment) group.
struct DriftEntry {
  std::string site;
  std::string domain;     ///< Logical domain ("video", not "cim_video").
  std::string adornment;  ///< 'c' per constant arg, 'b' per bound variable.
  double ewma_tf = 0.0;   ///< EWMA of relative T_first error.
  double ewma_ta = 0.0;   ///< EWMA of relative T_all error.
  double ewma_card = 0.0; ///< EWMA of relative cardinality error.
  uint64_t samples = 0;
  bool exceeded = false;  ///< Currently past threshold on some dimension.

  std::string ToString() const;
};

/// Point-in-time view of every tracked group.
struct DriftReport {
  std::vector<DriftEntry> entries;

  /// Entries currently past the drift threshold.
  std::vector<DriftEntry> Exceeded() const;
  std::string ToString() const;
};

/// Tracks observed-vs-estimated [Tf Ta card] error per (site, domain,
/// adornment) group as EWMA gauges. DomainCallOp feeds it one observation
/// per successful call (when diagnostics are enabled); estimates come from
/// the same `Dcsm::Cost` lookup EXPLAIN prints, taken *before* this
/// query's own samples are flushed — so drift measures how wrong the
/// planner's knowledge was, not how fast it converges afterwards.
///
/// Thread-safe: one mutex over the group map. Calls through it are
/// per-successful-call but the critical section is a few arithmetic ops.
class DriftTracker {
 public:
  explicit DriftTracker(const Dcsm* dcsm, DriftOptions options = {});

  /// Wiring-time (not thread-safe vs. Observe): names the site a logical
  /// domain lives on, for the report's / gauges' `site` label.
  void SetSite(const std::string& domain, const std::string& site);

  /// Registers `hermes_dcsm_drift{dim,site,domain,adorn}` gauges lazily as
  /// groups appear, plus `hermes_dcsm_drift_exceeded_total`.
  void BindMetrics(std::shared_ptr<obs::MetricsRegistry> registry);

  /// Feeds one successful call: `pattern` is the DCSM estimation pattern
  /// (constants kept, runtime-bound variables as `$b`), `adornment` its
  /// arg shape, `observed` the measured [Tf Ta card]. Estimates whose only
  /// source is the DCSM default are skipped — error against a placeholder
  /// is noise, not drift. Emits a `drift_exceeded` flight event (tagged
  /// query_id 0, so per-query event streams stay deterministic) when a
  /// group first crosses the threshold.
  void Observe(const lang::DomainCallSpec& pattern,
               const std::string& adornment, const CostVector& observed,
               double sim_ms, obs::FlightRecorder* recorder);

  DriftReport Report() const;

  uint64_t observations() const;
  uint64_t exceeded_events() const;

 private:
  struct Cell {
    double ewma_tf = 0.0;
    double ewma_ta = 0.0;
    double ewma_card = 0.0;
    uint64_t samples = 0;
    bool exceeded = false;
    /// First min_samples observations ([tf ta card] errors); the EWMA
    /// seeds from their trimmed mean, then the buffer is dropped.
    std::vector<std::array<double, 3>> warmup;
    std::shared_ptr<obs::Gauge> gauge_tf;
    std::shared_ptr<obs::Gauge> gauge_ta;
    std::shared_ptr<obs::Gauge> gauge_card;
  };
  using Key = std::tuple<std::string, std::string, std::string>;

  const Dcsm* dcsm_;
  DriftOptions options_;

  mutable std::mutex mu_;
  std::map<Key, Cell> cells_;
  std::map<std::string, std::string> domain_site_;
  uint64_t observations_ = 0;
  uint64_t exceeded_events_ = 0;

  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::Counter> exceeded_counter_;
};

}  // namespace hermes::dcsm

#endif  // HERMES_DCSM_DRIFT_H_
