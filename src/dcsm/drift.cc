#include "dcsm/drift.h"

#include <algorithm>
#include <cstdio>

namespace hermes::dcsm {

namespace {

std::string FormatErr(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Relative error with a floor of 1.0 on the denominator: tiny estimates
/// (sub-millisecond, cardinality 0) would otherwise turn any observation
/// into unbounded "drift".
double RelError(double observed, double estimated) {
  double denom = std::max(std::abs(estimated), 1.0);
  return std::abs(observed - estimated) / denom;
}

/// "cim_video" and "video" drift against the same logical source.
std::string LogicalDomain(const std::string& domain) {
  if (domain.rfind("cim_", 0) == 0) return domain.substr(4);
  return domain;
}

}  // namespace

std::string DriftEntry::ToString() const {
  return site + "/" + domain + "[" + adornment + "]: tf=" +
         FormatErr(ewma_tf) + " ta=" + FormatErr(ewma_ta) + " card=" +
         FormatErr(ewma_card) + " n=" + std::to_string(samples) +
         (exceeded ? " DRIFTED" : "");
}

std::vector<DriftEntry> DriftReport::Exceeded() const {
  std::vector<DriftEntry> out;
  for (const DriftEntry& e : entries) {
    if (e.exceeded) out.push_back(e);
  }
  return out;
}

std::string DriftReport::ToString() const {
  if (entries.empty()) return "drift: no observations\n";
  std::string out;
  for (const DriftEntry& e : entries) out += e.ToString() + "\n";
  return out;
}

DriftTracker::DriftTracker(const Dcsm* dcsm, DriftOptions options)
    : dcsm_(dcsm), options_(options) {}

void DriftTracker::SetSite(const std::string& domain,
                           const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  domain_site_[LogicalDomain(domain)] = site;
}

void DriftTracker::BindMetrics(std::shared_ptr<obs::MetricsRegistry> registry) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_ = std::move(registry);
  if (registry_ != nullptr) {
    exceeded_counter_ = registry_->GetOrAddCounter(
        "hermes_dcsm_drift_exceeded_total",
        "Times a (site, domain, adornment) group crossed the drift "
        "threshold.");
  }
}

void DriftTracker::Observe(const lang::DomainCallSpec& pattern,
                           const std::string& adornment,
                           const CostVector& observed, double sim_ms,
                           obs::FlightRecorder* recorder) {
  if (dcsm_ == nullptr) return;
  Result<CostEstimate> est = dcsm_->Cost(pattern);
  if (!est.ok()) return;
  // An estimate fabricated wholly from defaults says nothing about the
  // model: error against a placeholder is noise, not drift.
  if (est->source == "default") return;

  const double err_tf = RelError(observed.t_first_ms, est->cost.t_first_ms);
  const double err_ta = RelError(observed.t_all_ms, est->cost.t_all_ms);
  const double err_card = RelError(observed.cardinality,
                                   est->cost.cardinality);

  const std::string domain = LogicalDomain(pattern.domain);

  bool newly_exceeded = false;
  std::string site;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto site_it = domain_site_.find(domain);
    site = site_it != domain_site_.end() ? site_it->second : "local";

    Cell& cell = cells_[Key(site, domain, adornment)];
    if (cell.samples == 0) {
      if (registry_ != nullptr) {
        obs::Labels base = {{"site", site},
                            {"domain", domain},
                            {"adorn", adornment}};
        auto labeled = [&base](const char* dim) {
          obs::Labels l = {{"dim", dim}};
          l.insert(l.end(), base.begin(), base.end());
          return l;
        };
        const char* help =
            "EWMA of relative observed-vs-estimated DCSM error.";
        cell.gauge_tf =
            registry_->GetOrAddGauge("hermes_dcsm_drift", help, labeled("tf"));
        cell.gauge_ta =
            registry_->GetOrAddGauge("hermes_dcsm_drift", help, labeled("ta"));
        cell.gauge_card = registry_->GetOrAddGauge("hermes_dcsm_drift", help,
                                                   labeled("card"));
      }
    }
    if (cell.samples < options_.min_samples) {
      // Warm-up: seed the EWMA from the trimmed mean (max dropped per
      // dimension once there are two samples) of the window so far. One
      // outlier among the first min_samples observations cannot carry the
      // seed past the threshold by itself.
      cell.warmup.push_back({err_tf, err_ta, err_card});
      for (size_t dim = 0; dim < 3; ++dim) {
        double sum = 0.0, max = cell.warmup[0][dim];
        for (const auto& s : cell.warmup) {
          sum += s[dim];
          max = std::max(max, s[dim]);
        }
        double mean = cell.warmup.size() >= 2
                          ? (sum - max) /
                                static_cast<double>(cell.warmup.size() - 1)
                          : sum;
        if (dim == 0) cell.ewma_tf = mean;
        if (dim == 1) cell.ewma_ta = mean;
        if (dim == 2) cell.ewma_card = mean;
      }
      if (cell.warmup.size() >= options_.min_samples) cell.warmup.clear();
    } else {
      const double a = options_.alpha;
      cell.ewma_tf = a * err_tf + (1.0 - a) * cell.ewma_tf;
      cell.ewma_ta = a * err_ta + (1.0 - a) * cell.ewma_ta;
      cell.ewma_card = a * err_card + (1.0 - a) * cell.ewma_card;
    }
    ++cell.samples;
    ++observations_;

    if (cell.gauge_tf != nullptr) {
      cell.gauge_tf->Set(cell.ewma_tf);
      cell.gauge_ta->Set(cell.ewma_ta);
      cell.gauge_card->Set(cell.ewma_card);
    }

    const bool over =
        cell.samples >= options_.min_samples &&
        (cell.ewma_tf > options_.threshold ||
         cell.ewma_ta > options_.threshold ||
         cell.ewma_card > options_.threshold);
    newly_exceeded = over && !cell.exceeded;
    cell.exceeded = over;
    if (newly_exceeded) ++exceeded_events_;
  }

  if (newly_exceeded) {
    if (exceeded_counter_ != nullptr) exceeded_counter_->Add(1);
    if (recorder != nullptr) {
      // Tagged query_id 0: drift is a cross-query signal, and keeping it
      // out of per-query streams preserves replay bit-identity.
      obs::FlightEvent ev = obs::FlightEvent::Make(
          obs::FlightEventKind::kDriftExceeded, 0, 0, sim_ms);
      ev.set_site(site);
      ev.set_domain(domain);
      ev.set_detail(adornment);
      ev.value = std::max({err_tf, err_ta, err_card});
      recorder->Emit(ev);
    }
  }
}

DriftReport DriftTracker::Report() const {
  DriftReport report;
  std::lock_guard<std::mutex> lock(mu_);
  report.entries.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) {
    DriftEntry e;
    e.site = std::get<0>(key);
    e.domain = std::get<1>(key);
    e.adornment = std::get<2>(key);
    e.ewma_tf = cell.ewma_tf;
    e.ewma_ta = cell.ewma_ta;
    e.ewma_card = cell.ewma_card;
    e.samples = cell.samples;
    e.exceeded = cell.exceeded;
    report.entries.push_back(std::move(e));
  }
  return report;
}

uint64_t DriftTracker::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

uint64_t DriftTracker::exceeded_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exceeded_events_;
}

}  // namespace hermes::dcsm
