// DriftTracker warm-up semantics: the EWMA seeds from the *trimmed mean*
// of the first min_samples observations, so a single outlier during
// warm-up cannot trip drift_exceeded (the regression this pins: the first
// sample used to seed the EWMA at full weight, so one bad draw flagged the
// group). Flags are read back through Report().Exceeded(), and
// exceeded_events() counts threshold crossings, so it shows that the flag
// is edge-triggered.

#include "dcsm/drift.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dcsm/dcsm.h"
#include "lang/parser.h"

namespace hermes::dcsm {
namespace {

lang::DomainCallSpec Pattern(const std::string& text) {
  Result<lang::DomainCallSpec> spec = lang::Parser::ParseCallPattern(text);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return *spec;
}

/// Gives `dcsm` one real statistic, so Cost("d:f(1)") has a non-default
/// source of Ta=10, card=4 (drift skips default-only estimates).
void Seed(Dcsm* dcsm) {
  dcsm->RecordExecution(DomainCall{"d", "f", {Value::Int(1)}},
                        CostVector(5.0, 10.0, 4.0));
}

/// The groups currently past the threshold, as "site/domain/adornment".
std::vector<std::string> Exceeded(const DriftTracker& drift) {
  std::vector<std::string> names;
  for (const DriftEntry& e : drift.Report().Exceeded()) {
    names.push_back(e.site + "/" + e.domain + "/" + e.adornment);
  }
  return names;
}

TEST(DriftWarmupTest, OneOutlierAmongWarmupSamplesDoesNotTrip) {
  Dcsm dcsm;
  Seed(&dcsm);
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 3;
  DriftTracker drift(&dcsm, options);

  // First observation is wildly off (20× the estimate); the next two are
  // dead on. The trimmed mean drops the outlier, so the group seeds calm.
  drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0), 0.0,
                nullptr);
  drift.Observe(Pattern("d:f(1)"), "c", CostVector(5.0, 10.0, 4.0), 1.0,
                nullptr);
  drift.Observe(Pattern("d:f(1)"), "c", CostVector(5.0, 10.0, 4.0), 2.0,
                nullptr);

  EXPECT_EQ(drift.observations(), 3u);
  EXPECT_EQ(drift.exceeded_events(), 0u);
  EXPECT_TRUE(Exceeded(drift).empty());
}

TEST(DriftWarmupTest, SustainedErrorStillTripsAfterWarmup) {
  Dcsm dcsm;
  Seed(&dcsm);
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 3;
  DriftTracker drift(&dcsm, options);
  drift.SetSite("d", "umd");

  // Every observation is 20× the estimate: trimming one sample does not
  // rescue the seed, and the group flags as soon as warm-up completes.
  for (int i = 0; i < 3; ++i) {
    drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0),
                  static_cast<double>(i), nullptr);
  }
  EXPECT_EQ(drift.exceeded_events(), 1u);
  EXPECT_EQ(Exceeded(drift), std::vector<std::string>{"umd/d/c"});

  // The event is edge-triggered: staying past the threshold keeps the group
  // flagged but counts no second crossing.
  drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0), 3.0,
                nullptr);
  EXPECT_EQ(drift.exceeded_events(), 1u);
  EXPECT_EQ(Exceeded(drift), std::vector<std::string>{"umd/d/c"});
}

TEST(DriftWarmupTest, MinSamplesOneKeepsTheEagerBehavior) {
  Dcsm dcsm;
  Seed(&dcsm);
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 1;  // opt back into flag-on-first-sample
  DriftTracker drift(&dcsm, options);

  drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0), 0.0,
                nullptr);
  EXPECT_EQ(drift.exceeded_events(), 1u);
  EXPECT_EQ(Exceeded(drift), std::vector<std::string>{"local/d/c"});
}

TEST(DriftWarmupTest, GroupsWarmUpIndependently) {
  Dcsm dcsm;
  Seed(&dcsm);
  dcsm.RecordExecution(DomainCall{"e", "g", {Value::Int(1)}},
                       CostVector(5.0, 10.0, 4.0));
  DriftOptions options;
  options.threshold = 1.0;
  options.min_samples = 2;
  DriftTracker drift(&dcsm, options);

  // d:f drifts hard; e:g stays calm. Only the drifted group flags.
  for (int i = 0; i < 2; ++i) {
    drift.Observe(Pattern("d:f(1)"), "c", CostVector(100.0, 200.0, 4.0),
                  static_cast<double>(i), nullptr);
    drift.Observe(Pattern("e:g(1)"), "c", CostVector(5.0, 10.0, 4.0),
                  static_cast<double>(i), nullptr);
  }
  EXPECT_EQ(drift.exceeded_events(), 1u);
  EXPECT_EQ(Exceeded(drift), std::vector<std::string>{"local/d/c"});
}

}  // namespace
}  // namespace hermes::dcsm
