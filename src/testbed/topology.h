#ifndef HERMES_TESTBED_TOPOLOGY_H_
#define HERMES_TESTBED_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/mediator.h"

namespace hermes::testbed {

/// Latency/availability tier of one generated site. Tiers are assigned
/// round-robin, so any prefix of the site list holds the same mix.
enum class SiteTier { kFast = 0, kMid = 1, kSlow = 2, kFlaky = 3 };

/// Stable lowercase tier name ("fast", "mid", "slow", "flaky").
const char* SiteTierName(SiteTier tier);

/// The SiteParams preset of `tier`, named `name`.
net::SiteParams TierSite(SiteTier tier, std::string name);

/// Shape of the generated overload topology.
struct TopologyOptions {
  /// Primary sites (each hosting one echo-style source domain s0..sN-1).
  size_t num_sites = 32;
  /// Wire a replica domain + site ("sK_alt") for every even-indexed
  /// primary and AddFailover to it — which both reroutes given-up calls
  /// and registers the hedge route.
  bool with_failover_pairs = true;
  /// Simulated service time of one source call (before network).
  double source_first_ms = 2.0;
  double source_all_ms = 5.0;
};

/// What SetupOverloadTopology built: the registered primary domain names,
/// their tiers, and how many failover replicas were wired.
struct TopologyInfo {
  std::vector<std::string> domains;  ///< "s0".."sN-1", index == site index.
  std::vector<SiteTier> tiers;       ///< tiers[i] is domains[i]'s tier.
  size_t num_replicas = 0;
};

/// Wires `med` (freshly constructed) with a generated N-site topology for
/// overload experiments: echo-style source domains behind simulated links
/// spanning the four tiers, plus failover replica pairs per the options.
/// Unlike the paper's hand-built Section 8 scenario this one is synthetic —
/// wide enough (default 32 sites) that hedging, failover and the pool's
/// bounded queue act on a realistic spread of latencies.
Status SetupOverloadTopology(Mediator* med, const TopologyOptions& options,
                             TopologyInfo* info = nullptr);

/// The k-th query of the open-loop workload: `fanout` independent `work`
/// calls against domain k mod N with never-repeating arguments (every
/// query is a cache miss; there is no shared state between queries).
/// Independent same-domain conjuncts scatter-gather under async execution,
/// which is what gives the per-query hedge trigger something to act on.
std::string TopologyQuery(const TopologyInfo& info, uint64_t k,
                          size_t fanout = 1);

}  // namespace hermes::testbed

#endif  // HERMES_TESTBED_TOPOLOGY_H_
