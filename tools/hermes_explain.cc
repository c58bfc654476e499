// hermes_explain — render the physical operator tree (EXPLAIN) of a query
// against the paper's Section 8 "rope" testbed.
//
//   hermes_explain [--query=TEXT | --appendix=N] [--primed]
//                  [--first=F] [--last=L]
//                  [--no-optimize] [--no-cim] [--execute] [--faults=FILE]
//                  [--adaptive]
//
// By default the optimizer picks the plan and the tree is printed with
// static adornments and DCSM cost estimates, without executing anything.
// --execute runs the query first and appends per-operator actuals
// (opens/rows/virtual time) to every node. --faults=FILE installs a
// deterministic fault-injection plan (net/faults grammar) with retries and
// graceful degradation enabled, so the actuals show retries=/lost=
// annotations on the affected calls.
//
// --adaptive arms mid-query re-optimization and implies --execute. The CIM wrappers are
// warmed first and the relation stack fails fast (no retries, two strikes
// open the breaker), so under a fault plan that takes the relation site
// down (e.g. tests/chaos/adaptive.faults) the running join re-plans its
// unexecuted suffix onto the warm CIM: the printed tree carries the
// replanned@ marker and the before/after re-plan decision record.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/strings.h"
#include "engine/mediator.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

constexpr char kUsage[] =
    "usage: %s [--query=TEXT | --appendix=N] [--primed] [--first=F] "
    "[--last=L] [--no-optimize] [--no-cim] [--execute] "
    "[--faults=FILE] [--adaptive]\n";

int Run(int argc, char** argv) {
  std::string query_text;
  std::string faults_file;
  int appendix = 3;
  bool primed = false;
  long long first = 4, last = 47;
  bool optimize = true, use_cim = true, execute = false, adaptive = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    auto bad_value = [&arg, argv] {
      std::fprintf(stderr, "bad numeric value: %s\n", arg.c_str());
      std::fprintf(stderr, kUsage, argv[0]);
      return 1;
    };
    if (arg.rfind("--query=", 0) == 0) {
      query_text = value("--query=");
    } else if (arg.rfind("--appendix=", 0) == 0) {
      if (!ParseNumber(value("--appendix="), &appendix)) return bad_value();
    } else if (arg == "--primed") {
      primed = true;
    } else if (arg.rfind("--first=", 0) == 0) {
      if (!ParseNumber(value("--first="), &first)) return bad_value();
    } else if (arg.rfind("--last=", 0) == 0) {
      if (!ParseNumber(value("--last="), &last)) return bad_value();
    } else if (arg == "--no-optimize") {
      optimize = false;
    } else if (arg == "--no-cim") {
      use_cim = false;
    } else if (arg == "--execute") {
      execute = true;
    } else if (arg == "--adaptive") {
      adaptive = true;
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_file = value("--faults=");
    } else if (arg == "--help" || arg == "-h") {
      std::printf(kUsage, argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 1;
    }
  }
  if (query_text.empty()) {
    if (adaptive) {
      // The flattened form exposes the goal chain to the top-level spine,
      // which is what mid-query re-optimization reorders and splices.
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "?- in(Object, video:frames_to_objects('rope', %lld, "
                    "%lld)) & in(T, relation:equal('cast', role, Object)) & "
                    "=(Actor, T.name).",
                    first, last);
      query_text = buf;
    } else {
      query_text = testbed::AppendixQuery(appendix, primed, first, last);
    }
  }

  Mediator med;
  if (!faults_file.empty()) {
    resilience::ResiliencePolicy policy;
    policy.retry.max_retries = 2;
    med.set_default_resilience_policy(policy);
  }
  Status setup = testbed::SetupRopeScenario(&med, {});
  if (!setup.ok()) {
    std::fprintf(stderr, "scenario setup failed: %s\n",
                 setup.ToString().c_str());
    return 1;
  }
  if (adaptive) {
    // Warm the CIM wrappers before any faults land so a replan redirect
    // finds its answers cached, then arm replanning with a fail-fast
    // relation policy whose breaker opens after two failed per-object
    // lookups.
    QueryOptions warm;
    warm.use_optimizer = false;
    warm.use_cim = true;
    Result<QueryResult> warmed = med.Query(
        "?- in(Object, video:frames_to_objects('rope', 1, 129999)) & "
        "in(T, relation:equal('cast', role, Object)) & =(Actor, T.name).",
        warm);
    if (!warmed.ok()) {
      std::fprintf(stderr, "CIM warm-up failed: %s\n",
                   warmed.status().ToString().c_str());
      return 1;
    }
    resilience::ResiliencePolicy relation_policy;
    relation_policy.retry.max_retries = 0;
    relation_policy.breaker.enabled = true;
    relation_policy.breaker.failure_threshold = 2;
    relation_policy.breaker.probe_interval = 1e9;  // no probe mid-query
    Status fail_fast = med.SetResiliencePolicy("relation", relation_policy);
    if (!fail_fast.ok()) {
      std::fprintf(stderr, "relation policy rejected: %s\n",
                   fail_fast.ToString().c_str());
      return 1;
    }
    engine::op::ReplanOptions replan;
    replan.enabled = true;
    med.set_replan_options(replan);
  }
  if (!faults_file.empty()) {
    Status faults = med.LoadFaultPlan(faults_file);
    if (!faults.ok()) {
      std::fprintf(stderr, "fault plan rejected: %s\n",
                   faults.ToString().c_str());
      return 1;
    }
  }

  QueryOptions options;
  options.use_optimizer = optimize;
  options.use_cim = use_cim;
  options.partial_results = !faults_file.empty();
  if (adaptive) {
    options.use_optimizer = false;
    options.use_cim = false;  // the CIM enters only via a replan redirect
    options.partial_results = true;
    execute = true;  // a static tree cannot show a mid-query decision
  }

  if (execute) {
    options.explain = true;
    Result<QueryResult> run = med.Query(query_text, options);
    if (!run.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    std::fputs(run->explain_text.c_str(), stdout);
    std::fprintf(stderr, "%s completeness=%s\n",
                 run->execution.ToString().c_str(),
                 QueryCompletenessName(run->completeness));
    for (const SourceError& lost : run->lost_sources) {
      std::fprintf(stderr, "lost source: %s\n", lost.ToString().c_str());
    }
    return 0;
  }

  Result<std::string> explained = med.Explain(query_text, options);
  if (!explained.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 explained.status().ToString().c_str());
    return 1;
  }
  std::fputs(explained->c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace hermes

int main(int argc, char** argv) { return hermes::Run(argc, argv); }
