#include "engine/mediator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <tuple>

#include "cim/cache_interceptor.h"
#include "common/io.h"
#include "common/rng.h"
#include "lang/parser.h"
#include "optimizer/plan_compiler.h"

namespace hermes {

const char* QueryCompletenessName(QueryCompleteness c) {
  switch (c) {
    case QueryCompleteness::kComplete: return "complete";
    case QueryCompleteness::kDegraded: return "degraded";
    case QueryCompleteness::kPartial: return "partial";
  }
  return "unknown";
}

Mediator::Mediator() : Mediator(/*network_seed=*/1996) {}

Mediator::Mediator(uint64_t network_seed)
    : network_(std::make_shared<net::NetworkSimulator>(network_seed)) {
  network_->BindMetrics(*metrics_);
  dcsm_.BindMetrics(*metrics_);
  // Per-operator-kind execution instruments (hermes_exec_op_*), shared by
  // every query this mediator runs.
  executor_options_.op_metrics = engine::op::ExecOpMetrics::Bind(*metrics_);
  metrics_->Register("hermes_queries_total", "Queries executed to completion",
                     {}, queries_total_);
  metrics_->Register("hermes_query_failures_total",
                     "Queries that returned an error", {},
                     query_failures_total_);
  metrics_->Register("hermes_query_sim_ms",
                     "Simulated end-to-end latency (Ta) per query", {},
                     query_sim_ms_);
  metrics_->Register("hermes_query_tf_sim_ms",
                     "Simulated time to the first answer (Tf) per query", {},
                     query_tf_sim_ms_);
  metrics_->Register("hermes_query_ta_sim_ms",
                     "Simulated time to evaluation completion (Ta) per query",
                     {}, query_ta_sim_ms_);
  single_flight_->BindMetrics(*metrics_);
  metrics_->Register("hermes_replan_triggers_total",
                     "Mid-query re-optimizations triggered (breaker-open or "
                     "estimate divergence)",
                     {}, replan_triggers_total_);
  metrics_->Register("hermes_replan_splices_total",
                     "Spine subtrees re-lowered and spliced in by mid-query "
                     "re-optimization",
                     {}, replan_splices_total_);
  metrics_->Register(
      "hermes_dcsm_estimate_rel_error",
      "Relative error |predicted - actual| / actual of the executed plan's "
      "DCSM cost prediction",
      {}, estimate_rel_error_);
#define HERMES_FIELD(f)                                                \
  metrics_->Register("hermes_query_" #f "_total",                      \
                     "CallMetrics field '" #f "' folded across queries", {}, \
                     fold_.f);
  HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
  HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
}

Status Mediator::CheckNotServing(const char* operation) const {
  if (serving()) {
    return Status::FailedPrecondition(
        std::string(operation) +
        " is not allowed while a QueryPool is serving; wire the mediator "
        "before calling Serve()");
  }
  return Status::OK();
}

Status Mediator::RegisterDomain(const std::string& name,
                                std::shared_ptr<Domain> domain) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("RegisterDomain"));
  HERMES_RETURN_IF_ERROR(registry_.Register(name, std::move(domain)));
  IndexExports(name);
  return Status::OK();
}

Status Mediator::RegisterRemoteDomain(const std::string& name,
                                      std::shared_ptr<Domain> inner,
                                      net::SiteParams site) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("RegisterRemoteDomain"));
  // Declarative stack: [resilience → network] over the source domain. The
  // resilience layer is always present (so its metric families exist and
  // policies can be changed later); its default policy is pass-through.
  auto link =
      std::make_shared<net::NetworkInterceptor>(std::move(site), network_);
  link->BindMetrics(*metrics_, name);
  link->set_fault_injector(fault_injector_);
  link->set_single_flight(single_flight_);
  auto shield = std::make_shared<resilience::ResilienceInterceptor>(
      link->site().name, network_->seed(), link, default_resilience_policy_);
  shield->BindMetrics(*metrics_, name);
  // The hedge trigger's cold-ring baseline: the DCSM's Ta estimate for the
  // call shape (0 = unknown while only the default estimate exists).
  dcsm::Dcsm* dcsm = &dcsm_;
  shield->set_baseline([dcsm](const DomainCall& call) {
    Result<dcsm::CostEstimate> est = dcsm->Cost(call.ToSpec());
    if (!est.ok() || est->source == "default") return 0.0;
    return est->cost.t_all_ms;
  });
  std::string pipeline_name = inner->name() + "@" + link->site().name;
  HERMES_RETURN_IF_ERROR(registry_.Register(
      name, std::make_shared<PipelineDomain>(
                std::move(pipeline_name),
                std::vector<std::shared_ptr<CallInterceptor>>{shield, link},
                std::move(inner))));
  // Keep the drift tracker's (domain → site) labels current when domains
  // are registered after EnableDiagnostics.
  if (drift_ != nullptr) drift_->SetSite(name, link->site().name);
  links_[name] = std::move(link);
  resilience_layers_[name] = std::move(shield);
  IndexExports(name);
  return Status::OK();
}

Status Mediator::EnableDiagnostics(const DiagnosticsOptions& options) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("EnableDiagnostics"));
  // Tear the borrower down before replacing what it borrows. The new
  // recorder re-binds (replaces) the registry's callback gauges before the
  // old recorder is destroyed, so an exposition never reads a dead one.
  diag_.reset();
  auto recorder = std::make_unique<obs::FlightRecorder>(options.ring_capacity);
  recorder->BindMetrics(*metrics_);
  recorder_ = std::move(recorder);
  drift_ = std::make_unique<dcsm::DriftTracker>(&dcsm_, options.drift);
  drift_->BindMetrics(metrics_);
  for (const auto& [name, link] : links_) {
    drift_->SetSite(name, link->site().name);
  }
  diag_ = std::make_unique<DiagnosticsCenter>(options, recorder_.get(), &dcsm_,
                                              drift_.get(), metrics_);
  return Status::OK();
}

std::string Mediator::SiteOf(const std::string& domain) const {
  std::string logical =
      domain.rfind("cim_", 0) == 0 ? domain.substr(4) : domain;
  auto it = links_.find(logical);
  return it == links_.end() ? "" : it->second->site().name;
}

Status Mediator::DumpDiagnostics(const std::string& dir) {
  std::shared_lock lock(wiring_mu_);
  if (diag_ == nullptr) {
    return Status::FailedPrecondition(
        "DumpDiagnostics requires EnableDiagnostics");
  }
  return diag_->Dump(dir);
}

dcsm::DriftReport Mediator::DriftReport() const {
  std::shared_lock lock(wiring_mu_);
  if (drift_ == nullptr) return {};
  return drift_->Report();
}

Status Mediator::SetResiliencePolicy(
    const std::string& name, const resilience::ResiliencePolicy& policy) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("SetResiliencePolicy"));
  auto it = resilience_layers_.find(name);
  if (it == resilience_layers_.end()) {
    return Status::NotFound("no remote domain '" + name +
                            "' with a resilience layer");
  }
  it->second->set_policy(policy);
  return Status::OK();
}

resilience::ResilienceInterceptor* Mediator::resilience_layer(
    const std::string& name) {
  auto it = resilience_layers_.find(name);
  return it == resilience_layers_.end() ? nullptr : it->second.get();
}

Status Mediator::AddFailover(const std::string& name,
                             const std::string& alternate) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("AddFailover"));
  auto it = resilience_layers_.find(name);
  if (it == resilience_layers_.end()) {
    return Status::NotFound("no remote domain '" + name +
                            "' with a resilience layer");
  }
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<Domain> primary,
                          registry_.Get(name));
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<Domain> backup,
                          registry_.Get(alternate));
  // The alternate must export every function the primary does — checked
  // at wiring time so a failover never dangles at query time.
  std::vector<FunctionInfo> exported = backup->Functions();
  for (const FunctionInfo& fn : primary->Functions()) {
    bool found = false;
    for (const FunctionInfo& alt : exported) {
      if (alt.name == fn.name && alt.arity == fn.arity) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "failover target '" + alternate + "' does not export " + fn.name +
          "/" + std::to_string(fn.arity) + " required by '" + name + "'");
    }
  }
  DomainRegistry* registry = &registry_;
  it->second->set_failover(
      [registry, alternate](CallContext& ctx, const DomainCall& call) {
        DomainCall rerouted = call;
        rerouted.domain = alternate;
        return registry->Run(ctx, rerouted);
      });
  return Status::OK();
}

Status Mediator::SetFaultPlan(net::FaultPlan plan) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("SetFaultPlan"));
  fault_injector_ =
      plan.empty() ? nullptr
                   : std::make_shared<const net::FaultInjector>(std::move(plan));
  for (auto& [name, link] : links_) link->set_fault_injector(fault_injector_);
  return Status::OK();
}

Status Mediator::LoadFaultPlan(const std::string& path) {
  HERMES_ASSIGN_OR_RETURN(net::FaultPlan plan, net::FaultPlan::Load(path));
  return SetFaultPlan(std::move(plan));
}

Status Mediator::EnableCaching(const std::string& name,
                               cim::CimOptions options,
                               cim::CimCostParams params,
                               size_t cache_max_entries,
                               size_t cache_max_bytes, size_t cache_shards) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("EnableCaching"));
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<Domain> inner, registry_.Get(name));
  std::string cim_name = "cim_" + name;
  auto cim_domain = std::make_shared<cim::CimDomain>(
      cim_name, name, inner, options, params, cache_max_entries,
      cache_max_bytes, cache_shards);
  cim_domain->BindMetrics(*metrics_);

  // Declarative stack: [cache] prepended to the wrapped entry's own stack
  // (so e.g. "cim_video" = cache → network → avis). The shared CIM state
  // lives in cim_domain; the interceptor is its pipeline entry path.
  std::vector<std::shared_ptr<CallInterceptor>> stack;
  stack.push_back(std::make_shared<cim::CacheInterceptor>(cim_domain));
  std::shared_ptr<Domain> terminal = std::move(inner);
  if (auto* wrapped = dynamic_cast<PipelineDomain*>(terminal.get())) {
    for (const auto& layer : wrapped->stack()) stack.push_back(layer);
    terminal = wrapped->terminal();
  }
  registry_.RegisterOrReplace(
      cim_name, std::make_shared<PipelineDomain>(cim_name, std::move(stack),
                                                 std::move(terminal)));
  cims_[name] = std::move(cim_domain);
  IndexExports(cim_name);
  cached_domains_.clear();
  for (const auto& [cached, cim_entry] : cims_) cached_domains_.push_back(cached);
  return Status::OK();
}

Status Mediator::AddInvariants(const std::string& text) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("AddInvariants"));
  HERMES_ASSIGN_OR_RETURN(std::vector<lang::Invariant> invariants,
                          lang::Parser::ParseInvariants(text));
  for (lang::Invariant& inv : invariants) {
    auto it = cims_.find(inv.lhs.domain);
    if (it == cims_.end()) {
      return Status::InvalidArgument(
          "invariant targets domain '" + inv.lhs.domain +
          "' which has no CIM; call EnableCaching first: " + inv.ToString());
    }
    it->second->AddInvariant(std::move(inv));
  }
  return Status::OK();
}

Status Mediator::UseNativeCostModel(const std::string& name) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("UseNativeCostModel"));
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<Domain> domain, registry_.Get(name));
  return dcsm_.RegisterNativeModel(name, std::move(domain));
}

Status Mediator::LoadProgram(const std::string& text) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("LoadProgram"));
  HERMES_ASSIGN_OR_RETURN(lang::Program parsed,
                          lang::Parser::ParseProgram(text));
  for (lang::Rule& rule : parsed.rules) {
    program_.rules.push_back(std::move(rule));
  }
  return Status::OK();
}

Status Mediator::LoadProgramFile(const std::string& path) {
  HERMES_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return LoadProgram(text);
}

Status Mediator::ClearProgram() {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("ClearProgram"));
  program_.rules.clear();
  return Status::OK();
}

cim::CimDomain* Mediator::cim(const std::string& name) {
  auto it = cims_.find(name);
  return it == cims_.end() ? nullptr : it->second.get();
}

net::NetworkInterceptor* Mediator::remote_link(const std::string& name) {
  Result<std::shared_ptr<Domain>> domain = registry_.Get(name);
  if (!domain.ok()) return nullptr;
  auto* pipeline = dynamic_cast<PipelineDomain*>(domain->get());
  if (pipeline == nullptr) return nullptr;
  return dynamic_cast<net::NetworkInterceptor*>(
      pipeline->FindLayer("network"));
}

namespace {

/// Orders exported functions by (domain, function, arity).
auto ExportKey(const std::string& domain, const std::string& function,
               const size_t& arity) {
  return std::tie(domain, function, arity);
}

}  // namespace

void Mediator::IndexExports(const std::string& name) {
  Result<std::shared_ptr<Domain>> domain = registry_.Get(name);
  if (!domain.ok()) return;
  std::erase_if(exported_functions_, [&name](const ExportedFunction& e) {
    return e.domain == name;
  });
  for (const FunctionInfo& fn : (*domain)->Functions()) {
    exported_functions_.push_back(ExportedFunction{name, fn.name, fn.arity});
  }
  std::sort(exported_functions_.begin(), exported_functions_.end(),
            [](const ExportedFunction& a, const ExportedFunction& b) {
              return ExportKey(a.domain, a.function, a.arity) <
                     ExportKey(b.domain, b.function, b.arity);
            });
}

optimizer::RuleRewriter::Options Mediator::EffectiveRewriterOptions(
    const QueryOptions& options) const {
  optimizer::RuleRewriter::Options rw = rewriter_options_;
  if (options.use_cim) {
    rw.cim_domains = cached_domains_;
  } else {
    rw.cim_domains.clear();
  }
  rw.cim_only = options.cim_only && options.use_cim;
  if (!rw.domain_has_function) {
    // Selection push-down consults the functions each domain exports.
    const std::vector<ExportedFunction>* exported = &exported_functions_;
    rw.domain_has_function = [exported](const std::string& domain,
                                        const std::string& function,
                                        size_t arity) {
      const auto key = ExportKey(domain, function, arity);
      auto it = std::lower_bound(
          exported->begin(), exported->end(), key,
          [](const ExportedFunction& e, const auto& k) {
            return ExportKey(e.domain, e.function, e.arity) < k;
          });
      return it != exported->end() &&
             ExportKey(it->domain, it->function, it->arity) == key;
    };
  }
  return rw;
}

Result<optimizer::OptimizerResult> Mediator::Plan(
    const std::string& query_text, const QueryOptions& options) {
  std::shared_lock lock(wiring_mu_);
  HERMES_ASSIGN_OR_RETURN(lang::Query query,
                          lang::Parser::ParseQuery(query_text));
  optimizer::QueryOptimizer opt(&dcsm_, EffectiveRewriterOptions(options),
                                estimator_params_);
  return opt.Optimize(program_, query, options.goal);
}

Result<optimizer::CandidatePlan> Mediator::PickPlan(const lang::Query& query,
                                                    const QueryOptions& options,
                                                    obs::Tracer* tracer,
                                                    QueryResult* result) {
  if (options.use_optimizer) {
    optimizer::QueryOptimizer opt(&dcsm_, EffectiveRewriterOptions(options),
                                  estimator_params_);
    // The span brackets the optimizer call, so its wall time is planning's
    // host cost; its simulated end is the optimizer's DCSM lookup time.
    obs::SpanScope span(tracer, "optimize", "optimizer", 0.0);
    Result<optimizer::OptimizerResult> planned =
        opt.Optimize(program_, query, options.goal);
    if (!planned.ok()) {
      span.MarkFailed(planned.status().ToString());
      return planned.status();
    }
    optimizer::OptimizerResult& optimized = *planned;
    span.AddArg("plan", optimized.best.description);
    span.AddArg("candidates", std::to_string(optimized.candidates.size()));
    span.set_sim_end(optimized.total_estimation_ms);
    if (result != nullptr) {
      result->plan_description = optimized.best.description;
      result->predicted = optimized.best.estimated;
      result->predicted_valid = optimized.best.estimatable;
      result->optimize_ms = optimized.total_estimation_ms;
      result->candidates = std::move(optimized.candidates);
    }
    return std::move(optimized.best);
  }

  optimizer::CandidatePlan plan;
  plan.program = optimizer::RuleRewriter::ReachableRules(program_, query);
  plan.query = query;
  plan.description = "as-written";
  if (options.use_cim && !cims_.empty()) {
    optimizer::RuleRewriter::RedirectToCim(&plan.query.goals,
                                           cached_domains_);
    for (lang::Rule& rule : plan.program.rules) {
      optimizer::RuleRewriter::RedirectToCim(&rule.body, cached_domains_);
    }
    plan.description = "as-written+cim";
  }
  if (result != nullptr) result->plan_description = plan.description;
  return plan;
}

Result<std::string> Mediator::Explain(const std::string& query_text,
                                      const QueryOptions& options) {
  std::shared_lock lock(wiring_mu_);
  HERMES_ASSIGN_OR_RETURN(lang::Query query,
                          lang::Parser::ParseQuery(query_text));
  HERMES_ASSIGN_OR_RETURN(
      optimizer::CandidatePlan plan,
      PickPlan(query, options, /*tracer=*/nullptr, /*result=*/nullptr));
  engine::op::CompileOptions compile_options;
  compile_options.async_scatter_gather =
      options.async_scatter_gather || async_execution_;
  optimizer::PlanCompiler compiler(&dcsm_, compile_options);
  optimizer::CompiledPlan compiled = compiler.Compile(std::move(plan));
  return compiled.Explain(/*actuals=*/false);
}

Result<QueryResult> Mediator::Query(const std::string& query_text,
                                    const QueryOptions& options) {
  // Shared hold for the whole query: wiring mutations (exclusive holders)
  // can never observe — or create — a half-wired registry mid-query.
  std::shared_lock lock(wiring_mu_);
  HERMES_ASSIGN_OR_RETURN(lang::Query query,
                          lang::Parser::ParseQuery(query_text));

  QueryResult result;

  // Root span of the query's trace; optimizer time and execution both
  // start at simulated time 0 (Ta excludes optimization throughout the
  // experiment tables, so the trace keeps them as sibling envelopes).
  obs::Tracer* tracer = options.tracer;
  // With diagnostics on, an untraced query still records into a private
  // tracer so an auto-captured bundle always carries a Chrome trace.
  obs::Tracer internal_tracer;
  if (tracer == nullptr && diag_ != nullptr) tracer = &internal_tracer;
  uint64_t root_span = 0;
  if (tracer != nullptr) {
    root_span = tracer->BeginSpan("query", "query", 0.0);
    tracer->AddArg(root_span, "text", query_text);
  }

  // Plan acquisition: every query is costed against the DCSM with its own
  // constants, and the winner is lowered to its physical operator tree.
  // Execution drives the tree, and the same compiled artifact renders
  // EXPLAIN afterwards.
  HERMES_ASSIGN_OR_RETURN(optimizer::CandidatePlan plan,
                          PickPlan(query, options, tracer, &result));
  engine::op::CompileOptions compile_options;
  compile_options.async_scatter_gather =
      options.async_scatter_gather || async_execution_;
  compile_options.record_spine = replan_options_.enabled;
  optimizer::PlanCompiler compiler(&dcsm_, compile_options);
  optimizer::CompiledPlan compiled = compiler.Compile(std::move(plan));

  // Mid-query re-optimization: arm a per-query manager over the tree's
  // join spine. Its divergence baseline is snapshotted now — never read
  // from the live DCSM mid-flight — so decisions depend only on per-query
  // state and replay identically under any thread count.
  std::unique_ptr<engine::op::ReplanManager> replan;
  if (replan_options_.enabled && !compiled.tree().spine.empty()) {
    engine::op::ReplanManager::Setup setup;
    setup.program = &compiled.plan().program;
    setup.goals = &compiled.plan().query.goals;
    setup.spine = compiled.tree().spine;
    setup.compile_options = compile_options;
    setup.site_of = [this](const std::string& domain) {
      return SiteOf(domain);
    };
    setup.cim_domains = cached_domains_;
    if (replan_options_.divergence_factor > 0.0) {
      setup.estimates = engine::op::SnapshotGoalEstimates(
          &dcsm_, compiled.plan().query.goals);
    }
    setup.options = replan_options_;
    replan = std::make_unique<engine::op::ReplanManager>(std::move(setup));
  }

  engine::ExecutorOptions exec_options = executor_options_;
  exec_options.mode = options.mode;
  exec_options.interactive_batch = options.interactive_batch;
  exec_options.record_statistics = options.record_statistics;
  exec_options.collect_trace =
      options.collect_trace || executor_options_.collect_trace;
  // Predicate statistics are a sub-category of statistics recording.
  exec_options.record_predicate_statistics =
      options.record_statistics &&
      executor_options_.record_predicate_statistics;
  exec_options.tolerate_source_failures =
      options.partial_results || executor_options_.tolerate_source_failures;
  engine::Executor executor(&registry_, &dcsm_, exec_options);
  CallContext ctx;
  if (options.deadline_ms > 0.0) ctx.deadline_ms = options.deadline_ms;
  ctx.query_id = options.query_id != 0 ? options.query_id : ReserveQueryId();
  result.query_id = ctx.query_id;
  ctx.tracer = tracer;
  if (tracer != nullptr) {
    tracer->set_query_id(ctx.query_id);
    tracer->AddArg(root_span, "query_id", std::to_string(ctx.query_id));
  }
  ctx.recorder = recorder_.get();
  ctx.drift = drift_.get();
  if (ctx.recorder != nullptr) {
    obs::FlightEvent ev =
        obs::FlightEvent::Make(obs::FlightEventKind::kQueryStart, ctx.query_id,
                               ctx.recorder_seq++, /*sim_ms=*/0.0);
    ev.set_detail(result.plan_description);
    ctx.recorder->Emit(ev);
  }

  // Per-query network randomness: the stream is a function of (base seed,
  // query id) only, so this query's simulated latencies replay identically
  // whatever other queries run concurrently.
  Rng net_stream(0);
  if (per_query_net_rng_) {
    net_stream = Rng(Rng::StreamSeed(network_->seed(), ctx.query_id));
    ctx.net_rng = &net_stream;
  }

  Result<engine::QueryExecution> executed = executor.ExecuteCompiled(
      compiled.plan().program, compiled.tree(), &ctx, replan.get());
  if (replan != nullptr && replan->replanned()) {
    result.replan_events = replan->events();
    replan_triggers_total_->Add(replan->triggers());
    replan_splices_total_->Add(replan->splices());
  }
  if (!executed.ok()) {
    query_failures_total_->Add(1);
    // Failed queries still fold their per-layer counters into the registry
    // series: the calls they executed (and the failures that killed them)
    // happened, and e.g. remote_failures must keep matching the network
    // simulator's global failure count.
#define HERMES_FIELD(f) fold_.f->Add(ctx.metrics.f);
    HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
    HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
    if (tracer != nullptr) {
      tracer->MarkFailed(root_span, executed.status().ToString());
      tracer->EndSpan(root_span, 0.0);  // clamps up to the children's ends
    }
    if (ctx.recorder != nullptr) {
      obs::FlightEvent ev =
          obs::FlightEvent::Make(obs::FlightEventKind::kQueryEnd, ctx.query_id,
                                 ctx.recorder_seq++, ctx.now_ms);
      ev.set_detail("failed");
      ctx.recorder->Emit(ev);
    }
    return executed.status();
  }
  result.execution = std::move(executed).value();
  result.lost_sources = std::move(ctx.source_errors);
  bool any_lost = false;
  for (const SourceError& e : result.lost_sources) {
    if (!e.masked) {
      any_lost = true;
      break;
    }
  }
  if (any_lost) {
    result.completeness = QueryCompleteness::kPartial;
  } else if (!result.lost_sources.empty()) {
    result.completeness = QueryCompleteness::kDegraded;
  } else if (options.partial_results && !result.execution.complete &&
             ctx.metrics.deadline_aborts > 0) {
    // The deadline cut evaluation short without losing a specific source.
    result.completeness = QueryCompleteness::kPartial;
  }
  if (options.explain) {
    result.explain_text = compiled.Explain(/*actuals=*/true);
    for (const engine::op::ReplanEvent& ev : result.replan_events) {
      result.explain_text += ev.ToString();
    }
  }
  result.metrics = ctx.metrics;
  result.tf_sim_ms = result.execution.t_first_ms;
  result.ta_sim_ms = result.execution.t_all_ms;
  result.traffic.remote_calls = ctx.metrics.remote_calls;
  result.traffic.failures = ctx.metrics.remote_failures;
  result.traffic.bytes = ctx.metrics.bytes_transferred;
  result.traffic.charge = ctx.metrics.network_charge;

  if (tracer != nullptr) {
    tracer->AddArg(root_span, "plan", result.plan_description);
    tracer->AddArg(root_span, "answers",
                   std::to_string(result.execution.answers.size()));
    tracer->AddArg(root_span, "arena_bytes",
                   std::to_string(result.execution.arena_bytes));
    if (result.completeness != QueryCompleteness::kComplete) {
      tracer->AddArg(root_span, "completeness",
                     QueryCompletenessName(result.completeness));
    }
    tracer->EndSpan(root_span,
                    std::max(result.execution.t_all_ms, result.optimize_ms));
  }

  // Fold this query's per-layer counters into the process-level registry
  // series (the macro covers every CallMetrics field by construction).
  queries_total_->Add(1);
  query_sim_ms_->Observe(result.execution.t_all_ms);
  query_tf_sim_ms_->Observe(result.execution.t_first_ms);
  query_ta_sim_ms_->Observe(result.execution.t_all_ms);
#define HERMES_FIELD(f) fold_.f->Add(ctx.metrics.f);
  HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
  HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
  if (result.predicted_valid && result.execution.t_all_ms > 0.0) {
    estimate_rel_error_->Observe(
        std::abs(result.predicted.t_all_ms - result.execution.t_all_ms) /
        result.execution.t_all_ms);
  }

  bool breaker_tripped = false;
  for (const auto& [site, breaker] : ctx.breaker_states) {
    if (breaker.state == CallContext::BreakerState::kOpen) {
      breaker_tripped = true;
      break;
    }
  }
  if (ctx.recorder != nullptr) {
    obs::FlightEvent ev =
        obs::FlightEvent::Make(obs::FlightEventKind::kQueryEnd, ctx.query_id,
                               ctx.recorder_seq++, result.execution.t_all_ms);
    ev.set_detail(QueryCompletenessName(result.completeness));
    ev.value = result.execution.t_all_ms;
    ev.aux = result.execution.answers.size();
    ctx.recorder->Emit(ev);
  }
  if (diag_ != nullptr) {
    DiagnosticsCaptureInput capture;
    capture.query_id = ctx.query_id;
    capture.query_text = query_text;
    capture.t_all_ms = result.execution.t_all_ms;
    capture.completeness = QueryCompletenessName(result.completeness);
    capture.degraded = result.completeness == QueryCompleteness::kDegraded;
    capture.partial = result.completeness == QueryCompleteness::kPartial;
    capture.breaker_tripped = breaker_tripped;
    for (const engine::op::ReplanEvent& ev : result.replan_events) {
      capture.replan_text += ev.ToString();
    }
    capture.explain_fn = [&compiled] { return compiled.Explain(true); };
    capture.tracer = tracer;
    capture.root = compiled.tree().root.get();
    diag_->MaybeCapture(capture);
  }

  if (pacing_scale_ > 0.0) {
    // Realize the simulated service time as wall-clock wait (scaled), so
    // concurrent callers overlap their waits like clients of a real
    // mediator blocked on remote sources would.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        result.execution.t_all_ms * pacing_scale_));
  }
  return result;
}

}  // namespace hermes
