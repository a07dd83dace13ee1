#include "src/scenario/runner.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace sat {

namespace {

constexpr uint64_t kMb = 1024ull * 1024;

// Smoke scaling for the tick budget: same never-to-zero rule the
// per-element populations use.
uint32_t ScaledTicks(uint64_t ticks, double scale) {
  if (ticks == 0 || scale >= 1.0) {
    return static_cast<uint32_t>(ticks);
  }
  const uint64_t scaled =
      static_cast<uint64_t>(static_cast<double>(ticks) * scale);
  return static_cast<uint32_t>(scaled == 0 ? 1 : scaled);
}

}  // namespace

SystemConfig ScenarioSystemConfig(const ScenarioGraph& graph) {
  SystemConfig config =
      ConfigByName(graph.SettingStr("config", "shared-ptp-tlb"));
  config.phys_bytes =
      graph.SettingU64("phys_mb", config.phys_bytes / kMb) * kMb;
  config.swap_bytes =
      graph.SettingU64("swap_mb", config.swap_bytes / kMb) * kMb;
  config.num_cores =
      static_cast<uint32_t>(graph.SettingU64("cores", config.num_cores));
  config.num_nodes =
      static_cast<uint32_t>(graph.SettingU64("nodes", config.num_nodes));
  config.shootdown_policy =
      ShootdownPolicyFromName(graph.SettingStr("shootdown", ""))
          .value_or(config.shootdown_policy);
  config.pt_placement =
      PtPlacementFromName(graph.SettingStr("pt_placement", ""))
          .value_or(config.pt_placement);
  config.ksm_enabled = graph.SettingBool("ksm", config.ksm_enabled);
  config.scrub = graph.SettingBool("scrub", config.scrub);
  config.huge = graph.SettingBool("huge", config.huge);
  config.seed = graph.SettingU64("seed", config.seed);
  return config;
}

void ApplyScenarioChaos(const ScenarioGraph& graph, System* system) {
  const double chaos_pte = graph.SettingF64("chaos_pte", 0.0);
  const double chaos_alloc = graph.SettingF64("chaos_alloc", 0.0);
  FaultInjector& injector = system->kernel().fault_injector();
  if (chaos_pte > 0.0) {
    FaultRule rule;
    rule.probability = chaos_pte;
    injector.SetCorruptRule(CorruptSite::kPteWord, rule);
  }
  if (chaos_alloc > 0.0) {
    FaultRule rule;
    rule.probability = chaos_alloc;
    for (uint32_t site = 0;
         site < static_cast<uint32_t>(AllocSite::kCount); ++site) {
      injector.SetRule(static_cast<AllocSite>(site), rule);
    }
  }
}

uint32_t ScenarioShardCount(const ScenarioGraph& graph) {
  const uint64_t shards = graph.SettingU64("shards", 1);
  return static_cast<uint32_t>(std::max<uint64_t>(1, shards));
}

ScenarioRunOutcome RunScenarioOnSystem(System* system,
                                       const ScenarioGraph& graph,
                                       const ElementRegistry& registry,
                                       const ScenarioRunConfig& run) {
  ScenarioRunOutcome outcome;

  // Instantiate and configure the element graph. The parser already
  // validated both steps when this graph came from ParseScenario with a
  // registry, so failures here mean the runtime registry differs.
  std::vector<std::unique_ptr<WorkloadElement>> elements;
  elements.reserve(graph.elements.size());
  for (const ElementSpec& spec : graph.elements) {
    std::unique_ptr<WorkloadElement> element = registry.Create(spec.kind);
    if (element == nullptr) {
      outcome.status = ScenarioResult::Err(
          Errno::kEfault, "unknown element kind '" + spec.kind +
                              "'; known kinds: " + registry.KindList());
      return outcome;
    }
    element->set_name(spec.name);
    const ScenarioResult configured = element->Configure(spec.params);
    if (!configured.ok()) {
      outcome.status = ScenarioResult::Err(
          configured.error, spec.name + ": " + configured.message);
      return outcome;
    }
    elements.push_back(std::move(element));
  }
  for (const EdgeSpec& edge : graph.edges) {
    elements[edge.from]->ConnectOutput(elements[edge.to].get());
  }

  ScenarioContext ctx(system, run.rng_seed, run.shard_index, run.shard_count,
                      run.scale);
  const uint32_t ticks = ScaledTicks(graph.SettingU64("ticks", 100),
                                     run.scale);
  for (uint32_t tick = 0; tick < ticks; ++tick) {
    ctx.set_tick(tick);
    for (const std::unique_ptr<WorkloadElement>& element : elements) {
      element->Tick(ctx);
    }
    ctx.stats().ticks_run++;
    bool all_done = true;
    for (const std::unique_ptr<WorkloadElement>& element : elements) {
      if (!element->Done(ctx)) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      break;
    }
  }

  // Teardown: disarm chaos first (no fresh damage while draining), give
  // scrubd a chance to repair whatever the run's bit-flips left behind,
  // then exit every process the scenario spawned and audit what remains.
  FaultInjector& injector = system->kernel().fault_injector();
  for (uint32_t site = 0; site < static_cast<uint32_t>(AllocSite::kCount);
       ++site) {
    injector.SetRule(static_cast<AllocSite>(site), FaultRule{});
  }
  for (uint32_t site = 0; site < static_cast<uint32_t>(CorruptSite::kCount);
       ++site) {
    injector.SetCorruptRule(static_cast<CorruptSite>(site), FaultRule{});
  }
  if (graph.SettingF64("chaos_pte", 0.0) > 0.0) {
    for (uint32_t pass = 0; pass < 16; ++pass) {
      if (system->kernel().RunScrubPass() == 0) {
        break;
      }
    }
  }
  ctx.ExitAll();

  const AuditReport audit = system->kernel().AuditInvariants();
  outcome.audit_ok = audit.ok();
  outcome.audit_checks = audit.checks;
  if (!audit.ok()) {
    outcome.audit_report = audit.ToString();
  }
  outcome.stats = ctx.stats();
  return outcome;
}

}  // namespace sat
