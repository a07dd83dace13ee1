// The scenario runner: turns a parsed ScenarioGraph into a live element
// graph against one simulated System and drives it tick by tick.
//
// Sharding model (the PR-4 determinism contract): a scenario with
// `set shards N` becomes N independent driver jobs, each owning its own
// System and its own ScenarioContext seeded from
// DeriveJobSeed(base, scenario, shard). Scenario-wide populations are
// split with ShardShare, so the shard set always sums to the declared
// fleet, and because every job's record is emitted in submission order
// the merged output is bit-identical at any --jobs value.

#ifndef SRC_SCENARIO_RUNNER_H_
#define SRC_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>

#include "src/scenario/parser.h"
#include "src/scenario/registry.h"

namespace sat {

// Per-shard run parameters, all derived outside the runner (the bench
// harness owns seed derivation and smoke scaling).
struct ScenarioRunConfig {
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  uint64_t rng_seed = 42;
  // --smoke shrink factor applied to populations, rates, and ticks; 1.0
  // runs the scenario as written.
  double scale = 1.0;
};

struct ScenarioRunOutcome {
  ScenarioStats stats;
  // kOk, or why the run could not even start (an element kind missing
  // from the runtime registry, a Configure rejection).
  ScenarioResult status;
  // The full kernel invariant audit after teardown.
  bool audit_ok = false;
  uint64_t audit_checks = 0;
  std::string audit_report;  // violations, when !audit_ok

  bool ok() const { return status.ok() && audit_ok; }
};

// The SystemConfig a graph's `set` statements describe: the named base
// config, then the phys_mb/swap_mb/cores/nodes/shootdown/pt_placement/ksm/
// scrub/huge/seed overrides in file order.
SystemConfig ScenarioSystemConfig(const ScenarioGraph& graph);

// Arms the chaos knobs (`set chaos_pte p; set chaos_alloc p;`) on a
// built system's fault injector. A no-op for graphs without chaos.
void ApplyScenarioChaos(const ScenarioGraph& graph, System* system);

// The number of driver shards the graph asks for (`set shards`, min 1).
uint32_t ScenarioShardCount(const ScenarioGraph& graph);

// Instantiates the graph against `registry`, runs it for `set ticks`
// rounds (stopping early once every element reports Done), exits every
// spawned process, and audits the kernel. The System must have been
// built from ScenarioSystemConfig(graph) for the settings to mean what
// the scenario file says.
ScenarioRunOutcome RunScenarioOnSystem(System* system,
                                       const ScenarioGraph& graph,
                                       const ElementRegistry& registry,
                                       const ScenarioRunConfig& run);

}  // namespace sat

#endif  // SRC_SCENARIO_RUNNER_H_
