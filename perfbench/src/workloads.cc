#include "src/workloads.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/driver/worker_pool.h"

namespace perfbench {

sat::ScenarioResult SpanMark::Configure(const sat::ElementParams& params) {
  return sat::ParamReader(params).Finish();  // takes no parameters
}

void SpanMark::Tick(sat::ScenarioContext& ctx) {
  (void)ctx;
  if (log_ != nullptr) {
    log_->Mark();
  }
}

sat::ElementRegistry MakeRegistry(MarkLog* log) {
  sat::ElementRegistry registry;
  sat::RegisterBuiltinElements(&registry);
  registry.Register("SpanMark",
                    [log] { return std::make_unique<SpanMark>(log); });
  return registry;
}

const std::vector<ScenarioWorkload>& ScenarioWorkloads() {
  static const std::vector<ScenarioWorkload> workloads = {
      {"fork_storm",
       "fork_storm_10k",
       {"config shared-ptp-tlb", "ticks 400", "shards 4", "cores 2"},
       {"storm"},
       {"ForkBomb(forks 10000, fanout 2, rate 30, cap 120, touch_pages 104)"},
       {}},
      {"swap_thrash",
       "swap_thrash_ksm",
       {"config shared-ptp", "ticks 100", "shards 2", "phys_mb 72",
        "swap_mb 192", "ksm true"},
       {"thrash", "dedup"},
       {"SwapThrash(pages 4096, touches 512, stride 1, procs 8)",
        "MemoryChurn(pages 512, touches 128, dirty 0.6, values 4, procs 6, "
        "mergeable true)"},
       {}},
      {"diurnal",
       "phone_fleet_diurnal",
       {"config huge", "ticks 192", "shards 4", "cores 4", "ksm true"},
       {"day", "bg", "apps"},
       {"DiurnalLoad(period 48, peak 10, trough 1, lifetime 6, "
        "touch_pages 16)",
        "MemoryChurn(pages 128, touches 48, dirty 0.3, values 8, "
        "mergeable true)",
        "LaunchReplay(app paper, count 44, rate 1)"},
       {"day -> bg"}},
  };
  return workloads;
}

const ScenarioWorkload* FindScenarioWorkload(std::string_view name) {
  for (const ScenarioWorkload& workload : ScenarioWorkloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

std::string GraphText(const ScenarioWorkload& workload, bool with_marks) {
  std::string text;
  for (const std::string& setting : workload.settings) {
    text += "set " + setting + ";\n";
  }
  uint32_t marks = 0;
  const auto mark = [&] {
    if (with_marks) {
      text += "mark" + std::to_string(marks++) + " :: SpanMark;\n";
    }
  };
  mark();
  for (size_t i = 0; i < workload.element_names.size(); ++i) {
    text += workload.element_names[i] + " :: " + workload.element_decls[i] +
            ";\n";
    mark();
  }
  for (const std::string& edge : workload.edges) {
    text += edge + ";\n";
  }
  return text;
}

sat::ScenarioGraph ParseWorkload(const ScenarioWorkload& workload,
                                 bool with_marks,
                                 const sat::ElementRegistry& registry) {
  const sat::ScenarioParseResult parsed = sat::ParseScenario(
      GraphText(workload, with_marks), workload.graph_name, &registry);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n",
                 parsed.FormatError(workload.graph_name).c_str());
    std::abort();
  }
  return parsed.graph;
}

std::string ShardJobName(uint32_t run, uint32_t shard_count) {
  const uint32_t pass = run / shard_count;
  std::string job = "shard" + std::to_string(run % shard_count);
  if (pass > 0) {
    job += ".pass" + std::to_string(pass);
  }
  return job;
}

sat::SystemConfig ShardSystemConfig(const sat::ScenarioGraph& graph,
                                    uint64_t seed, const std::string& job) {
  sat::SystemConfig config = sat::ScenarioSystemConfig(graph);
  config.seed = sat::DeriveJobSeed(seed, graph.name, job);
  return config;
}

sat::ScenarioRunConfig ShardRunConfig(const sat::ScenarioGraph& graph,
                                      const sat::SystemConfig& config,
                                      uint32_t run, const std::string& job) {
  sat::ScenarioRunConfig run_config;
  run_config.shard_count = sat::ScenarioShardCount(graph);
  run_config.shard_index = run % run_config.shard_count;
  run_config.rng_seed = sat::DeriveJobSeed(config.seed, graph.name, job);
  return run_config;
}

sat::SystemConfig LaunchSystemConfig(uint64_t seed) {
  sat::SystemConfig config = sat::ConfigByName(kLaunchConfig);
  config.seed = sat::DeriveJobSeed(seed, "launch", "system");
  return config;
}

sat::LaunchParams LaunchParamsFor(uint64_t seed) {
  sat::LaunchParams params;
  params.seed = sat::DeriveJobSeed(seed, "launch", "params");
  return params;
}

}  // namespace perfbench
