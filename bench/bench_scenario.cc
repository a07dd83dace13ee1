// bench_scenario: runs named scenario files (scenarios/*.scn) through the
// composable element-graph engine at fleet scale.
//
// Each scenario becomes one Harness whose jobs are the scenario's shards:
// shard i of N owns its own System (built from the scenario's `set`
// statements), instantiates the element graph against the default
// registry, and runs its 1/N slice of the declared populations. Records
// come back in submission order, so the merged output — and the
// BENCH_<scenario>.json written per scenario — is bit-identical at any
// --jobs value. A run exits nonzero if any shard fails or leaves the
// kernel audit unclean.
//
//   bench_scenario                          # every scenarios/*.scn
//   bench_scenario scenarios/chaos_soak.scn # specific files
//   bench_scenario --smoke --jobs 2 --json-out results

#include <stdexcept>

#include "bench/common.h"

#ifndef SAT_SCENARIO_DIR
#define SAT_SCENARIO_DIR "scenarios"
#endif

namespace {

double TotalFaults(const sat::JobRecord& record) {
  return sat::MetricOr(record, "counters.faults_file_backed") +
         sat::MetricOr(record, "counters.faults_anonymous") +
         sat::MetricOr(record, "counters.faults_cow") +
         sat::MetricOr(record, "counters.faults_hard");
}

std::string LabelOr(const sat::JobRecord& record, std::string_view name,
                    const std::string& fallback) {
  for (const auto& label : record.labels) {
    if (label.first == name) {
      return label.second;
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const sat::BenchOptions base_options = sat::ParseHarnessArgs(&argc, argv);

  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    paths.push_back(argv[i]);
  }
  if (paths.empty()) {
    paths = sat::ScenarioFiles(SAT_SCENARIO_DIR);
    if (paths.empty()) {
      std::cerr << "error: no .scn files in " << SAT_SCENARIO_DIR << "\n";
      return 2;
    }
  }

  sat::PrintHeader("scenario",
                   "composable scenario engine: fleet-scale element graphs");

  bool all_ok = true;
  for (const std::string& path : paths) {
    const sat::ScenarioParseResult parsed =
        sat::ParseScenarioFile(path, &sat::ElementRegistry::Default());
    if (!parsed.ok()) {
      std::cerr << parsed.FormatError(path) << "\n";
      return 2;
    }
    const sat::ScenarioGraph graph = parsed.graph;
    const uint32_t shards = sat::ScenarioShardCount(graph);

    // One harness (and one BENCH_<scenario>.json) per scenario. The graph
    // itself is the workload here, so the generic --scenario
    // preconditioning hook stays off for these custom jobs.
    sat::BenchOptions options = base_options;
    options.scenario.clear();
    options.scenario_set = false;
    sat::Harness harness(graph.name, options);

    for (uint32_t shard = 0; shard < shards; ++shard) {
      const std::string job_name = "shard" + std::to_string(shard);
      harness.AddCustomJob(
          job_name, [&harness, &options, graph, shard, shards,
                     job_name](sat::JobRecord& record) {
            const sat::SystemConfig config =
                harness.Resolve(sat::ScenarioSystemConfig(graph), job_name);
            sat::System system(config);
            sat::ApplyScenarioChaos(graph, &system);
            sat::ScenarioRunConfig run;
            run.shard_index = shard;
            run.shard_count = shards;
            run.rng_seed =
                sat::DeriveJobSeed(config.seed, graph.name, job_name);
            run.scale = options.smoke ? sat::kScenarioSmokeScale : 1.0;
            const sat::ScenarioRunOutcome outcome = sat::RunScenarioOnSystem(
                &system, graph, sat::ElementRegistry::Default(), run);
            record.Label("scenario", graph.name);
            record.Label("audit",
                         outcome.audit_ok ? "clean" : "violations");
            record.Metric("scenario.audit_checks",
                          static_cast<double>(outcome.audit_checks));
            sat::RecordScenarioStats(outcome.stats, &record);
            sat::Harness::CaptureSystem(system, &record);
            if (!outcome.status.ok()) {
              throw std::runtime_error(outcome.status.message);
            }
            if (!outcome.audit_ok) {
              throw std::runtime_error("kernel audit failed:\n" +
                                       outcome.audit_report);
            }
          });
    }
    if (!harness.Run()) {
      all_ok = false;
    }

    std::cout << "\n-- " << graph.name << " (" << shards << " shard(s), "
              << graph.elements.size() << " element(s)) --\n";
    double spawned = 0, exited = 0, lost = 0, touched = 0, faults = 0;
    double ipc = 0, launches = 0, checks = 0;
    for (const sat::JobRecord& record : harness.records()) {
      const std::string status = LabelOr(record, "status", "?");
      std::cout << "  " << record.config << ": "
                << sat::MetricOr(record, "scenario.processes_spawned")
                << " spawned, "
                << sat::MetricOr(record, "scenario.processes_exited")
                << " exited, "
                << sat::MetricOr(record, "scenario.processes_lost")
                << " lost, " << TotalFaults(record) << " faults, "
                << sat::MetricOr(record, "scenario.ticks_run")
                << " tick(s), audit " << LabelOr(record, "audit", "?")
                << ", status " << status << "\n";
      if (status != "ok") {
        std::cout << "    " << LabelOr(record, "status_reason", "") << "\n";
        all_ok = false;
      }
      spawned += sat::MetricOr(record, "scenario.processes_spawned");
      exited += sat::MetricOr(record, "scenario.processes_exited");
      lost += sat::MetricOr(record, "scenario.processes_lost");
      touched += sat::MetricOr(record, "scenario.pages_touched");
      faults += TotalFaults(record);
      ipc += sat::MetricOr(record, "scenario.ipc_transactions");
      launches += sat::MetricOr(record, "scenario.launches");
      checks += sat::MetricOr(record, "scenario.audit_checks");
    }
    std::cout << "  total: " << spawned << " processes, " << faults
              << " faults, " << touched << " pages touched";
    if (ipc > 0) {
      std::cout << ", " << ipc << " IPC transaction(s)";
    }
    if (launches > 0) {
      std::cout << ", " << launches << " app launch(es)";
    }
    std::cout << ", " << checks << " audit check(s)\n";
  }

  if (!all_ok) {
    std::cout << "\n[scenario] FAILED: at least one shard did not complete "
                 "cleanly\n";
    return 1;
  }
  std::cout << "\n[scenario] all scenarios completed, audits clean\n";
  return 0;
}
