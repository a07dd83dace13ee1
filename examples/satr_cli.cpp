// satr_cli: a command-line driver for the simulator — run any experiment
// under any kernel configuration without writing C++.
//
//   satr_cli fork   [config flags]          zygote-fork statistics
//   satr_cli launch [config flags]          one app launch (cycle-level)
//   satr_cli steady --app <name> [flags]    full-execution replay
//   satr_cli ipc    [config flags]          binder ping-pong
//   satr_cli smaps  [config flags]          smaps report for a fresh app
//   satr_cli reclaim --pages N [flags]      page-cache reclaim pass
//   satr_cli scenario FILE.scn [--check]    run (or just validate) a graph
//
// Config flags: --share-ptps --share-tlb --2mb --copy-ptes --no-asids
//               --large-pages --cores N --fault-around N
//               --isolation {domains|mpk|flush}
//
//   $ ./build/examples/satr_cli fork --share-ptps --share-tlb
//   $ ./build/examples/satr_cli steady --app "Google Calendar" --share-ptps
//   $ ./build/examples/satr_cli scenario scenarios/chaos_soak.scn

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/sat.h"
#include "src/scenario/parser.h"
#include "src/scenario/registry.h"
#include "src/scenario/runner.h"

namespace {

struct Cli {
  std::string command;
  sat::SystemConfig config;
  std::string app = "Email";
  uint32_t pages = 200;
  std::string scenario_file;
  bool check_only = false;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: satr_cli <fork|launch|steady|ipc|smaps|reclaim> [flags]\n"
      "       satr_cli scenario FILE.scn [--check]\n"
      "flags: --share-ptps --share-tlb --2mb --copy-ptes --no-asids\n"
      "       --large-pages --cores N --fault-around N\n"
      "       --isolation {domains|mpk|flush} --app NAME --pages N\n");
  std::exit(2);
}

Cli Parse(int argc, char** argv) {
  if (argc < 2) {
    Usage();
  }
  Cli cli;
  cli.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (cli.command == "scenario" && !flag.empty() && flag[0] != '-') {
      cli.scenario_file = flag;
      continue;
    }
    if (cli.command == "scenario" && flag == "--check") {
      cli.check_only = true;
      continue;
    }
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (flag == "--share-ptps") {
      cli.config.vm.share_ptps = true;
    } else if (flag == "--share-tlb") {
      cli.config.vm.share_ptps = true;
      cli.config.vm.share_tlb_global = true;
    } else if (flag == "--2mb") {
      cli.config.mapping_policy = sat::MappingPolicy::kTwoMbAligned;
    } else if (flag == "--copy-ptes") {
      cli.config.vm.copy_zygote_code_ptes_at_fork = true;
    } else if (flag == "--no-asids") {
      cli.config.core.asids_enabled = false;
    } else if (flag == "--large-pages") {
      cli.config.large_code_pages = true;
      cli.config.phys_bytes = 1024ull * 1024 * 1024;
    } else if (flag == "--cores") {
      cli.config.num_cores = static_cast<uint32_t>(std::atoi(next().c_str()));
    } else if (flag == "--fault-around") {
      cli.config.vm.fault_around_pages =
          static_cast<uint32_t>(std::atoi(next().c_str()));
    } else if (flag == "--isolation") {
      const std::string model = next();
      if (model == "domains") {
        cli.config.core.isolation = sat::IsolationModel::kArmDomains;
      } else if (model == "mpk") {
        cli.config.core.isolation = sat::IsolationModel::kMpkDataOnly;
      } else if (model == "flush") {
        cli.config.core.isolation = sat::IsolationModel::kFlushOnSwitch;
      } else {
        Usage();
      }
    } else if (flag == "--app") {
      cli.app = next();
    } else if (flag == "--pages") {
      cli.pages = static_cast<uint32_t>(std::atoi(next().c_str()));
    } else {
      Usage();
    }
  }
  return cli;
}

int RunFork(const Cli& cli) {
  sat::System system(cli.config);
  const sat::ForkOutcome outcome = system.android().ForkAppWithStats("cli_app");
  sat::Task* app = outcome.child;
  const sat::ForkResult& fork = outcome.stats;
  std::printf("%s\n", system.name().c_str());
  std::printf("zygote fork: %.2f Mcycles, %u PTPs allocated, %u shared, "
              "%u PTEs copied, %u write-protected\n",
              static_cast<double>(fork.cycles) / 1e6,
              fork.child_ptps_allocated, fork.slots_shared, fork.ptes_copied,
              fork.ptes_write_protected);
  system.kernel().Exit(*app);
  return 0;
}

int RunLaunch(const Cli& cli) {
  sat::System system(cli.config);
  sat::LaunchSimulator simulator(&system.android(), sat::LaunchParams{});
  simulator.LaunchOnce(0);  // warm up the shared PTPs
  const sat::LaunchResult result = simulator.LaunchOnce(1);
  std::printf("%s\n", system.name().c_str());
  std::printf("launch: %.1f Mcycles, %.2f Mcycles I$ stalls, "
              "%llu file faults, %llu PTPs allocated\n",
              static_cast<double>(result.exec_cycles) / 1e6,
              static_cast<double>(result.icache_stall_cycles) / 1e6,
              static_cast<unsigned long long>(result.file_faults),
              static_cast<unsigned long long>(result.ptps_allocated));
  return 0;
}

int RunSteady(const Cli& cli) {
  sat::System system(cli.config);
  sat::AppRunner runner(&system.android());
  const sat::AppFootprint fp =
      system.workload().Generate(sat::AppProfile::Named(cli.app));
  const sat::AppRunStats stats = runner.Run(fp);
  std::printf("%s / %s\n", system.name().c_str(), cli.app.c_str());
  std::printf("file faults %llu, anon faults %llu, COW %llu\n",
              static_cast<unsigned long long>(stats.file_faults),
              static_cast<unsigned long long>(stats.anon_faults),
              static_cast<unsigned long long>(stats.cow_faults));
  std::printf("PTPs allocated %llu, unshared %llu; %u/%u slots shared "
              "(%.0f%%); %u PTEs inherited at fork\n",
              static_cast<unsigned long long>(stats.ptps_allocated),
              static_cast<unsigned long long>(stats.ptps_unshared),
              stats.shared_slots, stats.present_slots,
              stats.SharedSlotFraction() * 100, stats.inherited_ptes);
  return 0;
}

int RunIpc(const Cli& cli) {
  sat::System system(cli.config);
  sat::BinderParams params;
  params.transactions = 4000;
  params.warmup_transactions = 800;
  sat::BinderBenchmark bench(&system.android(), params);
  const sat::BinderResult result = bench.Run();
  std::printf("%s\n", system.name().c_str());
  std::printf("binder x%llu: client iTLB stalls/txn %.1f, server %.1f, "
              "domain faults %llu\n",
              static_cast<unsigned long long>(result.transactions),
              static_cast<double>(result.client.itlb_stall_cycles) /
                  static_cast<double>(result.transactions),
              static_cast<double>(result.server.itlb_stall_cycles) /
                  static_cast<double>(result.transactions),
              static_cast<unsigned long long>(result.domain_faults));
  return 0;
}

int RunSmaps(const Cli& cli) {
  sat::System system(cli.config);
  sat::Task* app = system.android().ForkApp("cli_app");
  // Touch its inherited footprint so the report is non-trivial.
  const sat::AppFootprint& boot = system.android().zygote_boot_footprint();
  for (size_t i = 0; i < boot.pages.size(); i += 2) {
    system.kernel().TouchPage(
        *app,
        system.android().CodePageVa(boot.pages[i].lib, boot.pages[i].page_index),
        sat::AccessType::kExecute);
  }
  const sat::SmapsReport report = GenerateSmaps(
      *app->mm, system.kernel().ptp_allocator(), &system.kernel().rmap(),
      &system.kernel().phys());
  std::printf("%s\n%s", system.name().c_str(), report.ToString().c_str());
  return 0;
}

int RunReclaim(const Cli& cli) {
  sat::System system(cli.config);
  sat::Task* a = system.android().ForkApp("a");
  sat::Task* b = system.android().ForkApp("b");
  (void)a;
  (void)b;
  const sat::ReclaimStats stats = system.kernel().ReclaimFileCache(cli.pages);
  std::printf("%s\n", system.name().c_str());
  std::printf("reclaimed %u pages (%u skipped): %u PTE clears, %u TLB "
              "flushes => %.2f clears/page\n",
              stats.pages_reclaimed, stats.pages_skipped, stats.ptes_cleared,
              stats.tlb_flushes,
              stats.pages_reclaimed == 0
                  ? 0.0
                  : static_cast<double>(stats.ptes_cleared) /
                        static_cast<double>(stats.pages_reclaimed));
  return 0;
}

// Parse, validate, and (unless --check) run one shard of a scenario
// graph. Parse errors come out errno-style with line:column, exactly as
// the engine reports them:
//
//   scenarios/bad.scn:3:9: error: unknown element kind 'Storm' (EFAULT)
int RunScenario(const Cli& cli) {
  if (cli.scenario_file.empty()) {
    Usage();
  }
  const sat::ElementRegistry& registry = sat::ElementRegistry::Default();
  const sat::ScenarioParseResult parsed =
      sat::ParseScenarioFile(cli.scenario_file, &registry);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n",
                 parsed.FormatError(cli.scenario_file).c_str());
    return 2;
  }
  std::printf("%s: parsed OK\n\n%s\n", cli.scenario_file.c_str(),
              parsed.graph.ToString().c_str());
  if (cli.check_only) {
    return 0;
  }

  sat::SystemConfig config = sat::ScenarioSystemConfig(parsed.graph);
  sat::System system(config);
  sat::ScenarioRunConfig run;
  run.rng_seed = config.seed;
  sat::ApplyScenarioChaos(parsed.graph, &system);
  const sat::ScenarioRunOutcome outcome =
      sat::RunScenarioOnSystem(&system, parsed.graph, registry, run);
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "scenario failed: %s (%s)\n",
                 outcome.status.message.c_str(),
                 sat::ErrnoName(outcome.status.error));
    return 1;
  }
  const sat::ScenarioStats& s = outcome.stats;
  std::printf("%s\n", system.name().c_str());
  std::printf("ticks %llu  spawned %llu  exited %llu  lost %llu\n",
              static_cast<unsigned long long>(s.ticks_run),
              static_cast<unsigned long long>(s.processes_spawned),
              static_cast<unsigned long long>(s.processes_exited),
              static_cast<unsigned long long>(s.processes_lost));
  std::printf("pages touched %llu  launches %llu  ipc txns %llu\n",
              static_cast<unsigned long long>(s.pages_touched),
              static_cast<unsigned long long>(s.launches),
              static_cast<unsigned long long>(s.ipc_transactions));
  std::printf("audit: %s (%llu checks)\n",
              outcome.audit_ok ? "clean" : "VIOLATIONS",
              static_cast<unsigned long long>(outcome.audit_checks));
  if (!outcome.audit_ok) {
    std::printf("%s", outcome.audit_report.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = Parse(argc, argv);
  if (cli.command == "scenario") {
    return RunScenario(cli);
  }
  if (cli.command == "fork") {
    return RunFork(cli);
  }
  if (cli.command == "launch") {
    return RunLaunch(cli);
  }
  if (cli.command == "steady") {
    return RunSteady(cli);
  }
  if (cli.command == "ipc") {
    return RunIpc(cli);
  }
  if (cli.command == "smaps") {
    return RunSmaps(cli);
  }
  if (cli.command == "reclaim") {
    return RunReclaim(cli);
  }
  Usage();
  return 2;
}
