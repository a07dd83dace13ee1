// Ablations of the Section 3.1.3 design choices:
//
//   (a) copy-referenced-PTEs-only on unshare ("Whether Page Table Entries
//       Should Be Copied Upon Unsharing"): cheaper unshares traded against
//       repopulation soft faults;
//   (b) x86-style first-level write-protect ("Hardware Support"): the
//       share-time per-PTE protection pass disappears from the fork path;
//   (c) lazy unshare on new-region creation: what the rejected lazy design
//       would save at mmap time;
//   (d) the domain-less portability fallback (Section 3.2.3): scheduler
//       grouping of zygote-like processes to reduce cross-group switches
//       (each of which would force a TLB flush without domains);
//   (e) fault-around vs shared PTPs.
//
// Every variant run is an independent system, submitted as one custom
// harness job (custom so that --config can never split an ablation pair);
// the five report sections print from the collected results afterwards.

#include "bench/common.h"
#include "src/proc/scheduler.h"

namespace sat {
namespace {

struct AblationResults {
  // (a) referenced-only unshare.
  AppRunStats unshare_full;
  AppRunStats unshare_referenced;
  // (b) L1 write-protect.
  Cycles wp_cycles[2] = {0, 0};  // [0]=software pass, [1]=L1 WP
  uint64_t wp_ptes[2] = {0, 0};
  // (c) lazy unshare.
  AppRunStats lazy_eager;
  AppRunStats lazy_lazy;
  // (d) scheduler grouping.
  SchedulerStats sched_plain;
  SchedulerStats sched_grouped;
  // (e) fault-around.
  uint64_t fa_faults[4] = {};
  uint64_t fa_ptps[4] = {};
  uint64_t fa_around[4] = {};
};

AppRunStats RunAppVariant(const SystemConfig& config, const char* app,
                          JobRecord& record) {
  System system(config);
  AppRunner runner(&system.android());
  const AppFootprint fp = system.workload().Generate(AppProfile::Named(app));
  const AppRunStats stats = runner.Run(fp);
  Harness::CaptureSystem(system, &record);
  return stats;
}

void AddJobs(Harness& harness, AblationResults& results) {
  // (a) copy-referenced-PTEs-only on unshare, WPS workload.
  for (const bool referenced_only : {false, true}) {
    harness.AddCustomJob(
        referenced_only ? "unshare/referenced-only" : "unshare/copy-all",
        [&harness, &results, referenced_only](JobRecord& record) {
          SystemConfig config = harness.Resolve(ConfigByName("shared-ptp"),
                                                record.config);
          config.vm.copy_referenced_only_on_unshare = referenced_only;
          const AppRunStats stats = RunAppVariant(config, "WPS", record);
          (referenced_only ? results.unshare_referenced
                           : results.unshare_full) = stats;
        });
  }

  // (b) x86-style L1 write-protect: measure the first post-boot fork.
  for (const bool l1_wp : {false, true}) {
    harness.AddCustomJob(
        l1_wp ? "fork/l1-write-protect" : "fork/software-pass",
        [&harness, &results, l1_wp](JobRecord& record) {
          SystemConfig config = harness.Resolve(ConfigByName("shared-ptp"),
                                                record.config);
          config.vm.hw_l1_write_protect = l1_wp;
          System system(config);
          const ForkOutcome outcome =
              system.android().ForkAppWithStats("probe");
          Task* app = outcome.child;
          const ForkResult& fork = outcome.stats;
          system.kernel().Exit(*app);
          results.wp_cycles[l1_wp ? 1 : 0] = fork.cycles;
          results.wp_ptes[l1_wp ? 1 : 0] =
              system.kernel().counters().ptes_write_protected;
          Harness::CaptureSystem(system, &record);
          record.Metric("fork.cycles", static_cast<double>(fork.cycles));
        });
  }

  // (c) lazy unshare on new-region creation, Chrome workload.
  for (const bool lazy : {false, true}) {
    harness.AddCustomJob(
        lazy ? "region/lazy-unshare" : "region/eager-unshare",
        [&harness, &results, lazy](JobRecord& record) {
          SystemConfig config = harness.Resolve(ConfigByName("shared-ptp"),
                                                record.config);
          config.vm.lazy_unshare_on_new_region = lazy;
          const AppRunStats stats = RunAppVariant(config, "Chrome", record);
          (lazy ? results.lazy_lazy : results.lazy_eager) = stats;
        });
  }

  // (d) scheduler grouping of zygote-like processes.
  for (const bool grouped : {false, true}) {
    harness.AddCustomJob(
        grouped ? "sched/grouped" : "sched/round-robin",
        [&harness, &results, grouped](JobRecord& record) {
          const SystemConfig config =
              harness.Resolve(ConfigByName("shared-ptp-tlb"), record.config);
          System system(config);
          Kernel& kernel = system.kernel();
          Scheduler scheduler(&kernel, grouped);
          for (int i = 0; i < 4; ++i) {
            scheduler.AddTask(
                system.android().ForkApp("app" + std::to_string(i)));
          }
          for (int i = 0; i < 3; ++i) {
            scheduler.AddTask(
                kernel.CreateTask("daemon" + std::to_string(i)));
          }
          for (int i = 0; i < 2000; ++i) {
            scheduler.RunQuantum();
          }
          (grouped ? results.sched_grouped : results.sched_plain) =
              scheduler.stats();
          Harness::CaptureSystem(system, &record);
          record.Metric(
              "sched.cross_group_switches",
              static_cast<double>(scheduler.stats().cross_group_switches));
        });
  }

  // (e) fault-around vs shared PTPs, Android Browser workload.
  struct Variant {
    const char* job;
    bool share;
    uint32_t fault_around;
  };
  const Variant variants[] = {{"fa/stock", false, 0},
                              {"fa/stock-fa16", false, 16},
                              {"fa/shared", true, 0},
                              {"fa/shared-fa16", true, 16}};
  for (int i = 0; i < 4; ++i) {
    const Variant variant = variants[i];
    harness.AddCustomJob(
        variant.job, [&harness, &results, variant, i](JobRecord& record) {
          SystemConfig config = harness.Resolve(
              variant.share ? ConfigByName("shared-ptp")
                            : ConfigByName("stock"),
              record.config);
          config.vm.fault_around_pages = variant.fault_around;
          System system(config);
          AppRunner runner(&system.android());
          const AppFootprint fp = system.workload().Generate(
              AppProfile::Named("Android Browser"));
          const AppRunStats stats = runner.Run(fp);
          results.fa_faults[i] = stats.file_faults;
          results.fa_ptps[i] = stats.ptps_allocated;
          results.fa_around[i] =
              system.kernel().counters().ptes_faulted_around;
          Harness::CaptureSystem(system, &record);
        });
  }
}

bool ReportReferencedOnlyUnshare(const AblationResults& results) {
  PrintHeader("Ablation (a)", "Copy only referenced PTEs on unshare");
  const AppRunStats& full = results.unshare_full;
  const AppRunStats& referenced = results.unshare_referenced;

  TablePrinter table({"Variant", "PTEs copied", "file faults"});
  table.AddRow({"copy all valid PTEs", std::to_string(full.ptes_copied),
                std::to_string(full.file_faults)});
  table.AddRow({"copy referenced only", std::to_string(referenced.ptes_copied),
                std::to_string(referenced.file_faults)});
  table.Print(std::cout);
  std::cout << "\n";

  bool ok = true;
  // Referenced-only must copy strictly less and fault at most slightly
  // more (skipped PTEs are repopulated by soft faults on demand).
  ok &= ShapeCheck(std::cout, "copy reduction holds (copied_ref < copied_all)",
                   1.0, referenced.ptes_copied < full.ptes_copied ? 1.0 : 0.0,
                   0.01);
  ok &= ShapeCheck(std::cout, "fault increase stays bounded (ratio)", 1.05,
                   static_cast<double>(referenced.file_faults) /
                       static_cast<double>(full.file_faults),
                   0.25);
  return ok;
}

bool ReportL1WriteProtect(const AblationResults& results) {
  PrintHeader("Ablation (b)", "x86-style L1 write-protect hardware support");
  TablePrinter table(
      {"Variant", "fork cycles", "PTEs write-protected (boot+fork)"});
  table.AddRow({"software pass (ARM)", std::to_string(results.wp_cycles[0]),
                std::to_string(results.wp_ptes[0])});
  table.AddRow({"L1 write-protect (x86-like)",
                std::to_string(results.wp_cycles[1]),
                std::to_string(results.wp_ptes[1])});
  table.Print(std::cout);
  std::cout << "\n";

  bool ok = true;
  ok &= ShapeCheck(std::cout, "protection pass eliminated (PTEs protected)",
                   0.0, static_cast<double>(results.wp_ptes[1]), 0.01);
  ok &= ShapeCheck(std::cout, "fork not slower without the pass", 1.0,
                   results.wp_cycles[1] <= results.wp_cycles[0] ? 1.0 : 0.0,
                   0.01);
  return ok;
}

bool ReportLazyUnshare(const AblationResults& results) {
  PrintHeader("Ablation (c)", "Lazy unshare on new-region creation");
  const AppRunStats& eager = results.lazy_eager;
  const AppRunStats& lazy = results.lazy_lazy;

  TablePrinter table({"Variant", "unshares", "PTEs copied", "file faults"});
  table.AddRow({"eager (paper's choice)", std::to_string(eager.ptps_unshared),
                std::to_string(eager.ptes_copied),
                std::to_string(eager.file_faults)});
  table.AddRow({"lazy (deferred to first fault)",
                std::to_string(lazy.ptps_unshared),
                std::to_string(lazy.ptes_copied),
                std::to_string(lazy.file_faults)});
  table.Print(std::cout);
  std::cout << "\n";

  // Deferring can only reduce (or equal) the number of unshares actually
  // performed: regions that are never touched never unshare.
  return ShapeCheck(std::cout, "lazy unshares <= eager unshares", 1.0,
                    lazy.ptps_unshared <= eager.ptps_unshared ? 1.0 : 0.0,
                    0.01);
}

bool ReportSchedulerGrouping(const AblationResults& results) {
  PrintHeader("Ablation (d)",
              "Scheduler grouping of zygote-like processes (domain-less "
              "architecture fallback)");
  const SchedulerStats& plain = results.sched_plain;
  const SchedulerStats& grouped = results.sched_grouped;

  TablePrinter table({"Policy", "switches", "cross-group switches",
                      "cross-group %"});
  auto pct = [](const SchedulerStats& stats) {
    return FormatPercent(static_cast<double>(stats.cross_group_switches) /
                         static_cast<double>(stats.switches));
  };
  table.AddRow({"round-robin", std::to_string(plain.switches),
                std::to_string(plain.cross_group_switches), pct(plain)});
  table.AddRow({"grouped", std::to_string(grouped.switches),
                std::to_string(grouped.cross_group_switches), pct(grouped)});
  table.Print(std::cout);
  std::cout << "\n";

  return ShapeCheck(
      std::cout, "grouping cuts cross-group switches by >2x", 1.0,
      grouped.cross_group_switches * 2 < plain.cross_group_switches ? 1.0 : 0.0,
      0.01);
}

bool ReportFaultAround(const AblationResults& results) {
  PrintHeader("Ablation (e)",
              "Fault-around (Linux 3.15+) vs shared PTPs: batching soft "
              "faults is not the same as deduplicating translations");
  const char* kNames[] = {"stock", "stock + fault-around(16)", "shared PTPs",
                          "shared PTPs + fault-around(16)"};
  TablePrinter table({"Variant", "file faults", "PTPs allocated",
                      "PTEs faulted around"});
  for (int i = 0; i < 4; ++i) {
    table.AddRow({kNames[i], std::to_string(results.fa_faults[i]),
                  std::to_string(results.fa_ptps[i]),
                  std::to_string(results.fa_around[i])});
  }
  table.Print(std::cout);
  std::cout << "\n";

  const uint64_t* faults = results.fa_faults;
  const uint64_t* ptps = results.fa_ptps;
  bool ok = true;
  // Fault-around does cut stock soft faults substantially...
  ok &= ShapeCheck(std::cout, "fault-around cuts stock faults by >25%", 1.0,
                   faults[1] * 4 < faults[0] * 3 ? 1.0 : 0.0, 0.01);
  // ...but it does nothing for page-table duplication...
  ok &= ShapeCheck(std::cout, "fault-around leaves PTP count ~unchanged", 1.0,
                   static_cast<double>(ptps[1]) / static_cast<double>(ptps[0]),
                   0.1);
  // ...and the two compose: sharing + fault-around is the best of all.
  ok &= ShapeCheck(std::cout, "sharing+FA has the fewest faults", 1.0,
                   faults[3] <= faults[1] && faults[3] <= faults[2] ? 1.0 : 0.0,
                   0.01);
  return ok;
}

int Run(const BenchOptions& options) {
  Harness harness("ablation", options);
  AblationResults results;
  AddJobs(harness, results);
  if (!harness.Run()) {
    return 1;
  }

  bool ok = true;
  ok &= ReportReferencedOnlyUnshare(results);
  std::cout << "\n";
  ok &= ReportL1WriteProtect(results);
  std::cout << "\n";
  ok &= ReportLazyUnshare(results);
  std::cout << "\n";
  ok &= ReportSchedulerGrouping(results);
  std::cout << "\n";
  ok &= ReportFaultAround(results);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  return sat::Run(options);
}
