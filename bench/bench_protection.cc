// Extension experiment — the Section 5.2 / Section 6 design-space
// argument, measured: how should hardware protect shared (global) TLB
// entries from processes outside the sharing group?
//
//   ARM domains       safe for data AND instructions, no flushing: the
//                     paper's mechanism, and its recommendation to future
//                     processors.
//   MPK (data-only)   x86 protection keys guard loads/stores only; a
//                     non-member's instruction fetch silently consumes
//                     the foreign global translation. We count those
//                     unsound hits.
//   flush-on-switch   the software fallback: sound, but every switch to a
//                     non-member drops all global entries — measured as
//                     extra walks when the apps come back. Scheduler
//                     grouping (bench_ablation) exists to soften this.
//
// Workload: two zygote apps and one non-zygote daemon time-slicing on one
// core; apps run shared code (global entries), the daemon runs its own.
// One harness job per isolation model — three independent systems.

#include <array>

#include "bench/common.h"

namespace sat {
namespace {

struct ProtectionRow {
  std::string name;
  uint64_t unsound_hits = 0;
  uint64_t domain_faults = 0;
  uint64_t app_walks = 0;       // main iTLB misses taken by the apps
  uint64_t global_flushes = 0;  // full-flush operations issued
};

ProtectionRow RunMix(System& system, IsolationModel isolation) {
  Kernel& kernel = system.kernel();

  Task* app_a = system.android().ForkApp("app_a");
  Task* app_b = system.android().ForkApp("app_b");
  Task* daemon = kernel.CreateTask("daemon");

  // The apps' shared working set: hot pages of the preload set.
  std::vector<VirtAddr> shared_pages;
  const AppFootprint& boot = system.android().zygote_boot_footprint();
  for (size_t i = 0; i < boot.pages.size() && shared_pages.size() < 48;
       i += 9) {
    shared_pages.push_back(system.android().CodePageVa(
        boot.pages[i].lib, boot.pages[i].page_index));
  }

  // The daemon's code: private pages, some at the same VAs as shared code
  // (the hazard), some elsewhere.
  MmapRequest daemon_code;
  daemon_code.length = 32 * kPageSize;
  daemon_code.prot = VmProt::ReadExec();
  daemon_code.kind = VmKind::kFilePrivate;
  daemon_code.file = 999001;
  daemon_code.fixed_address = PageAlignDown(shared_pages[0]);
  kernel.Mmap(*daemon, daemon_code);

  uint64_t app_walks = 0;
  const uint64_t flushes_before = kernel.counters().tlb_full_flushes;
  for (int round = 0; round < 300; ++round) {
    for (Task* app : {app_a, app_b}) {
      kernel.ScheduleTo(*app);
      const uint64_t walks_before = kernel.core().counters().itlb_main_misses;
      for (size_t i = 0; i < shared_pages.size(); i += 2) {
        kernel.core().FetchLine(shared_pages[i]);
      }
      app_walks += kernel.core().counters().itlb_main_misses - walks_before;
    }
    kernel.ScheduleTo(*daemon);
    for (uint32_t i = 0; i < 16; ++i) {
      kernel.core().FetchLine(daemon_code.fixed_address + i * kPageSize);
    }
  }

  ProtectionRow row;
  row.name = IsolationModelName(isolation);
  row.unsound_hits = kernel.core().counters().unsound_global_hits;
  row.domain_faults = kernel.counters().domain_faults;
  row.app_walks = app_walks;
  row.global_flushes = kernel.counters().tlb_full_flushes - flushes_before;
  return row;
}

int Run(const BenchOptions& options) {
  PrintHeader("Extension",
              "Protecting shared TLB entries: ARM domains vs MPK vs "
              "flush-on-switch (2 apps + 1 daemon, time-sliced)");

  const struct {
    const char* job;
    IsolationModel isolation;
  } kModels[] = {{"arm-domains", IsolationModel::kArmDomains},
                 {"mpk-data-only", IsolationModel::kMpkDataOnly},
                 {"flush-on-switch", IsolationModel::kFlushOnSwitch}};

  std::array<ProtectionRow, 3> rows;
  Harness harness("protection", options);
  for (size_t i = 0; i < 3; ++i) {
    SystemConfig config = ConfigByName("shared-ptp-tlb");
    config.core.isolation = kModels[i].isolation;
    harness.AddJob(kModels[i].job, config,
                   [&rows, i, isolation = kModels[i].isolation](
                       System& system, JobRecord& record) {
                     rows[i] = RunMix(system, isolation);
                     record.Metric("prot.unsound_hits",
                                   static_cast<double>(rows[i].unsound_hits));
                     record.Metric("prot.domain_faults",
                                   static_cast<double>(rows[i].domain_faults));
                     record.Metric("prot.app_walks",
                                   static_cast<double>(rows[i].app_walks));
                     record.Metric(
                         "prot.global_flushes",
                         static_cast<double>(rows[i].global_flushes));
                   });
  }
  if (!harness.Run()) {
    return 1;
  }

  TablePrinter table({"Model", "unsound I-fetches", "domain faults",
                      "app iTLB walks", "global flushes"});
  for (const ProtectionRow& row : rows) {
    if (row.name.empty()) {
      continue;  // Skipped by --config.
    }
    table.AddRow({row.name, std::to_string(row.unsound_hits),
                  std::to_string(row.domain_faults),
                  std::to_string(row.app_walks),
                  std::to_string(row.global_flushes)});
  }
  table.Print(std::cout);

  if (!harness.ran_all()) {
    std::cout << "\n--config filter active: cross-model shape checks "
                 "skipped\n";
    return 0;
  }

  std::cout << "\n";
  bool ok = true;
  // Domains: sound, and the cheapest for the apps.
  ok &= ShapeCheck(std::cout, "ARM domains: unsound fetches", 0,
                   static_cast<double>(rows[0].unsound_hits), 0.01);
  // MPK: unsound for instruction fetches — the paper's exact objection.
  ok &= ShapeCheck(std::cout, "MPK: unsound fetches occur", 1.0,
                   rows[1].unsound_hits > 0 ? 1.0 : 0.0, 0.01);
  // Flush-on-switch: sound...
  ok &= ShapeCheck(std::cout, "flush-on-switch: unsound fetches", 0,
                   static_cast<double>(rows[2].unsound_hits), 0.01);
  // ...but the apps re-walk their shared entries after every daemon slice.
  ok &= ShapeCheck(std::cout, "flush-on-switch walks >= 3x domain walks", 1.0,
                   rows[2].app_walks >= 3 * rows[0].app_walks ? 1.0 : 0.0,
                   0.01);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  return sat::Run(options);
}
