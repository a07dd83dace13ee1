// Extension experiment — the Section 2.3.3 complement claim: "we can
// share address translation information for 64KB large pages in the same
// way as 4KB pages", and large pages trade physical memory for fewer
// faults and TLB entries (Figure 4's cost, measured live).
//
// Four machines: {4KB, 64KB code} x {stock, shared PTPs+TLB}, one harness
// job each. For each: boot-time faults and physical memory, fork-time
// sharing statistics, and a steady-state instruction TLB pressure probe.
//
// A second axis measures the translation-reach engine (src/huge): the
// shared design with promotion off / huged on / huged+KSM-unmerge, each
// running the same anonymous working set plus a code stream. huged
// collapses the anon pages to 64 KB entries (and the boot sections cover
// the code), so main-TLB reach grows and misses fall with no load-time
// page-size decision at all.

#include <array>

#include "bench/common.h"

namespace sat {
namespace {

struct Row {
  std::string name;
  uint64_t boot_faults = 0;
  double boot_phys_mb = 0;
  uint32_t fork_shared = 0;
  uint32_t fork_ptes_copied = 0;
  uint64_t itlb_misses = 0;
};

Row Measure(System& system) {
  Kernel& kernel = system.kernel();

  Row row;
  row.name = system.name();
  row.boot_faults = kernel.counters().faults_file_backed;
  row.boot_phys_mb =
      static_cast<double>(kernel.phys().used_bytes()) / 1048576.0;

  const ForkOutcome fork = system.android().ForkAppWithStats("probe");
  Task* app = fork.child;
  row.fork_shared = fork.stats.slots_shared;
  row.fork_ptes_copied = fork.stats.ptes_copied;

  // Steady-state TLB probe: stream over a 4 MB slice of boot-image code.
  kernel.ScheduleTo(*app);
  const LibraryImage* boot_image =
      system.android().catalog().FindByName("boot.oat");
  const CoreCounters before = kernel.core().counters();
  for (int pass = 0; pass < 4; ++pass) {
    for (uint32_t page = 0; page < 1024; ++page) {
      kernel.core().FetchLine(
          system.android().CodePageVa(boot_image->id, page));
    }
  }
  row.itlb_misses = (kernel.core().counters() - before).itlb_main_misses;
  kernel.Exit(*app);
  return row;
}

// The promotion-policy axis: off / huge / huge+ksm.
enum class Promotion { kOff, kHuge, kHugeKsm };

struct ReachRow {
  std::string name;
  uint64_t collapses = 0;
  uint64_t sections = 0;
  uint64_t ksm_unmerges = 0;
  uint64_t reach_bytes = 0;
  uint64_t main_misses = 0;
};

ReachRow MeasureReach(System& system, Promotion promotion) {
  Kernel& kernel = system.kernel();
  ReachRow row;
  row.name = system.name();

  Task* app = system.android().ForkApp("reach-probe");
  // A 4 MB anonymous working set at a 64 KB-aligned address: 64 whole
  // blocks for huged. The KSM variant writes from a 4-symbol alphabet so
  // merging collapses most of it into stable frames first — which the
  // unmerge policy then trades back for reach.
  MmapRequest request;
  request.length = 1024 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x60000000;
  request.mergeable = promotion == Promotion::kHugeKsm;
  const VirtAddr base = kernel.Mmap(*app, request).value;
  for (uint32_t page = 0; page < 1024; ++page) {
    kernel.WritePage(*app, base + page * kPageSize,
                     promotion == Promotion::kHugeKsm ? page % 4 : page);
  }
  if (promotion == Promotion::kHugeKsm) {
    kernel.RunKsmScan();
    kernel.RunKsmScan();
  }
  if (promotion != Promotion::kOff) {
    kernel.RunHugeScan();
  }

  // The probe: a data stream over the working set plus an instruction
  // stream over boot-image code (covered by the eager 1 MB sections when
  // the engine is on).
  kernel.ScheduleTo(*app);
  const LibraryImage* boot_image =
      system.android().catalog().FindByName("boot.oat");
  const CoreCounters before = kernel.core().counters();
  for (int pass = 0; pass < 4; ++pass) {
    for (uint32_t page = 0; page < 1024; ++page) {
      kernel.core().Load(base + page * kPageSize);
      kernel.core().FetchLine(
          system.android().CodePageVa(boot_image->id, page));
    }
  }
  const CoreCounters delta = kernel.core().counters() - before;
  row.main_misses = delta.itlb_main_misses + delta.dtlb_main_misses;
  row.reach_bytes = kernel.core().main_tlb().ReachBytes();
  row.collapses = kernel.counters().huge_collapses;
  row.sections = kernel.counters().huge_sections_mapped;
  row.ksm_unmerges = kernel.counters().huge_ksm_unmerges;
  kernel.Exit(*app);
  return row;
}

int Run(const BenchOptions& options) {
  PrintHeader("Extension",
              "64KB large pages for shared code: sharing works identically, "
              "memory/faults/TLB trade-offs");

  struct Variant {
    const char* job;
    const char* key;
    bool large;
  };
  const Variant variants[] = {{"4kb/stock", "stock", false},
                              {"4kb/shared-ptp-tlb", "shared-ptp-tlb", false},
                              {"64kb/stock", "stock", true},
                              {"64kb/shared-ptp-tlb", "shared-ptp-tlb", true}};

  std::array<Row, 4> rows;
  Harness harness("largepage", options);
  for (size_t i = 0; i < 4; ++i) {
    SystemConfig config = ConfigByName(variants[i].key);
    config.large_code_pages = variants[i].large;
    config.phys_bytes = 1024ull * 1024 * 1024;
    harness.AddJob(variants[i].job, config,
                   [&rows, i](System& system, JobRecord& record) {
                     rows[i] = Measure(system);
                     record.Metric("boot.file_faults",
                                   static_cast<double>(rows[i].boot_faults));
                     record.Metric("boot.phys_mb", rows[i].boot_phys_mb);
                     record.Metric("fork.slots_shared",
                                   static_cast<double>(rows[i].fork_shared));
                     record.Metric(
                         "fork.ptes_copied",
                         static_cast<double>(rows[i].fork_ptes_copied));
                     record.Metric("probe.itlb_misses",
                                   static_cast<double>(rows[i].itlb_misses));
                   });
  }
  struct ReachVariant {
    const char* job;
    Promotion promotion;
  };
  const ReachVariant reach_variants[] = {
      {"reach/off", Promotion::kOff},
      {"reach/huge", Promotion::kHuge},
      {"reach/huge-ksm", Promotion::kHugeKsm}};

  std::array<ReachRow, 3> reach_rows;
  for (size_t i = 0; i < 3; ++i) {
    const Promotion promotion = reach_variants[i].promotion;
    SystemConfig config = promotion == Promotion::kOff
                              ? ConfigByName("shared-ptp-tlb")
                              : ConfigByName("huge");
    if (promotion == Promotion::kHugeKsm) {
      config.ksm_enabled = true;
      config.huge_unmerge_ksm = true;
    }
    config.phys_bytes = 1024ull * 1024 * 1024;
    harness.AddJob(reach_variants[i].job, config,
                   [&reach_rows, i, promotion](System& system,
                                               JobRecord& record) {
                     reach_rows[i] = MeasureReach(system, promotion);
                     record.Metric(
                         "huge.collapses",
                         static_cast<double>(reach_rows[i].collapses));
                     record.Metric(
                         "huge.sections",
                         static_cast<double>(reach_rows[i].sections));
                     record.Metric(
                         "huge.ksm_unmerges",
                         static_cast<double>(reach_rows[i].ksm_unmerges));
                     record.Metric(
                         "tlb.reach_bytes",
                         static_cast<double>(reach_rows[i].reach_bytes));
                     record.Metric(
                         "tlb.main_misses",
                         static_cast<double>(reach_rows[i].main_misses));
                   });
  }
  if (!harness.Run()) {
    return 1;
  }

  TablePrinter table({"Config", "boot faults", "boot phys (MB)",
                      "fork: shared PTPs", "fork: PTEs copied",
                      "iTLB misses (4MB stream)"});
  for (const Row& row : rows) {
    if (row.name.empty()) {
      continue;  // Skipped by --config.
    }
    table.AddRow({row.name, std::to_string(row.boot_faults),
                  FormatDouble(row.boot_phys_mb, 0),
                  std::to_string(row.fork_shared),
                  std::to_string(row.fork_ptes_copied),
                  std::to_string(row.itlb_misses)});
  }
  table.Print(std::cout);

  TablePrinter reach_table({"Promotion policy", "collapses", "sections",
                            "KSM unmerges", "TLB reach (KB)",
                            "main-TLB misses"});
  for (const ReachRow& row : reach_rows) {
    if (row.name.empty()) {
      continue;  // Skipped by --config.
    }
    reach_table.AddRow({row.name, std::to_string(row.collapses),
                        std::to_string(row.sections),
                        std::to_string(row.ksm_unmerges),
                        std::to_string(row.reach_bytes / 1024),
                        std::to_string(row.main_misses)});
  }
  std::cout << "\n";
  reach_table.Print(std::cout);

  if (!harness.ran_all()) {
    std::cout << "\n--config filter active: cross-config shape checks "
                 "skipped\n";
    return 0;
  }

  std::cout << "\n";
  bool ok = true;
  // One large-page fault populates 16 PTEs: boot faults collapse.
  ok &= ShapeCheck(std::cout, "boot fault ratio 4KB/64KB (approx 16:4)", 3.5,
                   static_cast<double>(rows[0].boot_faults) /
                       static_cast<double>(rows[2].boot_faults),
                   0.5);
  // Figure 4's cost: 64 KB pages waste substantial physical memory.
  ok &= ShapeCheck(std::cout, "64KB extra physical memory (MB)", 38.0,
                   rows[2].boot_phys_mb - rows[0].boot_phys_mb, 0.5);
  // The complement claim: PTPs holding 64 KB entries share exactly like
  // 4 KB ones — same shared-PTP count, same 7-PTE stack copy.
  ok &= ShapeCheck(std::cout, "shared PTPs with 64KB code vs 4KB", 1.0,
                   static_cast<double>(rows[3].fork_shared) /
                       static_cast<double>(rows[1].fork_shared),
                   0.15);
  ok &= ShapeCheck(std::cout, "fork PTEs copied unchanged (stack only)",
                   static_cast<double>(rows[1].fork_ptes_copied),
                   static_cast<double>(rows[3].fork_ptes_copied), 0.15);
  // One TLB entry per 64 KB: a 16x drop in iTLB misses on the stream.
  ok &= ShapeCheck(std::cout, "iTLB miss ratio 4KB/64KB (approx 16x)", 16.0,
                   static_cast<double>(rows[1].itlb_misses) /
                       static_cast<double>(rows[3].itlb_misses),
                   0.4);
  // The reach engine: promotion grows what the same 128-entry main TLB
  // covers and cuts misses on the identical access stream — with no
  // load-time page-size decision.
  // 244 blocks: the 64 of the probe's 4 MB buffer plus the zygote's own
  // anonymous heaps, which huged collapses system-wide.
  ok &= ShapeCheck(std::cout, "huged collapses the anon working set", 244.0,
                   static_cast<double>(reach_rows[1].collapses), 0.1);
  ok &= ShapeCheck(
      std::cout, "TLB reach ratio huge/off (approx 3.8x)", 3.8,
      static_cast<double>(reach_rows[1].reach_bytes) /
          static_cast<double>(reach_rows[0].reach_bytes),
      0.2);
  ok &= ShapeCheck(
      std::cout, "main-TLB miss ratio off/huge (approx 6x)", 6.0,
      static_cast<double>(reach_rows[0].main_misses) /
          static_cast<double>(reach_rows[1].main_misses),
      0.25);
  // The unmerge policy reaches the same end state: dedup traded back,
  // every block collapsed.
  ok &= ShapeCheck(std::cout, "huge+ksm collapses the working set too", 244.0,
                   static_cast<double>(reach_rows[2].collapses), 0.1);
  ok &= ShapeCheck(std::cout, "huge+ksm unmerged stable replicas (>0)", 1.0,
                   reach_rows[2].ksm_unmerges > 0 ? 1.0 : 0.0, 0.01);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  return sat::Run(options);
}
