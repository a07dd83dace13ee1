// Extension experiment — many-core TLB shootdown scaling, the dimension
// the paper's single-core evaluation leaves unmeasured.
//
// Sharing page tables makes one PTE visible to N address spaces, so every
// PTE mutation (unshare, KSM unmerge, swap-out) is a cross-core stale-TLB
// hazard. This bench runs an unshare/unmerge/swap-out *storm* — 2 apps
// per core executing shared code, dirtying library data, rewriting
// mergeable anonymous pages between ksmd passes, under periodic swap-out
// pressure — and sweeps cores × shootdown policy:
//
//   cores  ∈ {4, 16, 32}          (16 only under --smoke)
//   policy ∈ {immediate, batched}
//
// reporting shootdown broadcasts, IPIs, IPI wait cycles, batch-queue
// stats, and per-fork latency per cell. The headline: batched deferred
// flushing collapses the per-PTE IPI storms into one IPI per remote core
// per kernel sync point — ≥5x fewer IPIs at 32 cores — while converging
// to the same machine state (tests/smp_test.cc proves the equivalence).

#include <vector>

#include "bench/common.h"

namespace sat {
namespace {

struct StormRow {
  uint32_t cores = 0;
  bool batched = false;
  bool ran = false;
  uint64_t procs = 0;
  uint64_t shootdowns = 0;
  uint64_t ipis = 0;
  double ipi_mcycles = 0;
  uint64_t batch_drains = 0;
  uint64_t batch_overflows = 0;
  double fork_kcycles = 0;
  uint64_t unshares = 0;
  uint64_t ksm_unmerges = 0;
  uint64_t swap_outs = 0;
};

// The storm: every app round-robins across the cores (spreading its
// cpumask), executes shared library code, unshares library data pages,
// and rewrites mergeable anonymous pages that periodic ksmd passes keep
// re-merging; every third round a swap-out pass harvests young pages.
// All three mutation sources shoot down sharer TLBs.
StormRow RunStorm(System& system, uint32_t cores, bool batched, bool smoke) {
  Kernel& kernel = system.kernel();
  StormRow row;
  row.cores = cores;
  row.batched = batched;
  row.ran = true;
  row.procs = 2 * cores;

  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");

  // Fork the fleet (2 apps per core) and measure mean per-fork latency.
  const Cycles fork_begin = kernel.machine().TotalCycles();
  std::vector<Task*> apps;
  for (uint64_t i = 0; i < row.procs; ++i) {
    Task* app = system.android().ForkApp("storm" + std::to_string(i));
    kernel.ScheduleTo(*app, static_cast<uint32_t>(i) % cores);
    apps.push_back(app);
  }
  row.fork_kcycles =
      static_cast<double>(kernel.machine().TotalCycles() - fork_begin) /
      static_cast<double>(row.procs) / 1e3;

  // One 8-page mergeable anonymous region per app, written with a small
  // content alphabet so ksmd finds duplicates across apps.
  constexpr uint32_t kAnonPages = 8;
  std::vector<VirtAddr> anon;
  for (uint64_t i = 0; i < row.procs; ++i) {
    MmapRequest request;
    request.length = kAnonPages * kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    request.mergeable = true;
    const VirtAddr at = kernel.Mmap(*apps[i], request).value;
    anon.push_back(at);
    for (uint32_t p = 0; p < kAnonPages; ++p) {
      kernel.WritePage(*apps[i], at + p * kPageSize, p % 3);
    }
  }

  kernel.machine().ResetShootdownStats();
  const KernelCounters before = kernel.counters();

  const uint32_t rounds = smoke ? 6 : 18;
  for (uint32_t round = 0; round < rounds; ++round) {
    for (uint64_t i = 0; i < row.procs; ++i) {
      const uint32_t core_id = (static_cast<uint32_t>(i) + round) % cores;
      kernel.ScheduleTo(*apps[i], core_id);
      for (uint32_t k = 0; k < 6; ++k) {
        kernel.core(core_id).FetchLine(system.android().CodePageVa(
            libc->id, (round * 6 + k) % libc->code_pages));
      }
      // Unshare storm: dirty a shared library data page.
      kernel.core(core_id).Store(system.android().DataPageVa(
          libc->id, (static_cast<uint32_t>(i) + round) % libc->data_pages));
      // Unmerge storm: rewrite a page ksmd may have merged since.
      kernel.WritePage(*apps[i], anon[i] + (round % kAnonPages) * kPageSize,
                       (round + i) % 3);
    }
    if (round % 3 == 0) {
      kernel.RunKsmScan();           // merge duplicates (write-protects)
      kernel.SwapOutAnonPages(64);   // swap-out storm (young harvest)
    }
  }

  const KernelCounters delta = kernel.counters() - before;
  const ShootdownStats& stats = kernel.machine().shootdown_stats();
  row.shootdowns = stats.shootdowns;
  row.ipis = delta.tlb_shootdown_ipis;
  row.ipi_mcycles = static_cast<double>(row.ipis) *
                    static_cast<double>(kernel.costs().tlb_shootdown_ipi) / 1e6;
  row.batch_drains = delta.tlb_batch_drains;
  row.batch_overflows = stats.batch_overflows;
  row.unshares = delta.ptps_unshared;
  row.ksm_unmerges = delta.ksm_unmerge_faults;
  row.swap_outs = delta.swap_outs;
  for (Task* app : apps) {
    kernel.Exit(*app);
  }
  return row;
}

int Run(const BenchOptions& options) {
  PrintHeader("Extension",
              "Many-core shootdown scaling: cores x shootdown policy on an "
              "unshare/unmerge/swap-out storm (2 apps per core)");

  const std::vector<uint32_t> core_counts =
      options.smoke ? std::vector<uint32_t>{16}
                    : std::vector<uint32_t>{4, 16, 32};
  std::vector<StormRow> rows(core_counts.size() * 2);
  Harness harness("smp", options);
  size_t n = 0;
  for (uint32_t cores : core_counts) {
    for (bool batched : {false, true}) {
      SystemConfig config = ConfigByName("shared-ptp-tlb");
      config.num_cores = cores;
      config.shootdown_policy = batched ? ShootdownPolicy::kBatched
                                        : ShootdownPolicy::kImmediate;
      config.swap_bytes = 32ull * 1024 * 1024;
      config.ksm_enabled = true;
      const bool smoke = options.smoke;
      harness.AddJob(
          std::string(batched ? "batched" : "immediate") + "/cores" +
              std::to_string(cores),
          config,
          [&rows, n, cores, batched, smoke](System& system,
                                            JobRecord& record) {
            rows[n] = RunStorm(system, cores, batched, smoke);
            const StormRow& row = rows[n];
            record.Metric("smp.procs", static_cast<double>(row.procs));
            record.Metric("smp.shootdowns",
                          static_cast<double>(row.shootdowns));
            record.Metric("smp.ipis", static_cast<double>(row.ipis));
            record.Metric("smp.ipi_mcycles", row.ipi_mcycles);
            record.Metric("smp.batch_drains",
                          static_cast<double>(row.batch_drains));
            record.Metric("smp.batch_overflows",
                          static_cast<double>(row.batch_overflows));
            record.Metric("smp.fork_kcycles", row.fork_kcycles);
            record.Metric("smp.unshares", static_cast<double>(row.unshares));
            record.Metric("smp.ksm_unmerges",
                          static_cast<double>(row.ksm_unmerges));
            record.Metric("smp.swap_outs",
                          static_cast<double>(row.swap_outs));
          });
      n++;
    }
  }
  if (!harness.Run()) {
    return 1;
  }

  TablePrinter table({"Cores", "Policy", "procs", "shootdowns", "IPIs",
                      "IPI wait (Mcycles)", "drains", "fork (kcycles)",
                      "unshares", "unmerges", "swap-outs"});
  for (const StormRow& row : rows) {
    if (!row.ran) {
      continue;  // Skipped by --config.
    }
    table.AddRow({std::to_string(row.cores),
                  row.batched ? "batched" : "immediate",
                  std::to_string(row.procs), std::to_string(row.shootdowns),
                  std::to_string(row.ipis), FormatDouble(row.ipi_mcycles, 3),
                  std::to_string(row.batch_drains),
                  FormatDouble(row.fork_kcycles, 1),
                  std::to_string(row.unshares),
                  std::to_string(row.ksm_unmerges),
                  std::to_string(row.swap_outs)});
  }
  table.Print(std::cout);

  if (!harness.ran_all()) {
    std::cout << "\n--config filter active: cross-config shape checks "
                 "skipped\n";
    return 0;
  }

  std::cout << "\n";
  bool ok = true;
  for (size_t i = 0; i < core_counts.size(); ++i) {
    const StormRow& immediate = rows[2 * i];
    const StormRow& batched = rows[2 * i + 1];
    const std::string at = " @" + std::to_string(immediate.cores) + " cores";
    // Both policies drive the same storm: identical mutation work.
    ok &= ShapeCheck(std::cout, "same unshares across policies" + at,
                     static_cast<double>(immediate.unshares),
                     static_cast<double>(batched.unshares), 0.01);
    ok &= ShapeCheck(std::cout, "storm sends IPIs (immediate)" + at, 1.0,
                     immediate.ipis > 0 ? 1.0 : 0.0, 0.01);
    // The headline: batching coalesces per-PTE IPIs into per-drain IPIs.
    const double reduction =
        batched.ipis > 0 ? static_cast<double>(immediate.ipis) /
                               static_cast<double>(batched.ipis)
                         : static_cast<double>(immediate.ipis);
    ok &= ShapeCheck(std::cout,
                     "batched sends >=5x fewer IPIs" + at, 1.0,
                     reduction >= 5.0 ? 1.0 : 0.0, 0.01);
  }
  if (!options.smoke) {
    // IPI volume grows with core count under immediate shootdowns (the
    // scaling problem), far slower under batching (the fix).
    ok &= ShapeCheck(std::cout, "immediate IPIs grow 4 -> 32 cores", 1.0,
                     rows[4].ipis > rows[0].ipis ? 1.0 : 0.0, 0.01);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  return sat::Run(options);
}
