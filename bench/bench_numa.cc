// Extension experiment — the numaPTE question: on a multi-node machine,
// is the paper's page-table *sharing* compatible with page-table
// *locality*?
//
// Sharing concentrates every process's hot L2 PTPs on the node that
// first touched them (the zygote's), so hardware walks from every other
// node fetch PTEs from remote DRAM. numaPTE-style replication spends one
// 4 KB frame per node per hot PTP to make every walk node-local. Stock
// (unshared) tables inherit the zygote's placement too — fork copies
// them on the forking node — but being sole-owner they can simply be
// *migrated* to the walking node, an option sharing forecloses. This
// bench sweeps the whole frontier:
//
//   cores     ∈ {16, 32, 64}       (32 only under --smoke)
//   sharing   ∈ {stock, shared-ptp-tlb}
//   placement ∈ {local, replicate, migrate}     (4 NUMA nodes)
//
// reporting walk counts, the remote-walk fraction, replica-served walks,
// PTP memory (masters + replicas), numad activity, and IPIs per cell.
// The headline: at 32+ cores, replication cuts the shared design's
// remote-walk fraction by >=5x for a replica overhead of a few hot PTPs
// x (nodes-1) frames — far below stock's per-process table bill.

#include <string>
#include <vector>

#include "bench/common.h"

namespace sat {
namespace {

struct NumaRow {
  uint32_t cores = 0;
  bool shared = false;
  PtPlacement placement = PtPlacement::kLocal;
  bool ran = false;
  uint64_t walks = 0;
  double remote_frac = 0;
  double replica_frac = 0;
  double ptp_kb = 0;       // masters + replicas
  double replica_kb = 0;   // replicas alone
  uint64_t promotions = 0;
  uint64_t migrations = 0;
  uint64_t numad_runs = 0;
  uint64_t ipis = 0;
};

// One app per core, every app walking the zygote-preloaded libc from its
// own core: a warm-up phase accumulates the walk statistics numad's
// policy runs on, one explicit numad pass applies the placement, and the
// measured phase counts where the walks land afterwards.
NumaRow RunCell(System& system, uint32_t cores, bool shared,
                PtPlacement placement) {
  Kernel& kernel = system.kernel();
  NumaRow row;
  row.cores = cores;
  row.shared = shared;
  row.placement = placement;
  row.ran = true;

  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");
  std::vector<Task*> apps;
  for (uint32_t i = 0; i < cores; ++i) {
    Task* app = system.android().ForkApp("numa" + std::to_string(i));
    kernel.ScheduleTo(*app, i);
    apps.push_back(app);
  }

  // Warm-up: each app touches a window of shared code pages from its own
  // core, crossing the numad promotion threshold on the hot PTPs.
  constexpr uint32_t kWindow = 12;
  for (uint32_t i = 0; i < cores; ++i) {
    kernel.ScheduleTo(*apps[i], i);
    for (uint32_t k = 0; k < kWindow; ++k) {
      kernel.TouchPage(*apps[i],
                       system.android().CodePageVa(
                           libc->id, (i + k) % libc->code_pages),
                       AccessType::kExecute);
    }
  }
  kernel.RunNumadPass();  // apply the placement policy once, explicitly

  // Measured phase: the same walk pattern, counted from a clean delta.
  const KernelCounters before = kernel.counters();
  constexpr uint32_t kRounds = 4;
  for (uint32_t round = 0; round < kRounds; ++round) {
    for (uint32_t i = 0; i < cores; ++i) {
      kernel.ScheduleTo(*apps[i], i);
      for (uint32_t k = 0; k < kWindow; ++k) {
        kernel.TouchPage(*apps[i],
                         system.android().CodePageVa(
                             libc->id, (i + round + k) % libc->code_pages),
                         AccessType::kExecute);
      }
    }
  }
  const KernelCounters delta = kernel.counters() - before;
  row.walks = delta.numa_walks;
  if (row.walks > 0) {
    row.remote_frac = static_cast<double>(delta.numa_remote_walks) /
                      static_cast<double>(row.walks);
    row.replica_frac = static_cast<double>(delta.numa_replica_walks) /
                       static_cast<double>(row.walks);
  }
  const uint64_t replica_bytes =
      kernel.numa() != nullptr ? kernel.numa()->replica_bytes() : 0;
  row.replica_kb = static_cast<double>(replica_bytes) / 1024.0;
  row.ptp_kb = static_cast<double>(kernel.ptp_allocator().live_ptps() *
                                       kPageSize +
                                   replica_bytes) /
               1024.0;
  row.promotions = kernel.counters().numa_replica_promotions;
  row.migrations = kernel.counters().numa_ptp_migrations;
  row.numad_runs = kernel.counters().numad_runs;
  row.ipis = delta.tlb_shootdown_ipis;
  for (Task* app : apps) {
    kernel.Exit(*app);
  }
  return row;
}

int Run(const BenchOptions& options) {
  PrintHeader("Extension",
              "numaPTE vs shared PTPs: cores x sharing x page-table "
              "placement on a 4-node machine (1 app per core walking "
              "shared code)");

  const std::vector<uint32_t> core_counts =
      options.smoke ? std::vector<uint32_t>{32}
                    : std::vector<uint32_t>{16, 32, 64};
  const std::vector<PtPlacement> placements = {
      PtPlacement::kLocal, PtPlacement::kReplicate, PtPlacement::kMigrate};
  const size_t cells_per_cores = 2 * placements.size();
  std::vector<NumaRow> rows(core_counts.size() * cells_per_cores);
  Harness harness("numa", options);
  size_t n = 0;
  for (uint32_t cores : core_counts) {
    for (bool shared : {false, true}) {
      for (PtPlacement placement : placements) {
        SystemConfig config =
            ConfigByName(shared ? "shared-ptp-tlb" : "stock");
        config.num_cores = cores;
        config.num_nodes = 4;
        config.pt_placement = placement;
        harness.AddJob(
            std::string(shared ? "shared" : "stock") + "/" +
                PtPlacementName(placement) + "/cores" + std::to_string(cores),
            config,
            [&rows, n, cores, shared, placement](System& system,
                                                 JobRecord& record) {
              rows[n] = RunCell(system, cores, shared, placement);
              const NumaRow& row = rows[n];
              record.Metric("numa.walks", static_cast<double>(row.walks));
              record.Metric("numa.remote_frac", row.remote_frac);
              record.Metric("numa.replica_frac", row.replica_frac);
              record.Metric("numa.ptp_kb", row.ptp_kb);
              record.Metric("numa.replica_kb", row.replica_kb);
              record.Metric("numa.promotions",
                            static_cast<double>(row.promotions));
              record.Metric("numa.migrations",
                            static_cast<double>(row.migrations));
              record.Metric("numa.numad_runs",
                            static_cast<double>(row.numad_runs));
              record.Metric("numa.ipis", static_cast<double>(row.ipis));
            });
        n++;
      }
    }
  }
  if (!harness.Run()) {
    return 1;
  }

  TablePrinter table({"Cores", "Tables", "Placement", "walks",
                      "remote frac", "replica frac", "PTP (KB)",
                      "replicas (KB)", "promoted", "migrated", "IPIs"});
  for (const NumaRow& row : rows) {
    if (!row.ran) {
      continue;  // Skipped by --config.
    }
    table.AddRow({std::to_string(row.cores),
                  row.shared ? "shared" : "stock",
                  PtPlacementName(row.placement), std::to_string(row.walks),
                  FormatDouble(row.remote_frac, 3),
                  FormatDouble(row.replica_frac, 3),
                  FormatDouble(row.ptp_kb, 0),
                  FormatDouble(row.replica_kb, 0),
                  std::to_string(row.promotions),
                  std::to_string(row.migrations), std::to_string(row.ipis)});
  }
  table.Print(std::cout);

  if (!harness.ran_all()) {
    std::cout << "\n--config filter active: cross-config shape checks "
                 "skipped\n";
    return 0;
  }

  std::cout << "\n";
  bool ok = true;
  for (size_t c = 0; c < core_counts.size(); ++c) {
    const NumaRow* cell = &rows[c * cells_per_cores];
    const NumaRow& stock_local = cell[0];
    const NumaRow& stock_migrate = cell[2];
    const NumaRow& shared_local = cell[3];
    const NumaRow& shared_replicate = cell[4];
    const NumaRow& shared_migrate = cell[5];
    const std::string at = " @" + std::to_string(stock_local.cores) + " cores";
    // Sharing concentrates the tables on the zygote's node: most walks
    // from a 4-node fleet are remote. Fork-copied stock tables inherit
    // that placement too, but migration can rescue them — they have a
    // sole owner. Sharers pin shared PTPs in place, so migrate is a
    // no-op there and only replication helps.
    ok &= ShapeCheck(std::cout, "shared/local walks mostly remote" + at, 1.0,
                     shared_local.remote_frac > 0.5 ? 1.0 : 0.0, 0.01);
    ok &= ShapeCheck(std::cout,
                     "migrate localizes stock's sole-owner tables" + at, 1.0,
                     stock_migrate.remote_frac < 0.05 ? 1.0 : 0.0, 0.01);
    ok &= ShapeCheck(std::cout,
                     "sharers pin shared tables: migrate is a no-op" + at,
                     1.0, shared_migrate.remote_frac > 0.5 ? 1.0 : 0.0,
                     0.01);
    // Sharing's memory win: far fewer PTP frames than per-process tables.
    ok &= ShapeCheck(std::cout, "shared PTP memory below stock" + at, 1.0,
                     shared_local.ptp_kb < stock_local.ptp_kb ? 1.0 : 0.0,
                     0.01);
    // The headline, at 32+ cores: replication serves walks node-locally.
    if (stock_local.cores >= 32) {
      const double reduction =
          shared_replicate.remote_frac > 0
              ? shared_local.remote_frac / shared_replicate.remote_frac
              : 1e9;
      ok &= ShapeCheck(std::cout,
                       "replicate cuts remote fraction >=5x" + at, 1.0,
                       reduction >= 5.0 ? 1.0 : 0.0, 0.01);
    }
    // The overhead side of the frontier is really reported: replicas
    // cost memory, and the bench says how much.
    ok &= ShapeCheck(std::cout, "replicate reports replica bytes" + at, 1.0,
                     shared_replicate.replica_kb > 0 ? 1.0 : 0.0, 0.01);
    ok &= ShapeCheck(std::cout, "replicate serves walks from replicas" + at,
                     1.0, shared_replicate.replica_frac > 0.5 ? 1.0 : 0.0,
                     0.01);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  return sat::Run(options);
}
