// Unit tests for the Android layer: zygote boot, app forking, the
// touch-replay app runner, the launch simulator, and the binder
// microbenchmark.

#include <gtest/gtest.h>

#include "src/android/app_runner.h"
#include "src/android/binder.h"
#include "src/android/launch.h"
#include "src/android/zygote.h"

namespace sat {
namespace {

SystemConfig Params(bool share_ptps, bool share_tlb = false,
                    MappingPolicy policy = MappingPolicy::kOriginal) {
  SystemConfig params;
  params.vm.share_ptps = share_ptps;
  params.vm.share_tlb_global = share_tlb;
  params.mapping_policy = policy;
  return params;
}

TEST(ZygoteTest, BootProducesPreloadedZygote) {
  ZygoteSystem system(Params(true, true));
  Task* zygote = system.zygote();
  ASSERT_NE(zygote, nullptr);
  EXPECT_TRUE(zygote->zygote);
  EXPECT_EQ(zygote->mm->user_domain(), kDomainZygote);
  // All 88 objects mapped.
  EXPECT_EQ(system.loader().zygote_layout().size(), 88u);
  // Boot populated thousands of instruction PTEs (Table 4: ~5,900).
  const AppFootprint& boot = system.zygote_boot_footprint();
  EXPECT_GT(boot.pages.size(), 4500u);
  uint32_t populated = system.CountInheritedPtes(*zygote, boot);
  EXPECT_EQ(populated, boot.pages.size());
  // And the system server exists as the first child.
  EXPECT_TRUE(system.system_server()->zygote_child);
}

TEST(ZygoteTest, ForkAppInheritsAddressSpace) {
  ZygoteSystem system(Params(true));
  Task* app = system.ForkApp("test_app");
  EXPECT_TRUE(app->zygote_child);
  EXPECT_EQ(app->mm->vma_count(), system.zygote()->mm->vma_count());
  // Inherited PTEs: the whole boot footprint is visible without faults.
  EXPECT_EQ(system.CountInheritedPtes(*app, system.zygote_boot_footprint()),
            system.zygote_boot_footprint().pages.size());
}

TEST(ZygoteTest, StockForkInheritsNoFilePtes) {
  ZygoteSystem system(Params(false));
  Task* app = system.ForkApp("test_app");
  EXPECT_EQ(system.CountInheritedPtes(*app, system.zygote_boot_footprint()), 0u);
}

TEST(ZygoteTest, VaResolutionMatchesLayout) {
  ZygoteSystem system(Params(false));
  const LibraryImage* libc = system.catalog().FindByName("libc.so");
  const MappedLibrary* mapped = system.loader().FindZygoteMapping(libc->id);
  EXPECT_EQ(system.CodePageVa(libc->id, 0), mapped->code_base);
  EXPECT_EQ(system.CodePageVa(libc->id, 3), mapped->code_base + 3 * kPageSize);
  EXPECT_EQ(system.DataPageVa(libc->id, 1), mapped->data_base + kPageSize);
}

TEST(ZygoteTest, Table4ForkShape) {
  // The zygote fork under the three kernels (Table 4): sharing is fastest
  // and allocates only the stack PTP; copying PTEs is slowest.
  ZygoteSystem shared(Params(true));
  const ForkResult shared_fork = shared.ForkAppWithStats("a").stats;

  ZygoteSystem stock(Params(false));
  const ForkResult stock_fork = stock.ForkAppWithStats("a").stats;

  SystemConfig copied_params = Params(false);
  copied_params.vm.copy_zygote_code_ptes_at_fork = true;
  ZygoteSystem copied(copied_params);
  const ForkResult copied_fork = copied.ForkAppWithStats("a").stats;

  EXPECT_EQ(shared_fork.child_ptps_allocated, 1u);  // just the stack
  EXPECT_LE(shared_fork.ptes_copied, 10u);
  EXPECT_GT(shared_fork.slots_shared, 50u);

  EXPECT_GT(stock_fork.ptes_copied, 3000u);   // anon + COW'd data
  EXPECT_GT(stock_fork.child_ptps_allocated, 30u);

  EXPECT_GT(copied_fork.ptes_copied, stock_fork.ptes_copied + 4000);

  // Cycle ordering: shared < stock < copied, roughly 1 : 2 : 3.5.
  EXPECT_LT(shared_fork.cycles * 17 / 10, stock_fork.cycles);
  EXPECT_LT(stock_fork.cycles, copied_fork.cycles);
}

TEST(AppRunnerTest, RunProducesConsistentStats) {
  ZygoteSystem system(Params(true));
  LibraryCatalog& catalog = system.catalog();
  WorkloadFactory& factory = system.workload();
  (void)catalog;
  AppRunner runner(&system);
  const AppFootprint fp = factory.Generate(AppProfile::Named("Email"));
  const AppRunStats stats = runner.Run(fp);
  EXPECT_GT(stats.inherited_ptes, 0u);
  EXPECT_GT(stats.file_faults, 0u);
  EXPECT_GT(stats.present_slots, 0u);
  EXPECT_GT(stats.shared_slots, 0u);
  EXPECT_LE(stats.shared_slots, stats.present_slots);
}

TEST(AppRunnerTest, SharingReducesFileFaults) {
  // Figure 10's mechanism: PTEs inherited in shared PTPs never fault.
  auto run = [](bool share) {
    ZygoteSystem system(Params(share));
    AppRunner runner(&system);
    const AppFootprint fp =
        system.workload().Generate(AppProfile::Named("Google Calendar"));
    return runner.Run(fp);
  };
  const AppRunStats stock = run(false);
  const AppRunStats shared = run(true);
  EXPECT_LT(shared.file_faults, stock.file_faults);
  EXPECT_LT(shared.ptps_allocated, stock.ptps_allocated);
  EXPECT_EQ(stock.shared_slots, 0u);
}

TEST(AppRunnerTest, WarmRunInheritsMoreThanCold) {
  // Table 3: a reinvoked app inherits the PTEs its first run populated
  // into the shared PTPs.
  ZygoteSystem system(Params(true));
  AppRunner runner(&system);
  const AppFootprint fp =
      system.workload().Generate(AppProfile::Named("Adobe Reader"));
  const AppRunStats cold = runner.Run(fp);
  const AppRunStats warm = runner.Run(fp);
  EXPECT_GT(warm.inherited_ptes, cold.inherited_ptes);
  EXPECT_LT(warm.file_faults, cold.file_faults);
}

TEST(AppRunnerTest, DataWritesUnshareUnderOriginalAlignment) {
  ZygoteSystem system(Params(true, false, MappingPolicy::kOriginal));
  AppRunner runner(&system);
  const AppFootprint fp = system.workload().Generate(AppProfile::Named("WPS"));
  const AppRunStats stats = runner.Run(fp);
  EXPECT_GT(stats.ptps_unshared, 0u);
  EXPECT_GT(stats.ptes_copied, 0u);
}

TEST(AppRunnerTest, TwoMbAlignmentSharesMoreSlots) {
  // Figure 12: 2 MB alignment raises the shared fraction of PTPs.
  auto shared_fraction = [](MappingPolicy policy) {
    ZygoteSystem system(Params(true, false, policy));
    AppRunner runner(&system);
    const AppFootprint fp =
        system.workload().Generate(AppProfile::Named("Android Browser"));
    // Keep the app alive so end-of-run shape reflects steady state.
    return runner.Run(fp, /*exit_after=*/false).SharedSlotFraction();
  };
  const double original = shared_fraction(MappingPolicy::kOriginal);
  const double aligned = shared_fraction(MappingPolicy::kTwoMbAligned);
  EXPECT_GT(aligned, original);
}

TEST(LaunchTest, LaunchRunsAndSharingHelps) {
  LaunchParams launch_params;
  launch_params.fetch_entries = 8000;  // trimmed for test time

  ZygoteSystem stock(Params(false));
  LaunchSimulator stock_sim(&stock, launch_params);
  LaunchResult stock_result = stock_sim.LaunchOnce(0);
  EXPECT_GT(stock_result.exec_cycles, 0u);
  EXPECT_GT(stock_result.file_faults, 1000u);  // ~the paper's 1,900

  ZygoteSystem shared(Params(true, true));
  LaunchSimulator shared_sim(&shared, launch_params);
  // Warm up one launch; measure the second (steady state, as the paper's
  // repeated-launch medians do).
  shared_sim.LaunchOnce(0);
  LaunchResult shared_result = shared_sim.LaunchOnce(1);
  EXPECT_LT(shared_result.file_faults, stock_result.file_faults / 3);
  EXPECT_LT(shared_result.exec_cycles, stock_result.exec_cycles);
  EXPECT_LT(shared_result.ptps_allocated, stock_result.ptps_allocated);
}

TEST(LaunchTest, RepeatedLaunchesConvergeUnderSharing) {
  SystemConfig params = Params(true, true);
  ZygoteSystem system(params);
  LaunchParams launch_params;
  launch_params.fetch_entries = 6000;
  LaunchSimulator sim(&system, launch_params);
  const LaunchResult first = sim.LaunchOnce(0);
  const LaunchResult third = sim.LaunchOnce(2);
  // Populations persist in shared PTPs: later launches fault less.
  EXPECT_LT(third.file_faults, first.file_faults);
}

TEST(BinderTest, TransactionsRunAndTlbSharingReducesStalls) {
  BinderParams bench_params;
  bench_params.transactions = 800;
  bench_params.warmup_transactions = 200;

  SystemConfig stock_params = Params(true, false);
  ZygoteSystem stock(stock_params);
  BinderBenchmark stock_bench(&stock, bench_params);
  const BinderResult stock_result = stock_bench.Run();
  EXPECT_GT(stock_result.client.itlb_stall_cycles, 0u);
  EXPECT_GT(stock_result.server.inst_lines, 0u);

  SystemConfig shared_params = Params(true, true);
  ZygoteSystem shared(shared_params);
  BinderBenchmark shared_bench(&shared, bench_params);
  const BinderResult shared_result = shared_bench.Run();

  EXPECT_LT(shared_result.client.itlb_main_misses,
            stock_result.client.itlb_main_misses);
  EXPECT_LT(shared_result.client.itlb_stall_cycles,
            stock_result.client.itlb_stall_cycles);
  EXPECT_LE(shared_result.server.itlb_stall_cycles,
            stock_result.server.itlb_stall_cycles);
}

TEST(BinderTest, AsidsBeatFlushing) {
  // Figure 13's other dimension: with ASIDs disabled every switch flushes
  // non-global entries, so stalls rise sharply.
  BinderParams bench_params;
  bench_params.transactions = 600;
  bench_params.warmup_transactions = 150;

  SystemConfig with_asids = Params(true, false);
  ZygoteSystem a(with_asids);
  const BinderResult with_result = BinderBenchmark(&a, bench_params).Run();

  SystemConfig without_asids = Params(true, false);
  without_asids.core.asids_enabled = false;
  ZygoteSystem b(without_asids);
  const BinderResult without_result = BinderBenchmark(&b, bench_params).Run();

  EXPECT_GT(without_result.client.itlb_stall_cycles,
            with_result.client.itlb_stall_cycles);
  EXPECT_GT(without_result.server.itlb_stall_cycles,
            with_result.server.itlb_stall_cycles);
}

TEST(LaunchTest, LaunchWindowIsDeterministicPerRound) {
  // Same system, same round index => identical trace => identical window
  // counters (determinism is what makes the box plots meaningful).
  auto run = []() {
    ZygoteSystem system(Params(true, true));
    LaunchParams launch_params;
    launch_params.fetch_entries = 5000;
    LaunchSimulator sim(&system, launch_params);
    sim.LaunchOnce(0);
    return sim.LaunchOnce(1);
  };
  const LaunchResult a = run();
  const LaunchResult b = run();
  EXPECT_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_EQ(a.file_faults, b.file_faults);
  EXPECT_EQ(a.icache_stall_cycles, b.icache_stall_cycles);
}

TEST(LaunchTest, RoundsVaryButOnlyModestly) {
  ZygoteSystem system(Params(true, true));
  LaunchParams launch_params;
  launch_params.fetch_entries = 5000;
  LaunchSimulator sim(&system, launch_params);
  sim.LaunchOnce(0);
  const LaunchResult r1 = sim.LaunchOnce(1);
  const LaunchResult r2 = sim.LaunchOnce(2);
  EXPECT_NE(r1.exec_cycles, r2.exec_cycles);  // per-round trace jitter
  const double ratio = static_cast<double>(r1.exec_cycles) /
                       static_cast<double>(r2.exec_cycles);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(BinderTest, ZeroWarmupStillMeasuresEveryTransaction) {
  BinderParams bench_params;
  bench_params.transactions = 50;
  bench_params.warmup_transactions = 0;
  ZygoteSystem system(Params(true, true));
  BinderBenchmark bench(&system, bench_params);
  const BinderResult result = bench.Run();
  EXPECT_EQ(result.transactions, 50u);
  EXPECT_GT(result.client.inst_lines, 0u);
  EXPECT_GT(result.file_faults, 0u);  // cold working sets fault in
}

TEST(BinderTest, NoDomainFaultsBetweenZygoteLikePeers) {
  BinderParams bench_params;
  bench_params.transactions = 100;
  bench_params.warmup_transactions = 20;
  ZygoteSystem system(Params(true, true));
  const BinderResult result = BinderBenchmark(&system, bench_params).Run();
  EXPECT_EQ(result.domain_faults, 0u);
}

}  // namespace
}  // namespace sat
