// Tests for the isolation-model extension (Section 5.2's design space):
// ARM domains vs data-only protection keys vs flush-on-switch, protecting
// shared global TLB entries from non-member processes.

#include <gtest/gtest.h>

#include "src/core/sat.h"

namespace sat {
namespace {

// A machine with one zygote app (global TLB entries live) and one
// non-zygote daemon mapping different content at the same VA — the
// hazard scenario of Section 3.2.3.
struct HazardRig {
  explicit HazardRig(IsolationModel isolation) {
    SystemConfig config = ConfigByName("shared-ptp-tlb");
    config.core.isolation = isolation;
    system = std::make_unique<System>(config);
    Kernel& kernel = system->kernel();
    app = system->android().ForkApp("app");
    daemon = kernel.CreateTask("daemon");

    const LibraryImage* libc = system->android().catalog().FindByName("libc.so");
    va = system->android().CodePageVa(libc->id, 0);

    MmapRequest request;
    request.length = 4 * kPageSize;
    request.prot = VmProt::ReadExec();
    request.kind = VmKind::kFilePrivate;
    request.file = 777777;
    request.fixed_address = PageAlignDown(va);
    kernel.Mmap(*daemon, request);
  }

  // App loads the global entry; daemon then fetches the same VA.
  // Returns the frame the daemon's fetch actually used... observable via
  // which mapping its page table ended up with plus the hazard counter.
  void RunScenario() {
    Kernel& kernel = system->kernel();
    kernel.ScheduleTo(*app);
    ASSERT_TRUE(kernel.core().FetchLine(va));
    kernel.ScheduleTo(*daemon);
    ASSERT_TRUE(kernel.core().FetchLine(va));
  }

  std::unique_ptr<System> system;
  Task* app = nullptr;
  Task* daemon = nullptr;
  VirtAddr va = 0;
};

TEST(IsolationTest, ArmDomainsFaultAndStaySound) {
  HazardRig rig(IsolationModel::kArmDomains);
  rig.RunScenario();
  EXPECT_EQ(rig.system->kernel().counters().domain_faults, 1u);
  EXPECT_EQ(rig.system->core().counters().unsound_global_hits, 0u);
  // The daemon faulted, flushed, and walked its own table: its private
  // mapping exists.
  const auto ref = rig.daemon->mm->page_table().FindPte(rig.va);
  ASSERT_TRUE(ref.has_value());
  EXPECT_TRUE(ref->ptp->hw(ref->index).valid());
}

TEST(IsolationTest, MpkDataOnlyLeaksInstructionTranslations) {
  // The paper's warning, reproduced: pkeys do not check instruction
  // fetches, so the daemon silently executes through the zygote's global
  // entry — the wrong address space's translation.
  HazardRig rig(IsolationModel::kMpkDataOnly);
  rig.RunScenario();
  EXPECT_GE(rig.system->core().counters().unsound_global_hits, 1u);
  EXPECT_EQ(rig.system->kernel().counters().domain_faults, 0u);
  // The daemon never even faulted in its own mapping.
  const auto ref = rig.daemon->mm->page_table().FindPte(rig.va);
  const bool own_mapping_populated =
      ref.has_value() && ref->ptp->hw(ref->index).valid();
  EXPECT_FALSE(own_mapping_populated);
}

TEST(IsolationTest, MpkStillProtectsDataAccesses) {
  // Loads/stores are checked: a daemon data access to a zygote-domain
  // global entry takes the (pkey) fault path and lands on its own page.
  SystemConfig config = ConfigByName("shared-ptp-tlb");
  config.core.isolation = IsolationModel::kMpkDataOnly;
  System system(config);
  Kernel& kernel = system.kernel();
  Task* app = system.android().ForkApp("app");
  Task* daemon = kernel.CreateTask("daemon");
  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");
  const VirtAddr va = system.android().CodePageVa(libc->id, 0);

  MmapRequest request;
  request.length = 4 * kPageSize;
  request.prot = VmProt::ReadOnly();
  request.kind = VmKind::kFilePrivate;
  request.file = 888111;
  request.fixed_address = PageAlignDown(va);
  kernel.Mmap(*daemon, request);

  kernel.ScheduleTo(*app);
  ASSERT_TRUE(kernel.core().FetchLine(va));
  kernel.ScheduleTo(*daemon);
  ASSERT_TRUE(kernel.core().Load(va));  // data access: checked
  EXPECT_EQ(kernel.counters().domain_faults, 1u);
  EXPECT_EQ(kernel.core().counters().unsound_global_hits, 0u);
}

TEST(IsolationTest, FlushOnSwitchIsSoundButDropsGlobals) {
  HazardRig rig(IsolationModel::kFlushOnSwitch);
  Kernel& kernel = rig.system->kernel();

  kernel.ScheduleTo(*rig.app);
  ASSERT_TRUE(kernel.core().FetchLine(rig.va));
  const uint32_t globals_before = kernel.core().main_tlb().ValidEntryCount();
  EXPECT_GT(globals_before, 0u);

  // Switching to the daemon flushes every global entry...
  kernel.ScheduleTo(*rig.daemon);
  ASSERT_TRUE(kernel.core().FetchLine(rig.va));
  EXPECT_EQ(kernel.core().counters().unsound_global_hits, 0u);
  EXPECT_EQ(kernel.counters().domain_faults, 0u);  // nothing to fault on

  // ...so the app pays a fresh walk when it returns: the fallback's cost.
  const uint64_t walks = kernel.core().counters().itlb_main_misses;
  kernel.ScheduleTo(*rig.app);
  ASSERT_TRUE(kernel.core().FetchLine(rig.va));
  EXPECT_GT(kernel.core().counters().itlb_main_misses, walks);
}

TEST(IsolationTest, FlushOnSwitchSparesGlobalsBetweenGroupMembers) {
  SystemConfig config = ConfigByName("shared-ptp-tlb");
  config.core.isolation = IsolationModel::kFlushOnSwitch;
  System system(config);
  Kernel& kernel = system.kernel();
  Task* a = system.android().ForkApp("a");
  Task* b = system.android().ForkApp("b");
  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");
  const VirtAddr va = system.android().CodePageVa(libc->id, 0);

  kernel.ScheduleTo(*a);
  ASSERT_TRUE(kernel.core().FetchLine(va));
  const uint64_t walks = kernel.core().counters().itlb_main_misses;
  // Zygote-like to zygote-like: globals survive; b reuses a's entry.
  kernel.ScheduleTo(*b);
  ASSERT_TRUE(kernel.core().FetchLine(va));
  EXPECT_EQ(kernel.core().counters().itlb_main_misses, walks);
}

TEST(IsolationTest, ConfigNamesIncludeTheModel) {
  SystemConfig config = ConfigByName("shared-ptp-tlb");
  config.core.isolation = IsolationModel::kMpkDataOnly;
  EXPECT_EQ(config.Name(), "Shared PTP & TLB [MPK (data-only)]");
  config.core.isolation = IsolationModel::kFlushOnSwitch;
  EXPECT_EQ(config.Name(), "Shared PTP & TLB [flush-on-switch]");
}

}  // namespace
}  // namespace sat
