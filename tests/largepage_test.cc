// Tests for the 64 KB large-page extension (the Section 2.3.3
// complement): contiguous frame allocation, block page-cache, the VM's
// large-fault path, sharing semantics, and end-to-end TLB behaviour.

#include <gtest/gtest.h>

#include "src/core/sat.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// Physical layer.
// ---------------------------------------------------------------------------

TEST(ContiguousAllocTest, RunsAreAlignedAndExclusive) {
  PhysicalMemory phys(256 * kPageSize);
  const FrameNumber a = phys.AllocContiguousFrames(16, FrameKind::kFileCache);
  const FrameNumber b = phys.AllocContiguousFrames(16, FrameKind::kFileCache);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  EXPECT_NE(a, b);
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(phys.frame(a + i).kind, FrameKind::kFileCache);
    EXPECT_EQ(phys.frame(a + i).ref_count, 1u);
  }
}

TEST(ContiguousAllocTest, CoexistsWithSingleFrameAllocation) {
  PhysicalMemory phys(128 * kPageSize);
  // Grab some singles first; the contiguous run must avoid them.
  std::vector<FrameNumber> singles;
  for (int i = 0; i < 10; ++i) {
    singles.push_back(phys.AllocFrame(FrameKind::kAnon));
  }
  const FrameNumber run = phys.AllocContiguousFrames(16, FrameKind::kAnon);
  for (FrameNumber single : singles) {
    EXPECT_TRUE(single < run || single >= run + 16);
  }
  // And subsequent singles must avoid the run.
  for (int i = 0; i < 40; ++i) {
    const FrameNumber single = phys.AllocFrame(FrameKind::kAnon);
    EXPECT_TRUE(single < run || single >= run + 16);
  }
}

TEST(ContiguousAllocTest, FreedRunIsReusable) {
  PhysicalMemory phys(64 * kPageSize);
  const FrameNumber run = phys.AllocContiguousFrames(16, FrameKind::kAnon);
  for (uint32_t i = 0; i < 16; ++i) {
    phys.UnrefFrame(run + i);
  }
  const uint64_t free_before = phys.free_frames();
  // The same run can be claimed again, and single allocation still works.
  const FrameNumber again = phys.AllocContiguousFrames(16, FrameKind::kAnon);
  EXPECT_EQ(again, run);
  EXPECT_EQ(phys.free_frames(), free_before - 16);
  const FrameNumber single = phys.AllocFrame(FrameKind::kAnon);
  EXPECT_TRUE(single < again || single >= again + 16);
}

TEST(PageCacheLargeTest, BlockLoadsOnceContiguously) {
  PhysicalMemory phys(256 * kPageSize);
  PageCache cache(&phys);
  bool hard = false;
  const FrameNumber base = cache.GetOrLoadLargeBlock(9, 0, &hard);
  EXPECT_TRUE(hard);
  EXPECT_EQ(base % 16, 0u);
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(phys.frame(base + i).file, 9);
    EXPECT_EQ(phys.frame(base + i).file_page_index, i);
  }
  // Second access: soft, same base.
  EXPECT_EQ(cache.GetOrLoadLargeBlock(9, 0, &hard), base);
  EXPECT_FALSE(hard);
  // The per-page lookup view is consistent with the block.
  EXPECT_EQ(cache.Lookup(9, 3), base + 3);
  EXPECT_EQ(cache.resident_pages(), 16u);
}

// ---------------------------------------------------------------------------
// VM layer.
// ---------------------------------------------------------------------------

class LargePageVmTest : public ::testing::Test {
 protected:
  LargePageVmTest()
      : phys_(4096 * kPageSize),
        cache_(&phys_),
        alloc_(&phys_, &counters_),
        vm_(&phys_, &cache_, &counters_, &CostModel::Default(),
            ConfigByName("shared-ptp-tlb").vm) {}

  std::unique_ptr<MmStruct> NewMm() {
    return std::make_unique<MmStruct>(&alloc_, &phys_, &counters_, kDomainUser);
  }

  // A 64 KB-aligned, large-page code mapping.
  void MapLargeCode(MmStruct& mm, VirtAddr at, uint32_t pages, FileId file,
                    bool global = true) {
    MmapRequest request;
    request.length = pages * kPageSize;
    request.prot = VmProt::ReadExec();
    request.kind = VmKind::kFilePrivate;
    request.file = file;
    request.fixed_address = at;
    request.use_large_pages = true;
    request.global = global;
    vm_.Mmap(mm, request);
  }

  FaultOutcome Touch(MmStruct& mm, VirtAddr va, AccessType access) {
    MemoryAbort abort;
    abort.status = FaultStatus::kTranslation;
    abort.fault_address = va;
    abort.access = access;
    return vm_.HandleFault(mm, abort);
  }

  PhysicalMemory phys_;
  PageCache cache_;
  KernelCounters counters_;
  PtpAllocator alloc_;
  VmManager vm_;
};

TEST_F(LargePageVmTest, OneFaultPopulatesSixteenPtes) {
  auto mm = NewMm();
  MapLargeCode(*mm, 0x40000000, 32, 5);
  EXPECT_TRUE(Touch(*mm, 0x40000000 + 5 * kPageSize, AccessType::kExecute).ok);
  EXPECT_EQ(counters_.faults_file_backed, 1u);
  // All 16 pages of the block are mapped with large descriptors naming
  // the base frame.
  const auto first = mm->page_table().FindPte(0x40000000);
  ASSERT_TRUE(first.has_value());
  const FrameNumber base = first->ptp->hw(first->index).frame();
  EXPECT_EQ(base % 16, 0u);
  for (uint32_t i = 0; i < 16; ++i) {
    const auto ref = mm->page_table().FindPte(0x40000000 + i * kPageSize);
    EXPECT_TRUE(ref->ptp->hw(ref->index).valid());
    EXPECT_TRUE(ref->ptp->hw(ref->index).large());
    EXPECT_EQ(ref->ptp->hw(ref->index).frame(), base);  // replicated base
    EXPECT_TRUE(ref->ptp->hw(ref->index).global());
  }
  // The 17th page is a separate block: still unmapped.
  const auto beyond = mm->page_table().FindPte(0x40010000);
  EXPECT_FALSE(beyond->ptp->hw(beyond->index).valid());
}

TEST_F(LargePageVmTest, UnalignedRegionFallsBackToSmallPages) {
  auto mm = NewMm();
  // 8 pages only: smaller than a 64 KB block.
  MapLargeCode(*mm, 0x40000000, 8, 6);
  EXPECT_TRUE(Touch(*mm, 0x40000000, AccessType::kExecute).ok);
  const auto ref = mm->page_table().FindPte(0x40000000);
  EXPECT_FALSE(ref->ptp->hw(ref->index).large());
}

TEST_F(LargePageVmTest, SecondProcessSharesTheBlockFrames) {
  auto mm1 = NewMm();
  auto mm2 = NewMm();
  MapLargeCode(*mm1, 0x40000000, 16, 7);
  MapLargeCode(*mm2, 0x40000000, 16, 7);
  Touch(*mm1, 0x40000000, AccessType::kExecute);
  const auto outcome = Touch(*mm2, 0x40000000, AccessType::kExecute);
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.hard);  // block cache hit
  const auto r1 = mm1->page_table().FindPte(0x40000000);
  const auto r2 = mm2->page_table().FindPte(0x40000000);
  EXPECT_EQ(r1->ptp->hw(r1->index).frame(), r2->ptp->hw(r2->index).frame());
}

TEST_F(LargePageVmTest, LargeBlocksLiveInSharedPtps) {
  // The complement claim at the PT level: a PTP full of large-page
  // entries shares and unshares exactly like one full of 4 KB entries.
  auto parent = NewMm();
  auto child = NewMm();
  MapLargeCode(*parent, 0x40000000, 64, 8);
  Touch(*parent, 0x40000000, AccessType::kExecute);
  Touch(*parent, 0x40010000, AccessType::kExecute);

  vm_.Fork(*parent, *child);
  EXPECT_TRUE(child->page_table().SlotNeedsCopy(0x40000000));
  // Inherited without faults.
  const auto ref = child->page_table().FindPte(0x40010000);
  EXPECT_TRUE(ref->ptp->hw(ref->index).valid());
  EXPECT_TRUE(ref->ptp->hw(ref->index).large());

  // A fault by the child populates a new block into the shared PTP,
  // visible to the parent.
  EXPECT_TRUE(Touch(*child, 0x40020000, AccessType::kExecute).ok);
  const auto parent_ref = parent->page_table().FindPte(0x40020000);
  EXPECT_TRUE(parent_ref->ptp->hw(parent_ref->index).valid());
}

TEST_F(LargePageVmTest, ExitBalancesBlockFrameReferences) {
  const uint64_t used_before = phys_.used_frames();
  {
    auto mm = NewMm();
    MapLargeCode(*mm, 0x40000000, 32, 11);
    Touch(*mm, 0x40000000, AccessType::kExecute);
    Touch(*mm, 0x40010000, AccessType::kExecute);
    vm_.ExitMm(*mm);
  }
  // Only the page-cache copies remain (32 pages = 2 blocks).
  EXPECT_EQ(phys_.used_frames(), used_before + 32);
  EXPECT_EQ(phys_.CountFrames(FrameKind::kPageTable), 0u);
  cache_.EvictFile(11);
  EXPECT_EQ(phys_.used_frames(), used_before);
}

// ---------------------------------------------------------------------------
// End to end.
// ---------------------------------------------------------------------------

TEST(LargePageSystemTest, BootsAndServesFetchesWithFewTlbEntries) {
  SystemConfig config = ConfigByName("shared-ptp-tlb");
  config.large_code_pages = true;
  config.phys_bytes = 1024ull * 1024 * 1024;
  System system(config);
  Kernel& kernel = system.kernel();

  Task* app = system.android().ForkApp("probe");
  kernel.ScheduleTo(*app);
  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");

  // Populate the block first (one fault installs all 16 PTEs), then
  // stream 64 KB of libc: one main-TLB miss serves the whole block.
  EXPECT_TRUE(kernel.TouchPage(*app, system.android().CodePageVa(libc->id, 0),
                               AccessType::kExecute));
  const uint64_t misses_before = kernel.core().counters().itlb_main_misses;
  for (uint32_t page = 0; page < 16; ++page) {
    EXPECT_TRUE(kernel.core().FetchLine(
        system.android().CodePageVa(libc->id, page)));
  }
  EXPECT_EQ(kernel.core().counters().itlb_main_misses, misses_before + 1);
  kernel.Exit(*app);
}

TEST(LargePageSystemTest, AppLifecyclesBalanceWithLargePages) {
  SystemConfig config = ConfigByName("shared-ptp-2mb");
  config.large_code_pages = true;
  config.phys_bytes = 1024ull * 1024 * 1024;
  System system(config);
  const uint64_t ptps = system.kernel().ptp_allocator().live_ptps();
  AppRunner runner(&system.android());
  for (int i = 0; i < 3; ++i) {
    const AppFootprint fp =
        system.workload().Generate(AppProfile::Named("Email"));
    runner.Run(fp, /*exit_after=*/true);
  }
  EXPECT_EQ(system.kernel().ptp_allocator().live_ptps(), ptps);
  EXPECT_EQ(system.kernel().phys().CountFrames(FrameKind::kPageTable), ptps);
}

}  // namespace
}  // namespace sat
