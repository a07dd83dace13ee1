// Unit tests for the VM subsystem: region management, the page-fault
// handler (soft fill, COW, populate-into-shared-PTP, unshare-on-write),
// the three fork policies, and the mmap family's unshare triggers.

#include <gtest/gtest.h>

#include "src/core/sat.h"
#include "src/mem/page_cache.h"
#include "src/mem/phys_memory.h"
#include "src/proc/kernel.h"
#include "src/pt/ptp.h"
#include "src/vm/mm.h"
#include "src/vm/smaps.h"
#include "src/vm/vm_manager.h"
#include "tests/recording_shootdown.h"

namespace sat {
namespace {

class VmTest : public ::testing::Test {
 protected:
  VmTest()
      : phys_(4096 * kPageSize),
        cache_(&phys_),
        alloc_(&phys_, &counters_),
        vm_(&phys_, &cache_, &counters_, &CostModel::Default(),
            VmConfig{}) {
    alloc_.set_shootdown(&shootdown_);
  }

  std::unique_ptr<MmStruct> NewMm() {
    return std::make_unique<MmStruct>(&alloc_, &phys_, &counters_, kDomainUser);
  }

  MemoryAbort Abort(VirtAddr va, AccessType access,
                    FaultStatus status = FaultStatus::kTranslation) {
    MemoryAbort abort;
    abort.status = status;
    abort.fault_address = va;
    abort.access = access;
    return abort;
  }

  // Maps a private file region of `pages` pages at a fixed address.
  VirtAddr MapFile(MmStruct& mm, VirtAddr at, uint32_t pages, VmProt prot,
                   FileId file = 42, bool global = false) {
    MmapRequest request;
    request.length = pages * kPageSize;
    request.prot = prot;
    request.kind = VmKind::kFilePrivate;
    request.file = file;
    request.fixed_address = at;
    request.global = global;
    return vm_.Mmap(mm, request);
  }

  VirtAddr MapAnon(MmStruct& mm, VirtAddr at, uint32_t pages,
                   bool is_stack = false) {
    MmapRequest request;
    request.length = pages * kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    request.fixed_address = at;
    request.is_stack = is_stack;
    return vm_.Mmap(mm, request);
  }

  const HwPte* PteAt(MmStruct& mm, VirtAddr va) {
    const auto ref = mm.page_table().FindPte(va);
    if (!ref || !ref->ptp->hw(ref->index).valid()) {
      return nullptr;
    }
    static HwPte copy;
    copy = ref->ptp->hw(ref->index);
    return &copy;
  }

  PhysicalMemory phys_;
  PageCache cache_;
  KernelCounters counters_;
  PtpAllocator alloc_;
  VmManager vm_;
  RecordingShootdown shootdown_;
};

// ---------------------------------------------------------------------------
// MmStruct region management.
// ---------------------------------------------------------------------------

TEST_F(VmTest, FindVmaMatchesRange) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 4);
  EXPECT_NE(mm->FindVma(0x40000000), nullptr);
  EXPECT_NE(mm->FindVma(0x40003FFF), nullptr);
  EXPECT_EQ(mm->FindVma(0x40004000), nullptr);
  EXPECT_EQ(mm->FindVma(0x3FFFF000), nullptr);
}

TEST_F(VmTest, RemoveRangeSplitsVmas) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 10, VmProt::ReadOnly());
  const auto removed = mm->RemoveRange(0x40003000, 0x40006000);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].start, 0x40003000u);
  EXPECT_EQ(removed[0].end, 0x40006000u);
  EXPECT_EQ(removed[0].file_page_offset, 3u);  // adjusted for the split

  // The left and right remainders survive with correct offsets.
  const VmArea* left = mm->FindVma(0x40000000);
  const VmArea* right = mm->FindVma(0x40006000);
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(left->end, 0x40003000u);
  EXPECT_EQ(right->file_page_offset, 6u);
  EXPECT_EQ(mm->FindVma(0x40004000), nullptr);
}

TEST_F(VmTest, RemoveRangeSpanningMultipleVmas) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 2);
  MapAnon(*mm, 0x40002000, 2);
  MapAnon(*mm, 0x40004000, 2);
  const auto removed = mm->RemoveRange(0x40001000, 0x40005000);
  EXPECT_EQ(removed.size(), 3u);
  EXPECT_EQ(mm->vma_count(), 2u);  // two edge remainders
}

TEST_F(VmTest, FindFreeRangeSkipsMappings) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 4);
  const auto found =
      mm->FindFreeRange(4 * kPageSize, 0x40000000, 0x50000000);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 0x40004000u);
}

TEST_F(VmTest, FindFreeRangeAlignedRespectsAlignment) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 1);
  const auto found =
      mm->FindFreeRangeAligned(kPageSize, kPtpSpan, 0x40000000, 0x50000000);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found % kPtpSpan, 0u);
  EXPECT_GE(*found, 0x40200000u);
}

// ---------------------------------------------------------------------------
// Page faults.
// ---------------------------------------------------------------------------

TEST_F(VmTest, FaultOutsideAnyRegionFails) {
  auto mm = NewMm();
  const auto outcome =
      vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kRead));
  EXPECT_FALSE(outcome.ok);
}

TEST_F(VmTest, FaultAgainstRegionProtectionFails) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 2, VmProt::ReadOnly());
  const auto outcome =
      vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite));
  EXPECT_FALSE(outcome.ok);
}

TEST_F(VmTest, FirstFileTouchIsHardSecondProcessSoft) {
  auto mm1 = NewMm();
  auto mm2 = NewMm();
  MapFile(*mm1, 0x40000000, 2, VmProt::ReadExec());
  MapFile(*mm2, 0x40000000, 2, VmProt::ReadExec());

  auto outcome =
      vm_.HandleFault(*mm1, Abort(0x40000000, AccessType::kExecute));
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.hard);
  outcome =
      vm_.HandleFault(*mm2, Abort(0x40000000, AccessType::kExecute));
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.hard);  // page cache hit: soft fault

  // Both processes map the same physical frame.
  EXPECT_EQ(PteAt(*mm1, 0x40000000)->frame(), PteAt(*mm2, 0x40000000)->frame());
  EXPECT_EQ(counters_.faults_file_backed, 2u);
  EXPECT_EQ(counters_.faults_hard, 1u);
}

TEST_F(VmTest, PrivateWritableFilePageInstalledWriteProtected) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 2, VmProt::ReadWrite());
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kRead));
  EXPECT_EQ(PteAt(*mm, 0x40000000)->perm(), PtePerm::kReadOnly);  // COW guard
}

TEST_F(VmTest, WriteToPrivateFilePageCopiesImmediately) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 2, VmProt::ReadWrite());
  const auto outcome =
      vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite));
  EXPECT_TRUE(outcome.ok);
  const HwPte* pte = PteAt(*mm, 0x40000000);
  EXPECT_EQ(pte->perm(), PtePerm::kReadWrite);
  EXPECT_EQ(phys_.frame(pte->frame()).kind, FrameKind::kAnon);
  EXPECT_EQ(counters_.faults_cow, 1u);
}

TEST_F(VmTest, CowAfterReadFault) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 2, VmProt::ReadWrite());
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kRead));
  const FrameNumber file_frame = PteAt(*mm, 0x40000000)->frame();
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite,
                             FaultStatus::kPermission));
  const HwPte* pte = PteAt(*mm, 0x40000000);
  EXPECT_NE(pte->frame(), file_frame);
  EXPECT_EQ(pte->perm(), PtePerm::kReadWrite);
  // The file-cache frame keeps only the cache's reference.
  EXPECT_EQ(phys_.frame(file_frame).ref_count, 1u);
}

TEST_F(VmTest, AnonReadMapsZeroPageThenCowsOnWrite) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 2);
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kRead));
  EXPECT_EQ(PteAt(*mm, 0x40000000)->frame(), phys_.zero_frame());
  EXPECT_EQ(PteAt(*mm, 0x40000000)->perm(), PtePerm::kReadOnly);

  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite,
                             FaultStatus::kPermission));
  const HwPte* pte = PteAt(*mm, 0x40000000);
  EXPECT_NE(pte->frame(), phys_.zero_frame());
  EXPECT_EQ(phys_.frame(pte->frame()).kind, FrameKind::kAnon);
}

TEST_F(VmTest, AnonWriteFaultAllocatesDirectly) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 2);
  vm_.HandleFault(*mm, Abort(0x40001000, AccessType::kWrite));
  const HwPte* pte = PteAt(*mm, 0x40001000);
  EXPECT_EQ(pte->perm(), PtePerm::kReadWrite);
  EXPECT_EQ(counters_.faults_anonymous, 1u);
}

TEST_F(VmTest, ExclusiveAnonFrameIsReusedOnCow) {
  // Write fault on a write-protected anon page whose frame has no other
  // references: upgrade in place rather than copy.
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 1);
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite));
  const FrameNumber frame = PteAt(*mm, 0x40000000)->frame();
  // Simulate a protection downgrade (as fork's COW pass would).
  mm->page_table().WriteProtectRange(0x40000000, 0x40001000);
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite,
                             FaultStatus::kPermission));
  EXPECT_EQ(PteAt(*mm, 0x40000000)->frame(), frame);  // reused, not copied
  EXPECT_EQ(counters_.faults_cow, 0u);
}

TEST_F(VmTest, GlobalBitRequiresConfigAndRegionFlag) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 2, VmProt::ReadExec(), 42, /*global=*/true);
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kExecute));
  // share_tlb_global is off in the stock config.
  EXPECT_FALSE(PteAt(*mm, 0x40000000)->global());

  VmConfig config = ConfigByName("shared-ptp-tlb").vm;
  vm_.set_config(config);
  vm_.HandleFault(*mm, Abort(0x40001000, AccessType::kExecute));
  EXPECT_TRUE(PteAt(*mm, 0x40001000)->global());
  vm_.set_config(VmConfig{});
}

// ---------------------------------------------------------------------------
// Fork policies.
// ---------------------------------------------------------------------------

TEST_F(VmTest, StockForkSkipsFilePtesCopiesAnon) {
  auto parent = NewMm();
  auto child = NewMm();
  MapFile(*parent, 0x40000000, 4, VmProt::ReadExec());
  MapAnon(*parent, 0x50000000, 4);
  vm_.HandleFault(*parent, Abort(0x40000000, AccessType::kExecute));
  vm_.HandleFault(*parent, Abort(0x50000000, AccessType::kWrite));
  vm_.HandleFault(*parent, Abort(0x50001000, AccessType::kWrite));

  const ForkResult result = vm_.Fork(*parent, *child);
  EXPECT_EQ(result.vmas_copied, 2u);
  EXPECT_EQ(result.slots_shared, 0u);
  EXPECT_EQ(result.ptes_copied, 2u);  // only the anon pages
  EXPECT_EQ(PteAt(*child, 0x40000000), nullptr);  // file PTE left to fault
  ASSERT_NE(PteAt(*child, 0x50000000), nullptr);

  // COW: both sides write-protected, same frame.
  EXPECT_EQ(PteAt(*child, 0x50000000)->perm(), PtePerm::kReadOnly);
  EXPECT_EQ(PteAt(*parent, 0x50000000)->perm(), PtePerm::kReadOnly);
  EXPECT_EQ(PteAt(*child, 0x50000000)->frame(),
            PteAt(*parent, 0x50000000)->frame());
}

TEST_F(VmTest, StockForkFlushesParentWhenDowngrading) {
  auto parent = NewMm();
  auto child = NewMm();
  MapAnon(*parent, 0x50000000, 1);
  vm_.HandleFault(*parent, Abort(0x50000000, AccessType::kWrite));
  vm_.Fork(*parent, *child);
  EXPECT_EQ(shootdown_.spaces,
            (std::vector<const PageTable*>{&parent->page_table()}));
}

TEST_F(VmTest, CowAfterForkCopiesSharedFrame) {
  auto parent = NewMm();
  auto child = NewMm();
  MapAnon(*parent, 0x50000000, 1);
  vm_.HandleFault(*parent, Abort(0x50000000, AccessType::kWrite));
  vm_.Fork(*parent, *child);

  const FrameNumber shared_frame = PteAt(*parent, 0x50000000)->frame();
  vm_.HandleFault(*child, Abort(0x50000000, AccessType::kWrite,
                                FaultStatus::kPermission));
  EXPECT_NE(PteAt(*child, 0x50000000)->frame(), shared_frame);
  EXPECT_EQ(PteAt(*parent, 0x50000000)->frame(), shared_frame);
  EXPECT_EQ(counters_.faults_cow, 1u);
}

TEST_F(VmTest, SharedPtpForkSharesEverythingButStack) {
  vm_.set_config(ConfigByName("shared-ptp").vm);
  auto parent = NewMm();
  auto child = NewMm();
  MapFile(*parent, 0x40000000, 4, VmProt::ReadExec());
  MapAnon(*parent, 0x50000000, 4);
  MapAnon(*parent, 0xB0000000, 4, /*is_stack=*/true);
  vm_.HandleFault(*parent, Abort(0x40000000, AccessType::kExecute));
  vm_.HandleFault(*parent, Abort(0x50000000, AccessType::kWrite));
  vm_.HandleFault(*parent, Abort(0xB0000000, AccessType::kWrite));

  const ForkResult result = vm_.Fork(*parent, *child);
  EXPECT_EQ(result.slots_shared, 2u);        // file slot + anon slot
  EXPECT_EQ(result.ptes_copied, 1u);         // the stack page
  EXPECT_EQ(result.child_ptps_allocated, 1u);  // the stack PTP
  EXPECT_TRUE(child->page_table().SlotNeedsCopy(0x40000000));
  EXPECT_TRUE(child->page_table().SlotNeedsCopy(0x50000000));
  EXPECT_FALSE(child->page_table().SlotNeedsCopy(0xB0000000));

  // The shared file PTE is immediately visible in the child: no soft fault.
  EXPECT_NE(PteAt(*child, 0x40000000), nullptr);
  vm_.set_config(VmConfig{});
}

TEST_F(VmTest, SharedForkWriteProtectsAnonPages) {
  vm_.set_config(ConfigByName("shared-ptp").vm);
  auto parent = NewMm();
  auto child = NewMm();
  MapAnon(*parent, 0x50000000, 2);
  vm_.HandleFault(*parent, Abort(0x50000000, AccessType::kWrite));
  const ForkResult result = vm_.Fork(*parent, *child);
  EXPECT_EQ(result.ptes_write_protected, 1u);
  EXPECT_EQ(PteAt(*parent, 0x50000000)->perm(), PtePerm::kReadOnly);
  vm_.set_config(VmConfig{});
}

TEST_F(VmTest, CopiedPtesForkCopiesZygoteCode) {
  vm_.set_config(ConfigByName("copied-ptes").vm);
  auto parent = NewMm();
  auto child = NewMm();
  MmapRequest request;
  request.length = 4 * kPageSize;
  request.prot = VmProt::ReadExec();
  request.kind = VmKind::kFilePrivate;
  request.file = 42;
  request.fixed_address = 0x40000000;
  request.zygote_preloaded = true;
  vm_.Mmap(*parent, request);
  vm_.HandleFault(*parent, Abort(0x40000000, AccessType::kExecute));
  vm_.HandleFault(*parent, Abort(0x40001000, AccessType::kExecute));

  const ForkResult result = vm_.Fork(*parent, *child);
  EXPECT_EQ(result.ptes_copied, 2u);
  EXPECT_NE(PteAt(*child, 0x40000000), nullptr);
  vm_.set_config(VmConfig{});
}

// ---------------------------------------------------------------------------
// Unshare triggers (Section 3.1.2).
// ---------------------------------------------------------------------------

class SharedVmTest : public VmTest {
 protected:
  SharedVmTest() {
    vm_.set_config(ConfigByName("shared-ptp").vm);
    parent_ = NewMm();
    child_ = NewMm();
    MapFile(*parent_, 0x40000000, 8, VmProt::ReadExec(), 42);
    MapFile(*parent_, 0x40008000, 8, VmProt::ReadWrite(), 43);  // same slot
    vm_.HandleFault(*parent_, Abort(0x40000000, AccessType::kExecute));
    vm_.HandleFault(*parent_, Abort(0x40008000, AccessType::kRead));
    vm_.Fork(*parent_, *child_);
  }

  std::unique_ptr<MmStruct> parent_;
  std::unique_ptr<MmStruct> child_;
};

TEST_F(SharedVmTest, Case1WriteFaultUnshares) {
  // A write into the data region unshares the whole PTP — including the
  // co-resident code region's translations (the original-alignment cost).
  const auto outcome = vm_.HandleFault(
      *child_, Abort(0x40008000, AccessType::kWrite));
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.unshared);
  EXPECT_GT(outcome.ptes_copied, 0u);
  EXPECT_FALSE(child_->page_table().SlotNeedsCopy(0x40000000));
  EXPECT_TRUE(parent_->page_table().SlotNeedsCopy(0x40000000));
}

TEST_F(SharedVmTest, Case2MprotectUnshares) {
  vm_.Mprotect(*child_, 0x40008000, 4 * kPageSize, VmProt::ReadOnly());
  EXPECT_FALSE(child_->page_table().SlotNeedsCopy(0x40008000));
  EXPECT_EQ(counters_.ptps_unshared, 1u);
}

TEST_F(SharedVmTest, Case3MmapIntoSharedSlotUnsharesEagerly) {
  MmapRequest request;
  request.length = 2 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x40010000;  // inside the shared slot
  const VirtAddr at = vm_.Mmap(*child_, request);
  EXPECT_EQ(at, 0x40010000u);
  EXPECT_FALSE(child_->page_table().SlotNeedsCopy(0x40000000));
  EXPECT_EQ(counters_.ptps_unshared, 1u);
}

TEST_F(SharedVmTest, Case3LazyAblationDefersToFirstFault) {
  VmConfig config = ConfigByName("shared-ptp").vm;
  config.lazy_unshare_on_new_region = true;
  vm_.set_config(config);

  MmapRequest request;
  request.length = 2 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x40010000;
  vm_.Mmap(*child_, request);
  EXPECT_TRUE(child_->page_table().SlotNeedsCopy(0x40000000));  // still shared

  const auto outcome = vm_.HandleFault(
      *child_, Abort(0x40010000, AccessType::kRead));
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.unshared);  // deferred unshare fired
  EXPECT_FALSE(child_->page_table().SlotNeedsCopy(0x40000000));
}

TEST_F(SharedVmTest, Case4MunmapPartOfSharedSlotUnshares) {
  vm_.Munmap(*child_, 0x40008000, 8 * kPageSize);
  EXPECT_EQ(counters_.ptps_unshared, 1u);
  EXPECT_FALSE(child_->page_table().SlotNeedsCopy(0x40000000));
  // The parent's view of the unmapped range is intact.
  EXPECT_NE(PteAt(*parent_, 0x40008000), nullptr);
  EXPECT_EQ(PteAt(*child_, 0x40008000), nullptr);
}

TEST_F(SharedVmTest, Case5ExitDropsSharerWithoutCopy) {
  const uint64_t copies_before = counters_.ptes_copied;
  vm_.ExitMm(*child_);
  EXPECT_EQ(counters_.ptes_copied, copies_before);  // no unshare copies
  // Parent's PTEs are untouched.
  EXPECT_NE(PteAt(*parent_, 0x40000000), nullptr);
  EXPECT_EQ(child_->vma_count(), 0u);
}

TEST_F(SharedVmTest, ReadFaultPopulatesSharedPtpForAllSharers) {
  // Child faults a page the zygote never touched: the new PTE lands in
  // the shared PTP, so the parent sees it too (no second soft fault).
  EXPECT_EQ(PteAt(*parent_, 0x40002000), nullptr);
  const auto outcome = vm_.HandleFault(
      *child_, Abort(0x40002000, AccessType::kExecute));
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.unshared);
  EXPECT_NE(PteAt(*parent_, 0x40002000), nullptr);
  EXPECT_TRUE(child_->page_table().SlotNeedsCopy(0x40002000));  // still shared
}

TEST_F(SharedVmTest, UnshareFlushCallbackRuns) {
  shootdown_.spaces.clear();  // whatever the fixture's fork flushed
  vm_.HandleFault(*child_, Abort(0x40008000, AccessType::kWrite));
  EXPECT_EQ(shootdown_.spaces,
            (std::vector<const PageTable*>{&child_->page_table()}));
}

// ---------------------------------------------------------------------------
// mmap family details.
// ---------------------------------------------------------------------------

TEST_F(VmTest, MmapFindsAddressWhenNotFixed) {
  auto mm = NewMm();
  MmapRequest request;
  request.length = 4 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  const VirtAddr first = vm_.Mmap(*mm, request);
  const VirtAddr second = vm_.Mmap(*mm, request);
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, 0u);
  EXPECT_NE(first, second);
  EXPECT_TRUE(IsPageAligned(first));
}

TEST_F(VmTest, MunmapReleasesFramesAndEmptySlots) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 4);
  for (uint32_t i = 0; i < 4; ++i) {
    vm_.HandleFault(*mm, Abort(0x40000000 + i * kPageSize, AccessType::kWrite));
  }
  const uint64_t used = phys_.used_frames();
  vm_.Munmap(*mm, 0x40000000, 4 * kPageSize);
  // 4 anon frames and the now-empty PTP are gone.
  EXPECT_EQ(phys_.used_frames(), used - 5);
  EXPECT_FALSE(mm->page_table().l1(PtpSlotIndex(0x40000000)).present());
}

TEST_F(VmTest, MprotectRemovingWriteProtectsPtes) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 2);
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite));
  vm_.Mprotect(*mm, 0x40000000, 2 * kPageSize, VmProt::ReadOnly());
  EXPECT_EQ(PteAt(*mm, 0x40000000)->perm(), PtePerm::kReadOnly);
  const VmArea* vma = mm->FindVma(0x40000000);
  EXPECT_FALSE(vma->prot.write);
  // A write now faults unresolvably.
  const auto outcome = vm_.HandleFault(
      *mm, Abort(0x40000000, AccessType::kWrite, FaultStatus::kPermission));
  EXPECT_FALSE(outcome.ok);
}

TEST_F(VmTest, MprotectSplitsAtBoundaries) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 6);
  vm_.Mprotect(*mm, 0x40002000, 2 * kPageSize, VmProt::ReadOnly());
  EXPECT_EQ(mm->vma_count(), 3u);
  EXPECT_TRUE(mm->FindVma(0x40000000)->prot.write);
  EXPECT_FALSE(mm->FindVma(0x40002000)->prot.write);
  EXPECT_TRUE(mm->FindVma(0x40004000)->prot.write);
}

TEST_F(VmTest, FaultAroundPopulatesResidentNeighboursOnly) {
  VmConfig config;
  config.fault_around_pages = 16;
  vm_.set_config(config);

  auto warm = NewMm();
  auto mm = NewMm();
  MapFile(*warm, 0x40000000, 32, VmProt::ReadExec());
  MapFile(*mm, 0x40000000, 32, VmProt::ReadExec());
  // Warm pages 0..7 into the page cache via another process.
  for (uint32_t i = 0; i < 8; ++i) {
    vm_.HandleFault(*warm, Abort(0x40000000 + i * kPageSize, AccessType::kExecute));
  }

  // One fault on page 2: pages 0..7 are resident and get populated; pages
  // 8..15 are not resident and must NOT be loaded (fault-around never
  // touches disk).
  const uint64_t faults_before = counters_.faults_file_backed;
  vm_.HandleFault(*mm, Abort(0x40002000, AccessType::kExecute));
  EXPECT_EQ(counters_.faults_file_backed, faults_before + 1);
  EXPECT_EQ(counters_.ptes_faulted_around, 7u);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_NE(PteAt(*mm, 0x40000000 + i * kPageSize), nullptr) << i;
  }
  for (uint32_t i = 8; i < 16; ++i) {
    EXPECT_EQ(PteAt(*mm, 0x40000000 + i * kPageSize), nullptr) << i;
  }
  // Speculative entries are installed not-referenced (they were never
  // accessed), so the referenced-only unshare ablation skips them.
  const auto ref = mm->page_table().FindPte(0x40000000);
  EXPECT_FALSE(ref->ptp->sw(ref->index).young());
  vm_.set_config(VmConfig{});
}

TEST_F(VmTest, FaultAroundRespectsVmaBounds) {
  VmConfig config;
  config.fault_around_pages = 16;
  vm_.set_config(config);

  auto warm = NewMm();
  auto mm = NewMm();
  // A 4-page mapping in the middle of a fault-around window.
  MapFile(*warm, 0x40002000, 4, VmProt::ReadOnly());
  MapFile(*mm, 0x40002000, 4, VmProt::ReadOnly());
  for (uint32_t i = 0; i < 4; ++i) {
    vm_.HandleFault(*warm, Abort(0x40002000 + i * kPageSize, AccessType::kRead));
  }
  vm_.HandleFault(*mm, Abort(0x40002000, AccessType::kRead));
  EXPECT_EQ(counters_.ptes_faulted_around, 3u);  // clipped to the vma
  vm_.set_config(VmConfig{});
}

TEST_F(VmTest, MprotectAddingWriteUpgradesLazily) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 2);
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite));
  vm_.Mprotect(*mm, 0x40000000, 2 * kPageSize, VmProt::ReadOnly());
  vm_.Mprotect(*mm, 0x40000000, 2 * kPageSize, VmProt::ReadWrite());
  // The PTE stays write-protected until the next write fault upgrades it.
  EXPECT_EQ(PteAt(*mm, 0x40000000)->perm(), PtePerm::kReadOnly);
  const auto outcome = vm_.HandleFault(
      *mm, Abort(0x40000000, AccessType::kWrite, FaultStatus::kPermission));
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(PteAt(*mm, 0x40000000)->perm(), PtePerm::kReadWrite);
}

TEST_F(VmTest, SharedFileWriteUpgradesInPlace) {
  auto mm = NewMm();
  MmapRequest request;
  request.length = 2 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kFileShared;
  request.file = 77;
  request.fixed_address = 0x40000000;
  vm_.Mmap(*mm, request);
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kRead));
  const FrameNumber cache_frame = PteAt(*mm, 0x40000000)->frame();
  vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kWrite,
                             FaultStatus::kPermission));
  // Shared mapping: the write goes to the page-cache frame, no COW copy.
  EXPECT_EQ(PteAt(*mm, 0x40000000)->frame(), cache_frame);
  EXPECT_EQ(PteAt(*mm, 0x40000000)->perm(), PtePerm::kReadWrite);
  EXPECT_EQ(counters_.faults_cow, 0u);
}

TEST_F(VmTest, TouchInUnmappedHoleSegfaults) {
  auto mm = NewMm();
  MapAnon(*mm, 0x40000000, 8);
  vm_.Munmap(*mm, 0x40002000, 2 * kPageSize);
  EXPECT_FALSE(
      vm_.HandleFault(*mm, Abort(0x40002000, AccessType::kRead)).ok);
  // The flanks still work.
  EXPECT_TRUE(
      vm_.HandleFault(*mm, Abort(0x40000000, AccessType::kRead)).ok);
  EXPECT_TRUE(
      vm_.HandleFault(*mm, Abort(0x40004000, AccessType::kRead)).ok);
}

TEST_F(VmTest, ForkCopiesCowDirtiedFilePages) {
  // A private file page the parent wrote (now an anon frame) cannot be
  // refilled by a soft fault: the stock fork must copy its PTE.
  auto parent = NewMm();
  auto child = NewMm();
  MapFile(*parent, 0x40000000, 4, VmProt::ReadWrite());
  vm_.HandleFault(*parent, Abort(0x40000000, AccessType::kWrite));
  vm_.HandleFault(*parent, Abort(0x40001000, AccessType::kRead));
  const ForkResult result = vm_.Fork(*parent, *child);
  EXPECT_EQ(result.ptes_copied, 1u);  // only the dirtied page
  ASSERT_NE(PteAt(*child, 0x40000000), nullptr);
  EXPECT_EQ(PteAt(*child, 0x40000000)->frame(),
            PteAt(*parent, 0x40000000)->frame());
  EXPECT_EQ(PteAt(*child, 0x40001000), nullptr);  // clean page left to fault
}

TEST_F(VmTest, ExitReleasesEverything) {
  auto mm = NewMm();
  const uint64_t used_before = phys_.used_frames();
  MapAnon(*mm, 0x40000000, 8);
  MapFile(*mm, 0x50000000, 8, VmProt::ReadExec());
  for (uint32_t i = 0; i < 8; ++i) {
    vm_.HandleFault(*mm, Abort(0x40000000 + i * kPageSize, AccessType::kWrite));
    vm_.HandleFault(*mm, Abort(0x50000000 + i * kPageSize, AccessType::kExecute));
  }
  vm_.ExitMm(*mm);
  // Anonymous frames and PTPs are gone; file frames persist in the cache.
  EXPECT_EQ(phys_.used_frames(), used_before + 8);
  EXPECT_EQ(phys_.CountFrames(FrameKind::kAnon), 0u);
  EXPECT_EQ(alloc_.live_ptps(), 0u);
}

TEST(SmapsKsmTest, MergedPagesAreReportedAndCountFractionallyInPss) {
  KernelParams params;
  params.phys_bytes = 32ull * 1024 * 1024;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("app");
  MmapRequest request;
  request.length = 3 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x40000000;
  request.mergeable = true;
  request.name = "heap";
  ASSERT_EQ(kernel.Mmap(*task, request).value, 0x40000000u);
  ASSERT_EQ(kernel.WritePage(*task, 0x40000000, 11), TouchStatus::kOk);
  ASSERT_EQ(kernel.WritePage(*task, 0x40001000, 11), TouchStatus::kOk);
  ASSERT_EQ(kernel.WritePage(*task, 0x40002000, 12), TouchStatus::kOk);

  const SmapsReport before = GenerateSmaps(
      *task->mm, kernel.ptp_allocator(), &kernel.rmap(), &kernel.phys());
  EXPECT_EQ(before.total_ksm_merged_kb, 0u);

  kernel.RunKsmScan();
  ASSERT_EQ(kernel.RunKsmScan(), 1u);
  const SmapsReport after = GenerateSmaps(
      *task->mm, kernel.ptp_allocator(), &kernel.rmap(), &kernel.phys());
  ASSERT_EQ(after.vmas.size(), 1u);
  // Rss is unchanged (the PTEs are still resident) but the two merged
  // pages now show as KsmMerged and split their stable frame in PSS: both
  // rmap entries of the shared frame count as co-mappers.
  EXPECT_EQ(after.vmas[0].rss_kb, before.vmas[0].rss_kb);
  EXPECT_EQ(after.vmas[0].ksm_merged_kb, 8u);
  EXPECT_EQ(after.total_ksm_merged_kb, 8u);
  EXPECT_DOUBLE_EQ(after.vmas[0].pss_kb, 4.0 / 2 + 4.0 / 2 + 4.0);
  EXPECT_EQ(after.vmas[0].shared_clean_kb, 8u);
  EXPECT_EQ(after.vmas[0].private_kb, 4u);
  // Passing no PhysicalMemory degrades gracefully: KsmMerged reads 0.
  const SmapsReport blind =
      GenerateSmaps(*task->mm, kernel.ptp_allocator(), &kernel.rmap());
  EXPECT_EQ(blind.total_ksm_merged_kb, 0u);
  EXPECT_NE(blind.ToString().find("KsmMerged"), std::string::npos);
}

}  // namespace
}  // namespace sat
