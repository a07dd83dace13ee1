// Unit tests for page-table pages and the PTP sharing machinery — the
// paper's core mechanism (Sections 3.1.1-3.1.2, Figure 6).

#include <gtest/gtest.h>

#include <vector>

#include "src/mem/phys_memory.h"
#include "src/pt/page_table.h"
#include "src/pt/ptp.h"
#include "src/stats/counters.h"
#include "tests/recording_shootdown.h"

namespace sat {
namespace {

class PtTest : public ::testing::Test {
 protected:
  PtTest() : phys_(4096 * kPageSize), alloc_(&phys_, &counters_) {
    alloc_.set_shootdown(&shootdown_);
  }

  // Convenience: a data frame the PTE can map.
  FrameNumber NewAnonFrame() { return phys_.AllocFrame(FrameKind::kAnon); }

  HwPte MakePte(FrameNumber frame, PtePerm perm = PtePerm::kReadOnly) {
    return HwPte::MakePage(frame, perm, /*global=*/false, /*executable=*/true);
  }

  LinuxPte MakeSw(bool young = false) {
    LinuxPte sw;
    sw.set_present(true);
    sw.set_young(young);
    return sw;
  }

  // Installs an anon RO page at `va` into `pt`, transferring the creation
  // reference to the PTE.
  void InstallAnon(PageTable& pt, VirtAddr va,
                   PtePerm perm = PtePerm::kReadOnly, bool young = false) {
    const FrameNumber frame = NewAnonFrame();
    pt.EnsurePtp(va, kDomainUser);
    pt.SetPte(va, MakePte(frame, perm), MakeSw(young));
    phys_.UnrefFrame(frame);
  }

  PhysicalMemory phys_;
  KernelCounters counters_;
  PtpAllocator alloc_;
  RecordingShootdown shootdown_;
};

// ---------------------------------------------------------------------------
// PageTablePage basics.
// ---------------------------------------------------------------------------

TEST_F(PtTest, PtpTracksPresentCount) {
  PageTable pt(&alloc_, &phys_, &counters_);
  PageTablePage& ptp = pt.EnsurePtp(0x40000000, kDomainUser);
  EXPECT_EQ(ptp.present_count(), 0u);
  ptp.Set(3, MakePte(NewAnonFrame()), MakeSw());
  ptp.Set(4, MakePte(NewAnonFrame()), MakeSw());
  EXPECT_EQ(ptp.present_count(), 2u);
  ptp.Set(3, MakePte(NewAnonFrame()), MakeSw());  // replace: no change
  EXPECT_EQ(ptp.present_count(), 2u);
  ptp.Clear(3);
  EXPECT_EQ(ptp.present_count(), 1u);
  ptp.Clear(3);  // double clear is a no-op
  EXPECT_EQ(ptp.present_count(), 1u);
}

TEST_F(PtTest, PtpHwEntryAddressesMatchLinuxArmLayout) {
  // Figure 5: Linux tables at +0/+1024, hardware tables at +2048/+3072.
  PageTable pt(&alloc_, &phys_, &counters_);
  const PageTablePage& ptp = pt.EnsurePtp(0x40000000, kDomainUser);
  const PhysAddr base = FrameToPhys(ptp.frame());
  EXPECT_EQ(ptp.HwEntryPhysAddr(0), base + 2048);
  EXPECT_EQ(ptp.HwEntryPhysAddr(255), base + 2048 + 255 * 4);
  EXPECT_EQ(ptp.HwEntryPhysAddr(256), base + 3072);  // second MB's table
  EXPECT_EQ(ptp.HwEntryPhysAddr(511), base + 3072 + 255 * 4);
}

TEST_F(PtTest, AllocatorCountsAndSharerLifecycle) {
  // One PTP from allocation to destruction: at every step its sharer list
  // holds exactly the tables whose L1 entry names it, oldest first.
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child1(&alloc_, &phys_, &counters_);
  PageTable child2(&alloc_, &phys_, &counters_);
  using Tables = std::vector<const PageTable*>;
  const VirtAddr va = 0x40000000 + 3 * kPageSize;
  const uint32_t slot = PtpSlotIndex(va);
  const auto naming = [&](PtpId id) {
    Tables out;
    for (const PageTable* table : {&parent, &child1, &child2}) {
      if (table->l1(slot).present() && table->l1(slot).ptp == id) {
        out.push_back(table);
      }
    }
    return out;
  };

  InstallAnon(parent, va);
  const PtpId id = parent.l1(slot).ptp;
  const PageTablePage& ptp = alloc_.Get(id);
  EXPECT_EQ(counters_.ptps_allocated, 1u);
  EXPECT_EQ(alloc_.live_ptps(), 1u);
  EXPECT_EQ(ptp.slot(), slot);
  EXPECT_EQ(ptp.VaOf(PteIndexInPtp(va)), va);
  EXPECT_EQ(ptp.sharers(), (Tables{&parent}));
  EXPECT_EQ(ptp.sharers(), naming(id));

  // Fork-share appends each child.
  parent.ShareSlotInto(child1, slot);
  parent.ShareSlotInto(child2, slot);
  EXPECT_EQ(ptp.sharers(), (Tables{&parent, &child1, &child2}));
  EXPECT_EQ(ptp.sharers(), naming(id));
  EXPECT_EQ(ptp.SharerCount(), 3u);

  // A child's unshare moves it to a fresh private PTP serving the same
  // slot; the other sharers keep their order.
  ASSERT_TRUE(child1.TryUnshareSlot(slot, /*copy_referenced_only=*/false));
  const PtpId copy = child1.l1(slot).ptp;
  ASSERT_NE(copy, id);
  EXPECT_EQ(alloc_.Get(copy).sharers(), (Tables{&child1}));
  EXPECT_EQ(alloc_.Get(copy).sharers(), naming(copy));
  EXPECT_EQ(alloc_.Get(copy).slot(), slot);
  EXPECT_EQ(ptp.sharers(), (Tables{&parent, &child2}));
  EXPECT_EQ(ptp.sharers(), naming(id));

  // The other child exits; the parent is left as the sole sharer, still
  // NEED_COPY.
  child2.ReleaseSlot(slot);
  EXPECT_EQ(ptp.sharers(), (Tables{&parent}));
  EXPECT_EQ(ptp.sharers(), naming(id));
  EXPECT_TRUE(parent.l1(slot).need_copy);

  // The sole sharer's unshare only drops NEED_COPY: same PTP, same list.
  ASSERT_TRUE(parent.TryUnshareSlot(slot, /*copy_referenced_only=*/false));
  EXPECT_FALSE(parent.l1(slot).need_copy);
  EXPECT_EQ(parent.l1(slot).ptp, id);
  EXPECT_EQ(ptp.sharers(), (Tables{&parent}));
  EXPECT_EQ(ptp.sharers(), naming(id));

  // Releasing the last sharer destroys the PTP.
  parent.ReleaseSlot(slot);
  EXPECT_EQ(alloc_.GetIfLive(id), nullptr);
  EXPECT_TRUE(naming(id).empty());
  EXPECT_EQ(alloc_.live_ptps(), 1u);  // child1's private copy
  EXPECT_EQ(counters_.ptps_allocated, 2u);
}

TEST_F(PtTest, AllocatorReusesSlabSlots) {
  PageTable pt(&alloc_, &phys_, &counters_);
  const PtpId first = pt.EnsurePtp(0x40000000, kDomainUser).id();
  pt.ReleaseSlot(PtpSlotIndex(0x40000000));
  const PageTablePage& second = pt.EnsurePtp(0x40200000, kDomainUser);
  EXPECT_EQ(first, second.id());  // slab slot recycled
  EXPECT_EQ(second.slot(), PtpSlotIndex(0x40200000));
}

// ---------------------------------------------------------------------------
// PageTable basics.
// ---------------------------------------------------------------------------

TEST_F(PtTest, FindPteReflectsPopulation) {
  PageTable pt(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  EXPECT_FALSE(pt.FindPte(va).has_value());
  InstallAnon(pt, va);
  const auto ref = pt.FindPte(va);
  ASSERT_TRUE(ref.has_value());
  EXPECT_TRUE(ref->ptp->hw(ref->index).valid());
  EXPECT_EQ(ref->index, PteIndexInPtp(va));
}

TEST_F(PtTest, SetPteManagesFrameReferences) {
  PageTable pt(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  const FrameNumber a = NewAnonFrame();
  const FrameNumber b = NewAnonFrame();
  pt.EnsurePtp(va, kDomainUser);
  pt.SetPte(va, MakePte(a), MakeSw());
  EXPECT_EQ(phys_.frame(a).ref_count, 2u);  // creation + PTE
  pt.SetPte(va, MakePte(b), MakeSw());      // replace
  EXPECT_EQ(phys_.frame(a).ref_count, 1u);  // PTE ref released
  pt.ClearPte(va);
  EXPECT_EQ(phys_.frame(b).ref_count, 1u);
}

TEST_F(PtTest, ClearRangeAndCountPresent) {
  PageTable pt(&alloc_, &phys_, &counters_);
  for (uint32_t i = 0; i < 8; ++i) {
    InstallAnon(pt, 0x40000000 + i * kPageSize);
  }
  EXPECT_EQ(pt.CountPresentInRange(0x40000000, 0x40000000 + 8 * kPageSize), 8u);
  pt.ClearRange(0x40000000 + 2 * kPageSize, 0x40000000 + 5 * kPageSize);
  EXPECT_EQ(pt.CountPresentInRange(0x40000000, 0x40000000 + 8 * kPageSize), 5u);
}

TEST_F(PtTest, WriteProtectRangeDowngradesWritableEntries) {
  PageTable pt(&alloc_, &phys_, &counters_);
  InstallAnon(pt, 0x40000000, PtePerm::kReadWrite);
  InstallAnon(pt, 0x40001000, PtePerm::kReadOnly);
  pt.WriteProtectRange(0x40000000, 0x40002000);
  EXPECT_EQ(pt.FindPte(0x40000000)->ptp->hw(PteIndexInPtp(0x40000000)).perm(),
            PtePerm::kReadOnly);
  EXPECT_EQ(pt.FindPte(0x40001000)->ptp->hw(PteIndexInPtp(0x40001000)).perm(),
            PtePerm::kReadOnly);
}

// ---------------------------------------------------------------------------
// Sharing (Section 3.1.1).
// ---------------------------------------------------------------------------

TEST_F(PtTest, ShareSlotWriteProtectsAndMarksBothSides) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  InstallAnon(parent, va, PtePerm::kReadWrite);
  InstallAnon(parent, va + kPageSize, PtePerm::kReadOnly);

  const uint32_t slot = PtpSlotIndex(va);
  const uint32_t protected_count = parent.ShareSlotInto(child, slot);
  EXPECT_EQ(protected_count, 1u);  // only the RW entry needed protection
  EXPECT_EQ(counters_.ptes_write_protected, 1u);
  EXPECT_EQ(counters_.ptps_shared, 1u);

  EXPECT_TRUE(parent.l1(slot).need_copy);
  EXPECT_TRUE(child.l1(slot).need_copy);
  EXPECT_EQ(parent.l1(slot).ptp, child.l1(slot).ptp);
  EXPECT_EQ(alloc_.Get(parent.l1(slot).ptp).SharerCount(), 2u);

  // The writable PTE is now write-protected (COW) and visible via both.
  const auto ref = child.FindPte(va);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->ptp->hw(ref->index).perm(), PtePerm::kReadOnly);
}

TEST_F(PtTest, ReShareTakesFastPath) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child1(&alloc_, &phys_, &counters_);
  PageTable child2(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  InstallAnon(parent, va, PtePerm::kReadWrite);
  const uint32_t slot = PtpSlotIndex(va);

  EXPECT_EQ(parent.ShareSlotInto(child1, slot), 1u);
  // Second share: NEED_COPY already set, no protection pass.
  EXPECT_EQ(parent.ShareSlotInto(child2, slot), 0u);
  EXPECT_EQ(alloc_.Get(parent.l1(slot).ptp).SharerCount(), 3u);
  EXPECT_EQ(counters_.ptps_shared, 2u);
}

TEST_F(PtTest, PopulateIntoSharedPtpIsVisibleToAllSharers) {
  // The paper's read-fault path: a PTE created by one sharer eliminates
  // the other sharers' soft faults for that page.
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  InstallAnon(parent, va);
  parent.ShareSlotInto(child, PtpSlotIndex(va));

  const VirtAddr new_va = va + 7 * kPageSize;
  const FrameNumber frame = NewAnonFrame();
  child.SetPte(new_va, MakePte(frame), MakeSw(), /*allow_shared=*/true);
  phys_.UnrefFrame(frame);

  const auto parent_ref = parent.FindPte(new_va);
  ASSERT_TRUE(parent_ref.has_value());
  EXPECT_TRUE(parent_ref->ptp->hw(parent_ref->index).valid());
  EXPECT_EQ(parent_ref->ptp->hw(parent_ref->index).frame(), frame);
}

// ---------------------------------------------------------------------------
// Unsharing (Figure 6).
// ---------------------------------------------------------------------------

TEST_F(PtTest, UnshareSoleSharerJustClearsNeedCopy) {
  PageTable parent(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  InstallAnon(parent, va);
  {
    PageTable child(&alloc_, &phys_, &counters_);
    parent.ShareSlotInto(child, PtpSlotIndex(va));
    child.ReleaseSlot(PtpSlotIndex(va));
  }
  // Parent is now the only sharer.
  const uint32_t copied =
      parent.TryUnshareSlot(PtpSlotIndex(va), /*copy_referenced_only=*/false)
          .value();
  EXPECT_EQ(copied, 0u);
  EXPECT_TRUE(shootdown_.spaces.empty());  // fast path: no flush, no copy
  EXPECT_FALSE(parent.l1(PtpSlotIndex(va)).need_copy);
  EXPECT_TRUE(parent.l1(PtpSlotIndex(va)).present());
}

TEST_F(PtTest, UnshareCopiesAllValidPtes) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  const VirtAddr base = 0x40000000;
  for (uint32_t i = 0; i < 5; ++i) {
    InstallAnon(parent, base + i * kPageSize);
  }
  const uint32_t slot = PtpSlotIndex(base);
  parent.ShareSlotInto(child, slot);
  const PtpId shared = parent.l1(slot).ptp;

  const uint32_t copied = child.TryUnshareSlot(slot, false).value();
  EXPECT_EQ(copied, 5u);
  // Figure 6's flush of the unsharing address space, and only that one.
  EXPECT_EQ(shootdown_.spaces, (std::vector<const PageTable*>{&child}));
  EXPECT_EQ(counters_.ptes_copied, 5u);
  EXPECT_EQ(counters_.ptps_unshared, 1u);

  // Child has a private PTP now; parent still uses the shared one.
  EXPECT_NE(child.l1(slot).ptp, shared);
  EXPECT_FALSE(child.l1(slot).need_copy);
  EXPECT_EQ(parent.l1(slot).ptp, shared);
  EXPECT_EQ(alloc_.Get(shared).SharerCount(), 1u);

  // Copies map the same frames (translations unchanged), with extra refs.
  for (uint32_t i = 0; i < 5; ++i) {
    const auto p = parent.FindPte(base + i * kPageSize);
    const auto c = child.FindPte(base + i * kPageSize);
    EXPECT_EQ(p->ptp->hw(p->index).frame(), c->ptp->hw(c->index).frame());
    EXPECT_EQ(phys_.frame(p->ptp->hw(p->index).frame()).ref_count, 2u);
  }
}

TEST_F(PtTest, ShareAgesReferencedBits) {
  // First share clears the referenced bits: "young" thereafter means
  // "accessed since the PTP became shared".
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  InstallAnon(parent, va, PtePerm::kReadOnly, /*young=*/true);
  parent.ShareSlotInto(child, PtpSlotIndex(va));
  const auto ref = parent.FindPte(va);
  EXPECT_FALSE(ref->ptp->sw(ref->index).young());
}

TEST_F(PtTest, UnshareReferencedOnlyAblationSkipsColdPtes) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  const VirtAddr base = 0x40000000;
  InstallAnon(parent, base, PtePerm::kReadOnly, /*young=*/true);
  InstallAnon(parent, base + kPageSize, PtePerm::kReadOnly, /*young=*/true);
  InstallAnon(parent, base + 2 * kPageSize, PtePerm::kReadOnly, /*young=*/true);
  const uint32_t slot = PtpSlotIndex(base);
  parent.ShareSlotInto(child, slot);  // ages every referenced bit

  // Two of the three pages are accessed after the share (the walker sets
  // young through the shared PTP).
  for (VirtAddr va : {base, base + 2 * kPageSize}) {
    const auto ref = child.FindPte(va);
    LinuxPte sw = ref->ptp->sw(ref->index);
    sw.set_young(true);
    child.UpdatePte(va, ref->ptp->hw(ref->index), sw, /*allow_shared=*/true);
  }

  const uint32_t copied =
      child.TryUnshareSlot(slot, /*copy_referenced_only=*/true).value();
  EXPECT_EQ(copied, 2u);
  const auto cold = child.FindPte(base + kPageSize);
  EXPECT_FALSE(cold->ptp->hw(cold->index).valid());  // left for a soft fault
}

TEST_F(PtTest, UnshareWriteProtectOnCopyAblation) {
  // x86-style L1 write-protect: the share pass was skipped, so unshare
  // must write-protect RW entries as it copies them out.
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  InstallAnon(parent, va, PtePerm::kReadWrite);
  const uint32_t slot = PtpSlotIndex(va);
  parent.ShareSlotInto(child, slot, /*skip_write_protect_pass=*/true);
  EXPECT_EQ(counters_.ptes_write_protected, 0u);
  // The shared PTP still holds a hardware-writable entry.
  const auto shared_ref = parent.FindPte(va);
  EXPECT_EQ(shared_ref->ptp->hw(shared_ref->index).perm(), PtePerm::kReadWrite);

  ASSERT_TRUE(
      child.TryUnshareSlot(slot, false, /*write_protect_on_copy=*/true));
  const auto child_ref = child.FindPte(va);
  EXPECT_EQ(child_ref->ptp->hw(child_ref->index).perm(), PtePerm::kReadOnly);
}

// ---------------------------------------------------------------------------
// Release / teardown (Section 3.1.2 case 5).
// ---------------------------------------------------------------------------

TEST_F(PtTest, ReleaseSharedSlotSkipsReclamation) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  InstallAnon(parent, va);
  const uint32_t slot = PtpSlotIndex(va);
  parent.ShareSlotInto(child, slot);
  const PtpId shared = parent.l1(slot).ptp;

  child.ReleaseSlot(slot);  // child exits: decrement, do not reclaim
  EXPECT_FALSE(child.l1(slot).present());
  EXPECT_EQ(alloc_.Get(shared).SharerCount(), 1u);
  EXPECT_EQ(alloc_.live_ptps(), 1u);

  parent.ReleaseSlot(slot);  // last sharer: reclaim PTP and frames
  EXPECT_EQ(alloc_.live_ptps(), 0u);
}

TEST_F(PtTest, LastReleaseFreesMappedFrames) {
  PageTable pt(&alloc_, &phys_, &counters_);
  const VirtAddr va = 0x40000000;
  const uint64_t used_before = phys_.used_frames();
  InstallAnon(pt, va);
  InstallAnon(pt, va + kPageSize);
  pt.ReleaseSlot(PtpSlotIndex(va));
  EXPECT_EQ(phys_.used_frames(), used_before);
}

TEST_F(PtTest, DestructorReleasesEverything) {
  const uint64_t used_before = phys_.used_frames();
  {
    PageTable pt(&alloc_, &phys_, &counters_);
    InstallAnon(pt, 0x40000000);
    InstallAnon(pt, 0x50000000);
    InstallAnon(pt, 0x60000000);
  }
  EXPECT_EQ(phys_.used_frames(), used_before);
  EXPECT_EQ(alloc_.live_ptps(), 0u);
}

TEST_F(PtTest, SlotCounters) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  InstallAnon(parent, 0x40000000);
  InstallAnon(parent, 0x50000000);
  EXPECT_EQ(parent.PresentSlotCount(), 2u);
  EXPECT_EQ(parent.SharedSlotCount(), 0u);
  parent.ShareSlotInto(child, PtpSlotIndex(0x40000000));
  EXPECT_EQ(parent.SharedSlotCount(), 1u);
  EXPECT_EQ(child.PresentSlotCount(), 1u);
  EXPECT_EQ(child.SharedSlotCount(), 1u);
}

}  // namespace
}  // namespace sat
