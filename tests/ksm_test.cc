// KSM-style same-page merging (src/ksm): scan/merge mechanics, the
// checksum-skip heuristic, COW unmerge, the interaction with shared page-
// table pages (merging under a shared PTP must privatize it first), swap
// of stable frames (one compressed slot for N sharers), and clean ENOMEM
// rollback when the lazy unshare cannot allocate.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/core/sat.h"

namespace sat {
namespace {

KernelParams SmallParams(uint64_t phys_mb = 32, uint64_t swap_mb = 0) {
  KernelParams params;
  params.phys_bytes = phys_mb * 1024 * 1024;
  params.swap_bytes = swap_mb * 1024 * 1024;
  return params;
}

// Maps `pages` anonymous RW pages at `base`, MERGEABLE from birth.
VirtAddr MapMergeable(Kernel& kernel, Task& task, uint32_t pages,
                      VirtAddr base) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = base;
  request.mergeable = true;
  EXPECT_EQ(kernel.Mmap(task, request).value, base);
  return base;
}

FrameNumber FrameAt(Task& task, VirtAddr va) {
  const auto ref = task.mm->page_table().FindPte(va);
  if (!ref.has_value() || !ref->ptp->hw(ref->index).valid()) {
    return static_cast<FrameNumber>(-1);
  }
  return MappedFrameOf(ref->ptp->hw(ref->index), ref->index);
}

PtePerm PermAt(Task& task, VirtAddr va) {
  const auto ref = task.mm->page_table().FindPte(va);
  EXPECT_TRUE(ref.has_value() && ref->ptp->hw(ref->index).valid());
  return ref->ptp->hw(ref->index).perm();
}

// Does ksmd's stable tree hold a node for `frame`?
bool InStableTree(Kernel& kernel, FrameNumber frame) {
  bool found = false;
  kernel.ksm().ForEachStable(
      [&](uint64_t /*content*/, FrameNumber node) { found |= node == frame; });
  return found;
}

void ExpectAuditOk(Kernel& kernel, const char* where) {
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << where << ":\n" << report.ToString();
}

uint32_t SwapOutAll(Kernel& kernel, uint32_t target) {
  uint32_t freed = 0;
  for (int pass = 0; pass < 8 && freed < target; ++pass) {
    freed += kernel.SwapOutAnonPages(target - freed);
  }
  return freed;
}

// ---------------------------------------------------------------------------
// Basic merging.
// ---------------------------------------------------------------------------

TEST(KsmTest, MergesIdenticalPagesAfterTwoPasses) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapMergeable(kernel, *task, 4, 0x40000000);
  const uint64_t contents[] = {7, 7, 13, 21};
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(kernel.WritePage(*task, base + i * kPageSize, contents[i]),
              TouchStatus::kOk);
  }
  const uint64_t anon_before = kernel.phys().CountFrames(FrameKind::kAnon);

  // Pass 1 only records checksums (the unstable tree admits a page after
  // its content survives one full scan interval unchanged).
  EXPECT_EQ(kernel.RunKsmScan(), 0u);
  EXPECT_EQ(kernel.counters().ksm_scans, 1u);
  EXPECT_EQ(kernel.counters().ksm_pages_scanned, 4u);
  EXPECT_EQ(kernel.counters().ksm_pages_merged, 0u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 0u);

  // Pass 2 merges the duplicate pair.
  EXPECT_EQ(kernel.RunKsmScan(), 1u);
  EXPECT_EQ(kernel.counters().ksm_pages_merged, 1u);
  EXPECT_GT(kernel.counters().ksm_ptes_write_protected, 0u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 1u);
  EXPECT_EQ(kernel.ksm().pages_sharing(), 1u);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), anon_before - 1);

  // Both duplicates map the same write-protected stable frame.
  const FrameNumber f0 = FrameAt(*task, base);
  EXPECT_EQ(f0, FrameAt(*task, base + kPageSize));
  EXPECT_TRUE(InStableTree(kernel, f0));
  EXPECT_TRUE(kernel.phys().frame(f0).ksm_stable);
  EXPECT_EQ(PermAt(*task, base), PtePerm::kReadOnly);
  EXPECT_EQ(PermAt(*task, base + kPageSize), PtePerm::kReadOnly);
  // The unique pages are untouched.
  EXPECT_NE(FrameAt(*task, base + 2 * kPageSize),
            FrameAt(*task, base + 3 * kPageSize));
  ExpectAuditOk(kernel, "after merge");

  // A third pass is a no-op: stable pages are skipped, nothing else matches.
  EXPECT_EQ(kernel.RunKsmScan(), 0u);
  EXPECT_EQ(kernel.counters().ksm_pages_merged, 1u);
  ExpectAuditOk(kernel, "after idle rescan");
}

TEST(KsmTest, ChecksumSkipDefersActivelyWrittenPages) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapMergeable(kernel, *task, 2, 0x40000000);
  // The page pair matches within every pass but changes between passes:
  // the checksum heuristic must keep it out of the unstable tree forever.
  for (uint64_t round = 0; round < 4; ++round) {
    ASSERT_EQ(kernel.WritePage(*task, base, 100 + round), TouchStatus::kOk);
    ASSERT_EQ(kernel.WritePage(*task, base + kPageSize, 100 + round),
              TouchStatus::kOk);
    EXPECT_EQ(kernel.RunKsmScan(), 0u);
  }
  EXPECT_EQ(kernel.counters().ksm_pages_merged, 0u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 0u);
  ExpectAuditOk(kernel, "after churn");
}

TEST(KsmTest, OnlyMergeableRegionsAreScanned) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr advised = MapMergeable(kernel, *task, 2, 0x40000000);
  // A second region with identical content but no madvise.
  MmapRequest request;
  request.length = 2 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x50000000;
  ASSERT_NE(kernel.Mmap(*task, request).value, 0u);
  for (uint32_t i = 0; i < 2; ++i) {
    ASSERT_EQ(kernel.WritePage(*task, advised + i * kPageSize, 9),
              TouchStatus::kOk);
    ASSERT_EQ(kernel.WritePage(*task, 0x50000000 + i * kPageSize, 9),
              TouchStatus::kOk);
  }
  kernel.RunKsmScan();
  kernel.RunKsmScan();
  // Only the advised region's pages were examined; its internal duplicate
  // merged, the unadvised twins were never considered.
  EXPECT_EQ(kernel.counters().ksm_pages_scanned, 4u);  // 2 pages x 2 passes
  EXPECT_EQ(kernel.counters().ksm_pages_merged, 1u);
  EXPECT_FALSE(kernel.phys().frame(FrameAt(*task, 0x50000000)).ksm_stable);

  // madvise(MERGEABLE) after the fact brings the region in.
  EXPECT_EQ(kernel.Madvise(*task, 0x50000000, 2 * kPageSize,
                           MadviseAdvice::kMergeable)
                .error,
            Errno::kOk);
  kernel.RunKsmScan();
  kernel.RunKsmScan();
  EXPECT_EQ(kernel.counters().ksm_pages_merged, 3u);  // both twins joined
  EXPECT_EQ(kernel.ksm().pages_shared(), 1u);
  EXPECT_EQ(kernel.ksm().pages_sharing(), 3u);
  ExpectAuditOk(kernel, "after late advice");
}

TEST(KsmTest, MadviseValidatesItsArguments) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  MapMergeable(kernel, *task, 2, 0x40000000);
  EXPECT_EQ(kernel.Madvise(*task, 0x40000000, 0, MadviseAdvice::kMergeable)
                .error,
            Errno::kEinval);
  EXPECT_EQ(kernel.Madvise(*task, 0x40000001, kPageSize,
                           MadviseAdvice::kMergeable)
                .error,
            Errno::kEinval);
  EXPECT_EQ(kernel.Madvise(*task, 0x70000000, kPageSize,
                           MadviseAdvice::kMergeable)
                .error,
            Errno::kEfault);
  // Splitting: un-advise one page out of the middle of the two.
  EXPECT_EQ(kernel.Madvise(*task, 0x40000000, kPageSize,
                           MadviseAdvice::kUnmergeable)
                .error,
            Errno::kOk);
  const VmArea* first = task->mm->FindVma(0x40000000);
  const VmArea* second = task->mm->FindVma(0x40000000 + kPageSize);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(first->mergeable);
  EXPECT_TRUE(second->mergeable);
  ExpectAuditOk(kernel, "after split");
}

// ---------------------------------------------------------------------------
// Unmerge via the COW path.
// ---------------------------------------------------------------------------

TEST(KsmTest, WriteFaultUnmergesByCopying) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapMergeable(kernel, *task, 2, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*task, base, 5), TouchStatus::kOk);
  ASSERT_EQ(kernel.WritePage(*task, base + kPageSize, 5), TouchStatus::kOk);
  kernel.RunKsmScan();
  ASSERT_EQ(kernel.RunKsmScan(), 1u);
  const FrameNumber stable = FrameAt(*task, base);

  // First write: COW away from the stable frame; the other sharer stays.
  ASSERT_EQ(kernel.WritePage(*task, base, 6), TouchStatus::kOk);
  EXPECT_EQ(kernel.counters().ksm_unmerge_faults, 1u);
  EXPECT_NE(FrameAt(*task, base), stable);
  EXPECT_EQ(FrameAt(*task, base + kPageSize), stable);
  EXPECT_TRUE(InStableTree(kernel, stable));
  EXPECT_EQ(kernel.ksm().pages_sharing(), 0u);
  ExpectAuditOk(kernel, "after first unmerge");

  // Second write: even at one remaining mapping a stable page is never
  // reused in place (the PageKsm rule) — the copy frees the stable frame
  // and the daemon prunes its tree node.
  ASSERT_EQ(kernel.WritePage(*task, base + kPageSize, 6), TouchStatus::kOk);
  EXPECT_EQ(kernel.counters().ksm_unmerge_faults, 2u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 0u);
  EXPECT_FALSE(InStableTree(kernel, stable));
  ExpectAuditOk(kernel, "after last unmerge");

  // The copies carried the content: the pair is identical again and can
  // re-merge from scratch.
  kernel.RunKsmScan();
  EXPECT_EQ(kernel.RunKsmScan(), 1u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 1u);
  ExpectAuditOk(kernel, "after re-merge");
}

// ---------------------------------------------------------------------------
// Shared page-table pages: merging must privatize the PTP first.
// ---------------------------------------------------------------------------

TEST(KsmTest, MergeUnderSharedPtpForcesLazyUnshare) {
  KernelParams params = SmallParams();
  params.vm.share_ptps = true;
  Kernel kernel(params);
  Task* parent = kernel.CreateTask("parent");
  // Two regions in different 2 MB slots, one duplicate page in each.
  const VirtAddr a = MapMergeable(kernel, *parent, 1, 0x40000000);
  const VirtAddr b = MapMergeable(kernel, *parent, 1, 0x50000000);
  ASSERT_EQ(kernel.WritePage(*parent, a, 42), TouchStatus::kOk);
  ASSERT_EQ(kernel.WritePage(*parent, b, 42), TouchStatus::kOk);

  Task* child = kernel.Fork(*parent, "child").child;
  ASSERT_NE(child, nullptr);
  PageTable& ppt = parent->mm->page_table();
  PageTable& cpt = child->mm->page_table();
  ASSERT_TRUE(ppt.SlotNeedsCopy(a));
  ASSERT_TRUE(ppt.SlotNeedsCopy(b));
  const FrameNumber fa = FrameAt(*parent, a);
  const FrameNumber fb = FrameAt(*parent, b);
  ASSERT_NE(fa, fb);

  kernel.RunKsmScan();
  const uint32_t merged = kernel.RunKsmScan();
  // Parent's b merged into a's frame (unsharing the parent's b-slot), then
  // the child's b — a stable-tree hit — did the same on the child's side.
  EXPECT_EQ(merged, 2u);
  EXPECT_EQ(kernel.counters().ksm_unshares, 2u);
  EXPECT_GE(kernel.counters().ptps_unshared, 2u);
  EXPECT_FALSE(ppt.SlotNeedsCopy(b));
  EXPECT_FALSE(cpt.SlotNeedsCopy(b));
  // The a-slot stayed shared: its PTE already mapped the (now stable)
  // frame, so no merge — and no unshare — was needed there.
  EXPECT_TRUE(ppt.SlotNeedsCopy(a));
  EXPECT_TRUE(cpt.SlotNeedsCopy(a));
  EXPECT_EQ(FrameAt(*parent, b), fa);
  EXPECT_EQ(FrameAt(*child, b), fa);
  EXPECT_EQ(kernel.ksm().pages_shared(), 1u);
  // fb lost its last mapping in the merge and was freed.
  EXPECT_EQ(kernel.phys().frame(fb).kind, FrameKind::kFree);
  ExpectAuditOk(kernel, "after shared-ptp merge");

  kernel.Exit(*child);
  ExpectAuditOk(kernel, "after child exit");
  kernel.Exit(*parent);
  EXPECT_EQ(kernel.ksm().pages_shared(), 0u);  // freed frames pruned
  ExpectAuditOk(kernel, "after teardown");
}

// ---------------------------------------------------------------------------
// Stable frames and swap.
// ---------------------------------------------------------------------------

TEST(KsmTest, StableFrameSwapsOnceForAllSharers) {
  Kernel kernel(SmallParams(32, 16));
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapMergeable(kernel, *task, 2, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*task, base, 77), TouchStatus::kOk);
  ASSERT_EQ(kernel.WritePage(*task, base + kPageSize, 77), TouchStatus::kOk);
  kernel.RunKsmScan();
  ASSERT_EQ(kernel.RunKsmScan(), 1u);
  const FrameNumber stable = FrameAt(*task, base);

  // Swap the merged page out: both sharers' PTEs become swap PTEs against
  // ONE compressed slot, and the freed stable frame leaves the tree.
  ASSERT_GE(SwapOutAll(kernel, 2), 1u);
  PageTable& pt = task->mm->page_table();
  const auto ref0 = pt.FindPte(base);
  const auto ref1 = pt.FindPte(base + kPageSize);
  ASSERT_TRUE(ref0.has_value() && ref0->ptp->sw(ref0->index).is_swap());
  ASSERT_TRUE(ref1.has_value() && ref1->ptp->sw(ref1->index).is_swap());
  EXPECT_EQ(ref0->ptp->sw(ref0->index).swap_slot(),
            ref1->ptp->sw(ref1->index).swap_slot());
  const SwapSlotId slot = ref0->ptp->sw(ref0->index).swap_slot();
  EXPECT_EQ(kernel.zram().SlotRefCount(slot), 2u);
  EXPECT_EQ(kernel.zram().SlotContent(slot), 77u);
  EXPECT_FALSE(InStableTree(kernel, stable));
  EXPECT_EQ(kernel.ksm().pages_shared(), 0u);
  ExpectAuditOk(kernel, "after swap-out");

  // Swap back in: the first fault decompresses, the second hits the swap
  // cache and maps the same frame — still deduplicated.
  ASSERT_TRUE(kernel.TouchPage(*task, base, AccessType::kRead));
  ASSERT_TRUE(kernel.TouchPage(*task, base + kPageSize, AccessType::kRead));
  EXPECT_EQ(kernel.counters().swap_ins_cache_hit, 1u);
  EXPECT_EQ(FrameAt(*task, base), FrameAt(*task, base + kPageSize));
  // The content tag rode through the compressed slot, so a later scan
  // re-promotes the shared frame to stable without any copying.
  EXPECT_EQ(kernel.phys().frame(FrameAt(*task, base)).content, 77u);
  kernel.RunKsmScan();
  kernel.RunKsmScan();
  EXPECT_EQ(kernel.ksm().pages_shared(), 1u);
  EXPECT_TRUE(kernel.phys().frame(FrameAt(*task, base)).ksm_stable);
  ExpectAuditOk(kernel, "after swap-in and re-promote");
}

// ---------------------------------------------------------------------------
// ENOMEM rollback mid-merge.
// ---------------------------------------------------------------------------

TEST(KsmTest, EnomemDuringLazyUnshareAbandonsTheMergeCleanly) {
  KernelParams params = SmallParams();
  params.vm.share_ptps = true;
  Kernel kernel(params);
  Task* parent = kernel.CreateTask("parent");
  const VirtAddr a = MapMergeable(kernel, *parent, 1, 0x40000000);
  const VirtAddr b = MapMergeable(kernel, *parent, 1, 0x50000000);
  ASSERT_EQ(kernel.WritePage(*parent, a, 42), TouchStatus::kOk);
  ASSERT_EQ(kernel.WritePage(*parent, b, 42), TouchStatus::kOk);
  Task* child = kernel.Fork(*parent, "child").child;
  ASSERT_NE(child, nullptr);
  const FrameNumber fb = FrameAt(*parent, b);

  kernel.RunKsmScan();  // record checksums
  // Every PTP allocation now fails: both b-merges need the lazy unshare
  // and must abandon their candidate without touching the shared slot.
  kernel.fault_injector().SetRule(AllocSite::kPtp, FaultRule{0, 1, 0.0});
  EXPECT_EQ(kernel.RunKsmScan(), 0u);
  EXPECT_EQ(kernel.counters().ksm_merge_failures, 2u);
  EXPECT_EQ(kernel.counters().ksm_unshares, 0u);
  EXPECT_TRUE(parent->mm->page_table().SlotNeedsCopy(b));
  EXPECT_TRUE(child->mm->page_table().SlotNeedsCopy(b));
  EXPECT_EQ(FrameAt(*parent, b), fb);
  EXPECT_EQ(FrameAt(*child, b), fb);
  // The promotion half did happen — a's frame is stable, b's pages simply
  // could not join it yet. That is a complete, consistent state.
  EXPECT_EQ(kernel.ksm().pages_shared(), 1u);
  ExpectAuditOk(kernel, "after injected failure");

  // With memory back, the next pass finishes the job via stable-tree hits.
  kernel.fault_injector().Reset();
  EXPECT_EQ(kernel.RunKsmScan(), 2u);
  EXPECT_EQ(kernel.counters().ksm_unshares, 2u);
  EXPECT_EQ(kernel.phys().frame(fb).kind, FrameKind::kFree);
  ExpectAuditOk(kernel, "after recovery");
}

// ---------------------------------------------------------------------------
// The periodic wake-up path.
// ---------------------------------------------------------------------------

TEST(KsmTest, KsmdWakesFromTheKswapdHookPoints) {
  KernelParams params = SmallParams();
  params.ksm_enabled = true;
  params.ksm_wake_interval = 8;  // every 8th kswapd wake point
  Kernel kernel(params);
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapMergeable(kernel, *task, 2, 0x40000000);
  ASSERT_EQ(kernel.WritePage(*task, base, 3), TouchStatus::kOk);
  ASSERT_EQ(kernel.WritePage(*task, base + kPageSize, 3), TouchStatus::kOk);
  // Touches hit the wake point once each; after enough of them ksmd has
  // run at least twice and the pair is merged without any explicit scan.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(kernel.TouchPage(*task, base, AccessType::kRead));
  }
  EXPECT_GE(kernel.counters().ksm_scans, 2u);
  EXPECT_EQ(kernel.counters().ksm_pages_merged, 1u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 1u);
  ExpectAuditOk(kernel, "after periodic merges");
}

}  // namespace
}  // namespace sat
