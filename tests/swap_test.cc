// Anonymous-memory swap: the zram store, swap PTEs, the LRU/kswapd
// machinery, and — the part the paper's sharing design makes interesting —
// swapping pages that are mapped through *shared* page-table pages, where
// one swap entry serves every sharer and a later write fault must
// COW-unshare both the PTP and the swapped page without corrupting the
// other sharers.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/core/sat.h"

namespace sat {
namespace {

KernelParams SwapParams(uint64_t phys_mb, uint64_t swap_mb) {
  KernelParams params;
  params.phys_bytes = phys_mb * 1024 * 1024;
  params.swap_bytes = swap_mb * 1024 * 1024;
  return params;
}

// Maps `pages` anonymous RW pages at `base` and writes each once.
VirtAddr MapAndWrite(Kernel& kernel, Task& task, uint32_t pages,
                     VirtAddr base) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = base;
  EXPECT_NE(kernel.Mmap(task, request).value, 0u);
  for (uint32_t i = 0; i < pages; ++i) {
    EXPECT_TRUE(
        kernel.TouchPage(task, base + i * kPageSize, AccessType::kWrite));
  }
  return base;
}

// Swap-out with retries: the first pass over freshly touched pages only
// harvests referenced bits (second chance); subsequent passes evict.
uint32_t SwapOutAll(Kernel& kernel, uint32_t target) {
  uint32_t freed = 0;
  for (int pass = 0; pass < 8 && freed < target; ++pass) {
    freed += kernel.SwapOutAnonPages(target - freed);
  }
  return freed;
}

// Every (va, slot) pair for swap PTEs in [base, base + pages).
std::vector<std::pair<VirtAddr, SwapSlotId>> SwapPtesIn(Task& task,
                                                        VirtAddr base,
                                                        uint32_t pages) {
  std::vector<std::pair<VirtAddr, SwapSlotId>> out;
  PageTable& pt = task.mm->page_table();
  for (uint32_t i = 0; i < pages; ++i) {
    const VirtAddr va = base + i * kPageSize;
    const auto ref = pt.FindPte(va);
    if (ref.has_value() && ref->ptp->sw(ref->index).is_swap()) {
      out.emplace_back(va, ref->ptp->sw(ref->index).swap_slot());
    }
  }
  return out;
}

FrameNumber FrameAt(Task& task, VirtAddr va) {
  const auto ref = task.mm->page_table().FindPte(va);
  if (!ref.has_value() || !ref->ptp->hw(ref->index).valid()) {
    return static_cast<FrameNumber>(-1);
  }
  return MappedFrameOf(ref->ptp->hw(ref->index), ref->index);
}

void ExpectAuditOk(Kernel& kernel, const char* where) {
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << where << ":\n" << report.ToString();
}

// ---------------------------------------------------------------------------
// Round trip.
// ---------------------------------------------------------------------------

TEST(SwapTest, RoundTripSwapOutAndBackIn) {
  Kernel kernel(SwapParams(32, 16));
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAndWrite(kernel, *task, 64, 0x40000000);

  const uint64_t anon_before = kernel.phys().CountFrames(FrameKind::kAnon);
  EXPECT_EQ(SwapOutAll(kernel, 64), 64u);
  EXPECT_EQ(kernel.counters().swap_outs, 64u);
  EXPECT_GT(kernel.counters().lru_activations, 0u);  // second chance ran
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), anon_before - 64);

  // Everything is compressed now: 64 live slots, pool frames backing them.
  EXPECT_EQ(kernel.zram().live_slots(), 64u);
  EXPECT_GT(kernel.zram().stored_bytes(), 0u);
  EXPECT_GT(kernel.zram().pool_frame_count(), 0u);
  EXPECT_LT(kernel.zram().pool_frame_count(), 64u);  // compression won
  EXPECT_EQ(SwapPtesIn(*task, base, 64).size(), 64u);
  ExpectAuditOk(kernel, "after swap-out");

  // Read every page back: each swap-in decompresses once, and with a
  // single swap PTE per slot the slot is freed eagerly afterwards (the
  // try_to_free_swap analogue) — no compressed copy lingers.
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(
        kernel.TouchPage(*task, base + i * kPageSize, AccessType::kRead));
  }
  EXPECT_EQ(kernel.counters().swap_ins, 64u);
  EXPECT_EQ(kernel.counters().swap_ins_cache_hit, 0u);
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
  EXPECT_EQ(kernel.zram().pool_frame_count(), 0u);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kZram), 0u);
  ExpectAuditOk(kernel, "after swap-in");

  // Swapped-in pages come back read-only; writes COW-upgrade in place.
  for (uint32_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(
        kernel.TouchPage(*task, base + i * kPageSize, AccessType::kWrite));
  }
  ExpectAuditOk(kernel, "after write-back");

  kernel.Exit(*task);
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
  ExpectAuditOk(kernel, "after exit");
}

// ---------------------------------------------------------------------------
// Swap under shared page-table pages.
// ---------------------------------------------------------------------------

TEST(SwapTest, SharedPtpSwapsOnceAndServesAllSharers) {
  KernelParams params = SwapParams(32, 16);
  params.vm.share_ptps = true;
  Kernel kernel(params);
  Task* parent = kernel.CreateTask("parent");
  const VirtAddr base = MapAndWrite(kernel, *parent, 8, 0x40000000);

  const ForkOutcome fork = kernel.Fork(*parent, "child");
  Task* child = fork.child;
  ASSERT_NE(child, nullptr);
  EXPECT_GT(fork.stats.slots_shared, 0u);

  // Swapping a page out of a shared PTP clears exactly one PTE and leaves
  // exactly one slot reference — the entry serves both sharers.
  EXPECT_EQ(SwapOutAll(kernel, 8), 8u);
  const auto parent_swaps = SwapPtesIn(*parent, base, 8);
  const auto child_swaps = SwapPtesIn(*child, base, 8);
  ASSERT_EQ(parent_swaps.size(), 8u);
  ASSERT_EQ(child_swaps.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(parent_swaps[i].second, child_swaps[i].second)
        << "sharers disagree about the swap slot at page " << i;
    EXPECT_EQ(kernel.zram().SlotRefCount(parent_swaps[i].second), 1u);
  }
  ExpectAuditOk(kernel, "after shared swap-out");

  // One sharer's read fault populates the shared PTP for everyone: the
  // other sharer sees the present page without faulting.
  const auto [va, slot] = parent_swaps[0];
  EXPECT_TRUE(kernel.TouchPage(*child, va, AccessType::kRead));
  EXPECT_EQ(kernel.counters().swap_ins, 1u);
  const uint64_t ins_before = kernel.counters().swap_ins;
  EXPECT_TRUE(kernel.TouchPage(*parent, va, AccessType::kRead));
  EXPECT_EQ(kernel.counters().swap_ins, ins_before);
  EXPECT_EQ(FrameAt(*parent, va), FrameAt(*child, va));
  // The lone swap PTE was consumed, so the slot was freed eagerly.
  EXPECT_FALSE(kernel.zram().SlotLive(slot));
  ExpectAuditOk(kernel, "after shared swap-in");

  kernel.Exit(*child);
  kernel.Exit(*parent);
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
  ExpectAuditOk(kernel, "after exits");
}

TEST(SwapTest, WriteFaultUnsharesPtpAndCowsSwappedPage) {
  KernelParams params = SwapParams(32, 16);
  params.vm.share_ptps = true;
  Kernel kernel(params);
  Task* parent = kernel.CreateTask("parent");
  const VirtAddr base = MapAndWrite(kernel, *parent, 8, 0x40000000);
  const ForkOutcome fork = kernel.Fork(*parent, "child");
  Task* child = fork.child;
  ASSERT_NE(child, nullptr);
  ASSERT_GT(fork.stats.slots_shared, 0u);

  ASSERT_EQ(SwapOutAll(kernel, 8), 8u);
  const auto swaps = SwapPtesIn(*parent, base, 8);
  ASSERT_EQ(swaps.size(), 8u);
  const auto [va, slot] = swaps[0];

  // The crux: a write by one sharer to a swapped-out page. The fault must
  // (1) unshare the PTP, duplicating every swap entry with its own slot
  // reference, (2) swap the page in, and (3) COW it — because the swap
  // cache still holds the pristine copy for the other sharer.
  EXPECT_TRUE(kernel.TouchPage(*child, va, AccessType::kWrite));
  EXPECT_GT(kernel.counters().ptps_unshared, 0u);
  EXPECT_EQ(kernel.counters().swap_ins, 1u);
  EXPECT_GT(kernel.counters().faults_cow, 0u);

  // The parent's copy is untouched: still a swap PTE on the same slot,
  // whose references are now the parent's entry plus the swap cache.
  const auto parent_ref = parent->mm->page_table().FindPte(va);
  ASSERT_TRUE(parent_ref.has_value());
  EXPECT_TRUE(parent_ref->ptp->sw(parent_ref->index).is_swap());
  EXPECT_EQ(parent_ref->ptp->sw(parent_ref->index).swap_slot(), slot);
  EXPECT_EQ(kernel.zram().SlotRefCount(slot), 2u);
  EXPECT_NE(kernel.zram().CacheLookup(slot), ZramStore::kNoFrame);
  // Every other duplicated swap entry counts both page tables.
  for (uint32_t i = 1; i < 8; ++i) {
    EXPECT_EQ(kernel.zram().SlotRefCount(swaps[i].second), 2u);
  }
  ExpectAuditOk(kernel, "after write-fault COW");

  // The parent's read is a swap-cache hit: the slot decompressed once for
  // the child's fault and is reused here, then freed (last swap PTE gone).
  EXPECT_TRUE(kernel.TouchPage(*parent, va, AccessType::kRead));
  EXPECT_EQ(kernel.counters().swap_ins_cache_hit, 1u);
  EXPECT_FALSE(kernel.zram().SlotLive(slot));
  EXPECT_NE(FrameAt(*parent, va), FrameAt(*child, va));  // truly COWed
  ExpectAuditOk(kernel, "after cache-hit swap-in");

  kernel.Exit(*child);
  kernel.Exit(*parent);
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
  ExpectAuditOk(kernel, "after exits");
}

// ---------------------------------------------------------------------------
// Fork and exit with swap PTEs (stock kernel).
// ---------------------------------------------------------------------------

TEST(SwapTest, StockForkCopiesSwapPtesAndExitReleasesSlots) {
  Kernel kernel(SwapParams(32, 16));
  Task* parent = kernel.CreateTask("parent");
  const VirtAddr base = MapAndWrite(kernel, *parent, 16, 0x40000000);
  ASSERT_EQ(SwapOutAll(kernel, 16), 16u);

  // A stock fork duplicates each swap PTE into the child's own page
  // table, with a slot reference per copy.
  const ForkOutcome fork = kernel.Fork(*parent, "child");
  Task* child = fork.child;
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(fork.stats.slots_shared, 0u);
  EXPECT_GE(fork.stats.ptes_copied, 16u);
  const auto swaps = SwapPtesIn(*parent, base, 16);
  ASSERT_EQ(swaps.size(), 16u);
  EXPECT_EQ(SwapPtesIn(*child, base, 16).size(), 16u);
  for (const auto& [va, slot] : swaps) {
    EXPECT_EQ(kernel.zram().SlotRefCount(slot), 2u);
  }
  ExpectAuditOk(kernel, "after fork");

  // The parent's exit releases its references; the child's swap PTEs keep
  // every slot alive.
  kernel.Exit(*parent);
  for (const auto& [va, slot] : swaps) {
    EXPECT_EQ(kernel.zram().SlotRefCount(slot), 1u);
  }
  EXPECT_EQ(kernel.zram().live_slots(), 16u);
  ExpectAuditOk(kernel, "after parent exit");

  // The child can still fault everything in (the whole point of swap
  // PTEs surviving fork), and its exit empties the store.
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(
        kernel.TouchPage(*child, base + i * kPageSize, AccessType::kRead));
  }
  kernel.Exit(*child);
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
  EXPECT_EQ(kernel.zram().stored_bytes(), 0u);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kZram), 0u);
  ExpectAuditOk(kernel, "after child exit");
}

// ---------------------------------------------------------------------------
// ENOMEM during swap-in.
// ---------------------------------------------------------------------------

TEST(SwapTest, SwapInEnomemRollsBackCleanly) {
  Kernel kernel(SwapParams(32, 16));
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAndWrite(kernel, *task, 8, 0x40000000);
  ASSERT_EQ(SwapOutAll(kernel, 8), 8u);
  const auto swaps = SwapPtesIn(*task, base, 8);
  ASSERT_EQ(swaps.size(), 8u);
  const auto [va, slot] = swaps[0];
  const uint32_t refs_before = kernel.zram().SlotRefCount(slot);

  // Fail the frame allocation the decompress needs, driving the fault
  // handler directly (the kernel wrapper would reclaim-and-retry).
  kernel.fault_injector().SetRule(AllocSite::kFrame, FaultRule{0, 1, 0.0});
  MemoryAbort abort;
  abort.status = FaultStatus::kTranslation;
  abort.fault_address = va;
  abort.access = AccessType::kRead;
  const FaultOutcome outcome = kernel.vm().HandleFault(*task->mm, abort);
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.oom);

  // Nothing moved: the PTE is still a swap entry for the same slot, the
  // refcount is unchanged, no cache entry appeared.
  const auto ref = task->mm->page_table().FindPte(va);
  ASSERT_TRUE(ref.has_value());
  EXPECT_TRUE(ref->ptp->sw(ref->index).is_swap());
  EXPECT_EQ(ref->ptp->sw(ref->index).swap_slot(), slot);
  EXPECT_EQ(kernel.zram().SlotRefCount(slot), refs_before);
  EXPECT_EQ(kernel.zram().CacheLookup(slot), ZramStore::kNoFrame);
  ExpectAuditOk(kernel, "after injected ENOMEM");

  // With the injector off the same access succeeds.
  kernel.fault_injector().Reset();
  EXPECT_TRUE(kernel.TouchPage(*task, va, AccessType::kRead));
  ExpectAuditOk(kernel, "after retry");
  kernel.Exit(*task);
  ExpectAuditOk(kernel, "after exit");
}

// ---------------------------------------------------------------------------
// Clean swap-cache pages re-swap without recompressing.
// ---------------------------------------------------------------------------

TEST(SwapTest, CleanCachedPageIsDroppedWithoutRecompressing) {
  Kernel kernel(SwapParams(32, 16));
  Task* parent = kernel.CreateTask("parent");
  const VirtAddr base = MapAndWrite(kernel, *parent, 4, 0x40000000);
  ASSERT_EQ(SwapOutAll(kernel, 4), 4u);
  // A stock fork keeps a second swap PTE per slot, so slots survive the
  // parent's swap-ins and the cache association persists.
  Task* child = kernel.Fork(*parent, "child").child;
  ASSERT_NE(child, nullptr);

  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        kernel.TouchPage(*parent, base + i * kPageSize, AccessType::kRead));
  }
  EXPECT_EQ(kernel.zram().cached_entries(), 4u);
  const uint64_t stored_total = kernel.zram().pages_stored_total();
  ExpectAuditOk(kernel, "after cached swap-in");

  // The pages were only read, so the compressed copies are still current:
  // re-swapping them must reuse the slots (no new compression), just
  // dropping the clean decompressed frames.
  EXPECT_EQ(SwapOutAll(kernel, 4), 4u);
  EXPECT_EQ(kernel.counters().swap_clean_drops, 4u);
  EXPECT_EQ(kernel.zram().pages_stored_total(), stored_total);
  EXPECT_EQ(kernel.zram().cached_entries(), 0u);
  for (const auto& [va, slot] : SwapPtesIn(*parent, base, 4)) {
    EXPECT_EQ(kernel.zram().SlotRefCount(slot), 2u);
  }
  ExpectAuditOk(kernel, "after clean drop");

  kernel.Exit(*parent);
  kernel.Exit(*child);
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
  ExpectAuditOk(kernel, "after exits");
}

// ---------------------------------------------------------------------------
// Emulated referenced/dirty bits.
// ---------------------------------------------------------------------------

TEST(SwapTest, AccessBitsDriveAgingAndDirtyTracking) {
  Kernel kernel(SwapParams(32, 16));
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAndWrite(kernel, *task, 4, 0x40000000);
  PageTable& pt = task->mm->page_table();

  const auto sw_at = [&](VirtAddr va) {
    const auto ref = pt.FindPte(va);
    EXPECT_TRUE(ref.has_value());
    return ref->ptp->sw(ref->index);
  };

  // A write leaves young + dirty set.
  EXPECT_TRUE(sw_at(base).young());
  EXPECT_TRUE(sw_at(base).dirty());

  // The first swap-out pass harvests the referenced bits instead of
  // evicting (second chance): pages stay resident, young goes false.
  EXPECT_EQ(kernel.SwapOutAnonPages(4), 0u);
  EXPECT_EQ(kernel.counters().lru_activations, 4u);
  EXPECT_FALSE(sw_at(base).young());
  EXPECT_TRUE(sw_at(base).dirty());  // harvest clears reference, not dirty

  // A read re-marks the page referenced, rescuing it from eviction while
  // the untouched pages are reclaimed around it.
  EXPECT_TRUE(kernel.TouchPage(*task, base, AccessType::kRead));
  EXPECT_TRUE(sw_at(base).young());
  EXPECT_EQ(SwapOutAll(kernel, 3), 3u);
  EXPECT_FALSE(sw_at(base).is_swap());
  EXPECT_EQ(SwapPtesIn(*task, base, 4).size(), 3u);
  ExpectAuditOk(kernel, "after selective eviction");

  // A swapped-in page starts clean; only a write dirties it again.
  EXPECT_TRUE(
      kernel.TouchPage(*task, base + kPageSize, AccessType::kRead));
  EXPECT_FALSE(sw_at(base + kPageSize).dirty());
  EXPECT_TRUE(
      kernel.TouchPage(*task, base + kPageSize, AccessType::kWrite));
  EXPECT_TRUE(sw_at(base + kPageSize).dirty());
  ExpectAuditOk(kernel, "after dirty tracking");
  kernel.Exit(*task);
}

// ---------------------------------------------------------------------------
// kswapd keeps the machine out of the OOM killer.
// ---------------------------------------------------------------------------

TEST(SwapTest, KswapdHoldsWatermarksWithoutOomKills) {
  // 16 MB of RAM (4096 frames; watermarks 256/384) against a ~17.6 MB
  // anonymous working set: only background + direct swap-out can make
  // this fit. No OOM kill is acceptable.
  Kernel kernel(SwapParams(16, 32));
  Task* task = kernel.CreateTask("hog");
  const uint32_t pages = 4500;
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x40000000;
  ASSERT_NE(kernel.Mmap(*task, request).value, 0u);
  for (uint32_t i = 0; i < pages; ++i) {
    ASSERT_EQ(kernel.TouchPageStatus(*task, 0x40000000 + i * kPageSize,
                                     AccessType::kWrite),
              TouchStatus::kOk)
        << "page " << i << " with " << kernel.phys().free_frames()
        << " free frames";
  }

  EXPECT_EQ(kernel.counters().oom_kills, 0u);
  EXPECT_GT(kernel.counters().kswapd_runs, 0u);
  EXPECT_GT(kernel.counters().kswapd_pages, 0u);
  EXPECT_GT(kernel.counters().swap_outs, 0u);
  EXPECT_GT(kernel.phys().free_frames(), 0u);
  ExpectAuditOk(kernel, "after pressure");

  kernel.Exit(*task);
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kZram), 0u);
  ExpectAuditOk(kernel, "after exit");
}

// ---------------------------------------------------------------------------
// The auditor actually detects swap corruption.
// ---------------------------------------------------------------------------

TEST(SwapTest, AuditorCatchesSkewedSlotRefcount) {
  Kernel kernel(SwapParams(32, 16));
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAndWrite(kernel, *task, 4, 0x40000000);
  ASSERT_EQ(SwapOutAll(kernel, 4), 4u);
  const auto swaps = SwapPtesIn(*task, base, 4);
  ASSERT_FALSE(swaps.empty());
  const SwapSlotId slot = swaps[0].second;

  ExpectAuditOk(kernel, "healthy baseline");

  // Inject a reference from nowhere; the recount must flag it.
  kernel.zram().Ref(slot);
  const AuditReport skewed = kernel.AuditInvariants();
  EXPECT_FALSE(skewed.ok());
  EXPECT_NE(skewed.ToString().find("swap-slot-refcount"), std::string::npos)
      << skewed.ToString();

  kernel.zram().Unref(slot);
  ExpectAuditOk(kernel, "after repair");
  kernel.Exit(*task);
  ExpectAuditOk(kernel, "after exit");
}

}  // namespace
}  // namespace sat
