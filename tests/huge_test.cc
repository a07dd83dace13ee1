// The translation-reach engine (src/huge): khugepaged-style collapse of
// 64 KB runs into large PTEs (in place when the frames already line up,
// by migration otherwise), demotion back to 4 KB on partial munmap /
// mprotect / COW, the interactions with shared PTPs (one in-place
// promotion serves every sharer; migration privatizes first), KSM stable
// frames (skip by default, unmerge under the opt-in policy), swap
// entries, injected ENOMEM, scrubd's replica-vote repair, and the
// boot-time 1 MB sections over the zygote's preloaded code.

#include <gtest/gtest.h>

#include "src/core/sat.h"

namespace sat {
namespace {

KernelParams SmallParams(uint64_t phys_mb = 32, uint64_t swap_mb = 0) {
  KernelParams params;
  params.phys_bytes = phys_mb * 1024 * 1024;
  params.swap_bytes = swap_mb * 1024 * 1024;
  params.huge = true;
  return params;
}

// Maps `pages` anonymous RW pages at `base` (64 KB-aligned in every test
// so whole blocks qualify for collapse).
VirtAddr MapAnon(Kernel& kernel, Task& task, uint32_t pages, VirtAddr base,
                 bool mergeable = false) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = base;
  request.mergeable = mergeable;
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

bool LargeAt(Task& task, VirtAddr va) {
  const auto ref = task.mm->page_table().FindPte(va);
  return ref.has_value() && ref->ptp->hw(ref->index).large();
}

// True iff all 16 replicas of the block at `base` are large and name the
// expected contiguous frames.
bool BlockIsCollapsed(Task& task, VirtAddr base) {
  const FrameNumber first = FrameAt(task, base);
  if (first == static_cast<FrameNumber>(-1) || first % kPtesPerLargePage != 0) {
    return false;
  }
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    const VirtAddr va = base + i * kPageSize;
    if (!LargeAt(task, va) || FrameAt(task, va) != first + i) {
      return false;
    }
  }
  return true;
}

void ExpectAuditOk(Kernel& kernel, const char* where) {
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << where << ":\n" << report.ToString();
}

// ---------------------------------------------------------------------------
// Collapse.
// ---------------------------------------------------------------------------

TEST(HugeTest, CollapsesEligibleRunByMigration) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_EQ(kernel.WritePage(*task, base + i * kPageSize, 100 + i),
              TouchStatus::kOk);
  }

  EXPECT_EQ(kernel.RunHugeScan(), 1u);
  EXPECT_EQ(kernel.counters().huge_scans, 1u);
  EXPECT_EQ(kernel.counters().huge_collapses, 1u);
  EXPECT_EQ(kernel.counters().huge_pages_migrated, 16u);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  // The migration preserved every page's content.
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(kernel.phys().frame(FrameAt(*task, base + i * kPageSize)).content,
              100 + i);
  }
  ExpectAuditOk(kernel, "after collapse");

  // A second pass finds nothing: collapsed blocks are skipped.
  EXPECT_EQ(kernel.RunHugeScan(), 0u);
  EXPECT_EQ(kernel.counters().huge_collapses, 1u);
  ExpectAuditOk(kernel, "after idle rescan");

  kernel.Exit(*task);
  ExpectAuditOk(kernel, "after exit");
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
}

TEST(HugeTest, UnalignedAndPartialBlocksAreSkipped) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  // 8 pages: no full 64 KB block fits.
  const VirtAddr small = MapAnon(kernel, *task, 8, 0x40000000);
  // 16 pages but starting half-way into a 64 KB block.
  const VirtAddr skewed = MapAnon(kernel, *task, 16, 0x50008000);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.WritePage(*task, small + i * kPageSize, 1);
  }
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, skewed + i * kPageSize, 2);
  }
  EXPECT_EQ(kernel.RunHugeScan(), 0u);
  EXPECT_EQ(kernel.counters().huge_collapses, 0u);
  ExpectAuditOk(kernel, "after scan");
}

TEST(HugeTest, ZeroFilledRunIsNotWorthCollapsing) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  // Read faults only: every PTE maps the shared zero frame.
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(kernel.TouchPage(*task, base + i * kPageSize,
                                 AccessType::kRead));
  }
  EXPECT_EQ(kernel.RunHugeScan(), 0u);
  ExpectAuditOk(kernel, "after scan");
}

// huge_pages_scanned added by one pass over a task whose one region is the
// 64 KB block at 0x40000000, after `shape` prepared that block. Sets
// `*collapsed` to the pass's collapse count.
template <typename Shape>
uint64_t PagesScannedOverOneBlock(Shape&& shape, uint32_t* collapsed) {
  Kernel kernel(SmallParams(32, /*swap_mb=*/16));
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  shape(kernel, *task, base);
  const uint64_t before = kernel.counters().huge_pages_scanned;
  *collapsed = kernel.RunHugeScan();
  ExpectAuditOk(kernel, "after scan");
  return kernel.counters().huge_pages_scanned - before;
}

void WriteBlock(Kernel& kernel, Task& task, VirtAddr base) {
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    ASSERT_EQ(kernel.WritePage(task, base + i * kPageSize, 100 + i),
              TouchStatus::kOk);
  }
}

// The scan counts every PTE it reads: none without a PTP, one when the
// first PTE already breaks the run, k + 1 for a run broken at PTE k, and
// all 16 for a run it collapses.
TEST(HugeTest, ScanCountsThePtesItReads) {
  uint32_t collapsed = 0;
  EXPECT_EQ(PagesScannedOverOneBlock([](Kernel&, Task&, VirtAddr) {},
                                     &collapsed),
            0u)
      << "no PTP";

  EXPECT_EQ(PagesScannedOverOneBlock(
                [](Kernel& kernel, Task& task, VirtAddr base) {
                  for (uint32_t i = 1; i < kPtesPerLargePage; ++i) {
                    kernel.WritePage(task, base + i * kPageSize, 100 + i);
                  }
                },
                &collapsed),
            1u)
      << "invalid first PTE";

  EXPECT_EQ(PagesScannedOverOneBlock(
                [](Kernel& kernel, Task& task, VirtAddr base) {
                  WriteBlock(kernel, task, base);
                  const auto first = [&] {
                    const auto ref = task.mm->page_table().FindPte(base);
                    return ref->ptp->sw(ref->index);
                  };
                  for (int pass = 0; pass < 8 && !first().is_swap(); ++pass) {
                    kernel.SwapOutAnonPages(kPtesPerLargePage);
                  }
                  ASSERT_TRUE(first().is_swap());
                },
                &collapsed),
            1u)
      << "swap first PTE";

  EXPECT_EQ(PagesScannedOverOneBlock(
                [](Kernel& kernel, Task& task, VirtAddr base) {
                  WriteBlock(kernel, task, base);
                  ASSERT_EQ(kernel.RunHugeScan(), 1u);
                },
                &collapsed),
            1u)
      << "already-large first PTE";
  EXPECT_EQ(collapsed, 0u);

  for (const uint32_t k : {1u, 5u, 15u}) {
    // PTE k maps the zero frame: a read fault, never written.
    EXPECT_EQ(PagesScannedOverOneBlock(
                  [k](Kernel& kernel, Task& task, VirtAddr base) {
                    for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
                      const VirtAddr va = base + i * kPageSize;
                      if (i == k) {
                        ASSERT_TRUE(
                            kernel.TouchPage(task, va, AccessType::kRead));
                      } else {
                        kernel.WritePage(task, va, 100 + i);
                      }
                    }
                  },
                  &collapsed),
              k + 1)
        << "run broken at PTE " << k;
    EXPECT_EQ(collapsed, 0u);
  }

  EXPECT_EQ(PagesScannedOverOneBlock(WriteBlock, &collapsed),
            kPtesPerLargePage)
      << "collapsible";
  EXPECT_EQ(collapsed, 1u);
}

// ---------------------------------------------------------------------------
// Demotion: munmap / mprotect / COW.
// ---------------------------------------------------------------------------

TEST(HugeTest, PartialMunmapSplitsTheBlock) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  ASSERT_EQ(kernel.RunHugeScan(), 1u);
  const FrameNumber first = FrameAt(*task, base);

  // Punch a 4-page hole in the middle: the block must demote to 4 KB
  // PTEs first so the survivors keep precise mappings.
  ASSERT_TRUE(kernel.Munmap(*task, base + 4 * kPageSize, 4 * kPageSize).ok());
  EXPECT_EQ(kernel.counters().huge_splits, 1u);
  for (uint32_t i = 0; i < 16; ++i) {
    const VirtAddr va = base + i * kPageSize;
    EXPECT_FALSE(LargeAt(*task, va)) << "page " << i;
    if (i >= 4 && i < 8) {
      EXPECT_EQ(FrameAt(*task, va), static_cast<FrameNumber>(-1));
    } else {
      // Survivors still map their slice of the once-contiguous run.
      EXPECT_EQ(FrameAt(*task, va), first + i);
    }
  }
  ExpectAuditOk(kernel, "after partial munmap");

  kernel.Exit(*task);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
}

TEST(HugeTest, MprotectSplitsOnlyPartiallyCoveredBlocks) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 32, 0x40000000);
  for (uint32_t i = 0; i < 32; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 7);
  }
  ASSERT_EQ(kernel.RunHugeScan(), 2u);

  // A protection change covering a whole block keeps it large: the
  // replicas are rewritten uniformly, so the run stays intact.
  ASSERT_TRUE(
      kernel.Mprotect(*task, base, 16 * kPageSize, VmProt::ReadOnly()).ok());
  EXPECT_TRUE(LargeAt(*task, base));
  EXPECT_EQ(kernel.counters().huge_splits, 0u);
  ExpectAuditOk(kernel, "after full-block mprotect");

  // A change cutting into a block splits it.
  const VirtAddr second = base + 16 * kPageSize;
  ASSERT_TRUE(kernel.Mprotect(*task, second + 8 * kPageSize, 8 * kPageSize,
                              VmProt::ReadOnly())
                  .ok());
  EXPECT_FALSE(LargeAt(*task, second));
  EXPECT_EQ(kernel.counters().huge_splits, 1u);
  ExpectAuditOk(kernel, "after partial mprotect");

  // The split block stays 4 KB: the mprotect also split the region, so
  // no single anonymous VMA fully contains the 64 KB block any more (and
  // its halves differ in permission besides).
  EXPECT_EQ(kernel.RunHugeScan(), 0u);
  EXPECT_EQ(kernel.counters().huge_collapses, 2u);
  ExpectAuditOk(kernel, "after rescan of split block");
}

TEST(HugeTest, CowWriteSplitsOnlyTheWriterAfterFork) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("parent");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  ASSERT_EQ(kernel.RunHugeScan(), 1u);

  // The stock fork copies the large replicas (write-protected) into the
  // child: both sides keep the collapsed view of the shared frames.
  Task* child = kernel.Fork(*task, "child").child;
  ASSERT_NE(child, nullptr);
  EXPECT_TRUE(BlockIsCollapsed(*child, base));
  EXPECT_EQ(FrameAt(*child, base), FrameAt(*task, base));
  ExpectAuditOk(kernel, "after fork");

  // The child's COW write demotes its copy of the block before the 4 KB
  // copy-on-write; the parent's stays collapsed.
  ASSERT_EQ(kernel.WritePage(*child, base + 2 * kPageSize, 9),
            TouchStatus::kOk);
  EXPECT_FALSE(LargeAt(*child, base + 2 * kPageSize));
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  EXPECT_EQ(kernel.counters().huge_splits, 1u);
  EXPECT_NE(FrameAt(*child, base + 2 * kPageSize),
            FrameAt(*task, base + 2 * kPageSize));
  EXPECT_EQ(kernel.phys().frame(FrameAt(*child, base + 2 * kPageSize)).content,
            9u);
  ExpectAuditOk(kernel, "after COW write");

  kernel.Exit(*child);
  kernel.Exit(*task);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
}

// ---------------------------------------------------------------------------
// Shared PTPs.
// ---------------------------------------------------------------------------

TEST(HugeTest, InPlacePromotionServesEverySharer) {
  KernelParams params = SmallParams();
  params.vm.share_ptps = true;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("parent");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  // Collapse while private, then fork: the child shares the PTP that
  // already holds the large run — no per-child work at all.
  ASSERT_EQ(kernel.RunHugeScan(), 1u);
  Task* child = kernel.Fork(*task, "child").child;
  ASSERT_NE(child, nullptr);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  EXPECT_TRUE(BlockIsCollapsed(*child, base));
  EXPECT_EQ(FrameAt(*task, base), FrameAt(*child, base));
  EXPECT_EQ(kernel.counters().huge_unshares, 0u);
  ExpectAuditOk(kernel, "after fork of collapsed block");

  // A child write privatizes the slot (lazy unshare) and demotes only
  // the private copy.
  ASSERT_EQ(kernel.WritePage(*child, base + 5 * kPageSize, 9),
            TouchStatus::kOk);
  EXPECT_FALSE(LargeAt(*child, base + 5 * kPageSize));
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  ExpectAuditOk(kernel, "after child COW write");

  kernel.Exit(*child);
  kernel.Exit(*task);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
}

TEST(HugeTest, MigrationUnderSharedPtpPrivatizesFirst) {
  KernelParams params = SmallParams();
  params.vm.share_ptps = true;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("parent");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 55);
  }
  Task* child = kernel.Fork(*task, "child").child;
  ASSERT_NE(child, nullptr);

  // Both address spaces hold the scattered run in a NEED_COPY slot.
  // Migration repoints PTEs, so each collapse must unshare first — one
  // per address space, unlike the in-place path.
  EXPECT_EQ(kernel.RunHugeScan(), 2u);
  EXPECT_EQ(kernel.counters().huge_unshares, 2u);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  EXPECT_TRUE(BlockIsCollapsed(*child, base));
  // Separate contiguous blocks: the collapse broke the fork sharing.
  EXPECT_NE(FrameAt(*task, base), FrameAt(*child, base));
  ExpectAuditOk(kernel, "after shared-slot collapse");

  kernel.Exit(*child);
  kernel.Exit(*task);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
}

// ---------------------------------------------------------------------------
// KSM interaction.
// ---------------------------------------------------------------------------

TEST(HugeTest, KsmStableFrameBlocksCollapseByDefault) {
  KernelParams params = SmallParams();
  params.ksm_enabled = true;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000,
                                /*mergeable=*/true);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, i < 2 ? 7 : 100 + i);
  }
  kernel.RunKsmScan();
  ASSERT_EQ(kernel.RunKsmScan(), 1u);  // the two 7-pages merged
  ASSERT_EQ(kernel.ksm().pages_shared(), 1u);

  // Deduplicated content wins by default: the run is ineligible.
  EXPECT_EQ(kernel.RunHugeScan(), 0u);
  EXPECT_EQ(kernel.counters().huge_collapses, 0u);
  EXPECT_EQ(kernel.counters().huge_ksm_unmerges, 0u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 1u);
  ExpectAuditOk(kernel, "after skipped collapse");
}

TEST(HugeTest, UnmergePolicyTradesDedupBackForReach) {
  KernelParams params = SmallParams();
  params.ksm_enabled = true;
  params.huge_unmerge_ksm = true;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000,
                                /*mergeable=*/true);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, i < 2 ? 7 : 100 + i);
  }
  kernel.RunKsmScan();
  ASSERT_EQ(kernel.RunKsmScan(), 1u);
  ASSERT_EQ(kernel.ksm().pages_shared(), 1u);

  // The collapse copies the stable frame's content out into the new
  // contiguous block — an unmerge per stable replica — and the stable
  // frame dies with its last mapping.
  EXPECT_EQ(kernel.RunHugeScan(), 1u);
  EXPECT_EQ(kernel.counters().huge_ksm_unmerges, 2u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 0u);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  EXPECT_EQ(kernel.phys().frame(FrameAt(*task, base)).content, 7u);
  EXPECT_EQ(kernel.phys().frame(FrameAt(*task, base + kPageSize)).content, 7u);
  ExpectAuditOk(kernel, "after unmerging collapse");

  kernel.Exit(*task);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
  EXPECT_EQ(kernel.ksm().pages_shared(), 0u);
}

// ---------------------------------------------------------------------------
// Swap interaction.
// ---------------------------------------------------------------------------

TEST(HugeTest, SwapEntryBreaksTheRun) {
  Kernel kernel(SmallParams(32, /*swap_mb=*/16));
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  uint32_t freed = 0;
  for (int pass = 0; pass < 8 && freed < 8; ++pass) {
    freed += kernel.SwapOutAnonPages(8 - freed);
  }
  ASSERT_GT(freed, 0u);
  uint32_t non_resident = 0;
  for (uint32_t i = 0; i < 16; ++i) {
    if (FrameAt(*task, base + i * kPageSize) == static_cast<FrameNumber>(-1)) {
      non_resident++;
    }
  }
  ASSERT_GT(non_resident, 0u);

  // Swap entries break the run until their pages fault back in.
  EXPECT_EQ(kernel.RunHugeScan(), 0u);
  EXPECT_EQ(kernel.counters().huge_collapses, 0u);
  ExpectAuditOk(kernel, "after scan over swapped run");

  // Fault everything back in and make the permissions uniform again (a
  // swap-in read fault maps the page read-only until the next write).
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_EQ(kernel.WritePage(*task, base + i * kPageSize, 200 + i),
              TouchStatus::kOk);
  }
  EXPECT_EQ(kernel.RunHugeScan(), 1u);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  ExpectAuditOk(kernel, "after fault-back collapse");

  kernel.Exit(*task);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
}

// ---------------------------------------------------------------------------
// ENOMEM.
// ---------------------------------------------------------------------------

TEST(HugeTest, InjectedEnomemAbandonsTheCollapseCleanly) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  const FrameNumber before = FrameAt(*task, base);

  // Every contiguous allocation fails: migration abandons with nothing
  // touched — same frames, same (small) PTEs, clean audit.
  kernel.fault_injector().SetRule(AllocSite::kContiguous, FaultRule{0, 1, 0.0});
  EXPECT_EQ(kernel.RunHugeScan(), 0u);
  EXPECT_EQ(kernel.counters().huge_collapses, 0u);
  EXPECT_GE(kernel.counters().huge_collapse_failures, 1u);
  EXPECT_FALSE(LargeAt(*task, base));
  EXPECT_EQ(FrameAt(*task, base), before);
  ExpectAuditOk(kernel, "after abandoned collapse");

  // With the rule lifted the same block collapses.
  kernel.fault_injector().SetRule(AllocSite::kContiguous, FaultRule{});
  EXPECT_EQ(kernel.RunHugeScan(), 1u);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  ExpectAuditOk(kernel, "after retry");
}

// ---------------------------------------------------------------------------
// Scrub interaction: replica-vote repair.
// ---------------------------------------------------------------------------

TEST(HugeTest, ScrubRepairsRottenLargeReplicaByMajorityVote) {
  KernelParams params = SmallParams();
  params.scrub = true;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  ASSERT_EQ(kernel.RunHugeScan(), 1u);

  // Flip the large bit on one replica: fifteen bit-identical siblings
  // outvote it and scrubd rewrites the word from their exemplar.
  const auto rotted = task->mm->page_table().FindPte(base + 3 * kPageSize);
  ASSERT_TRUE(rotted.has_value());
  rotted->ptp->CorruptHwForChaos(rotted->index, 1u << 8);
  ASSERT_FALSE(LargeAt(*task, base + 3 * kPageSize));
  uint32_t repairs = 0;
  for (int pass = 0; pass < 4; ++pass) {
    repairs += kernel.RunScrubPass();
  }
  EXPECT_GE(repairs, 1u);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  ExpectAuditOk(kernel, "after large-bit repair");

  // A frame-bit flip on another replica is repaired the same way.
  const auto rotted2 = task->mm->page_table().FindPte(base + 7 * kPageSize);
  rotted2->ptp->CorruptHwForChaos(rotted2->index, 1u << 12);
  repairs = 0;
  for (int pass = 0; pass < 4; ++pass) {
    repairs += kernel.RunScrubPass();
  }
  EXPECT_GE(repairs, 1u);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  ExpectAuditOk(kernel, "after frame-bit repair");
}

// ---------------------------------------------------------------------------
// smaps and tracing.
// ---------------------------------------------------------------------------

TEST(HugeTest, SmapsReportsHugePages) {
  Kernel kernel(SmallParams());
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 32, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  ASSERT_EQ(kernel.RunHugeScan(), 1u);

  const SmapsReport report =
      GenerateSmaps(*task->mm, kernel.ptp_allocator(), &kernel.rmap(),
                    &kernel.phys());
  ASSERT_FALSE(report.vmas.empty());
  const VmaReport* row = nullptr;
  for (const VmaReport& vma : report.vmas) {
    if (vma.start == base) {
      row = &vma;
    }
  }
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->rss_kb, 64u);
  EXPECT_EQ(row->huge_kb, 64u);  // exactly the collapsed block
  EXPECT_EQ(report.total_huge_kb, 64u);
  EXPECT_NE(report.ToString().find("HugePages"), std::string::npos);
}

TEST(HugeTest, TraceRecordsCollapseAndSplitEvents) {
  KernelParams params = SmallParams();
  params.trace.enabled = true;
  params.trace.capacity = 1 << 10;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  ASSERT_EQ(kernel.RunHugeScan(), 1u);
  ASSERT_TRUE(kernel.Munmap(*task, base + 4 * kPageSize, 4 * kPageSize).ok());

  bool saw_collapse = false;
  bool saw_split = false;
  for (const TraceEvent& event : kernel.tracer().Events()) {
    if (event.type == TraceEventType::kHugeCollapse) {
      saw_collapse = true;
      EXPECT_EQ(event.a, VirtPageNumber(base));
      EXPECT_EQ(event.b, 1u);  // collapsed by migration
    }
    if (event.type == TraceEventType::kHugeSplit) {
      saw_split = true;
      EXPECT_EQ(event.a, VirtPageNumber(base));
      EXPECT_EQ(event.b,
                static_cast<uint64_t>(HugeSplitReason::kMunmap));
    }
  }
  EXPECT_TRUE(saw_collapse);
  EXPECT_TRUE(saw_split);
  EXPECT_EQ(kernel.tracer().histogram(TraceEventType::kHugeCollapse).count(),
            1u);
}

// ---------------------------------------------------------------------------
// Periodic wake-ups.
// ---------------------------------------------------------------------------

TEST(HugeTest, PeriodicWakeRunsTheDaemonFromTheTouchPath) {
  KernelParams params = SmallParams();
  params.huge_wake_interval = 64;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("app");
  const VirtAddr base = MapAnon(kernel, *task, 16, 0x40000000);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.WritePage(*task, base + i * kPageSize, 100 + i);
  }
  // Touch traffic drives the wake counter past the interval; huged runs
  // from the same wake points as kswapd/ksmd and collapses the block.
  for (uint32_t i = 0; i < 256 && kernel.counters().huge_scans == 0; ++i) {
    kernel.TouchPage(*task, base, AccessType::kRead);
  }
  EXPECT_GE(kernel.counters().huge_scans, 1u);
  EXPECT_EQ(kernel.counters().huge_collapses, 1u);
  EXPECT_TRUE(BlockIsCollapsed(*task, base));
  ExpectAuditOk(kernel, "after periodic collapse");
}

// ---------------------------------------------------------------------------
// Boot-time 1 MB sections over the zygote's preloaded code.
// ---------------------------------------------------------------------------

VirtAddr FirstSectionVa(Task& task) {
  const PageTable& pt = task.mm->page_table();
  for (uint64_t va = 0; va < kUserSpaceEnd; va += kSectionSize) {
    if (pt.SectionAt(static_cast<VirtAddr>(va)) != nullptr) {
      return static_cast<VirtAddr>(va);
    }
  }
  return 0;
}

TEST(HugeSectionTest, BootMapsZygoteCodeWithSections) {
  System system(ConfigByName("huge"));
  Kernel& kernel = system.kernel();
  Task* zygote = system.android().zygote();

  EXPECT_GT(kernel.counters().huge_sections_mapped, 0u);
  const VirtAddr section_va = FirstSectionVa(*zygote);
  ASSERT_NE(section_va, 0u);
  const SectionDesc* section =
      zygote->mm->page_table().SectionAt(section_va);
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->base % kPtesPerSection, 0u);
  EXPECT_TRUE(section->executable);

  // Execution through the section works; writing into the read-only
  // zygote code does not.
  EXPECT_TRUE(kernel.TouchPage(*zygote, section_va + 5 * kPageSize,
                               AccessType::kExecute));
  EXPECT_EQ(kernel.TouchPageStatus(*zygote, section_va, AccessType::kWrite),
            TouchStatus::kSigSegv);

  // The section halves show up as resident huge pages in smaps.
  const SmapsReport report = GenerateSmaps(
      *zygote->mm, kernel.ptp_allocator(), &kernel.rmap(), &kernel.phys());
  EXPECT_GE(report.total_huge_kb,
            kernel.counters().huge_sections_mapped * (kSectionSize / 1024));

  const AuditReport audit = kernel.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(HugeSectionTest, ForkedAppInheritsSections) {
  System system(ConfigByName("huge"));
  Kernel& kernel = system.kernel();
  Task* zygote = system.android().zygote();
  const VirtAddr section_va = FirstSectionVa(*zygote);
  ASSERT_NE(section_va, 0u);

  Task* app = system.android().ForkApp("app");
  ASSERT_NE(app, nullptr);
  const SectionDesc* parent_section =
      zygote->mm->page_table().SectionAt(section_va);
  const SectionDesc* child_section =
      app->mm->page_table().SectionAt(section_va);
  ASSERT_NE(child_section, nullptr);
  EXPECT_EQ(child_section->base, parent_section->base);
  EXPECT_TRUE(kernel.TouchPage(*app, section_va, AccessType::kExecute));

  const AuditReport audit = kernel.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  kernel.Exit(*app);
  const AuditReport after = kernel.AuditInvariants();
  EXPECT_TRUE(after.ok()) << after.ToString();
}

}  // namespace
}  // namespace sat
