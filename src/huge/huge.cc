#include "src/huge/huge.h"

#include <utility>

#include "src/arch/check.h"
#include "src/pt/page_table.h"
#include "src/pt/ptp.h"
#include "src/trace/trace.h"
#include "src/vm/mm.h"

namespace sat {

HugeDaemon::HugeDaemon(PhysicalMemory* phys, VmManager* vm,
                       KernelCounters* counters)
    : phys_(phys), vm_(vm), counters_(counters) {
  SAT_CHECK(phys_ != nullptr && vm_ != nullptr && counters_ != nullptr);
}

uint32_t HugeDaemon::ScanOnce(const std::vector<MmStruct*>& targets) {
  uint32_t collapsed = 0;
  for (MmStruct* mm : targets) {
    SAT_CHECK(mm != nullptr);
    ScanTarget(*mm, &collapsed);
  }
  counters_->huge_scans++;
  return collapsed;
}

void HugeDaemon::ScanTarget(MmStruct& mm, uint32_t* collapsed) {
  // Snapshot the candidate ranges before touching any PTE; collapsing
  // never mutates the region list, but scanning off a snapshot keeps
  // that a non-assumption.
  std::vector<std::pair<VirtAddr, VirtAddr>> ranges;
  mm.ForEachVma([&](const VmArea& vma) {
    // Anonymous private memory only. Stacks are excluded for the same
    // reason the paper excludes them from PTP sharing (Section 4.2.1):
    // they are modified immediately and constantly, so a collapsed
    // stack block would be split again almost at once.
    if (vma.kind == VmKind::kAnonPrivate && !vma.is_stack) {
      ranges.emplace_back(vma.start, vma.end);
    }
  });
  PageTable& pt = mm.page_table();
  // One candidate run at a time. Declared per block, its zero-fill cost a
  // quarter of fleet host throughput.
  Replica replicas[kPtesPerLargePage];
  for (const auto& [start, end] : ranges) {
    // Only 64 KB-aligned blocks lying fully inside the region qualify.
    uint64_t va = (static_cast<uint64_t>(start) + kLargePageSize - 1) &
                  ~static_cast<uint64_t>(kLargePageSize - 1);
    while (va + kLargePageSize <= end) {
      const auto block = static_cast<VirtAddr>(va);
      const uint32_t slot = PtpSlotIndex(block);
      const L1Entry& entry = pt.l1(slot);
      if (!entry.present()) {
        // No PTP: no block of this slot has a PTE to scan.
        va = static_cast<uint64_t>(PtpSlotBase(slot)) + kPtpSpan;
        continue;
      }
      va += kLargePageSize;
      const RunClass cls = ClassifyBlock(
          PteRef{&pt.allocator().Get(entry.ptp), PteIndexInPtp(block)},
          replicas, /*count_scanned=*/true);
      bool done = false;
      if (cls == RunClass::kContiguous) {
        done = CollapseInPlace(mm, block);
      } else if (cls == RunClass::kScattered) {
        done = CollapseByMigration(mm, block, replicas);
      }
      if (done) {
        (*collapsed)++;
        counters_->huge_collapses++;
        Tracer::Emit(tracer_, TraceEventType::kHugeCollapse,
                     static_cast<uint32_t>(mm.page_table().owner()),
                     VirtPageNumber(block),
                     cls == RunClass::kScattered ? 1 : 0);
      }
    }
  }
}

HugeDaemon::RunClass HugeDaemon::ClassifyBlock(const PteRef& first,
                                               Replica* replicas,
                                               bool count_scanned) {
  bool have_perm = false;
  PtePerm perm = PtePerm::kReadOnly;
  bool any_stable = false;
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    const uint32_t index = first.index + i;
    if (count_scanned) {
      counters_->huge_pages_scanned++;
    }
    const HwPte hw = first.ptp->hw(index);
    const LinuxPte sw = first.ptp->sw(index);
    if (!hw.valid()) {
      // Not resident — including swap entries, which break the run until
      // their pages fault back in.
      return RunClass::kIneligible;
    }
    if (hw.large()) {
      return RunClass::kIneligible;  // already collapsed
    }
    const FrameNumber frame = MappedFrameOf(hw, index);
    if (frame == phys_->zero_frame()) {
      return RunClass::kIneligible;  // untouched zero fill: nothing to gain
    }
    const PageFrame& meta = phys_->frame(frame);
    if (meta.kind != FrameKind::kAnon) {
      return RunClass::kIneligible;  // page-cache pages are not movable here
    }
    const bool stable = meta.ksm_stable;
    if (stable && !unmerge_ksm_) {
      // Deduplicated content wins by default; the unmerge_ksm policy
      // trades the sharing back for reach.
      return RunClass::kIneligible;
    }
    any_stable |= stable;
    if (i > 0 && (hw.global() != replicas[0].hw.global() ||
                  hw.executable() != replicas[0].hw.executable())) {
      return RunClass::kIneligible;
    }
    // Permission uniformity over the non-stable replicas. Stable frames
    // are always mapped read-only and regain the run's permission when
    // their content is copied out by the migrate path.
    if (!stable) {
      if (!have_perm) {
        perm = hw.perm();
        have_perm = true;
      } else if (hw.perm() != perm) {
        return RunClass::kIneligible;
      }
    }
    replicas[i] = Replica{hw, sw, frame, stable};
  }
  if (!any_stable &&
      (replicas[0].frame % kPtesPerLargePage) == 0) {
    bool contiguous = true;
    for (uint32_t i = 1; i < kPtesPerLargePage; ++i) {
      if (replicas[i].frame != replicas[0].frame + i) {
        contiguous = false;
        break;
      }
    }
    if (contiguous) {
      return RunClass::kContiguous;
    }
  }
  return RunClass::kScattered;
}

bool HugeDaemon::CollapseInPlace(MmStruct& mm, VirtAddr block_base) {
  // A pure representation change: every sharer of the PTP keeps seeing
  // the same translations, so no unshare is needed — one promotion
  // serves all of them. Their cached 4 KB entries do go stale in the
  // sense that a better entry exists, so flush them for the reach win.
  PageTable& pt = mm.page_table();
  pt.PromoteRunInPlace(block_base);
  FlushRun(pt, block_base);
  return true;
}

bool HugeDaemon::CollapseByMigration(MmStruct& mm, VirtAddr block_base,
                                     Replica* replicas) {
  PageTable& pt = mm.page_table();
  if (pt.SlotNeedsCopy(block_base)) {
    // A shared PTP's entries are communal; migration repoints one
    // address space's PTEs, so the PTP must be privatized first (the
    // lazy unshare, exactly as KSM does it).
    Cycles cycles = 0;
    const std::optional<uint32_t> copied =
        vm_->UnshareIfNeeded(mm, block_base, &cycles);
    if (!copied.has_value()) {
      // ENOMEM: TryUnshareSlot left the slot untouched, so abandoning
      // the candidate rolls the collapse back completely.
      counters_->huge_collapse_failures++;
      return false;
    }
    counters_->huge_unshares++;
    // The copy-referenced-only unshare ablation drops unreferenced
    // entries; re-validate the run against the private copy.
    switch (ClassifyBlock(*pt.FindPte(block_base), replicas,
                          /*count_scanned=*/false)) {
      case RunClass::kIneligible:
        counters_->huge_collapse_failures++;
        return false;
      case RunClass::kContiguous:
        return CollapseInPlace(mm, block_base);
      case RunClass::kScattered:
        break;
    }
  }

  const std::optional<FrameNumber> base =
      phys_->TryAllocContiguousFrames(kPtesPerLargePage, FrameKind::kAnon);
  if (!base.has_value()) {
    // Fragmentation or exhaustion: a clean abandon, nothing was touched.
    counters_->huge_collapse_failures++;
    return false;
  }

  PtePerm perm = PtePerm::kReadOnly;
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    if (!replicas[i].ksm_stable) {
      perm = replicas[i].hw.perm();
      break;
    }
  }
  const bool global = replicas[0].hw.global();
  const bool executable = replicas[0].hw.executable();

  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    const VirtAddr va = block_base + i * kPageSize;
    const FrameNumber dst = *base + i;
    phys_->frame(dst).content = phys_->frame(replicas[i].frame).content;
    if (replicas[i].ksm_stable) {
      // Copying the content out of the stable frame is an unmerge: the
      // dedup is traded for reach (and the stable frame is freed if
      // this was its last mapping).
      counters_->huge_ksm_unmerges++;
    }
    LinuxPte sw = replicas[i].sw;
    sw.set_present(true);
    // The copy has no swap backing; it must be written out before it
    // can be dropped.
    sw.set_dirty(true);
    // SetPte references dst (large replica i maps base + i), releases
    // the scattered source frame, and fixes the rmap.
    pt.SetPte(va, HwPte::MakePage(*base, perm, global, executable,
                                  /*large=*/true),
              sw);
    phys_->UnrefFrame(dst);  // the allocator's ref; the PTE's keeps it live
  }
  counters_->huge_pages_migrated += kPtesPerLargePage;
  FlushRun(pt, block_base);
  return true;
}

void HugeDaemon::FlushRun(PageTable& pt, VirtAddr block_base) {
  const PtpId ptp = pt.FindPte(block_base)->ptp->id();
  const uint32_t index0 = PteIndexInPtp(block_base);
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    pt.allocator().FlushPte(ptp, index0 + i, /*global=*/false);
  }
}

}  // namespace sat
