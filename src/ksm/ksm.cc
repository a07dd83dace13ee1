#include "src/ksm/ksm.h"

#include <algorithm>
#include <utility>

#include "src/arch/check.h"
#include "src/pt/page_table.h"
#include "src/pt/ptp.h"
#include "src/pt/rmap.h"
#include "src/trace/trace.h"
#include "src/vm/mm.h"

namespace sat {

KsmDaemon::KsmDaemon(PhysicalMemory* phys, PtpAllocator* ptps,
                     ReverseMap* rmap, VmManager* vm,
                     KernelCounters* counters)
    : phys_(phys), ptps_(ptps), rmap_(rmap), vm_(vm), counters_(counters) {
  SAT_CHECK(phys_ != nullptr && ptps_ != nullptr && rmap_ != nullptr &&
            vm_ != nullptr && counters_ != nullptr);
}

uint32_t KsmDaemon::ScanOnce(const std::vector<MmStruct*>& targets) {
  // The unstable tree never survives a pass: its pages were not
  // write-protected, so their content may have changed at any time.
  unstable_.clear();
  uint32_t scanned = 0;
  uint32_t merged = 0;
  for (MmStruct* mm : targets) {
    SAT_CHECK(mm != nullptr);
    ScanTarget(*mm, &scanned, &merged);
  }
  unstable_.clear();
  counters_->ksm_scans++;
  Tracer::Emit(tracer_, TraceEventType::kKsmScan, 0, scanned, merged);
  return merged;
}

void KsmDaemon::ScanTarget(MmStruct& mm, uint32_t* scanned,
                           uint32_t* merged) {
  // Snapshot the mergeable ranges before touching any PTE; merging never
  // mutates the region list, but scanning off a snapshot keeps that a
  // non-assumption.
  std::vector<std::pair<VirtAddr, VirtAddr>> ranges;
  mm.ForEachVma([&](const VmArea& vma) {
    if (vma.mergeable && vma.kind == VmKind::kAnonPrivate) {
      ranges.emplace_back(vma.start, vma.end);
    }
  });
  const PageTable& pt = mm.page_table();
  for (const auto& [start, end] : ranges) {
    uint64_t va = start;
    while (va < end) {
      const uint32_t slot = PtpSlotIndex(static_cast<VirtAddr>(va));
      const uint64_t slot_base = PtpSlotBase(slot);
      const uint64_t slot_end = std::min<uint64_t>(slot_base + kPtpSpan, end);
      // The L1 entry is read again after every visit: a merge may have
      // unshared the slot into a fresh private PTP.
      const L1Entry& entry = pt.l1(slot);
      if (!entry.present()) {
        va = slot_end;  // unpopulated: nothing resident to merge
        continue;
      }
      // Only pending entries: every other one was found ineligible and
      // its word has not changed since.
      PageTablePage& ptp = ptps_->Get(entry.ptp);
      const auto end_index =
          static_cast<uint32_t>((slot_end - slot_base) / kPageSize);
      const uint32_t index = ptp.NextKsmPending(
          PteIndexInPtp(static_cast<VirtAddr>(va)), end_index);
      if (index == end_index) {
        va = slot_end;
        continue;
      }
      va = slot_base + (index + 1) * kPageSize;
      if (!ScanPage(mm, PteRef{&ptp, index}, scanned, merged)) {
        ptp.SettleKsm(index);
      }
    }
  }
}

bool KsmDaemon::ScanPage(MmStruct& mm, const PteRef& ref, uint32_t* scanned,
                         uint32_t* merged) {
  const VirtAddr va = ref.ptp->VaOf(ref.index);
  const HwPte hw = ref.ptp->hw(ref.index);
  if (!hw.valid()) {
    return false;  // swapped out or unpopulated: nothing resident to merge
  }
  if (hw.large()) {
    return false;  // 64 KB blocks are never merge candidates
  }
  const FrameNumber frame = MappedFrameOf(hw, ref.index);
  if (frame == phys_->zero_frame()) {
    return false;  // untouched zero-fill pages are already maximally shared
  }
  const PageFrame& meta = phys_->frame(frame);
  if (meta.kind != FrameKind::kAnon || meta.ksm_stable) {
    return false;  // only plain anonymous pages; stable pages are done
  }
  (*scanned)++;
  counters_->ksm_pages_scanned++;
  const uint64_t content = meta.content;

  // Stable-tree hit: a canonical frame with this content already exists.
  const auto stable_it = stable_.find(content);
  if (stable_it != stable_.end()) {
    if (MergeInto(mm, va, stable_it->second)) {
      (*merged)++;
    }
    return true;
  }

  // Checksum-skip: only pages whose content survived a full scan interval
  // unchanged may enter the unstable tree (Linux's oldchecksum test).
  const uint64_t key =
      (static_cast<uint64_t>(mm.page_table().owner()) << 32) |
      VirtPageNumber(va);
  const auto seen = last_checksum_.find(key);
  if (seen == last_checksum_.end() || seen->second != content) {
    last_checksum_[key] = content;
    return true;
  }

  const auto unstable_it = unstable_.find(content);
  if (unstable_it == unstable_.end()) {
    unstable_.emplace(content, Candidate{&mm, va, frame});
    return true;
  }
  Candidate& partner = unstable_it->second;
  if (!CandidateStillValid(partner, content)) {
    // The remembered page changed or vanished since it was inserted (the
    // unstable tree's defining hazard); the current page takes its place.
    partner = Candidate{&mm, va, frame};
    return true;
  }
  if (partner.frame == frame) {
    // Two PTEs already share this frame through COW. There is nothing to
    // merge, but promoting the frame lets later duplicates merge into it
    // and write-protects any writable mapping it still has.
    Promote(content, frame);
    unstable_.erase(unstable_it);
    return true;
  }
  // Second page with this content: the remembered partner becomes the
  // stable frame, the current page merges into it.
  const FrameNumber stable_frame = partner.frame;
  Promote(content, stable_frame);
  unstable_.erase(unstable_it);
  if (MergeInto(mm, va, stable_frame)) {
    (*merged)++;
  }
  return true;
}

bool KsmDaemon::CandidateStillValid(const Candidate& candidate,
                                    uint64_t content) const {
  const auto ref = candidate.mm->page_table().FindPte(candidate.va);
  if (!ref.has_value() || !ref->ptp->hw(ref->index).valid()) {
    return false;
  }
  const HwPte hw = ref->ptp->hw(ref->index);
  if (hw.large() || MappedFrameOf(hw, ref->index) != candidate.frame) {
    return false;
  }
  const PageFrame& meta = phys_->frame(candidate.frame);
  return meta.kind == FrameKind::kAnon && !meta.ksm_stable &&
         meta.content == content;
}

void KsmDaemon::Promote(uint64_t content, FrameNumber frame) {
  PageFrame& meta = phys_->frame(frame);
  SAT_CHECK(meta.kind == FrameKind::kAnon && !meta.ksm_stable);
  // Write-protect every mapping via the rmap. One entry in a shared PTP
  // covers all its sharers — one downgrade, one shootdown.
  for (const RmapEntry& mapping : rmap_->Mappings(frame)) {
    PageTablePage& ptp = ptps_->Get(mapping.ptp);
    // A stable frame leaves huged's permission test under its unmerge
    // policy, so a block settled for mixed permissions may now collapse,
    // even where the loop below leaves the word as it is.
    ptp.MarkHugePending(mapping.index);
    HwPte hw = ptp.hw(mapping.index);
    LinuxPte sw = ptp.sw(mapping.index);
    const bool was_writable = hw.perm() == PtePerm::kReadWrite;
    if (!was_writable && !sw.dirty()) {
      continue;
    }
    hw.WriteProtect();
    sw.set_dirty(false);
    ptp.UpdateFlags(mapping.index, hw, sw);
    if (was_writable) {
      counters_->ksm_ptes_write_protected++;
      ptps_->FlushPte(mapping.ptp, mapping.index, /*global=*/false);
    }
  }
  meta.ksm_stable = true;
  stable_.emplace(content, frame);
}

bool KsmDaemon::MergeInto(MmStruct& mm, VirtAddr va, FrameNumber stable) {
  PageTable& pt = mm.page_table();
  if (pt.SlotNeedsCopy(va)) {
    // A shared PTP's entries are communal; KSM merges one address space's
    // PTE, so the PTP must be privatized first (the lazy unshare).
    Cycles cycles = 0;
    const std::optional<uint32_t> copied =
        vm_->UnshareIfNeeded(mm, va, &cycles);
    if (!copied.has_value()) {
      // ENOMEM: TryUnshareSlot left the slot untouched, so abandoning the
      // candidate rolls the merge back completely.
      counters_->ksm_merge_failures++;
      return false;
    }
    counters_->ksm_unshares++;
  }
  const auto ref = pt.FindPte(va);
  if (!ref.has_value() || !ref->ptp->hw(ref->index).valid()) {
    // The copy-referenced-only unshare ablation drops unreferenced
    // entries; the candidate PTE is gone.
    counters_->ksm_merge_failures++;
    return false;
  }
  const HwPte old_hw = ref->ptp->hw(ref->index);
  if (MappedFrameOf(old_hw, ref->index) == stable) {
    return false;  // nothing to do (cannot happen from ScanPage)
  }
  const LinuxPte old_sw = ref->ptp->sw(ref->index);
  LinuxPte sw;
  sw.set_present(true);
  sw.set_young(old_sw.young());
  sw.set_writable(old_sw.writable());
  // SetPte references the stable frame, releases the duplicate (freeing
  // it if this was its last mapping), and fixes the rmap.
  pt.SetPte(va,
            HwPte::MakePage(stable, PtePerm::kReadOnly, /*global=*/false,
                            old_hw.executable()),
            sw);
  ptps_->FlushPte(ref->ptp->id(), ref->index, /*global=*/false);
  counters_->ksm_pages_merged++;
  Tracer::Emit(tracer_, TraceEventType::kKsmMerge,
               static_cast<uint32_t>(pt.owner()), VirtPageNumber(va), stable);
  return true;
}

uint64_t KsmDaemon::pages_sharing() const {
  uint64_t total = 0;
  for (const auto& [content, frame] : stable_) {
    (void)content;
    const uint32_t maps = rmap_->MapCount(frame);
    total += maps > 0 ? maps - 1 : 0;
  }
  return total;
}

void KsmDaemon::OnFrameAllocated(FrameNumber frame, FrameKind kind) {
  (void)frame;
  (void)kind;
}

void KsmDaemon::OnFrameFreed(FrameNumber frame, FrameKind kind) {
  (void)kind;
  const PageFrame& meta = phys_->frame(frame);
  if (meta.ksm_stable) {
    stable_.erase(meta.content);
  }
}

}  // namespace sat
