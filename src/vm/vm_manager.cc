#include "src/vm/vm_manager.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/arch/check.h"
#include "src/mem/zram.h"
#include "src/trace/trace.h"

namespace sat {

namespace {

// Default mmap placement window: above the traditional executable/brk zone,
// below the stack zone.
constexpr VirtAddr kMmapLow = 0x00010000;
constexpr VirtAddr kMmapHigh = 0xB0000000;

bool RegionAllows(const VmArea& vma, AccessType access) {
  switch (access) {
    case AccessType::kRead:
      return vma.prot.read;
    case AccessType::kWrite:
      return vma.prot.write;
    case AccessType::kExecute:
      return vma.prot.execute;
  }
  return false;
}

}  // namespace

uint32_t VmManager::SplitLargeBlock(MmStruct& mm, VirtAddr va,
                                    HugeSplitReason reason) {
  const VirtAddr block = va & ~(kLargePageSize - 1);
  PageTable& pt = mm.page_table();
  const auto ref = pt.FindPte(block);
  if (!ref.has_value()) {
    return 0;
  }
  const HwPte hw = ref->ptp->hw(ref->index);
  if (!hw.valid() || !hw.large()) {
    return 0;  // no run here (a run's base replica is always large)
  }
  const uint32_t split = pt.SplitLargeRun(block);
  if (split > 0) {
    counters_->huge_splits++;
    Tracer::Emit(tracer_, TraceEventType::kHugeSplit, 0, VirtPageNumber(block),
                 static_cast<uint64_t>(reason));
  }
  return split;
}

std::optional<uint32_t> VmManager::UnshareIfNeeded(MmStruct& mm, VirtAddr va,
                                                   Cycles* cycles) {
  PageTable& pt = mm.page_table();
  const uint32_t slot = PtpSlotIndex(va);
  if (!pt.l1(slot).present() || !pt.l1(slot).need_copy) {
    return 0;
  }
  const std::optional<uint32_t> copied =
      pt.TryUnshareSlot(slot, config_.copy_referenced_only_on_unshare,
                        config_.hw_l1_write_protect);
  if (!copied.has_value()) {
    return std::nullopt;
  }
  *cycles += costs_->unshare_base + *copied * costs_->unshare_per_pte_copy;
  return copied;
}

void VmManager::InstallPte(MmStruct& mm, VirtAddr va, HwPte hw, LinuxPte sw) {
  PageTable& pt = mm.page_table();
  if (!pt.FindPte(va)) {
    pt.EnsurePtp(va, mm.user_domain());
  }
  // Populating a *new* entry in a shared PTP is the paper's read-fault
  // path: the entry becomes visible to every sharer, eliminating their
  // soft faults for this page.
  pt.SetPte(va, hw, sw, pt.SlotNeedsCopy(va));
}

FaultOutcome VmManager::HandleFault(MmStruct& mm, const MemoryAbort& abort) {
  if (tracer_ == nullptr || !tracer_->enabled()) {
    return HandleFaultImpl(mm, abort);
  }
  // Classify the fault after the fact from the counters it bumped; the
  // span's duration floor is the handler's modelled cost (the simulator
  // charges it in one lump after the handler returns).
  const KernelCounters before = *counters_;
  TraceSpan span(tracer_, TraceEventType::kFaultFile);
  const FaultOutcome out = HandleFaultImpl(mm, abort);
  TraceEventType type = TraceEventType::kFaultFile;
  uint64_t extra = counters_->ptes_faulted_around - before.ptes_faulted_around;
  if (!out.ok) {
    type = out.oom ? TraceEventType::kFaultOom : TraceEventType::kFaultSegv;
    extra = 0;
  } else if (out.hard) {
    type = TraceEventType::kFaultHard;
    extra = 0;
  } else if (counters_->swap_ins > before.swap_ins) {
    type = TraceEventType::kSwapIn;
    extra = counters_->swap_ins_cache_hit > before.swap_ins_cache_hit ? 1 : 0;
  } else if (counters_->faults_cow > before.faults_cow) {
    type = TraceEventType::kFaultCow;
    extra = out.ptes_copied;
  } else if (counters_->faults_anonymous > before.faults_anonymous) {
    type = TraceEventType::kFaultAnon;
    extra = 0;
  }
  span.set_type(type);
  span.set_args(VirtPageNumber(abort.fault_address), extra);
  span.set_duration(out.kernel_cycles);
  return out;
}

FaultOutcome VmManager::HandleFaultImpl(MmStruct& mm,
                                        const MemoryAbort& abort) {
  FaultOutcome out;
  out.kernel_cycles = costs_->fault_trap;

  const VirtAddr va = PageAlignDown(abort.fault_address);
  const VmArea* vma = mm.FindVma(va);
  if (vma == nullptr) {
    out.ok = false;
    return out;
  }
  if (!RegionAllows(*vma, abort.access)) {
    out.ok = false;
    return out;
  }

  // Unshare triggers (Section 3.1.2): a write access into a shared PTP's
  // range (case 1), or — under the lazy-unshare ablation — the first fault
  // on a region created after the PTP was shared (case 3, deferred).
  PageTable& pt = mm.page_table();
  if (pt.SlotNeedsCopy(va) &&
      (abort.access == AccessType::kWrite || !vma->inherited)) {
    const std::optional<uint32_t> copied =
        UnshareIfNeeded(mm, va, &out.kernel_cycles);
    if (!copied.has_value()) {
      out.ok = false;
      out.oom = true;
      return out;
    }
    out.ptes_copied = *copied;
    out.unshared = true;
  }

  const auto ref = pt.FindPte(va);
  const bool pte_valid = ref.has_value() && ref->ptp->hw(ref->index).valid();

  FaultOutcome leaf = pte_valid ? HandlePermissionFault(mm, *vma, va, abort.access)
                                : HandleTranslationFault(mm, *vma, va, abort.access);
  leaf.kernel_cycles += out.kernel_cycles;
  leaf.unshared = out.unshared;
  leaf.ptes_copied = out.ptes_copied;
  return leaf;
}

FaultOutcome VmManager::HandleTranslationFault(MmStruct& mm, const VmArea& vma,
                                               VirtAddr va, AccessType access) {
  FaultOutcome out;
  PageTable& pt = mm.page_table();
  {
    // A swapped-out page: its PTE is hardware-invalid but carries the
    // swap slot in the software entry.
    const auto ref = pt.FindPte(va);
    if (ref.has_value() && ref->ptp->sw(ref->index).is_swap()) {
      return HandleSwapInFault(mm, vma, va);
    }
  }
  if (!pt.FindPte(va)) {
    if (pt.TryEnsurePtp(va, mm.user_domain()) == nullptr) {
      out.oom = true;
      return out;
    }
    out.kernel_cycles += costs_->fork_per_ptp_alloc;
  }

  if (IsFileBacked(vma.kind)) {
    counters_->faults_file_backed++;
    if (vma.use_large_pages && access != AccessType::kWrite &&
        CanMapLargeBlock(mm, vma, va) && InstallLargeBlock(mm, vma, va)) {
      // One fault populates the whole 64 KB block (Section 2.3.3's
      // large-page complement): 16 replicated descriptors over 16
      // contiguous frames, installable into shared PTPs like any other
      // read-only entry. When no contiguous run is free the install
      // declines and the fault falls through to a plain 4 KB fill.
      out.ok = true;
      return out;
    }
    bool hard = false;
    const FrameNumber file_frame =
        page_cache_->GetOrLoad(vma.file, vma.FilePageFor(va), &hard);
    if (file_frame == PageCache::kNoFrame) {
      out.oom = true;
      return out;
    }
    out.hard = hard;
    if (hard) {
      counters_->faults_hard++;
      out.kernel_cycles += costs_->fault_disk;
    }

    if (access == AccessType::kWrite && IsPrivate(vma.kind)) {
      // First write to a private file page: read + copy in one fault.
      const std::optional<FrameNumber> anon_opt =
          phys_->TryAllocFrame(FrameKind::kAnon);
      if (!anon_opt.has_value()) {
        out.oom = true;
        return out;
      }
      const FrameNumber anon = *anon_opt;
      // The private copy starts with the file page's content.
      phys_->frame(anon).content = phys_->frame(file_frame).content;
      LinuxPte sw;
      sw.set_present(true);
      sw.set_young(true);
      sw.set_dirty(true);
      sw.set_writable(true);
      InstallPte(mm, va,
                 HwPte::MakePage(anon, PtePerm::kReadWrite, /*global=*/false,
                                 vma.prot.execute),
                 sw);
      phys_->UnrefFrame(anon);  // the PTE holds the live reference now
      counters_->faults_cow++;
    } else {
      // Map the page-cache frame. Private-writable and read-only mappings
      // go in write-protected (COW); shared-writable writes go in RW.
      const bool rw = access == AccessType::kWrite && vma.kind == VmKind::kFileShared;
      const bool global = vma.global && config_.share_tlb_global;
      LinuxPte sw;
      sw.set_present(true);
      sw.set_young(true);
      sw.set_dirty(rw);
      sw.set_writable(vma.prot.write);
      InstallPte(mm, va,
                 HwPte::MakePage(file_frame, rw ? PtePerm::kReadWrite : PtePerm::kReadOnly,
                                 global, vma.prot.execute),
                 sw);
      if (config_.fault_around_pages > 1 && access != AccessType::kWrite) {
        FaultAround(mm, vma, va);
      }
    }
    out.ok = true;
    return out;
  }

  // Anonymous memory.
  counters_->faults_anonymous++;
  if (access == AccessType::kWrite) {
    const std::optional<FrameNumber> anon_opt =
        phys_->TryAllocFrame(FrameKind::kAnon);
    if (!anon_opt.has_value()) {
      out.oom = true;
      return out;
    }
    const FrameNumber anon = *anon_opt;
    LinuxPte sw;
    sw.set_present(true);
    sw.set_young(true);
    sw.set_dirty(true);
    sw.set_writable(true);
    InstallPte(mm, va,
               HwPte::MakePage(anon, PtePerm::kReadWrite, /*global=*/false,
                               vma.prot.execute),
               sw);
    phys_->UnrefFrame(anon);
  } else {
    // Read of untouched anonymous memory: the shared zero page, COW.
    LinuxPte sw;
    sw.set_present(true);
    sw.set_young(true);
    sw.set_writable(vma.prot.write);
    InstallPte(mm, va,
               HwPte::MakePage(phys_->zero_frame(), PtePerm::kReadOnly,
                               /*global=*/false, vma.prot.execute),
               sw);
  }
  out.ok = true;
  return out;
}

FaultOutcome VmManager::HandleSwapInFault(MmStruct& mm, const VmArea& vma,
                                          VirtAddr va) {
  FaultOutcome out;
  SAT_CHECK(zram_ != nullptr && "swap PTE without a zram store attached");
  // Besides kAnonPrivate regions, a swap PTE can sit under a *private*
  // file mapping: a COW write there makes a private-dirty page, which is
  // anonymous memory in everything but its VMA's kind. Shared file pages
  // are never anonymous, so they can never have been swapped.
  SAT_CHECK((!IsFileBacked(vma.kind) || IsPrivate(vma.kind)) &&
            "a shared file page cannot have a swap entry");
  PageTable& pt = mm.page_table();
  const auto ref = pt.FindPte(va);
  const SwapSlotId slot = ref->ptp->sw(ref->index).swap_slot();
  counters_->faults_anonymous++;

  FrameNumber frame = zram_->CacheLookup(slot);
  const bool cache_hit = frame != ZramStore::kNoFrame;
  if (cache_hit) {
    // Another sharer (or an earlier fault of ours) already decompressed
    // this slot; reuse its frame.
    counters_->swap_ins_cache_hit++;
    if (!zram_->SlotChecksumOk(slot)) {
      // The compressed copy rotted, but the decompressed frame in the
      // swap cache is intact: recompress from it in place.
      zram_->RepairSlotContent(slot, phys_->frame(frame).content);
      counters_->scrub_repairs++;
    }
  } else {
    // Verify the compressed bytes *before* allocating a frame: on damage
    // nothing was touched, and the oops path sees the slot exactly as the
    // scrubber would.
    SAT_OOPS_CHECK(zram_->SlotChecksumOk(slot),
                   (OopsDamage{OopsDamage::Kind::kSwapSlot,
                               static_cast<int64_t>(slot)}));
    const std::optional<FrameNumber> anon_opt =
        phys_->TryAllocFrame(FrameKind::kAnon);
    if (!anon_opt.has_value()) {
      // Nothing was touched: the swap PTE, the slot and its refcount are
      // exactly as before. The caller reclaims and retries.
      out.oom = true;
      return out;
    }
    frame = *anon_opt;
    // "Decompression" restores the page's content tag from the slot.
    phys_->frame(frame).content = zram_->SlotContent(slot);
    zram_->AddToCache(slot, frame);  // takes its own frame + slot refs
    phys_->UnrefFrame(frame);        // drop the allocator's reference
    out.kernel_cycles += costs_->swap_decompress_page;
  }
  counters_->swap_ins++;

  // Install read-only regardless of the access: a write retries into the
  // COW permission-fault path, which either copies (frame still shared
  // with the swap cache or other mappings) or upgrades in place (the
  // cache entry was auto-dropped with the last swap PTE). That keeps
  // cache-resident frames clean, so a re-swap-out needn't recompress.
  LinuxPte sw;
  sw.set_present(true);
  sw.set_young(true);
  sw.set_writable(vma.prot.write);
  InstallPte(mm, va,
             HwPte::MakePage(frame, PtePerm::kReadOnly, /*global=*/false,
                             vma.prot.execute),
             sw);
  Tracer::Emit(tracer_, TraceEventType::kSwapIn, 0, VirtPageNumber(va),
               cache_hit ? 1 : 0);
  out.ok = true;
  return out;
}

FaultOutcome VmManager::HandlePermissionFault(MmStruct& mm, const VmArea& vma,
                                              VirtAddr va, AccessType access) {
  FaultOutcome out;
  PageTable& pt = mm.page_table();
  if (access != AccessType::kWrite) {
    // A read or execute permission fault on a valid PTE cannot happen
    // with intact attributes: every installed entry is at least
    // read-only, and XN is only ever set from the region's protection.
    // The region allows this access (checked by the caller), so the
    // attribute bits rotted — restore them from the VMA instead of
    // delivering a spurious SIGSEGV.
    const auto rref = pt.FindPte(va);
    SAT_CHECK(rref.has_value());
    const HwPte rot_hw = rref->ptp->hw(rref->index);
    PtePerm perm = rot_hw.perm();
    if (perm != PtePerm::kReadOnly && perm != PtePerm::kReadWrite) {
      // Read-only is always safe: a later write COW-faults and upgrades.
      perm = PtePerm::kReadOnly;
    }
    LinuxPte sw = rref->ptp->sw(rref->index);
    sw.set_young(true);
    pt.UpdatePte(va,
                 HwPte::MakePage(rot_hw.frame(), perm, rot_hw.global(),
                                 vma.prot.execute, rot_hw.large()),
                 sw);
    counters_->scrub_repairs++;
    out.ok = true;
    return out;
  }

  auto ref = pt.FindPte(va);
  SAT_CHECK(ref.has_value());
  if (ref->ptp->hw(ref->index).large()) {
    // A COW write into a collapsed run: the written page is about to
    // diverge from its neighbours, so the block loses uniformity. Demote
    // it to 4 KB PTEs first (the slot is already private — the caller
    // unshared on the write path); the faulting PTE is then small and
    // the ordinary COW logic below applies unchanged.
    SplitLargeBlock(mm, va, HugeSplitReason::kCow);
    ref = pt.FindPte(va);
  }
  const HwPte old_hw = ref->ptp->hw(ref->index);
  LinuxPte sw = ref->ptp->sw(ref->index);
  sw.set_young(true);
  sw.set_dirty(true);

  if (IsFileBacked(vma.kind)) {
    counters_->faults_file_backed++;
  } else {
    counters_->faults_anonymous++;
  }

  if (!IsPrivate(vma.kind)) {
    // Shared mapping: upgrade in place.
    HwPte hw = old_hw;
    hw.set_perm(PtePerm::kReadWrite);
    pt.UpdatePte(va, hw, sw);
    out.ok = true;
    return out;
  }

  // Private mapping: COW. Reuse the frame only when it is anonymous, this
  // PTE is its sole reference, and it is not a KSM stable frame — a stable
  // frame must never be written in place (the analogue of PageKsm in
  // do_wp_page), because the stable tree indexes it by its content.
  const PageFrame& frame_meta = phys_->frame(old_hw.frame());
  if (frame_meta.kind == FrameKind::kAnon && frame_meta.ref_count == 1 &&
      !frame_meta.ksm_stable) {
    HwPte hw = old_hw;
    hw.set_perm(PtePerm::kReadWrite);
    pt.UpdatePte(va, hw, sw);
  } else {
    const std::optional<FrameNumber> anon_opt =
        phys_->TryAllocFrame(FrameKind::kAnon);
    if (!anon_opt.has_value()) {
      out.oom = true;
      return out;
    }
    // Read the old frame's metadata before SetPte: dropping the PTE's
    // reference may free the frame (last sharer of a stable page).
    const FrameNumber old_frame = old_hw.frame();
    const uint64_t old_content = frame_meta.content;
    const bool was_ksm = frame_meta.ksm_stable;
    phys_->frame(*anon_opt).content = old_content;
    pt.SetPte(va,
              HwPte::MakePage(*anon_opt, PtePerm::kReadWrite, /*global=*/false,
                              vma.prot.execute),
              sw);
    phys_->UnrefFrame(*anon_opt);
    counters_->faults_cow++;
    if (was_ksm) {
      // COW away from a stable frame: this sharer just unmerged.
      counters_->ksm_unmerge_faults++;
      Tracer::Emit(tracer_, TraceEventType::kKsmUnmerge, 0,
                   VirtPageNumber(va), old_frame);
    }
  }
  out.ok = true;
  return out;
}

void VmManager::FaultAround(MmStruct& mm, const VmArea& vma, VirtAddr va) {
  // Populate page-cache-resident neighbours in a window around the fault
  // (clipped to the vma), without touching disk and without marking them
  // referenced. The speculative entries land in shared PTPs like any
  // other read-fault population.
  const uint32_t window = config_.fault_around_pages;
  const VirtAddr window_base = PageAlignDown(va) & ~((window * kPageSize) - 1);
  const VirtAddr lo = std::max(vma.start, window_base);
  const VirtAddr hi = static_cast<VirtAddr>(std::min<uint64_t>(
      vma.end, static_cast<uint64_t>(window_base) + window * kPageSize));
  const bool global = vma.global && config_.share_tlb_global;
  PageTable& pt = mm.page_table();
  for (uint64_t around64 = lo; around64 < hi; around64 += kPageSize) {
    const auto around = static_cast<VirtAddr>(around64);
    if (around == PageAlignDown(va)) {
      continue;
    }
    if (pt.SectionAt(around) != nullptr) {
      continue;  // already translated by a 1 MB section — no PTE wanted
    }
    const auto ref = pt.FindPte(around);
    if (ref.has_value() && ref->ptp->hw(ref->index).valid()) {
      continue;
    }
    const FrameNumber frame =
        page_cache_->Lookup(vma.file, vma.FilePageFor(around));
    if (frame == PageCache::kNoFrame) {
      continue;  // not resident: fault-around never reads from disk
    }
    LinuxPte sw;
    sw.set_present(true);
    sw.set_writable(vma.prot.write);
    InstallPte(mm, around,
               HwPte::MakePage(frame, PtePerm::kReadOnly, global,
                               vma.prot.execute),
               sw);
    counters_->ptes_faulted_around++;
  }
}

bool VmManager::CanMapLargeBlock(MmStruct& mm, const VmArea& vma,
                                 VirtAddr va) const {
  const VirtAddr block_va = va & ~(kLargePageSize - 1);
  // The whole block must lie inside the region, and the region's file
  // backing must be block-aligned so virtual and file blocks coincide.
  if (block_va < vma.start || block_va + kLargePageSize > vma.end) {
    return false;
  }
  if (vma.FilePageFor(block_va) % kPtesPerLargePage != 0) {
    return false;
  }
  if (vma.prot.write) {
    return false;  // large pages are for read-only/executable mappings
  }
  if (mm.page_table().SectionAt(block_va) != nullptr) {
    return false;  // a 1 MB section already covers this block
  }
  // No page of the block may already be mapped at 4 KB granularity.
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    const auto ref = mm.page_table().FindPte(block_va + i * kPageSize);
    if (ref.has_value() && ref->ptp->hw(ref->index).valid()) {
      return false;
    }
  }
  return true;
}

bool VmManager::InstallLargeBlock(MmStruct& mm, const VmArea& vma,
                                  VirtAddr va) {
  const VirtAddr block_va = va & ~(kLargePageSize - 1);
  bool hard = false;
  const uint32_t block_index = vma.FilePageFor(block_va) / kPtesPerLargePage;
  const FrameNumber base =
      page_cache_->GetOrLoadLargeBlock(vma.file, block_index, &hard);
  if (base == PageCache::kNoFrame) {
    return false;
  }
  if (hard) {
    counters_->faults_hard++;
  }
  const bool global = vma.global && config_.share_tlb_global;
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    LinuxPte sw;
    sw.set_present(true);
    sw.set_young(true);
    InstallPte(mm, block_va + i * kPageSize,
               HwPte::MakePage(base, PtePerm::kReadOnly, global,
                               vma.prot.execute, /*large=*/true),
               sw);
  }
  return true;
}

bool VmManager::SlotSharable(const MmStruct& mm, uint32_t slot) const {
  const auto vmas = mm.VmasInSlot(slot);
  if (vmas.empty()) {
    return false;
  }
  for (const VmArea& vma : vmas) {
    // The stack is the one design-choice exclusion (Section 4.2.1): it is
    // written immediately after the child runs, so sharing would only add
    // an unshare to the critical path.
    if (vma.is_stack) {
      return false;
    }
  }
  return true;
}

ForkResult VmManager::Fork(MmStruct& parent, MmStruct& child) {
  ForkResult result;
  result.cycles = costs_->fork_base;
  counters_->forks++;

  const uint64_t allocs_before = counters_->ptps_allocated;

  child.InheritVmas(parent);
  result.vmas_copied = static_cast<uint32_t>(child.vma_count());
  result.cycles += static_cast<Cycles>(result.vmas_copied) * costs_->fork_per_vma;

  PageTable& ppt = parent.page_table();
  PageTable& cpt = child.page_table();
  bool parent_mappings_downgraded = false;

  for (uint32_t slot = ppt.NextUsedSlot(0); slot < kUserPtpSlots && result.ok;
       slot = ppt.NextUsedSlot(slot + 1)) {
    if (!ppt.l1(slot).present()) {
      continue;
    }
    const auto vmas = parent.VmasInSlot(slot);
    if (vmas.empty()) {
      continue;  // stale PTP with no live regions: nothing to inherit
    }

    if (config_.share_ptps && SlotSharable(parent, slot)) {
      const uint32_t wp =
          ppt.ShareSlotInto(cpt, slot, config_.hw_l1_write_protect);
      result.slots_shared++;
      result.ptes_write_protected += wp;
      if (wp > 0) {
        parent_mappings_downgraded = true;
      }
      result.cycles += costs_->fork_per_ptp_share +
                       static_cast<Cycles>(wp) * costs_->fork_per_pte_wrprotect;
      continue;
    }

    // Stock path for this slot. File-backed PTEs that a soft fault can
    // recreate are skipped (Linux's fork optimization); anonymous memory
    // and COW-dirtied pages must be copied.
    SAT_CHECK(!ppt.l1(slot).need_copy &&
              "a previously shared slot became unsharable without an unshare");
    const VirtAddr base = PtpSlotBase(slot);
    for (size_t v = 0; v < vmas.size() && result.ok; ++v) {
      const VmArea* vma = &vmas[v];
      const VirtAddr lo = std::max(vma->start, base);
      const VirtAddr hi = static_cast<VirtAddr>(
          std::min<uint64_t>(vma->end, static_cast<uint64_t>(base) + kPtpSpan));
      const bool copy_file_ptes = config_.copy_zygote_code_ptes_at_fork &&
                                  vma->zygote_preloaded && vma->prot.execute;
      for (uint64_t va64 = lo; va64 < hi; va64 += kPageSize) {
        const auto va = static_cast<VirtAddr>(va64);
        const auto ref = ppt.FindPte(va);
        if (!ref || !ref->ptp->hw(ref->index).valid()) {
          // A swapped-out page is inherited as a swap PTE: the child gets
          // its own slot reference and faults the page in on demand.
          if (ref && ref->ptp->sw(ref->index).is_swap()) {
            if (cpt.TryEnsurePtp(va, child.user_domain()) == nullptr) {
              result.ok = false;
              break;
            }
            cpt.SetPte(va, HwPte{}, ref->ptp->sw(ref->index));
            result.ptes_copied++;
            counters_->ptes_copied++;
            result.cycles += costs_->fork_per_pte_copy;
          }
          continue;
        }
        const HwPte parent_hw = ref->ptp->hw(ref->index);
        const LinuxPte parent_sw = ref->ptp->sw(ref->index);
        // A rotted parent PTE must not be propagated into the child (nor
        // fed to frame(), which trusts its argument).
        SAT_OOPS_CHECK(parent_hw.frame() < phys_->total_frames(),
                       (OopsDamage{OopsDamage::Kind::kPtp, ref->ptp->id()}));
        const FrameKind frame_kind = phys_->frame(parent_hw.frame()).kind;
        const bool anon_frame =
            frame_kind == FrameKind::kAnon || frame_kind == FrameKind::kZero;
        if (IsFileBacked(vma->kind) && !anon_frame && !copy_file_ptes) {
          continue;  // refilled by a soft fault in the child
        }

        // Allocate the child's PTP before downgrading anything in the
        // parent, so an ENOMEM fork leaves the parent untouched apart
        // from already-downgraded (still correct, COW-safe) mappings.
        if (cpt.TryEnsurePtp(va, child.user_domain()) == nullptr) {
          result.ok = false;
          break;
        }
        HwPte child_hw = parent_hw;
        if (IsPrivate(vma->kind) && vma->prot.write &&
            parent_hw.perm() == PtePerm::kReadWrite) {
          // COW: downgrade the parent's live mapping and the child's copy.
          HwPte downgraded = parent_hw;
          downgraded.WriteProtect();
          ppt.UpdatePte(va, downgraded, parent_sw);
          child_hw.WriteProtect();
          parent_mappings_downgraded = true;
        }
        cpt.SetPte(va, child_hw, parent_sw);
        result.ptes_copied++;
        counters_->ptes_copied++;
        result.cycles += costs_->fork_per_pte_copy;
      }
    }
  }

  result.child_ptps_allocated =
      static_cast<uint32_t>(counters_->ptps_allocated - allocs_before);
  result.cycles += static_cast<Cycles>(result.child_ptps_allocated) *
                   costs_->fork_per_ptp_alloc;

  // Sections copy by value after the slot loop: ShareSlotInto overwrites
  // the child's whole L1 entry, so copying here keeps them regardless of
  // which path handled the slot. They carry no refcounts (permanent
  // kernel frames), so a failed fork's teardown needs no undo.
  if (result.ok) {
    for (uint32_t slot = ppt.NextUsedSlot(0); slot < kUserPtpSlots;
         slot = ppt.NextUsedSlot(slot + 1)) {
      if (ppt.l1(slot).any_section()) {
        ppt.CopySectionsInto(cpt, slot);
      }
    }
  }

  if (parent_mappings_downgraded) {
    ppt.allocator().FlushSpace(ppt);
  }
  return result;
}

VirtAddr VmManager::Mmap(MmStruct& mm, const MmapRequest& request,
                         bool* out_oom) {
  SAT_CHECK(request.length > 0 && IsPageAligned(request.length));
  if (out_oom != nullptr) {
    *out_oom = false;
  }
  VirtAddr addr;
  if (request.fixed_address != 0) {
    SAT_CHECK(IsPageAligned(request.fixed_address));
    SAT_CHECK(mm.VmasOverlapping(request.fixed_address,
                                 request.fixed_address + request.length)
                  .empty() &&
              "MAP_FIXED over an existing mapping is not supported");
    addr = request.fixed_address;
  } else {
    const auto found = mm.FindFreeRange(request.length, kMmapLow, kMmapHigh);
    if (!found) {
      return 0;
    }
    addr = *found;
  }

  // Section 3.1.2 case 3: a new region inside a shared PTP's range
  // unshares it eagerly (unless the lazy ablation defers to first fault).
  if (!config_.lazy_unshare_on_new_region) {
    Cycles cycles = 0;
    const uint32_t first = PtpSlotIndex(addr);
    const uint32_t last = PtpSlotIndex(addr + request.length - 1);
    for (uint32_t slot = first; slot <= last; ++slot) {
      if (!UnshareIfNeeded(mm, PtpSlotBase(slot), &cycles)) {
        if (out_oom != nullptr) {
          *out_oom = true;
        }
        return 0;  // no region inserted; earlier unshares stay (harmless)
      }
    }
  }

  VmArea vma;
  vma.start = addr;
  vma.end = addr + request.length;
  vma.prot = request.prot;
  vma.kind = request.kind;
  vma.file = request.file;
  vma.file_page_offset = request.file_page_offset;
  vma.global = request.global;
  vma.is_stack = request.is_stack;
  vma.zygote_preloaded = request.zygote_preloaded;
  vma.use_large_pages = request.use_large_pages;
  vma.mergeable = request.mergeable;
  vma.inherited = false;
  if (!request.name.empty()) {
    vma.name = std::make_shared<const std::string>(request.name);
  }
  mm.InsertVma(std::move(vma));
  return addr;
}

void VmManager::DemoteRange(MmStruct& mm, VirtAddr start, VirtAddr end,
                            HugeSplitReason reason) {
  // Only the two boundary blocks can be cut: interior blocks are covered
  // whole.
  if ((start & (kLargePageSize - 1)) != 0) {
    SplitLargeBlock(mm, start, reason);
  }
  if ((end & (kLargePageSize - 1)) != 0) {
    SplitLargeBlock(mm, end, reason);
  }
  // A range overlapping a 1 MB section drops the whole section descriptor
  // (this mm's view only): any surviving pages of the half simply refault
  // as ordinary 4 KB file pages.
  PageTable& pt = mm.page_table();
  for (uint64_t half = SectionAlignDown(start); half < end;
       half += kSectionSize) {
    const auto section_va = static_cast<VirtAddr>(half);
    if (pt.SectionAt(section_va) != nullptr) {
      pt.ClearSection(section_va);
      counters_->huge_splits++;
      Tracer::Emit(tracer_, TraceEventType::kHugeSplit, 0,
                   VirtPageNumber(section_va), static_cast<uint64_t>(reason));
    }
  }
}

void VmManager::Munmap(MmStruct& mm, VirtAddr start, uint32_t length,
                       bool* out_oom) {
  SAT_CHECK(IsPageAligned(start) && IsPageAligned(length) && length > 0);
  if (out_oom != nullptr) {
    *out_oom = false;
  }
  const VirtAddr end = start + length;
  if (mm.VmasOverlapping(start, end).empty()) {
    return;  // nothing mapped here
  }
  PageTable& pt = mm.page_table();
  const uint32_t first = PtpSlotIndex(start);
  const uint32_t last = PtpSlotIndex(end - 1);

  // Unshare (Section 3.1.2 case 4) *before* touching any region, so an
  // allocation failure leaves the address space exactly as it was. A
  // spanned slot needs its private copy only if some region will survive
  // in it after the removal; slots emptied entirely are released instead
  // (case 5), which never allocates.
  for (uint32_t slot = first; slot <= last; ++slot) {
    if (!pt.l1(slot).present() || !pt.l1(slot).need_copy) {
      continue;
    }
    const VirtAddr base = PtpSlotBase(slot);
    const VirtAddr slot_end =
        static_cast<VirtAddr>(static_cast<uint64_t>(base) + kPtpSpan);
    bool survivor = false;
    for (const VmArea& vma : mm.VmasInSlot(slot)) {
      const VirtAddr lo = std::max(vma.start, base);
      const VirtAddr hi = std::min(vma.end, slot_end);
      if (!(start <= lo && hi <= end)) {
        survivor = true;  // part of this region's slice outlives the unmap
        break;
      }
    }
    if (!survivor) {
      continue;
    }
    Cycles cycles = 0;
    if (!UnshareIfNeeded(mm, base, &cycles)) {
      if (out_oom != nullptr) {
        *out_oom = true;
      }
      return;
    }
  }

  // Demote before clearing: a partially unmapped 64 KB run must not be
  // left as a torn set of large replicas. A run cut by a boundary always
  // extends into surviving pages, so its slot was just unshared above.
  DemoteRange(mm, start, end, HugeSplitReason::kMunmap);

  mm.RemoveRange(start, end);

  for (uint32_t slot = first; slot <= last; ++slot) {
    if (!pt.l1(slot).present()) {
      continue;
    }
    const VirtAddr base = PtpSlotBase(slot);
    const VirtAddr lo = std::max(base, start);
    const VirtAddr hi = static_cast<VirtAddr>(
        std::min<uint64_t>(static_cast<uint64_t>(base) + kPtpSpan, end));

    if (mm.VmasInSlot(slot).empty()) {
      // Section 3.1.2 case 5 analogue: nothing left in this 2 MB range, so
      // just drop our reference — the PTP lives on for the other sharers,
      // or dies here if we were the last.
      pt.ReleaseSlot(slot);
      continue;
    }
    pt.ClearRange(lo, hi);
  }
}

void VmManager::Mprotect(MmStruct& mm, VirtAddr start, uint32_t length,
                         VmProt prot, bool* out_oom) {
  SAT_CHECK(IsPageAligned(start) && IsPageAligned(length) && length > 0);
  if (out_oom != nullptr) {
    *out_oom = false;
  }
  const VirtAddr end = start + length;

  // Section 3.1.2 case 2: region modification unshares every spanned PTP.
  // Done before the region split so an allocation failure changes nothing.
  PageTable& pt = mm.page_table();
  Cycles cycles = 0;
  const uint32_t first = PtpSlotIndex(start);
  const uint32_t last = PtpSlotIndex(end - 1);
  for (uint32_t slot = first; slot <= last; ++slot) {
    if (pt.l1(slot).present()) {
      if (!UnshareIfNeeded(mm, PtpSlotBase(slot), &cycles)) {
        if (out_oom != nullptr) {
          *out_oom = true;
        }
        return;
      }
    }
  }

  // A protection change cutting through a 64 KB run makes the block
  // non-uniform, so the boundary blocks demote first (every spanned slot
  // is private after the loop above). Fully covered blocks keep their
  // large replicas: ClearRange and WriteProtectRange rewrite whole runs
  // uniformly. A section's permission is baked into its descriptor, so
  // the pages of a dropped one refault at 4 KB with the new protection.
  DemoteRange(mm, start, end, HugeSplitReason::kMprotect);

  // Split at the boundaries and re-insert the covered pieces with the new
  // protection.
  auto pieces = mm.RemoveRange(start, end);
  for (VmArea& piece : pieces) {
    piece.prot = prot;
    mm.InsertVma(std::move(piece));
  }

  if (!prot.read) {
    pt.ClearRange(start, end);
  } else if (!prot.write) {
    pt.WriteProtectRange(start, end);
  }
}

void VmManager::ExitMm(MmStruct& mm) {
  mm.page_table().ReleaseAll();
  mm.RemoveAllVmas();
}

}  // namespace sat
