#include "src/pt/page_table.h"

#include <cassert>

#include "src/arch/check.h"
#include "src/mem/zram.h"
#include "src/trace/trace.h"

namespace sat {

PageTable::~PageTable() { ReleaseAll(); }

PageTablePage* PageTable::TryEnsurePtp(VirtAddr va, DomainId domain) {
  SAT_CHECK(IsUserAddress(va));
  L1Entry& entry = l1_[PtpSlotIndex(va)];
  SAT_CHECK(!entry.need_copy &&
            "mutating access to a NEED_COPY slot; unshare first");
  if (!entry.present()) {
    const std::optional<PtpId> id = alloc_->TryAlloc(this, PtpSlotIndex(va));
    if (!id.has_value()) {
      return nullptr;
    }
    entry.ptp = *id;
    entry.domain = domain;
    MarkUsed(PtpSlotIndex(va));
  }
  return &alloc_->Get(entry.ptp);
}

PageTablePage& PageTable::EnsurePtp(VirtAddr va, DomainId domain) {
  PageTablePage* ptp = TryEnsurePtp(va, domain);
  SAT_CHECK(ptp != nullptr && "out of physical memory for page tables");
  return *ptp;
}

std::optional<PteRef> PageTable::FindPte(VirtAddr va) const {
  assert(IsUserAddress(va));
  const L1Entry& entry = l1_[PtpSlotIndex(va)];
  if (!entry.present()) {
    return std::nullopt;
  }
  return PteRef{&alloc_->Get(entry.ptp), PteIndexInPtp(va)};
}

void PageTable::ReplaceFrame(const HwPte& old_pte, const HwPte& new_pte,
                             PtpId ptp, uint32_t index) {
  // Take the new reference before dropping the old one so replacing a
  // frame with itself stays safe, but add the new rmap entry only after
  // the drop: a rotted old descriptor makes DropFrame ask the rmap which
  // frame this site maps, and the answer must be the old frame.
  const FrameNumber frame = MappedFrameOf(new_pte, index);
  if (new_pte.valid()) {
    phys_->RefFrame(frame);
  }
  DropFrame(old_pte, ptp, index);
  if (!new_pte.valid() || rmap_ == nullptr) {
    return;
  }
  const FrameKind kind = phys_->frame(frame).kind;
  if (kind != FrameKind::kZero && kind != FrameKind::kKernel) {
    rmap_->Add(frame, ptp, index);
  }
}

void PageTable::DropFrame(const HwPte& pte, PtpId ptp, uint32_t index) {
  if (!pte.valid()) {
    return;
  }
  // Teardown must survive descriptors whose frame bits rotted (chaos
  // injection): the frame number is untrusted until the rmap confirms it.
  const FrameNumber frame = MappedFrameOf(pte, index);
  const bool in_range = frame < phys_->total_frames();
  if (in_range) {
    const FrameKind kind = phys_->frame(frame).kind;
    if (kind == FrameKind::kZero || kind == FrameKind::kKernel) {
      phys_->UnrefFrame(frame);  // permanent frames: no rmap, no refcount
      return;
    }
  }
  if (rmap_ == nullptr) {
    if (in_range) {
      phys_->UnrefFrame(frame);
    }
    return;
  }
  if (in_range && rmap_->Remove(frame, ptp, index)) {
    phys_->UnrefFrame(frame);  // the normal path: rmap agreed
    return;
  }
  // The descriptor lied. Release whatever the rmap says was really mapped
  // here; if it knows nothing, no reference was ever taken through this
  // descriptor (spurious-valid corruption, or a zero-page mapping whose
  // frame bits rotted) and there is nothing to drop.
  const std::optional<FrameNumber> truth = rmap_->FindAtSite(ptp, index);
  if (truth.has_value()) {
    rmap_->Remove(*truth, ptp, index);
    phys_->UnrefFrame(*truth);
  }
}

void PageTable::DropSwap(const LinuxPte& sw_pte) {
  if (!sw_pte.is_swap()) {
    return;
  }
  SAT_CHECK(zram_ != nullptr && "swap entry without a zram store attached");
  zram_->Unref(sw_pte.swap_slot());
}

void PageTable::SetPte(VirtAddr va, HwPte hw_pte, LinuxPte sw_pte,
                       bool allow_shared) {
  const L1Entry& entry = l1_[PtpSlotIndex(va)];
  SAT_CHECK(entry.present() && "SetPte without a PTP; call EnsurePtp");
  SAT_CHECK((!entry.need_copy || allow_shared) &&
            "mutating a NEED_COPY slot; unshare first");
  SAT_CHECK((!entry.need_copy || hw_pte.perm() != PtePerm::kReadWrite) &&
            "a PTE installed in a shared PTP must be write-protected");
  (void)allow_shared;
  PageTablePage& ptp = alloc_->Get(entry.ptp);
  const uint32_t index = PteIndexInPtp(va);
  // Take the new swap-slot reference before dropping the old one so
  // replacing a slot with itself stays safe.
  if (sw_pte.is_swap()) {
    SAT_CHECK(!hw_pte.valid() && "a swap entry has no hardware mapping");
    SAT_CHECK(!sw_pte.present());
    SAT_CHECK(zram_ != nullptr && "swap entry without a zram store attached");
    zram_->Ref(sw_pte.swap_slot());
  }
  const LinuxPte old_sw = ptp.sw(index);
  ReplaceFrame(ptp.hw(index), hw_pte, entry.ptp, index);
  ptp.Set(index, hw_pte, sw_pte);
  DropSwap(old_sw);
}

void PageTable::ClearPte(VirtAddr va) {
  const L1Entry& entry = l1_[PtpSlotIndex(va)];
  if (!entry.present()) {
    return;
  }
  SAT_CHECK(!entry.need_copy &&
            "clearing a PTE in a NEED_COPY slot; unshare first");
  PageTablePage& ptp = alloc_->Get(entry.ptp);
  const uint32_t index = PteIndexInPtp(va);
  const LinuxPte old_sw = ptp.sw(index);
  DropFrame(ptp.hw(index), entry.ptp, index);
  ptp.Clear(index);
  DropSwap(old_sw);
}

void PageTable::UpdatePte(VirtAddr va, HwPte hw_pte, LinuxPte sw_pte,
                          bool allow_shared) {
  const L1Entry& entry = l1_[PtpSlotIndex(va)];
  SAT_CHECK(entry.present());
  SAT_CHECK((!entry.need_copy || allow_shared) &&
            "updating a PTE in a NEED_COPY slot; unshare first");
  (void)allow_shared;
  PageTablePage& ptp = alloc_->Get(entry.ptp);
  const uint32_t index = PteIndexInPtp(va);
  assert(ptp.hw(index).valid() == hw_pte.valid());
  if (hw_pte.valid() && hw_pte.frame() != ptp.hw(index).frame()) {
    ReplaceFrame(ptp.hw(index), hw_pte, entry.ptp, index);
  }
  ptp.UpdateFlags(index, hw_pte, sw_pte);
}

void PageTable::ClearRange(VirtAddr start, VirtAddr end) {
  assert(IsPageAligned(start) && IsPageAligned(end));
  for (uint64_t va = start; va < end; va += kPageSize) {
    ClearPte(static_cast<VirtAddr>(va));
  }
}

void PageTable::WriteProtectRange(VirtAddr start, VirtAddr end) {
  assert(IsPageAligned(start) && IsPageAligned(end));
  for (uint64_t va64 = start; va64 < end; va64 += kPageSize) {
    const auto va = static_cast<VirtAddr>(va64);
    const auto ref = FindPte(va);
    if (!ref || !ref->ptp->hw(ref->index).valid()) {
      continue;
    }
    assert(!l1_[PtpSlotIndex(va)].need_copy);
    HwPte hw = ref->ptp->hw(ref->index);
    hw.WriteProtect();
    ref->ptp->UpdateFlags(ref->index, hw, ref->ptp->sw(ref->index));
  }
}

void PageTable::PromoteRunInPlace(VirtAddr block_base) {
  SAT_CHECK((block_base & (kLargePageSize - 1)) == 0 &&
            "promotion target must be 64 KB aligned");
  const L1Entry& entry = l1_[PtpSlotIndex(block_base)];
  SAT_CHECK(entry.present());
  PageTablePage& ptp = alloc_->Get(entry.ptp);
  const uint32_t index0 = PteIndexInPtp(block_base);
  const HwPte first = ptp.hw(index0);
  SAT_CHECK(first.valid() && !first.large());
  const FrameNumber base = first.frame();
  SAT_CHECK(base % kPtesPerLargePage == 0 &&
            "promotion base frame must be 16-aligned");
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    const HwPte hw = ptp.hw(index0 + i);
    SAT_CHECK(hw.valid() && !hw.large() && hw.frame() == base + i &&
              hw.perm() == first.perm() && hw.global() == first.global() &&
              hw.executable() == first.executable() &&
              "promotion run must be uniform and contiguous");
    // Same frame (MappedFrameOf of the replica is base + i), same
    // permissions: no reference or rmap changes, just the descriptor.
    ptp.UpdateFlags(index0 + i,
                    HwPte::MakePage(base, first.perm(), first.global(),
                                    first.executable(), /*large=*/true),
                    ptp.sw(index0 + i));
  }
}

uint32_t PageTable::SplitLargeRun(VirtAddr block_base) {
  SAT_CHECK((block_base & (kLargePageSize - 1)) == 0 &&
            "split target must be 64 KB aligned");
  const L1Entry& entry = l1_[PtpSlotIndex(block_base)];
  if (!entry.present()) {
    return 0;
  }
  SAT_CHECK(!entry.need_copy && "splitting in a NEED_COPY slot; unshare first");
  PageTablePage& ptp = alloc_->Get(entry.ptp);
  const uint32_t index0 = PteIndexInPtp(block_base);
  uint32_t split = 0;
  for (uint32_t i = 0; i < kPtesPerLargePage; ++i) {
    const HwPte hw = ptp.hw(index0 + i);
    if (!hw.valid() || !hw.large()) {
      continue;
    }
    // The replica at offset i maps frame() + i; the small replacement
    // names that frame directly, so again no reference churn.
    ptp.UpdateFlags(index0 + i,
                    HwPte::MakePage(MappedFrameOf(hw, index0 + i), hw.perm(),
                                    hw.global(), hw.executable(),
                                    /*large=*/false),
                    ptp.sw(index0 + i));
    split++;
  }
  return split;
}

void PageTable::InstallSection(VirtAddr va, FrameNumber base, bool global,
                               bool executable, DomainId domain) {
  SAT_CHECK(IsUserAddress(va) && (va & (kSectionSize - 1)) == 0 &&
            "section target must be 1 MB aligned");
  SAT_CHECK(base % kPtesPerSection == 0 &&
            "section base frame must be 256-aligned");
  L1Entry& entry = l1_[PtpSlotIndex(va)];
  SAT_CHECK(!entry.need_copy &&
            "installing a section over a NEED_COPY slot; unshare first");
  SectionDesc& half = entry.section[SectionHalfIndex(va)];
  SAT_CHECK(!half.present() && "section half already mapped");
  if (!entry.present()) {
    entry.domain = domain;
  }
  half.base = base;
  half.global = global;
  half.executable = executable;
  MarkUsed(PtpSlotIndex(va));
}

void PageTable::ClearSection(VirtAddr va) {
  l1_[PtpSlotIndex(va)].section[SectionHalfIndex(va)].Clear();
}

void PageTable::CopySectionsInto(PageTable& child, uint32_t slot) const {
  const L1Entry& entry = l1_[slot];
  if (!entry.any_section()) {
    return;
  }
  L1Entry& child_entry = child.l1_[slot];
  child_entry.section[0] = entry.section[0];
  child_entry.section[1] = entry.section[1];
  if (!child_entry.present()) {
    child_entry.domain = entry.domain;
  }
  child.MarkUsed(slot);
}

uint32_t PageTable::CountPresentInRange(VirtAddr start, VirtAddr end) const {
  uint32_t count = 0;
  for (uint64_t va = start; va < end; va += kPageSize) {
    const auto ref = FindPte(static_cast<VirtAddr>(va));
    if (ref && ref->ptp->hw(ref->index).valid()) {
      count++;
    }
  }
  return count;
}

uint32_t PageTable::ShareSlotInto(PageTable& child, uint32_t slot,
                                  bool skip_write_protect_pass) {
  L1Entry& entry = l1_[slot];
  SAT_CHECK(entry.present() && "cannot share an empty slot");
  SAT_CHECK(!child.l1_[slot].present() && "child slot already populated");

  PageTablePage& ptp = alloc_->Get(entry.ptp);
  uint32_t protected_count = 0;
  if (!entry.need_copy) {
    // Age the referenced bits at first share: "referenced" thereafter
    // means "accessed since this PTP became shared", which is what the
    // copy-referenced-only unshare ablation (Section 3.1.3) keys on.
    for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
      if (ptp.hw(i).valid() && ptp.sw(i).young()) {
        LinuxPte aged = ptp.sw(i);
        aged.set_young(false);
        ptp.UpdateFlags(i, ptp.hw(i), aged);
      }
    }
    if (!skip_write_protect_pass) {
      // First share of this PTP: write-protect every writable PTE so any
      // store through it faults, then mark it COW here.
      for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
        const HwPte& hw = ptp.hw(i);
        if (hw.valid() && hw.perm() == PtePerm::kReadWrite) {
          HwPte updated = hw;
          updated.WriteProtect();
          ptp.UpdateFlags(i, updated, ptp.sw(i));
          protected_count++;
        }
      }
      counters_->ptes_write_protected += protected_count;
    }
    entry.need_copy = true;
  }
  alloc_->AddSharer(entry.ptp, &child);
  child.l1_[slot] = L1Entry{entry.ptp, entry.domain, /*need_copy=*/true, /*section=*/{}};
  child.MarkUsed(slot);
  counters_->ptps_shared++;
  Tracer::Emit(tracer_, TraceEventType::kShareSlot, 0, slot, protected_count);
  return protected_count;
}

std::optional<uint32_t> PageTable::TryUnshareSlot(
    uint32_t slot, bool copy_referenced_only, bool write_protect_on_copy) {
  L1Entry& entry = l1_[slot];
  SAT_CHECK(entry.present());
  if (!entry.need_copy) {
    return 0;  // already private
  }
  if (alloc_->Get(entry.ptp).SharerCount() == 1) {
    // Sole remaining user: the PTP is ours again; just drop the COW mark.
    counters_->ptps_unshared++;
    TraceSpan span(tracer_, TraceEventType::kUnshareSlot);
    span.set_args(slot, 0);
    entry.need_copy = false;
    return 0;
  }

  // Allocate the private PTP before detaching anything, so an allocation
  // failure is invisible: both sharers keep their (still valid) view of
  // the shared slot and the caller can reclaim and retry.
  const std::optional<PtpId> fresh_opt = alloc_->TryAlloc(this, slot);
  if (!fresh_opt.has_value()) {
    return std::nullopt;
  }
  const PtpId fresh_id = *fresh_opt;
  counters_->ptps_unshared++;
  // The span brackets the flush + copy work; `b` carries the copy count.
  TraceSpan span(tracer_, TraceEventType::kUnshareSlot);
  span.set_args(slot, 0);

  // Figure 6, shared path: detach, flush our TLB entries, copy into the
  // fresh private PTP, release the shared one. Section halves are value
  // descriptors over permanent frames — they survive the unshare as-is.
  const PtpId shared_id = entry.ptp;
  const DomainId domain = entry.domain;
  const SectionDesc section0 = entry.section[0];
  const SectionDesc section1 = entry.section[1];
  entry.Clear();
  alloc_->FlushSpace(*this);

  PageTablePage& fresh = alloc_->Get(fresh_id);
  PageTablePage& shared = alloc_->Get(shared_id);

  // Is this descriptor's frame number confirmed by a trusted source? Wrong
  // bits must not be copied into the private PTP (referencing them would
  // corrupt someone else's reference counts). Zero and kernel frames are
  // not rmap-tracked, so there is nothing further to confirm for them.
  const auto frame_trusted = [&](const HwPte& hw, uint32_t i) {
    const FrameNumber f = MappedFrameOf(hw, i);
    if (!phys_->UserMappable(f)) {
      return false;
    }
    const FrameKind kind = phys_->frame(f).kind;
    return kind == FrameKind::kZero || kind == FrameKind::kKernel ||
           rmap_ == nullptr || rmap_->HasSite(f, shared_id, i);
  };

  uint32_t copied = 0;
  for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
    const HwPte& hw = shared.hw(i);
    if (!hw.valid()) {
      // Swap entries are copied unconditionally — even under the
      // copy-referenced-only ablation — because a dropped swap entry
      // cannot be repopulated by a soft fault: it is the only name the
      // compressed page has in this address space.
      if (shared.sw(i).is_swap()) {
        SAT_CHECK(zram_ != nullptr);
        zram_->Ref(shared.sw(i).swap_slot());
        fresh.Set(i, HwPte{}, shared.sw(i));
        copied++;
      }
      continue;
    }
    if (copy_referenced_only && !shared.sw(i).young()) {
      continue;  // ablation: let a soft fault repopulate it on demand
    }
    HwPte copy = hw;
    if (!frame_trusted(hw, i)) {
      // Rotted descriptor: rebuild the private copy from the rmap's record
      // of this site (conservatively read-only and small — a permission
      // fault restores precise attributes), or as a zero-page mapping when
      // nothing was ever installed through it. A dirty page with no rmap
      // record has no surviving copy; leave the private slot empty rather
      // than copy garbage — the shared PTP's scrub/oops machinery owns
      // that damage.
      const std::optional<FrameNumber> truth =
          rmap_ != nullptr ? rmap_->FindAtSite(shared_id, i) : std::nullopt;
      if (truth.has_value()) {
        copy = HwPte::MakePage(*truth, PtePerm::kReadOnly,
                               /*global=*/false, /*executable=*/true);
      } else if (!shared.sw(i).dirty()) {
        copy = HwPte::MakePage(phys_->zero_frame(), PtePerm::kReadOnly,
                               /*global=*/false, /*executable=*/true);
      } else {
        continue;
      }
    }
    if (write_protect_on_copy) {
      copy.WriteProtect();
    }
    ReplaceFrame(fresh.hw(i), copy, fresh_id, i);
    fresh.Set(i, copy, shared.sw(i));
    copied++;
  }
  counters_->ptes_copied += copied;

  const bool destroyed = alloc_->DropSharer(shared_id, this);
  SAT_CHECK(!destroyed && "sharer count said >1");
  (void)destroyed;

  entry = L1Entry{fresh_id, domain, /*need_copy=*/false, /*section=*/{}};
  entry.section[0] = section0;
  entry.section[1] = section1;
  span.set_args(slot, copied);
  return copied;
}

void PageTable::ReleaseSlot(uint32_t slot) {
  L1Entry& entry = l1_[slot];
  if (entry.present()) {
    PageTablePage& ptp = alloc_->Get(entry.ptp);
    if (ptp.SharerCount() == 1) {
      // Last sharer: release every mapped frame and swap slot, then the
      // PTP itself. Resync the present count first and release the swap
      // slot even when the hardware half claims to be valid — flipped
      // validity bits must not trip Clear's bookkeeping or leak a slot
      // reference.
      ptp.RecountPresentForScrub();
      for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
        const LinuxPte old_sw = ptp.sw(i);
        if (ptp.hw(i).valid()) {
          DropFrame(ptp.hw(i), entry.ptp, i);
        }
        if (ptp.hw(i).valid() || old_sw.raw() != 0) {
          ptp.Clear(i);
        }
        DropSwap(old_sw);
      }
    }
    alloc_->DropSharer(entry.ptp, this);
    entry.Clear();
  }
  if (!entry.any_section()) {
    used_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
  }
}

void PageTable::ReleaseAll() {
  for (uint32_t slot = NextUsedSlot(0); slot < kUserPtpSlots;
       slot = NextUsedSlot(slot + 1)) {
    ReleaseSlot(slot);
  }
}

uint32_t PageTable::PresentSlotCount() const {
  uint32_t count = 0;
  for (uint32_t slot = NextUsedSlot(0); slot < kUserPtpSlots;
       slot = NextUsedSlot(slot + 1)) {
    if (l1_[slot].present()) {
      count++;
    }
  }
  return count;
}

uint32_t PageTable::SharedSlotCount() const {
  uint32_t count = 0;
  for (uint32_t slot = NextUsedSlot(0); slot < kUserPtpSlots;
       slot = NextUsedSlot(slot + 1)) {
    if (l1_[slot].present() && l1_[slot].need_copy) {
      count++;
    }
  }
  return count;
}

uint64_t PageTable::PresentPteCount() const {
  uint64_t count = 0;
  for (uint32_t slot = NextUsedSlot(0); slot < kUserPtpSlots;
       slot = NextUsedSlot(slot + 1)) {
    if (l1_[slot].present()) {
      count += alloc_->Get(l1_[slot].ptp).present_count();
    }
  }
  return count;
}

}  // namespace sat
