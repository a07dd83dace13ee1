#include "src/vm/scrub.h"

#include <algorithm>
#include <utility>

#include "src/arch/check.h"
#include "src/pt/page_table.h"
#include "src/vm/vm_manager.h"

namespace sat {

namespace {

// Facts the sharers' L1 entries hold about a PTP. Every sharer names it
// under the same domain (kDomainUser when nobody does).
DomainId DomainOf(const PageTablePage& ptp) {
  return ptp.sharers().empty()
             ? kDomainUser
             : ptp.sharers().back()->l1(ptp.slot()).domain;
}

bool AnySharerNeedsCopy(const PageTablePage& ptp) {
  for (const PageTable* table : ptp.sharers()) {
    if (table->l1(ptp.slot()).need_copy) {
      return true;
    }
  }
  return false;
}

}  // namespace

void Scrubber::RepairedSite(const PageTablePage& ptp, uint32_t index) {
  counters_->scrub_repairs++;
  // The repaired entry's old global bit is exactly what may have rotted,
  // so the shootdown reaches as far as a global entry's would.
  ptps_->FlushPte(ptp.id(), index, /*global=*/true);
}

void Scrubber::RebuildFromFrame(PageTablePage& ptp, uint32_t index,
                                FrameNumber frame) {
  // Conservative attributes: read-only, non-global, but executable — the
  // simulated MMU allows reads and execution through this entry, and the
  // first write takes a permission fault that restores the precise
  // permissions from the VMA, exactly like a COW fault would.
  ptp.RepairHw(index, HwPte::MakePage(frame, PtePerm::kReadOnly,
                                      /*global=*/false, /*executable=*/true));
  RepairedSite(ptp, index);
}

bool Scrubber::TryRepairRunReplica(PageTablePage& ptp, uint32_t index) {
  // A legitimately small (or empty) PTE can never sit inside a live run:
  // promotion and demotion rewrite all 16 words or none, so a clear
  // majority of identical large replicas among the 16-aligned neighbours
  // convicts any disagreeing word of rot.
  const uint32_t run_first = index & ~(kPtesPerLargePage - 1);
  HwPte exemplar;
  bool have_exemplar = false;
  uint32_t votes = 0;
  for (uint32_t i = run_first; i < run_first + kPtesPerLargePage; ++i) {
    if (i == index) {
      continue;
    }
    const HwPte sibling = ptp.hw(i);
    if (!sibling.valid() || !sibling.large() ||
        sibling.frame() % kPtesPerLargePage != 0) {
      continue;
    }
    if (!have_exemplar) {
      exemplar = sibling;
      have_exemplar = true;
      votes = 1;
    } else if (sibling == exemplar) {
      votes++;
    }
  }
  if (votes < kPtesPerLargePage / 2 || ptp.hw(index) == exemplar) {
    return false;
  }
  ptp.RecountPresentForScrub();
  ptp.RepairHw(index, exemplar);
  RepairedSite(ptp, index);
  return true;
}

bool Scrubber::TryRepairFromReplicaMajority(PageTablePage& ptp,
                                            uint32_t index) {
  // Last resort before declaring a site unrepairable: with NUMA page-table
  // replication active, the per-node replicas are one more redundant copy
  // of the hardware word. A strict majority across {master, replicas} that
  // disagrees with the master convicts the master word of rot.
  if (!replica_majority_) {
    return false;
  }
  const std::optional<uint32_t> majority = replica_majority_(ptp.id(), index);
  if (!majority.has_value() || *majority == ptp.hw(index).raw()) {
    return false;
  }
  ptp.RepairHw(index, HwPte::FromRaw(*majority));
  RepairedSite(ptp, index);
  return true;
}

void Scrubber::DropSite(PageTablePage& ptp, uint32_t index,
                        FrameNumber frame) {
  // Clean refetchable page: tear the mapping down entirely; the next touch
  // refaults it from the backing file. Recount first — Set's present-count
  // bookkeeping asserts on tables whose validity bits were flipped.
  ptp.RecountPresentForScrub();
  rmap_->Remove(frame, ptp.id(), index);
  ptp.Set(index, HwPte{}, LinuxPte{});
  phys_->UnrefFrame(frame);
  RepairedSite(ptp, index);
}

ScrubSiteResult Scrubber::ScrubSite(PageTablePage& ptp, uint32_t index) {
  const HwPte hw = ptp.hw(index);
  const LinuxPte sw = ptp.sw(index);
  const PtpId id = ptp.id();

  if (!hw.valid()) {
    if (!sw.present()) {
      return ScrubSiteResult::kClean;  // empty or swap entry: consistent
    }
    // Validity rotted off a mapped entry. The shadow says present, so the
    // rmap (or, for a zero-page mapping, the zero frame) still knows what
    // was mapped here. A replica of a collapsed run is rebuilt from its
    // neighbours instead — the rmap rebuild below would install a small
    // PTE and leave the run torn.
    ptp.RecountPresentForScrub();
    if (TryRepairRunReplica(ptp, index)) {
      return ScrubSiteResult::kRepaired;
    }
    const std::optional<FrameNumber> truth = rmap_->FindAtSite(id, index);
    if (truth.has_value()) {
      RebuildFromFrame(ptp, index, *truth);
    } else if (!sw.dirty()) {
      RebuildFromFrame(ptp, index, phys_->zero_frame());
    } else if (TryRepairFromReplicaMajority(ptp, index)) {
      return ScrubSiteResult::kRepaired;
    } else {
      return ScrubSiteResult::kUnrepairable;  // dirty page, no copy left
    }
    return ScrubSiteResult::kRepaired;
  }

  if (!sw.present()) {
    // Spurious-valid: the type bits rotted *on* over an empty or swap
    // shadow entry. No reference was ever taken through this descriptor.
    if (rmap_->FindAtSite(id, index).has_value()) {
      // The rmap insists something is mapped here while the shadow says
      // not: two trusted copies disagree, so neither can repair the other
      // — unless the NUMA replicas hold a majority word to break the tie.
      if (TryRepairFromReplicaMajority(ptp, index)) {
        return ScrubSiteResult::kRepaired;
      }
      return ScrubSiteResult::kUnrepairable;
    }
    ptp.RecountPresentForScrub();
    ptp.RepairHw(index, HwPte{});
    RepairedSite(ptp, index);
    return ScrubSiteResult::kRepaired;
  }

  // Valid and present: the mapped case. Run-replica voting first — a
  // torn run must be made whole again before the per-word checks below
  // "repair" the word into an even more torn small PTE.
  if (TryRepairRunReplica(ptp, index)) {
    return ScrubSiteResult::kRepaired;
  }
  const FrameNumber frame = MappedFrameOf(hw, index);
  bool frame_ok = phys_->UserMappable(frame);
  if (frame_ok && frame != phys_->zero_frame() &&
      phys_->frame(frame).kind != FrameKind::kKernel) {
    // Zero/kernel frames are deliberately absent from the rmap; everything
    // else must have an rmap entry naming exactly this site.
    frame_ok = rmap_->HasSite(frame, id, index);
  }
  if (!frame_ok) {
    ptp.RecountPresentForScrub();
    const std::optional<FrameNumber> truth = rmap_->FindAtSite(id, index);
    if (truth.has_value()) {
      const PageFrame& meta = phys_->frame(*truth);
      if (meta.kind == FrameKind::kFileCache && !sw.dirty()) {
        DropSite(ptp, index, *truth);
      } else {
        RebuildFromFrame(ptp, index, *truth);
      }
      return ScrubSiteResult::kRepaired;
    }
    if (!sw.dirty()) {
      // Present, clean, and unknown to the rmap: only a zero-page mapping
      // has that shape (zero frames are kept out of the rmap, and a dirty
      // bit would mean a private copy existed). Re-point at the zero frame;
      // a later write COWs away from it as usual.
      RebuildFromFrame(ptp, index, phys_->zero_frame());
      return ScrubSiteResult::kRepaired;
    }
    if (TryRepairFromReplicaMajority(ptp, index)) {
      return ScrubSiteResult::kRepaired;
    }
    return ScrubSiteResult::kUnrepairable;  // dirty page, no copy left
  }

  // A large descriptor must name a 64 KB-aligned base. A small entry
  // whose large bit rotted on at a 16-aligned index passes the frame
  // check above (replica 0 maps the base itself), so validate the shape
  // separately and rebuild as a plain 4 KB entry.
  if (hw.large() && hw.frame() % kPtesPerLargePage != 0) {
    ptp.RecountPresentForScrub();
    RebuildFromFrame(ptp, index, frame);
    return ScrubSiteResult::kRepaired;
  }

  // Frame bits are fine; check the attribute bits.
  HwPte fixed = hw;
  const uint8_t perm_raw = static_cast<uint8_t>(hw.perm());
  if (perm_raw == 0 || perm_raw == 3) {
    // kNone would permission-fault every access into a SIGSEGV; 3 is not
    // an encoding at all. Read-only is always recoverable.
    fixed.set_perm(PtePerm::kReadOnly);
  }
  if (fixed.perm() == PtePerm::kReadWrite) {
    const PageFrame& meta = phys_->frame(frame);
    const bool cow_only = frame == phys_->zero_frame() || meta.ksm_stable;
    const bool region_ro = !sw.writable();
    // A PTP shared by two or more is NEED_COPY in every sharer; a sole
    // sharer keeps the mark until its first write fault drops it.
    const bool shared_wp =
        !config_->hw_l1_write_protect && AnySharerNeedsCopy(ptp);
    if (cow_only || region_ro || shared_wp) {
      fixed.set_perm(PtePerm::kReadOnly);
    }
  }
  // Global descriptors are only legal in zygote-domain PTPs.
  if (fixed.global() &&
      (!config_->share_tlb_global || DomainOf(ptp) != kDomainZygote)) {
    fixed.set_global(false);
  }
  if (fixed != hw) {
    ptp.RepairHw(index, fixed);
    RepairedSite(ptp, index);
    return ScrubSiteResult::kRepaired;
  }
  return ScrubSiteResult::kClean;
}

ScrubPassResult Scrubber::RunPass(uint32_t ptp_budget) {
  ScrubPassResult result;

  // Snapshot the live PTP population; the cursor makes successive passes
  // cover all of it round-robin even when the budget is small.
  std::vector<PtpId> live;
  ptps_->ForEachLive(
      [&](const PageTablePage& ptp) { live.push_back(ptp.id()); });
  if (!live.empty()) {
    const uint64_t n =
        std::min<uint64_t>(ptp_budget, static_cast<uint64_t>(live.size()));
    for (uint64_t k = 0; k < n; ++k) {
      const PtpId id = live[(cursor_ + k) % live.size()];
      PageTablePage& ptp = ptps_->Get(id);
      result.ptps_walked++;
      for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
        switch (ScrubSite(ptp, i)) {
          case ScrubSiteResult::kRepaired:
            result.repairs++;
            break;
          case ScrubSiteResult::kUnrepairable:
            result.unrepairable_sites.push_back({id, i});
            break;
          case ScrubSiteResult::kClean:
            break;
        }
      }
    }
    cursor_ = (cursor_ + n) % live.size();
  }

  // Orphan sweep: an anonymous frame whose references are not explained by
  // any rmap entry or swap-cache residency is unreachable — typically the
  // residue of a descriptor whose frame bits rotted before teardown could
  // release it. Pull it out of circulation so the leak cannot be re-issued
  // as someone else's page.
  for (FrameNumber fn = 0; fn < phys_->total_frames(); ++fn) {
    const PageFrame& meta = phys_->frame(fn);
    if (meta.kind != FrameKind::kAnon || meta.ksm_stable ||
        meta.ref_count == 0) {
      continue;
    }
    if (rmap_->MapCount(fn) != 0) {
      continue;
    }
    if (zram_ != nullptr && zram_->CacheSlotOf(fn).has_value()) {
      continue;
    }
    const uint32_t stale_refs = meta.ref_count;
    phys_->QuarantineFrame(fn);
    for (uint32_t r = 0; r < stale_refs; ++r) {
      phys_->UnrefFrame(fn);
    }
    counters_->scrub_repairs++;
    result.repairs++;
  }

  // zram sweep: every live slot's checksum, every pass (cheap — one hash
  // per slot).
  if (zram_ != nullptr && zram_->enabled()) {
    std::vector<SwapSlotId> bad_cached;
    std::vector<SwapSlotId> bad_lost;
    zram_->ForEachSlot([&](SwapSlotId slot, uint32_t /*refs*/,
                           uint32_t /*bytes*/, FrameNumber cached) {
      if (zram_->SlotChecksumOk(slot)) {
        return;
      }
      if (cached != ZramStore::kNoFrame) {
        bad_cached.push_back(slot);
      } else {
        bad_lost.push_back(slot);
      }
    });
    for (SwapSlotId slot : bad_cached) {
      // The decompressed copy still sits in the swap cache: re-duplicate
      // the compressed copy from it and restamp the checksum.
      const FrameNumber cached = zram_->CacheLookup(slot);
      zram_->RepairSlotContent(slot, phys_->frame(cached).content);
      counters_->scrub_repairs++;
      result.repairs++;
    }
    result.unrepairable_slots = std::move(bad_lost);
  }

  return result;
}

}  // namespace sat
