// Page-table pages (PTPs) and their allocator.
//
// One PTP is a single 4 KB physical frame laid out exactly as Linux/ARM
// lays it out (the paper's Figure 5):
//
//     +0     Linux PTE table 0   (256 software entries for the even MB)
//     +1024  Linux PTE table 1   (256 software entries for the odd MB)
//     +2048  HW PTE table 0      (256 hardware entries for the even MB)
//     +3072  HW PTE table 1      (256 hardware entries for the odd MB)
//
// so a PTP maps a 2 MB-aligned span of virtual address space. The hardware
// walker reads the HW half; the simulated cache hierarchy therefore sees
// PTE fetches as loads from `frame * 4096 + 2048 + index * 4` — which is
// how a *shared* PTP turns into shared L2 cache lines across processes,
// one of the paper's claimed benefits.
//
// The paper counts a PTP's sharers in its frame's `struct page::mapcount`.
// Here each PTP keeps the list itself — the page tables whose L1 entry
// names it, plus the 2 MB slot it serves — so the kernel reads *which*
// address spaces share it (shootdown masks, oops victims, a site's
// virtual address) straight from the PTP; the count is the list's size.
//
// Each PTP also keeps the background daemons' *pending* masks: one bit per
// 64 KB block for huged and one bit per entry for ksmd. Every change to an
// entry's hardware word sets its bits; a daemon clears a bit only when it
// has just found that block or entry ineligible (ClassifyBlock's
// kIneligible, an early exit of KsmDaemon::ScanPage), so a clear bit
// always names a block or entry the daemon would find ineligible now, and
// the daemons visit only the set ones. A settled verdict reads two kinds of
// fact: the hardware words themselves, and the kind and ksm_stable mark of
// a frame a word holds a reference on. Neither moves while the word stays
// put, except that KSM's Promote marks a frame stable without rewriting a
// read-only clean mapping (it sets the huged bits of the mappings it visits
// itself), and a chaos bit flip leaves a word naming a frame it holds no
// reference on (a PTP that took one never clears a bit again). Because the
// masks live in the PTP, a shared PTP's block settles once for all of its
// sharers.

#ifndef SRC_PT_PTP_H_
#define SRC_PT_PTP_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/arch/pte.h"
#include "src/arch/types.h"
#include "src/mem/phys_memory.h"
#include "src/stats/counters.h"

namespace sat {

class PageTable;

// Where every TLB shootdown the page-table, VM and daemon layers need goes
// — the one path from a page-table edit to the cores that may cache it.
// The kernel implements it over the machine's shootdown machinery and
// registers itself on the PtpAllocator; unset, flushing is a no-op (the
// page-table-only tests have no TLBs).
class TlbShootdown {
 public:
  virtual ~TlbShootdown() = default;
  // Invalidates every TLB entry of the address space `table` belongs to
  // (Figure 6's "flush all TLB entries occupied by the current process"):
  // an ASID shootdown over every core its owner task ran on. Issued by an
  // unshare, by fork's COW downgrade of the parent, and by huged/ksmd's
  // lazy unshares.
  virtual void FlushSpace(const PageTable& table) = 0;
  // Invalidates every TLB entry that may cache the PTE at (`ptp`, `index`)
  // after it was cleared, downgraded or repointed, on every core any
  // sharer of the PTP ran on. `global` widens the reach to every core the
  // zygote sharing group ran on, where a global entry may be cached.
  // Issued by reclaim, swap-out, ksmd, huged, scrubd and the NUMA replica
  // sweep.
  virtual void FlushPte(PtpId ptp, uint32_t index, bool global) = 0;
};

// Observes every mutation of a PTP's hardware half — the single
// write-through path the NUMA replication engine (src/numa) keeps
// per-node replicas coherent with. Notified by Set/Clear/UpdateFlags/
// RepairHw; deliberately NOT by CorruptHwForChaos, which models a stray
// bit flip in the master frame's DRAM and must leave replicas intact so
// scrubd can use them as a repair source.
class PtpWriteObserver {
 public:
  virtual ~PtpWriteObserver() = default;
  // The hardware descriptor word at (`ptp`, `index`) is now `raw_hw`.
  virtual void OnHwWrite(PtpId ptp, uint32_t index, uint32_t raw_hw) = 0;
  // The PTP's last sharer dropped; any replicas are now stale.
  virtual void OnPtpDestroyed(PtpId ptp) = 0;
};

class PageTablePage {
 public:
  PageTablePage(PtpId id, FrameNumber frame, uint32_t slot)
      : id_(id), frame_(frame), slot_(slot) {}

  PtpId id() const { return id_; }
  FrameNumber frame() const { return frame_; }

  // The 2 MB slot every sharer maps this PTP at (sharing never moves it).
  uint32_t slot() const { return slot_; }
  // The virtual address entry `index` translates, in every sharer.
  VirtAddr VaOf(uint32_t index) const {
    return PtpSlotBase(slot_) + index * kPageSize;
  }

  // The page tables whose L1 entry names this PTP, in ascending owner-pid
  // order: only fork appends (the child is always the newest task) and
  // removal keeps the rest in place.
  const std::vector<const PageTable*>& sharers() const { return sharers_; }
  uint32_t SharerCount() const {
    return static_cast<uint32_t>(sharers_.size());
  }

  const HwPte& hw(uint32_t index) const { return hw_[index]; }
  const LinuxPte& sw(uint32_t index) const { return sw_[index]; }

  // ---------------------------------------------------------------------
  // Daemon pending masks (see the file comment).
  // ---------------------------------------------------------------------

  // huged's mask: bit b is set while 64 KB block b (entries 16b..16b+15)
  // may be collapsible.
  uint32_t huge_pending() const { return huge_pending_; }
  // ksmd's bit for entry `index`: set while the entry may be a merge
  // candidate.
  bool KsmPending(uint32_t index) const {
    return (ksm_pending_[index / 64] >> (index % 64)) & 1;
  }
  // The first entry in [from, end) whose ksmd bit is set, or `end`.
  uint32_t NextKsmPending(uint32_t from, uint32_t end) const;

  // Sets the huged bit of the block holding `index`: the KSM promotion
  // that makes its frame stable changes the block's verdict under huged's
  // unmerge policy without rewriting the word.
  void MarkHugePending(uint32_t index) {
    huge_pending_ |= uint32_t{1} << (index / kPtesPerLargePage);
  }
  // huged found the block holding `index` ineligible; ksmd found entry
  // `index` ineligible. Both are no-ops once the PTP has taken a chaos
  // flip.
  void SettleHuge(uint32_t index) {
    if (!chaos_flipped_) {
      huge_pending_ &= ~(uint32_t{1} << (index / kPtesPerLargePage));
    }
  }
  void SettleKsm(uint32_t index) {
    if (!chaos_flipped_) {
      ksm_pending_[index / 64] &= ~(uint64_t{1} << (index % 64));
    }
  }

  // Number of valid hardware entries, maintained by Set/Clear.
  uint32_t present_count() const { return present_count_; }

  // Installs (or replaces) the entry at `index`.
  void Set(uint32_t index, HwPte hw_pte, LinuxPte sw_pte);

  // Invalidates the entry at `index`.
  void Clear(uint32_t index);

  // In-place mutation that cannot change validity (permission twiddles,
  // referenced/dirty updates). Kept separate from Set so present_count
  // stays trivially correct. Sets the pending bits only when the hardware
  // word changes, so the young/dirty upkeep of every touch and the LRU's
  // aging pass leave them alone.
  void UpdateFlags(uint32_t index, HwPte hw_pte, LinuxPte sw_pte);

  // Chaos backdoor: XORs the raw hardware descriptor word at `index`
  // without maintaining present_count_ or the shadow entry — exactly what
  // a stray bit flip in the PTP's frame does. The Linux shadow entry and
  // the rmap survive as the redundant copy scrubd repairs from. The PTP
  // never settles a pending bit again.
  void CorruptHwForChaos(uint32_t index, uint32_t xor_mask);

  // Scrub repair: overwrites the hardware descriptor from a trusted
  // source and resynchronises present_count_ with the table.
  void RepairHw(uint32_t index, HwPte hw_pte);

  // Recounts present_count_ from the hardware table (hygiene after
  // corruption was detected and healed). Returns the fresh count.
  uint32_t RecountPresentForScrub();

  // Physical address of the hardware PTE for `index` (the address the
  // hardware walker loads, and thus the address the cache model sees).
  PhysAddr HwEntryPhysAddr(uint32_t index) const {
    const uint32_t mb = index / kL2EntriesPerTable;            // 0 or 1
    const uint32_t within = index % kL2EntriesPerTable;
    return FrameToPhys(frame_) + 2048 + mb * 1024 + within * 4;
  }

  // NUMA migration: retargets this PTP onto a frame on another node.
  // Translations are unchanged (the PTE *contents* stay identical), only
  // the physical address walkers fetch them from moves, so no TLB flush
  // is required. Frame metadata transfer is the caller's job.
  void SetFrameForMigration(FrameNumber frame) { frame_ = frame; }

  void set_write_observer(PtpWriteObserver* observer) {
    write_observer_ = observer;
  }

 private:
  friend class PtpAllocator;

  void NotifyHwWrite(uint32_t index) {
    if (write_observer_ != nullptr) {
      write_observer_->OnHwWrite(id_, index, hw_[index].raw());
    }
  }

  // The hardware word at `index` changed: both daemons must look again.
  void MarkPending(uint32_t index) {
    MarkHugePending(index);
    ksm_pending_[index / 64] |= uint64_t{1} << (index % 64);
  }

  PtpId id_;
  FrameNumber frame_;
  uint32_t slot_;
  std::vector<const PageTable*> sharers_;
  uint32_t present_count_ = 0;
  PtpWriteObserver* write_observer_ = nullptr;
  // A fresh PTP's entries are all invalid, which both daemons find
  // ineligible, so both masks start clear.
  static_assert(kPtesPerPtp / kPtesPerLargePage == 32,
                "one huge_pending_ bit per 64 KB block");
  uint32_t huge_pending_ = 0;
  bool chaos_flipped_ = false;
  std::array<uint64_t, kPtesPerPtp / 64> ksm_pending_{};
  std::array<HwPte, kPtesPerPtp> hw_{};
  std::array<LinuxPte, kPtesPerPtp> sw_{};
};

// Owns every PTP in the simulated kernel. L1 entries reference PTPs by id;
// a PTP lives as long as its sharer list is non-empty.
class PtpAllocator {
 public:
  PtpAllocator(PhysicalMemory* phys, KernelCounters* counters)
      : phys_(phys), counters_(counters) {}

  PtpAllocator(const PtpAllocator&) = delete;
  PtpAllocator& operator=(const PtpAllocator&) = delete;

  // Allocates a PTP serving `slot` whose one sharer is `table` and bumps
  // ptps_allocated, or returns nullopt if no physical frame is available.
  std::optional<PtpId> TryAlloc(const PageTable* table, uint32_t slot);

  PageTablePage& Get(PtpId id) {
    assert(id >= 0 && static_cast<size_t>(id) < slab_.size());
    assert(slab_[static_cast<size_t>(id)] != nullptr && "use of freed PTP");
    return *slab_[static_cast<size_t>(id)];
  }
  const PageTablePage& Get(PtpId id) const {
    assert(id >= 0 && static_cast<size_t>(id) < slab_.size());
    assert(slab_[static_cast<size_t>(id)] != nullptr && "use of freed PTP");
    return *slab_[static_cast<size_t>(id)];
  }

  // Like Get but returns nullptr for freed/out-of-range ids (for the
  // invariant auditor, which must not abort on the corruption it reports).
  const PageTablePage* GetIfLive(PtpId id) const;

  // Appends `table` to the PTP's sharer list.
  void AddSharer(PtpId id, const PageTable* table);
  // Removes `table` from the sharer list, keeping the others in order;
  // frees the PTP (and its frame) when none remain. Returns true if the
  // PTP was destroyed. Frames mapped by its PTEs must already have been
  // released by the caller (the VM layer owns data-frame reference
  // counting).
  bool DropSharer(PtpId id, const PageTable* table);

  // Attaches the NUMA replication engine's coherence hook to every live
  // PTP and every PTP allocated from here on. Pass nullptr to detach.
  void set_write_observer(PtpWriteObserver* observer);

  // The TLB-shootdown sink every edit of these PTPs flushes through (see
  // TlbShootdown). Not owned; nullptr (the default) makes both flushes
  // no-ops.
  void set_shootdown(TlbShootdown* shootdown) { shootdown_ = shootdown; }
  TlbShootdown* shootdown() const { return shootdown_; }
  void FlushSpace(const PageTable& table) const {
    if (shootdown_ != nullptr) {
      shootdown_->FlushSpace(table);
    }
  }
  void FlushPte(PtpId ptp, uint32_t index, bool global) const {
    if (shootdown_ != nullptr) {
      shootdown_->FlushPte(ptp, index, global);
    }
  }

  uint64_t live_ptps() const { return live_count_; }

  // Deterministically picks a live PTP (scan from rand % slab size), or
  // nullopt when none is live. For chaos-injection target selection.
  std::optional<PtpId> AnyLiveId(uint64_t rand) const;

  // Visits every live PTP (for the invariant auditor).
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const auto& ptp : slab_) {
      if (ptp != nullptr) {
        fn(*ptp);
      }
    }
  }

 private:
  PhysicalMemory* phys_;
  KernelCounters* counters_;
  PtpWriteObserver* write_observer_ = nullptr;
  TlbShootdown* shootdown_ = nullptr;
  std::vector<std::unique_ptr<PageTablePage>> slab_;
  std::vector<PtpId> free_ids_;
  uint64_t live_count_ = 0;
};

}  // namespace sat

#endif  // SRC_PT_PTP_H_
