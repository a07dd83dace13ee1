// The per-address-space page table: a first-level directory of 2 MB slots,
// each naming a page-table page (PTP), plus the paper's PTP sharing and
// unsharing operations (Sections 3.1.1-3.1.2, Figure 6).
//
// Reference-counting discipline
// -----------------------------
// A valid PTE holds exactly one reference on the data frame it maps, owned
// by the *PTP* (not by the process) — this is what makes a PTE installed in
// a shared PTP correctly visible to, and accounted for, all sharers at
// once. SetPte takes the reference (and releases the previously mapped
// frame if the entry was valid); ClearPte releases it; unsharing copies
// entries into the new private PTP and thereby re-references the frames.
// Destroying a PTP (last sharer gone) releases every remaining reference.
//
// Swap entries follow the same discipline against the zram store: a swap
// PTE (LinuxPte::is_swap, hardware entry invalid) holds exactly one swap
// slot reference, owned by the PTP. Installing one refs the slot,
// overwriting or clearing one unrefs it, unsharing copies it into the
// private PTP with a fresh reference, and PTP teardown releases the rest.
// Attach the store with set_zram() before any swap entry can appear.

#ifndef SRC_PT_PAGE_TABLE_H_
#define SRC_PT_PAGE_TABLE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <optional>

#include "src/arch/domain.h"
#include "src/arch/pte.h"
#include "src/arch/types.h"
#include "src/mem/phys_memory.h"
#include "src/pt/ptp.h"
#include "src/pt/rmap.h"
#include "src/stats/counters.h"

namespace sat {

class Tracer;
class ZramStore;

// Location of one PTE: which PTP and which index within it.
struct PteRef {
  PageTablePage* ptp = nullptr;
  uint32_t index = 0;
};

// The frame a PTE at `index` actually maps. ARM large-page descriptors
// are 16 identical replicas all naming the *base* frame of the 64 KB
// block; the replica at offset i maps base + i. Shared with the invariant
// auditor, which recounts frame references from raw PTEs.
inline FrameNumber MappedFrameOf(const HwPte& pte, uint32_t index) {
  if (!pte.large()) {
    return pte.frame();
  }
  return pte.frame() + (index & (kPtesPerLargePage - 1));
}

class PageTable {
 public:
  // `rmap` is the kernel-wide reverse map; pass nullptr in page-table-only
  // tests to skip rmap maintenance (reclaim then cannot run).
  PageTable(PtpAllocator* alloc, PhysicalMemory* phys, KernelCounters* counters,
            ReverseMap* rmap = nullptr)
      : alloc_(alloc), phys_(phys), counters_(counters), rmap_(rmap) {}

  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // -------------------------------------------------------------------------
  // First level.
  // -------------------------------------------------------------------------

  const L1Entry& l1(uint32_t slot) const { return l1_[slot]; }

  // The used-slot mask: a slot's bit is set whenever its L1 entry gains a
  // PTP or a section, and cleared when ReleaseSlot empties it. A set bit
  // may name an empty slot; a filled slot always has its bit.
  bool SlotUsed(uint32_t slot) const {
    return (used_[slot / 64] >> (slot % 64)) & 1;
  }

  // The first used slot at or after `from`, or kUserPtpSlots when there is
  // none. Loops over a table's slots step with it, so they visit only the
  // slots the table has filled, in ascending order.
  uint32_t NextUsedSlot(uint32_t from) const {
    uint32_t word = from / 64;
    if (word >= kUsedWords) {
      return kUserPtpSlots;
    }
    uint64_t bits = used_[word] & (~uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++word == kUsedWords) {
        return kUserPtpSlots;
      }
      bits = used_[word];
    }
    return word * 64 + static_cast<uint32_t>(std::countr_zero(bits));
  }

  // True when `va`'s slot points at a PTP marked NEED_COPY (shared, COW).
  bool SlotNeedsCopy(VirtAddr va) const {
    return l1_[PtpSlotIndex(va)].need_copy;
  }

  // Returns the PTP of `va`'s slot, allocating a fresh (private) one, with
  // this table as its one sharer, if the slot is empty. Must not be called on a NEED_COPY slot for a mutating
  // purpose — unshare first; aborts on that misuse.
  PageTablePage& EnsurePtp(VirtAddr va, DomainId domain);

  // Fallible variant: returns nullptr if an empty slot needs a PTP and no
  // physical frame is available. The slot is left untouched on failure.
  PageTablePage* TryEnsurePtp(VirtAddr va, DomainId domain);

  // -------------------------------------------------------------------------
  // Second level.
  // -------------------------------------------------------------------------

  // Finds the PTE mapping `va`; nullopt if the slot has no PTP. The PTE
  // itself may still be invalid.
  std::optional<PteRef> FindPte(VirtAddr va) const;

  // Installs a PTE, taking a reference on hw_pte's frame and releasing the
  // previously mapped frame if any. The slot must already have a PTP (use
  // EnsurePtp) and must not be NEED_COPY — except for the paper's read
  // fault path, which deliberately populates *new* entries in a shared PTP
  // so they become visible to every sharer (pass allow_shared=true; the
  // entry must then be COW-safe, i.e. not hardware-writable).
  void SetPte(VirtAddr va, HwPte hw_pte, LinuxPte sw_pte, bool allow_shared = false);

  // Invalidates the PTE mapping `va` (no-op when absent or invalid),
  // releasing the mapped frame. The slot must not be NEED_COPY.
  void ClearPte(VirtAddr va);

  // Permission/flag update that keeps the entry valid (COW resolution,
  // referenced/dirty bookkeeping). The slot must not be NEED_COPY unless
  // allow_shared (used only for referenced/dirty bit upkeep, which is
  // harmlessly shared between sharers).
  void UpdatePte(VirtAddr va, HwPte hw_pte, LinuxPte sw_pte,
                 bool allow_shared = false);

  // Clears every valid PTE in [start, end). Caller must have unshared every
  // overlapped slot first; asserts on NEED_COPY slots.
  void ClearRange(VirtAddr start, VirtAddr end);

  // Write-protects every present PTE in [start, end) (mprotect support).
  void WriteProtectRange(VirtAddr start, VirtAddr end);

  // -------------------------------------------------------------------------
  // Large-page representation changes (the translation-reach engine).
  //
  // Both operations rewrite descriptors in place without touching frame
  // reference counts or the rmap: a large PTE's replica at offset i and a
  // small PTE at the same index map the same frame (MappedFrameOf), so
  // promotion and demotion are pure representation changes.
  // -------------------------------------------------------------------------

  // Rewrites the 16 PTEs of the 64 KB block at `block_base` (all valid,
  // small, uniform attributes, mapping frames base..base+15 in order;
  // asserts otherwise) as one large PTE — 16 replicas naming `base`.
  // Legal even in a shared (NEED_COPY) PTP: the translation every sharer
  // sees is unchanged, so one promotion serves all of them.
  void PromoteRunInPlace(VirtAddr block_base);

  // Rewrites a large PTE's replicas in the 64 KB block at `block_base`
  // back to 4 KB PTEs mapping the same frames. The slot must be private
  // (unshare first). Returns the number of replicas rewritten (0 when the
  // block holds no large replicas).
  uint32_t SplitLargeRun(VirtAddr block_base);

  // -------------------------------------------------------------------------
  // 1 MB section mappings (first-level, no second level).
  //
  // Sections map permanent kernel-owned frames (the eager zygote-code
  // mapping), so they carry no frame references: install/clear/copy are
  // pure descriptor edits. A section half takes precedence over any PTE
  // for the same range; the kernel never installs both.
  // -------------------------------------------------------------------------

  // The section descriptor covering `va`, or nullptr.
  const SectionDesc* SectionAt(VirtAddr va) const {
    const L1Entry& entry = l1_[PtpSlotIndex(va)];
    const SectionDesc& half = entry.section[SectionHalfIndex(va)];
    return half.present() ? &half : nullptr;
  }

  // Installs a 1 MB section at `va` (section-aligned) over `base` (first
  // of 256 contiguous frames). The half must not already be mapped.
  void InstallSection(VirtAddr va, FrameNumber base, bool global,
                      bool executable, DomainId domain);

  // Drops the section descriptor covering `va` (no-op when absent). This
  // mm's view only; the permanent frames are untouched.
  void ClearSection(VirtAddr va);

  // Copies `slot`'s section descriptors into `child` (fork). Pure value
  // copy; both parents and children translate through the same frames.
  void CopySectionsInto(PageTable& child, uint32_t slot) const;

  // Number of present PTEs in [start, end) (diagnostic / fork costing).
  uint32_t CountPresentInRange(VirtAddr start, VirtAddr end) const;

  // -------------------------------------------------------------------------
  // Sharing (the paper's mechanism).
  // -------------------------------------------------------------------------

  // Shares this table's `slot` into `child` at fork time (Section 3.1.1),
  // appending `child` to the PTP's sharer list. If the PTP is not yet marked NEED_COPY, performs the write-protect pass
  // over its writable PTEs and marks it here first. Returns the number of
  // PTEs write-protected (0 on the already-shared fast path).
  //
  // `skip_write_protect_pass` models the hardware-support ablation of
  // Section 3.1.3: an x86-style first-level write-protect bit would make
  // the per-PTE pass unnecessary (the walker then treats NEED_COPY itself
  // as denying writes; see src/hw).
  uint32_t ShareSlotInto(PageTable& child, uint32_t slot,
                         bool skip_write_protect_pass = false);

  // Unshares `slot` (Figure 6). If this table is the sole sharer, just
  // clears NEED_COPY. Otherwise clears the L1 entry, flushes this address
  // space's TLB entries through the allocator's shootdown sink (the "flush
  // all TLB entries occupied by the current process" step), allocates a
  // private PTP, copies the valid PTEs (only the referenced ones when
  // `copy_referenced_only`, the Section 3.1.3 ablation), and leaves the
  // shared PTP's sharer list. Returns the number of PTEs copied, or
  // nullopt if the private copy's PTP cannot be allocated. The fresh PTP
  // is allocated *before* the slot is detached, so failure leaves the
  // slot (and both sharers' view of it) untouched — callers can reclaim
  // and retry.
  //
  // `write_protect_on_copy` supports the x86-style L1-write-protect
  // ablation: when the share-time per-PTE protection pass was skipped
  // (hardware enforces COW at the first level), writable entries must be
  // write-protected as they are copied out so per-page COW still works.
  std::optional<uint32_t> TryUnshareSlot(uint32_t slot,
                                         bool copy_referenced_only,
                                         bool write_protect_on_copy = false);

  // Releases `slot` entirely (process exit / full teardown): leaves the
  // PTP's sharer list, destroying the PTP and releasing its mapped frames
  // if this was the last sharer.
  void ReleaseSlot(uint32_t slot);

  // Releases every used slot (exit path).
  void ReleaseAll();

  // -------------------------------------------------------------------------
  // Statistics.
  // -------------------------------------------------------------------------

  // Number of slots with a PTP.
  uint32_t PresentSlotCount() const;
  // Number of slots whose PTP is marked NEED_COPY here.
  uint32_t SharedSlotCount() const;
  // Number of valid PTEs across all present slots — the space's resident
  // set, counting pages in shared PTPs for every sharer (the OOM killer's
  // RSS metric).
  uint64_t PresentPteCount() const;

  PtpAllocator& allocator() { return *alloc_; }

  // The pid of the task whose address space this is (0 outside a kernel):
  // the link from a PTP's sharer list back to the sharing tasks.
  Pid owner() const { return owner_; }
  void set_owner(Pid pid) { owner_ = pid; }

  // Share/unshare operations report trace events when a tracer is set.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Swap-slot refcounting target. Required before swap PTEs are installed;
  // tables that never see swap entries can leave it unset.
  void set_zram(ZramStore* zram) { zram_ = zram; }

 private:
  static constexpr uint32_t kUsedWords = kUserPtpSlots / 64;
  static_assert(kUserPtpSlots % 64 == 0);

  void MarkUsed(uint32_t slot) {
    used_[slot / 64] |= uint64_t{1} << (slot % 64);
  }

  // Reference + rmap bookkeeping for the frame a PTE maps. Every valid
  // PTE holds one frame reference and (for reclaimable frames) one rmap
  // entry; Take/Drop keep the two in lockstep.
  void TakeFrame(const HwPte& pte, PtpId ptp, uint32_t index);
  void DropFrame(const HwPte& pte, PtpId ptp, uint32_t index);
  // Releases the swap-slot reference a swap software entry holds (no-op
  // for non-swap entries).
  void DropSwap(const LinuxPte& sw_pte);

  PtpAllocator* alloc_;
  PhysicalMemory* phys_;
  KernelCounters* counters_;
  ReverseMap* rmap_;
  Tracer* tracer_ = nullptr;
  ZramStore* zram_ = nullptr;
  Pid owner_ = 0;
  std::array<L1Entry, kUserPtpSlots> l1_{};
  std::array<uint64_t, kUsedWords> used_{};
};

}  // namespace sat

#endif  // SRC_PT_PAGE_TABLE_H_
