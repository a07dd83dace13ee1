// Compressed in-RAM swap backing store, modelled on Android's zram block
// device with a zsmalloc-style pool.
//
// The store hands out *swap slots*: refcounted handles to one compressed
// page each. A slot's reference count equals
//
//     #swap PTEs naming the slot  +  (1 if a swap-cache entry exists)
//
// where a swap PTE in a *shared* PTP counts once — exactly one PTE serves
// every sharer, mirroring how data-frame references work in this kernel
// (see src/pt/page_table.h). The slot is freed when the count reaches
// zero; additionally, when the count drops to 1 and that last reference
// is the swap cache itself, the store drops the cache entry and frees the
// slot eagerly (the analogue of Linux's try_to_free_swap: no swap PTE can
// ever fault the copy back in, so keeping it compressed is pure waste).
//
// The swap cache maps slot -> physical frame for pages that are currently
// decompressed. It is what makes a slot shared by many address spaces
// decompress once: the first swap-in allocates and "decompresses", later
// swap-ins find the frame. The cache holds one frame reference and one
// slot reference per entry. Each direction lives in its owner's record:
// the slot's `cached` frame, and the frame's PageFrame::swap_cache_slot.
//
// No page contents are simulated, so "compression" samples a per-page
// compressed size from a seeded PRNG (a few percent incompressible, the
// rest uniform in [512, 3072] bytes — roughly lz4 on Android heaps). The
// pool backing the compressed bytes is real simulated RAM: kZram frames
// allocated fallibly from PhysicalMemory, grown and shrunk to
// ceil(stored_bytes / page size). Swapping consumes memory to free
// memory, exactly the zram trade-off.

#ifndef SRC_MEM_ZRAM_H_
#define SRC_MEM_ZRAM_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/arch/pte.h"
#include "src/arch/types.h"
#include "src/mem/phys_memory.h"
#include "src/stats/rng.h"

namespace sat {

// Why a TryStore attempt failed: the logical device being at disksize is
// permanent pressure (writing more pages is pointless), while pool ENOMEM
// is transient physical exhaustion worth distinguishing in summaries.
enum class ZramStoreFailure : uint8_t {
  kNone = 0,
  kDisabled,    // store configured off (disksize 0)
  kStoreFull,   // logical device at disksize capacity
  kPoolEnomem,  // backing-pool frame allocation failed / fault injected
};

class ZramStore {
 public:
  static constexpr FrameNumber kNoFrame = static_cast<FrameNumber>(-1);

  // Content checksum stored per slot at compression time and verified on
  // decompress; a mismatch means the compressed copy rotted in the pool.
  // splitmix64's finalizer: cheap, and any single bit flip in the content
  // tag changes the checksum.
  static uint64_t ChecksumOf(uint64_t content) {
    uint64_t z = content + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // `disksize_bytes` is the logical device size (uncompressed capacity),
  // like /sys/block/zram0/disksize. Zero disables the store entirely.
  ZramStore(PhysicalMemory* phys, uint64_t disksize_bytes, uint64_t seed);
  ~ZramStore();

  ZramStore(const ZramStore&) = delete;
  ZramStore& operator=(const ZramStore&) = delete;

  bool enabled() const { return disksize_bytes_ > 0; }
  uint64_t disksize_bytes() const { return disksize_bytes_; }

  // Compresses one page into a fresh slot and returns it holding one
  // reference (the caller's, typically handed over to the first swap
  // PTE). `content` is the page's content tag (PageFrame::content); it is
  // preserved across the compress/decompress round trip so KSM can still
  // recognise the page after swap-in. Fails when the logical device is
  // full or the pool cannot grow (physical exhaustion or injected fault)
  // — nothing is mutated then. `why`, when non-null, receives the failure
  // cause (kNone on success).
  std::optional<SwapSlotId> TryStore(uint64_t content,
                                     ZramStoreFailure* why = nullptr);

  void Ref(SwapSlotId slot);
  // Drops one reference; frees the slot at zero. If the drop leaves the
  // swap cache as the only holder, the cache entry (and its frame) is
  // released too and the slot freed — see the header comment.
  void Unref(SwapSlotId slot);

  // Swap cache: at most one frame per slot and one slot per frame. Adding
  // takes a reference on both; removing drops both.
  void AddToCache(SwapSlotId slot, FrameNumber frame);
  void RemoveFromCache(SwapSlotId slot);
  FrameNumber CacheLookup(SwapSlotId slot) const;  // kNoFrame when absent
  std::optional<SwapSlotId> CacheSlotOf(FrameNumber frame) const;

  bool SlotLive(SwapSlotId slot) const;
  uint32_t SlotRefCount(SwapSlotId slot) const;
  uint32_t SlotBytes(SwapSlotId slot) const;
  uint64_t SlotContent(SwapSlotId slot) const;

  // True when the slot's stored content still matches the checksum taken
  // at store time. Swap-in verifies this before trusting the decompressed
  // bytes.
  bool SlotChecksumOk(SwapSlotId slot) const;

  // Chaos backdoor: flips bits of the stored compressed copy without
  // updating the checksum, exactly what pool rot would do.
  void CorruptSlotForChaos(SwapSlotId slot, uint64_t xor_mask);

  // Repair path: overwrite the slot with a freshly compressed copy of
  // `content` (re-duplication from a still-intact decompressed frame) and
  // restamp the checksum. Slot identity, size accounting and references
  // are unchanged, so sharers' swap PTEs stay valid.
  void RepairSlotContent(SwapSlotId slot, uint64_t content);

  // Deterministically picks a live slot (scan from rand % capacity), or
  // nullopt when no slot is live. For chaos injection target selection.
  std::optional<SwapSlotId> AnyLiveSlot(uint64_t rand) const;

  // Live usage.
  uint64_t live_slots() const { return live_slot_count_; }
  uint64_t stored_bytes() const { return stored_bytes_; }
  uint64_t pool_frame_count() const { return pool_.size(); }
  uint64_t cached_entries() const { return cached_entries_; }

  // Lifetime totals (for compression-ratio reporting).
  uint64_t pages_stored_total() const { return pages_stored_total_; }
  uint64_t bytes_compressed_total() const { return bytes_compressed_total_; }

  // fn(slot, ref_count, compressed_bytes, cached_frame_or_kNoFrame) for
  // every live slot; iteration order is unspecified. For the auditor.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (SwapSlotId id = 0; id < slots_.size(); ++id) {
      if (slots_[id].live) {
        fn(id, slots_[id].ref_count, slots_[id].bytes, slots_[id].cached);
      }
    }
  }

 private:
  struct Slot {
    uint32_t ref_count = 0;
    uint32_t bytes = 0;
    FrameNumber cached = kNoFrame;
    bool live = false;
    uint64_t content = 0;
    uint64_t checksum = 0;  // ChecksumOf(content) at store/repair time
  };

  uint32_t SampleCompressedSize();
  // Grows/shrinks the kZram pool to ceil(stored_bytes_ / kPageSize).
  bool TryGrowPoolFor(uint32_t extra_bytes);
  void ShrinkPool();
  void FreeSlot(SwapSlotId slot);

  PhysicalMemory* phys_;
  uint64_t disksize_bytes_;
  Rng rng_;

  std::vector<Slot> slots_;
  std::vector<SwapSlotId> free_slot_ids_;
  std::vector<FrameNumber> pool_;

  uint64_t live_slot_count_ = 0;
  uint64_t cached_entries_ = 0;
  uint64_t stored_bytes_ = 0;
  uint64_t pages_stored_total_ = 0;
  uint64_t bytes_compressed_total_ = 0;
};

}  // namespace sat

#endif  // SRC_MEM_ZRAM_H_
