#include "src/mem/zram.h"

#include "src/arch/check.h"

namespace sat {

ZramStore::ZramStore(PhysicalMemory* phys, uint64_t disksize_bytes,
                     uint64_t seed)
    : phys_(phys), disksize_bytes_(disksize_bytes), rng_(seed) {
  SAT_CHECK(phys_ != nullptr);
}

ZramStore::~ZramStore() {
  // Slots must have been released by task teardown before the store dies;
  // the pool frames are ours to return.
  for (const FrameNumber frame : pool_) {
    phys_->UnrefFrame(frame);
  }
}

uint32_t ZramStore::SampleCompressedSize() {
  // ~5% of pages are incompressible and stored raw; the rest compress to
  // somewhere between 1/8 and 3/4 of a page.
  if (rng_() % 100 < 5) {
    return kPageSize;
  }
  return 512 + static_cast<uint32_t>(rng_() % 2561);
}

bool ZramStore::TryGrowPoolFor(uint32_t extra_bytes) {
  const uint64_t needed =
      (stored_bytes_ + extra_bytes + kPageSize - 1) / kPageSize;
  while (pool_.size() < needed) {
    const std::optional<FrameNumber> frame =
        phys_->TryAllocFrame(FrameKind::kZram);
    if (!frame.has_value()) {
      return false;
    }
    pool_.push_back(*frame);
  }
  return true;
}

void ZramStore::ShrinkPool() {
  const uint64_t needed = (stored_bytes_ + kPageSize - 1) / kPageSize;
  while (pool_.size() > needed) {
    phys_->UnrefFrame(pool_.back());
    pool_.pop_back();
  }
}

std::optional<SwapSlotId> ZramStore::TryStore(uint64_t content,
                                              ZramStoreFailure* why) {
  if (why != nullptr) {
    *why = ZramStoreFailure::kNone;
  }
  if (!enabled()) {
    if (why != nullptr) *why = ZramStoreFailure::kDisabled;
    return std::nullopt;
  }
  if ((live_slot_count_ + 1) * kPageSize > disksize_bytes_) {
    if (why != nullptr) *why = ZramStoreFailure::kStoreFull;
    return std::nullopt;  // logical device full
  }
  // Sample the size first so the PRNG stream is independent of pool-growth
  // failures, then grow the pool before committing any slot state.
  const uint32_t bytes = SampleCompressedSize();
  if (!TryGrowPoolFor(bytes)) {
    if (why != nullptr) *why = ZramStoreFailure::kPoolEnomem;
    return std::nullopt;
  }
  SwapSlotId id;
  if (!free_slot_ids_.empty()) {
    id = free_slot_ids_.back();
    free_slot_ids_.pop_back();
  } else {
    id = static_cast<SwapSlotId>(slots_.size());
    SAT_CHECK(id <= LinuxPte::kMaxSwapSlot);
    slots_.emplace_back();
  }
  Slot& slot = slots_[id];
  slot.live = true;
  slot.ref_count = 1;
  slot.bytes = bytes;
  slot.cached = kNoFrame;
  slot.content = content;
  slot.checksum = ChecksumOf(content);
  live_slot_count_++;
  stored_bytes_ += bytes;
  pages_stored_total_++;
  bytes_compressed_total_ += bytes;
  return id;
}

void ZramStore::Ref(SwapSlotId id) {
  SAT_CHECK(id < slots_.size() && slots_[id].live && "ref of a dead slot");
  slots_[id].ref_count++;
}

void ZramStore::Unref(SwapSlotId id) {
  SAT_CHECK(id < slots_.size() && slots_[id].live && "unref of a dead slot");
  Slot& slot = slots_[id];
  SAT_CHECK(slot.ref_count > 0);
  if (--slot.ref_count == 0) {
    SAT_CHECK(slot.cached == kNoFrame &&
              "a cache entry must hold a slot reference");
    FreeSlot(id);
    return;
  }
  if (slot.ref_count == 1 && slot.cached != kNoFrame) {
    // Only the cache still holds the slot: no swap PTE can fault this copy
    // back in, so drop the compressed copy (try_to_free_swap). This
    // re-enters Unref and frees the slot.
    RemoveFromCache(id);
  }
}

void ZramStore::FreeSlot(SwapSlotId id) {
  Slot& slot = slots_[id];
  SAT_CHECK(stored_bytes_ >= slot.bytes);
  stored_bytes_ -= slot.bytes;
  live_slot_count_--;
  slot = Slot{};
  free_slot_ids_.push_back(id);
  ShrinkPool();
}

void ZramStore::AddToCache(SwapSlotId id, FrameNumber frame) {
  SAT_CHECK(id < slots_.size() && slots_[id].live);
  SAT_CHECK(slots_[id].cached == kNoFrame && "slot already cached");
  PageFrame& meta = phys_->frame(frame);
  SAT_CHECK(meta.swap_cache_slot == kNoSwapSlot &&
            "frame already caches another slot");
  slots_[id].cached = frame;
  meta.swap_cache_slot = id;
  cached_entries_++;
  slots_[id].ref_count++;
  phys_->RefFrame(frame);
}

void ZramStore::RemoveFromCache(SwapSlotId id) {
  SAT_CHECK(id < slots_.size() && slots_[id].live);
  const FrameNumber frame = slots_[id].cached;
  SAT_CHECK(frame != kNoFrame && "slot not cached");
  slots_[id].cached = kNoFrame;
  phys_->frame(frame).swap_cache_slot = kNoSwapSlot;
  cached_entries_--;
  phys_->UnrefFrame(frame);
  Unref(id);
}

FrameNumber ZramStore::CacheLookup(SwapSlotId id) const {
  return id < slots_.size() ? slots_[id].cached : kNoFrame;
}

std::optional<SwapSlotId> ZramStore::CacheSlotOf(FrameNumber frame) const {
  const SwapSlotId slot = phys_->frame(frame).swap_cache_slot;
  return slot == kNoSwapSlot ? std::nullopt : std::optional(slot);
}

bool ZramStore::SlotLive(SwapSlotId id) const {
  return id < slots_.size() && slots_[id].live;
}

uint32_t ZramStore::SlotRefCount(SwapSlotId id) const {
  SAT_CHECK(SlotLive(id));
  return slots_[id].ref_count;
}

uint32_t ZramStore::SlotBytes(SwapSlotId id) const {
  SAT_CHECK(SlotLive(id));
  return slots_[id].bytes;
}

uint64_t ZramStore::SlotContent(SwapSlotId id) const {
  SAT_CHECK(SlotLive(id));
  return slots_[id].content;
}

bool ZramStore::SlotChecksumOk(SwapSlotId id) const {
  SAT_CHECK(SlotLive(id));
  return slots_[id].checksum == ChecksumOf(slots_[id].content);
}

void ZramStore::CorruptSlotForChaos(SwapSlotId id, uint64_t xor_mask) {
  SAT_CHECK(SlotLive(id));
  SAT_CHECK(xor_mask != 0 && "corruption must change something");
  slots_[id].content ^= xor_mask;
}

void ZramStore::RepairSlotContent(SwapSlotId id, uint64_t content) {
  SAT_CHECK(SlotLive(id));
  slots_[id].content = content;
  slots_[id].checksum = ChecksumOf(content);
}

std::optional<SwapSlotId> ZramStore::AnyLiveSlot(uint64_t rand) const {
  if (live_slot_count_ == 0) {
    return std::nullopt;
  }
  const SwapSlotId start =
      static_cast<SwapSlotId>(rand % slots_.size());
  for (SwapSlotId i = 0; i < slots_.size(); ++i) {
    const SwapSlotId id =
        static_cast<SwapSlotId>((start + i) % slots_.size());
    if (slots_[id].live) {
      return id;
    }
  }
  return std::nullopt;
}

}  // namespace sat
