#include "src/vm/swap.h"

#include "src/arch/check.h"
#include "src/trace/trace.h"

namespace sat {

FrameLru::FrameLru(uint64_t total_frames) : nodes_(total_frames) {
  for (uint32_t i = 0; i < kNumLists; ++i) {
    heads_[i] = kNil;
    tails_[i] = kNil;
  }
}

void FrameLru::OnFrameAllocated(FrameNumber frame, FrameKind kind) {
  switch (kind) {
    case FrameKind::kAnon:
      PushTail(LruList::kAnonInactive, frame);
      break;
    case FrameKind::kFileCache:
      PushTail(LruList::kFile, frame);
      break;
    default:
      break;  // page tables, kernel, zram pool: never reclaim candidates
  }
}

void FrameLru::OnFrameFreed(FrameNumber frame, FrameKind kind) {
  (void)kind;
  Remove(frame);
}

FrameNumber FrameLru::PopHead(LruList list) {
  const uint32_t i = Index(list);
  const FrameNumber frame = heads_[i];
  SAT_CHECK(frame != kNil && "PopHead on an empty LRU list");
  Remove(frame);
  return frame;
}

void FrameLru::PushTail(LruList list, FrameNumber frame) {
  SAT_CHECK(list != LruList::kNone);
  Node& node = nodes_[frame];
  SAT_CHECK(node.list == LruList::kNone && "frame already on an LRU list");
  const uint32_t i = Index(list);
  node.list = list;
  node.prev = tails_[i];
  node.next = kNil;
  if (tails_[i] != kNil) {
    nodes_[tails_[i]].next = frame;
  } else {
    heads_[i] = frame;
  }
  tails_[i] = frame;
  sizes_[i]++;
}

void FrameLru::Remove(FrameNumber frame) {
  Node& node = nodes_[frame];
  if (node.list == LruList::kNone) {
    return;
  }
  const uint32_t i = Index(node.list);
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    heads_[i] = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    tails_[i] = node.prev;
  }
  SAT_CHECK(sizes_[i] > 0);
  sizes_[i]--;
  node = Node{};
}

void SwapManager::AgeActiveList() {
  // Keep the inactive list at least as long as the active one by demoting
  // from the active head (its coldest end). Referenced pages demoted here
  // get their second chance on the inactive list: the scan re-activates
  // them instead of evicting.
  while (!lru_->empty(LruList::kAnonActive) &&
         lru_->size(LruList::kAnonInactive) <
             lru_->size(LruList::kAnonActive)) {
    lru_->PushTail(LruList::kAnonInactive,
                   lru_->PopHead(LruList::kAnonActive));
  }
}

bool SwapManager::SwapOutOne() {
  AgeActiveList();
  uint64_t budget = lru_->size(LruList::kAnonInactive);
  while (budget-- > 0) {
    const FrameNumber frame = lru_->PopHead(LruList::kAnonInactive);
    const std::span<const RmapEntry> mappings = rmap_->Mappings(frame);

    bool young = false;
    bool dirty = false;
    bool large = false;
    for (const RmapEntry& mapping : mappings) {
      const PageTablePage& ptp = ptps_->Get(mapping.ptp);
      young |= ptp.sw(mapping.index).young();
      dirty |= ptp.sw(mapping.index).dirty();
      large |= ptp.hw(mapping.index).large();
    }
    if (large) {
      // Would need block splitting; rotate instead of rescanning.
      lru_->PushTail(LruList::kAnonInactive, frame);
      counters_->lru_rotations++;
      continue;
    }
    if (young) {
      // Second chance: harvest the referenced bits (with invalidation so
      // the next access sets them again through the soft-fault path) and
      // promote the page.
      for (const RmapEntry& mapping : mappings) {
        PageTablePage& ptp = ptps_->Get(mapping.ptp);
        LinuxPte sw = ptp.sw(mapping.index);
        sw.set_young(false);
        ptp.UpdateFlags(mapping.index, ptp.hw(mapping.index), sw);
        ptps_->FlushPte(mapping.ptp, mapping.index,
                        ptp.hw(mapping.index).global());
      }
      lru_->PushTail(LruList::kAnonActive, frame);
      counters_->lru_activations++;
      continue;
    }

    const std::optional<SwapSlotId> cached = zram_->CacheSlotOf(frame);
    if (mappings.empty()) {
      if (cached.has_value()) {
        // A swap-cache page nothing maps anymore (its last mapper exited
        // or swapped back out); dropping the cache entry frees the frame
        // and, if no swap PTE remains either, the slot.
        zram_->RemoveFromCache(*cached);
        counters_->swap_clean_drops++;
        return true;
      }
      // Kept alive by something other than PTEs or the swap cache (e.g. a
      // transient kernel reference); not ours to free.
      lru_->PushTail(LruList::kAnonInactive, frame);
      counters_->lru_rotations++;
      continue;
    }

    SwapSlotId slot;
    const bool reuse_slot = cached.has_value() && !dirty;
    if (reuse_slot) {
      // The compressed copy is still current: skip the store entirely.
      slot = *cached;
    } else {
      if (cached.has_value()) {
        // The cached association is stale (the page was dirtied in place,
        // possible for shared-anon mappings); sever it before storing.
        zram_->RemoveFromCache(*cached);
      }
      ZramStoreFailure why = ZramStoreFailure::kNone;
      const std::optional<SwapSlotId> stored =
          zram_->TryStore(phys_->frame(frame).content, &why);
      if (!stored.has_value()) {
        lru_->PushTail(LruList::kAnonInactive, frame);
        counters_->swap_out_failures++;
        // Pressure summaries want the split: a full compressed store is a
        // sizing problem, pool ENOMEM is the machine genuinely out of RAM.
        if (why == ZramStoreFailure::kStoreFull) {
          counters_->swap_out_store_full++;
        } else if (why == ZramStoreFailure::kPoolEnomem) {
          counters_->swap_out_pool_enomem++;
        }
        return false;  // store full or pool exhausted; retrying won't help
      }
      slot = *stored;
    }

    // Replace every PTE mapping the frame with the swap entry. One entry
    // in a shared PTP serves all its sharers, so this is one Set per rmap
    // entry, not per process. Snapshot first: each rewrite drops its entry.
    const std::vector<RmapEntry> sites(mappings.begin(), mappings.end());
    for (const RmapEntry& mapping : sites) {
      PageTablePage& ptp = ptps_->Get(mapping.ptp);
      // The rmap entry is ground truth that a reference is held through
      // this site; the hardware word may have rotted (chaos injection), so
      // tolerate an invalid descriptor and swap the site out regardless.
      // A recount keeps Set's present-count bookkeeping consistent with
      // the (possibly flipped) validity bits.
      if (!ptp.hw(mapping.index).valid()) {
        ptp.RecountPresentForScrub();
      }
      const bool global =
          ptp.hw(mapping.index).valid() && ptp.hw(mapping.index).global();
      zram_->Ref(slot);
      ptp.Set(mapping.index, HwPte{}, LinuxPte::MakeSwap(slot));
      rmap_->Remove(frame, mapping.ptp, mapping.index);
      phys_->UnrefFrame(frame);
      ptps_->FlushPte(mapping.ptp, mapping.index, global);
    }
    if (reuse_slot) {
      // The frame's last reference is the cache entry; dropping it frees
      // the frame without touching the (still valid) compressed copy.
      zram_->RemoveFromCache(slot);
      counters_->swap_clean_drops++;
    } else {
      zram_->Unref(slot);  // hand the creation reference over to the PTEs
    }
    counters_->swap_outs++;
    Tracer::Emit(tracer_, TraceEventType::kSwapOut, 0, frame, slot);
    return true;
  }
  return false;  // no evictable candidate this pass
}

uint32_t SwapManager::SwapOut(uint32_t target) {
  uint32_t freed = 0;
  while (freed < target && SwapOutOne()) {
    freed++;
  }
  return freed;
}

}  // namespace sat
