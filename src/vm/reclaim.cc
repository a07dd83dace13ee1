#include "src/vm/reclaim.h"

#include <cassert>

#include "src/arch/check.h"
#include "src/trace/trace.h"
#include "src/vm/swap.h"

namespace sat {

uint32_t Reclaimer::UnmapAll(FrameNumber frame, ReclaimStats* stats) {
  // Snapshot: clearing mutates the rmap.
  const std::vector<RmapEntry> mappings = rmap_->MappingsOf(frame);
  uint32_t cleared = 0;
  for (const RmapEntry& mapping : mappings) {
    PageTablePage& ptp = ptps_->Get(mapping.ptp);
    // The validity bits may have rotted off under fault injection; the
    // rmap entry is the ground truth that a reference is held here, so
    // tear the mapping down either way. Read the global bit before the
    // clear destroys it: it decides how wide the shootdown must reach.
    const bool global =
        ptp.hw(mapping.index).valid() && ptp.hw(mapping.index).global();
    ptp.Clear(mapping.index);
    rmap_->Remove(frame, mapping.ptp, mapping.index);
    phys_->UnrefFrame(frame);
    ptps_->FlushPte(mapping.ptp, mapping.index, global);
    stats->tlb_flushes++;
    cleared++;
  }
  stats->ptes_cleared += cleared;
  counters_->ptes_cleared_by_reclaim += cleared;
  return cleared;
}

bool Reclaimer::ReclaimPage(FileId file, uint32_t page_index,
                            ReclaimStats* stats) {
  const FrameNumber frame = page_cache_->Lookup(file, page_index);
  if (frame == PageCache::kNoFrame) {
    stats->pages_skipped++;
    return false;
  }

  // Reclaimability: clean 4 KB mappings only. Pages mapped writable could
  // be dirty (no writeback modelled), and pages inside a 64 KB large-page
  // block would require splitting the block first (as Linux splits THPs);
  // both are skipped.
  bool reclaimable = true;
  rmap_->ForEach(frame, [&](const RmapEntry& mapping) {
    const HwPte& pte = ptps_->Get(mapping.ptp).hw(mapping.index);
    if (pte.large() || pte.perm() == PtePerm::kReadWrite) {
      reclaimable = false;
    }
  });
  if (!reclaimable) {
    stats->pages_skipped++;
    return false;
  }

  const uint32_t cleared = UnmapAll(frame, stats);
  page_cache_->RemovePage(file, page_index);
  stats->pages_reclaimed++;
  counters_->pages_reclaimed++;
  Tracer::Emit(tracer_, TraceEventType::kReclaimPage, 0, frame, cleared);
  return true;
}

ReclaimStats Reclaimer::ReclaimFileCache(uint32_t target) {
  TraceSpan span(tracer_, TraceEventType::kReclaimPass);
  ReclaimStats stats;
  // Scan the file LRU from its head, at most one full list length per
  // call. Unreclaimable candidates (dirty-mapped, large-page blocks)
  // rotate to the tail so the next pass starts with fresh candidates
  // instead of rescanning the same skips.
  uint64_t budget = lru_->size(LruList::kFile);
  while (budget-- > 0 && stats.pages_reclaimed < target) {
    const FrameNumber frame = lru_->PopHead(LruList::kFile);
    const PageFrame& meta = phys_->frame(frame);
    SAT_CHECK(meta.kind == FrameKind::kFileCache);
    if (!ReclaimPage(meta.file, meta.file_page_index, &stats)) {
      lru_->PushTail(LruList::kFile, frame);
      counters_->lru_rotations++;
    }
    // On success the frame was freed and left the LRU via the lifecycle
    // observer.
  }
  span.set_args(target, stats.pages_reclaimed);
  return stats;
}

}  // namespace sat
