// Page-cache reclaim: evicts clean file-cache pages under memory
// pressure, unmapping each victim from every page table that maps it via
// the reverse map — the kswapd shrink path, reduced to what the paper's
// scalability argument needs.
//
// This is where page-table sharing pays off a third time (after fork cost
// and soft faults): a page mapped by N processes through a shared PTP has
// ONE rmap entry and costs ONE PTE clear to reclaim; under the stock
// kernel it has N of each. bench_reclaim measures both curves.

#ifndef SRC_VM_RECLAIM_H_
#define SRC_VM_RECLAIM_H_

#include <cstdint>
#include <vector>

#include "src/mem/page_cache.h"
#include "src/mem/phys_memory.h"
#include "src/pt/ptp.h"
#include "src/pt/rmap.h"
#include "src/stats/counters.h"

namespace sat {

class FrameLru;
class Tracer;

struct ReclaimStats {
  uint32_t pages_reclaimed = 0;   // frames returned to the free list
  uint32_t pages_skipped = 0;     // dirty/unreclaimable candidates passed over
  uint32_t ptes_cleared = 0;      // rmap-driven unmap work performed
  uint32_t tlb_flushes = 0;       // per-VA invalidations requested
};

class Reclaimer {
 public:
  // ReclaimFileCache scans `lru`'s file-cache list from its head, rotating
  // unreclaimable candidates to the tail (second chance) with a scan
  // budget of one list length — no O(physical frames) rescans per call.
  Reclaimer(PhysicalMemory* phys, PageCache* page_cache, PtpAllocator* ptps,
            ReverseMap* rmap, KernelCounters* counters, FrameLru* lru)
      : phys_(phys),
        page_cache_(page_cache),
        ptps_(ptps),
        rmap_(rmap),
        counters_(counters),
        lru_(lru) {}

  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  // Attempts to reclaim `target` clean file-cache pages, in LRU order (see
  // the constructor comment). Every cleared PTE is shot down
  // through the PtpAllocator's sink. Returns what happened.
  ReclaimStats ReclaimFileCache(uint32_t target);

  // Unmaps and frees one specific file page if it is resident and clean.
  // Returns whether it was reclaimable.
  bool ReclaimPage(FileId file, uint32_t page_index, ReclaimStats* stats);

  // Reclaim passes and per-page evictions report trace events when set.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  // Unmaps `frame` from every PTE the rmap lists. Returns PTEs cleared.
  uint32_t UnmapAll(FrameNumber frame, ReclaimStats* stats);

  PhysicalMemory* phys_;
  PageCache* page_cache_;
  PtpAllocator* ptps_;
  ReverseMap* rmap_;
  KernelCounters* counters_;
  FrameLru* lru_;
  Tracer* tracer_ = nullptr;
};

}  // namespace sat

#endif  // SRC_VM_RECLAIM_H_
