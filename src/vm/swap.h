// Anonymous-memory swap-out: LRU page lists and the swap-out engine that
// compresses cold anonymous pages into the zram store (src/mem/zram.h).
//
// FrameLru keeps the reclaim candidate lists — active/inactive anonymous
// and a file-cache list — as intrusive doubly-linked lists over frame
// numbers, maintained automatically through PhysicalMemory's frame
// lifecycle observer hook: anonymous frames enter the inactive tail at
// allocation, file-cache frames enter the file-list tail, and a freed
// frame leaves whatever list it was on. Reclaim policy then never scans
// physical memory; it pops list heads.
//
// SwapManager implements second-chance aging and swap-out:
//
//   * a candidate whose PTEs carry the (software) referenced bit is not
//     evicted; the bits are harvested — cleared with a TLB invalidation
//     so the next touch sets them again — and the page moves to the
//     active list (lru_activations),
//   * unreclaimable candidates (large-page mappings) rotate to the
//     inactive tail (lru_rotations) instead of being rescanned,
//   * a clean page still associated with a swap slot via the swap cache
//     is dropped without recompressing (swap_clean_drops),
//   * otherwise the page is compressed into a fresh slot and every PTE
//     mapping it — one per shared PTP, serving all sharers — is replaced
//     by a swap entry holding one slot reference, with a per-VA TLB
//     shootdown.
//
// The swap PTE is written directly at the PTP level, like the reclaimer's
// unmap: this is legal in NEED_COPY shared PTPs precisely because one
// entry is every sharer's entry.

#ifndef SRC_VM_SWAP_H_
#define SRC_VM_SWAP_H_

#include <cstdint>
#include <vector>

#include "src/mem/phys_memory.h"
#include "src/mem/zram.h"
#include "src/pt/ptp.h"
#include "src/pt/rmap.h"
#include "src/stats/counters.h"
#include "src/vm/reclaim.h"

namespace sat {

class Tracer;

enum class LruList : uint8_t {
  kNone = 0,
  kAnonActive,
  kAnonInactive,
  kFile,
};

class FrameLru : public FrameLifecycleObserver {
 public:
  explicit FrameLru(uint64_t total_frames);

  FrameLru(const FrameLru&) = delete;
  FrameLru& operator=(const FrameLru&) = delete;

  void OnFrameAllocated(FrameNumber frame, FrameKind kind) override;
  void OnFrameFreed(FrameNumber frame, FrameKind kind) override;

  uint64_t size(LruList list) const { return sizes_[Index(list)]; }
  bool empty(LruList list) const { return size(list) == 0; }
  LruList ListOf(FrameNumber frame) const { return nodes_[frame].list; }

  // Removes and returns the head (least recently inserted). The list must
  // not be empty.
  FrameNumber PopHead(LruList list);
  // Appends `frame`, which must currently be on no list.
  void PushTail(LruList list, FrameNumber frame);
  // Takes `frame` off its list; no-op if it is on none.
  void Remove(FrameNumber frame);

 private:
  static constexpr FrameNumber kNil = static_cast<FrameNumber>(-1);
  static constexpr uint32_t kNumLists = 4;
  static uint32_t Index(LruList list) { return static_cast<uint32_t>(list); }

  struct Node {
    FrameNumber prev = kNil;
    FrameNumber next = kNil;
    LruList list = LruList::kNone;
  };

  std::vector<Node> nodes_;
  FrameNumber heads_[kNumLists];
  FrameNumber tails_[kNumLists];
  uint64_t sizes_[kNumLists] = {};
};

class SwapManager {
 public:
  SwapManager(PhysicalMemory* phys, ZramStore* zram, PtpAllocator* ptps,
              ReverseMap* rmap, FrameLru* lru, KernelCounters* counters)
      : phys_(phys),
        zram_(zram),
        ptps_(ptps),
        rmap_(rmap),
        lru_(lru),
        counters_(counters) {}

  SwapManager(const SwapManager&) = delete;
  SwapManager& operator=(const SwapManager&) = delete;

  // Swaps out up to `target` anonymous pages, scanning one inactive-list
  // budget's worth of candidates per page. Returns the number of pages
  // actually freed (compressed out or clean-dropped). Stops early when
  // the candidate pool is exhausted or the store cannot take more. Every
  // rewritten PTE is shot down through the PtpAllocator's sink.
  uint32_t SwapOut(uint32_t target);

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  // One victim attempt. Returns true if a page was freed; false when the
  // scan budget ran out or the store rejected the page (the caller should
  // then stop rather than spin).
  bool SwapOutOne();
  // Refills the inactive list from the active head until the two are
  // roughly balanced.
  void AgeActiveList();

  PhysicalMemory* phys_;
  ZramStore* zram_;
  PtpAllocator* ptps_;
  ReverseMap* rmap_;
  FrameLru* lru_;
  KernelCounters* counters_;
  Tracer* tracer_ = nullptr;
};

}  // namespace sat

#endif  // SRC_VM_SWAP_H_
