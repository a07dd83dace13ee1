// Physical memory for the simulated machine: a frame allocator plus
// per-frame metadata (the analogue of Linux's `struct page` array).
//
// Data frames use `ref_count` for the number of PTE / page-cache
// references, which drives COW decisions. The paper reuses a page-table
// page's `struct page::mapcount` for its sharer count; here the PTP itself
// keeps the list of page tables sharing it (src/pt/ptp.h), so a kPageTable
// frame carries only the allocation reference its PTP holds.

#ifndef SRC_MEM_PHYS_MEMORY_H_
#define SRC_MEM_PHYS_MEMORY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/arch/pte.h"
#include "src/arch/types.h"

namespace sat {
class FaultInjector;
}

namespace sat {

enum class FrameKind : uint8_t {
  kFree = 0,
  kAnon,        // anonymous memory (heap, stack, COW copies)
  kFileCache,   // page-cache copy of a file page
  kPageTable,   // holds a page-table page
  kKernel,      // kernel text/data (never freed)
  kZero,        // the shared zero page
  kZram,        // backing pool of the compressed swap store
  kQuarantined, // pulled from circulation after corruption; never re-issued
};

constexpr const char* FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kFree:
      return "free";
    case FrameKind::kAnon:
      return "anon";
    case FrameKind::kFileCache:
      return "file-cache";
    case FrameKind::kPageTable:
      return "page-table";
    case FrameKind::kKernel:
      return "kernel";
    case FrameKind::kZero:
      return "zero";
    case FrameKind::kZram:
      return "zram";
    case FrameKind::kQuarantined:
      return "quarantined";
  }
  return "?";
}

// Observes frame allocation and free events — the hook the anonymous /
// file-cache LRU lists (src/vm/swap.h) and the KSM daemon (src/ksm) use to
// track membership without PhysicalMemory knowing about reclaim or merge
// policy. The permanent zero frame is set up before any observer can
// attach and is never reported.
//
// OnFrameFreed runs when the last reference drops, before the frame's
// record is reset: the observer still reads the frame's old PageFrame
// (content, ksm_stable, ...) and can key its own cleanup on it.
class FrameLifecycleObserver {
 public:
  virtual ~FrameLifecycleObserver() = default;
  virtual void OnFrameAllocated(FrameNumber frame, FrameKind kind) = 0;
  virtual void OnFrameFreed(FrameNumber frame, FrameKind kind) = 0;
};

// One frame's record: every frame-keyed fact lives here, indexed by frame
// number, not in a side table. Fields are ordered largest first so the
// record packs into 32 bytes; a 512 MB machine has 131,072 of them.
struct PageFrame {
  // Content tag: the simulator models no page bytes, so a 64-bit value
  // stands in for the page's content. Two anon pages are byte-identical
  // iff their tags are equal — this is what KSM keys its trees on.
  uint64_t content = 0;
  // Number of references (PTE mappings + one for page-cache residency +
  // one for swap-cache residency).
  uint32_t ref_count = 0;
  // For kFileCache frames: which file page this caches.
  FileId file = kNoFile;
  uint32_t file_page_index = 0;
  // The zram slot whose swap-cache entry this frame is (the reverse of
  // ZramStore's slot -> frame link), or kNoSwapSlot.
  SwapSlotId swap_cache_slot = kNoSwapSlot;
  FrameKind kind = FrameKind::kFree;
  // True for a KSM stable frame (the analogue of PageKsm): write faults
  // must always COW away from it, never reuse it in place.
  bool ksm_stable = false;
  // Set by QuarantineFrame on a frame that is still referenced: the frame
  // keeps serving its existing users, but when the last reference drops it
  // becomes kQuarantined instead of returning to the free list.
  bool quarantine_on_free = false;
};
static_assert(sizeof(PageFrame) == 32);

// Allocation is fallible: the Try* entry points return std::nullopt when
// the free list (or a contiguous run) is exhausted, or when an attached
// FaultInjector decides this attempt should fail. The kernel reacts by
// reclaiming and, as a last resort, OOM-killing. The infallible wrappers
// (AllocFrame etc.) exist for callers that have sized memory generously —
// mostly tests — and SAT_CHECK-abort on failure. Misuse (bad kinds,
// double-free) is always a programming error and aborts.
class PhysicalMemory {
 public:
  // The free-run index's granule: TryAllocContiguousFrames looks for
  // naturally aligned runs of this many frames (one 64 KB large page).
  static constexpr uint32_t kRunFrames = kPtesPerLargePage;

  // `size_bytes` must be a multiple of the page size. With more than one
  // NUMA node, frames are split into `num_nodes` equal contiguous blocks
  // (frames [0, per_node) are node 0, and so on) with a free list per
  // node; TryAllocFrame serves the preferred node first and falls back to
  // the others in ascending order. A single-node machine behaves exactly
  // as before.
  explicit PhysicalMemory(uint64_t size_bytes, uint32_t num_nodes = 1);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // Optional deterministic failure injection; consulted by the Try*
  // allocators. Not owned. Pass nullptr to detach.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // Lifecycle observers (LRU maintenance, KSM stable-tree pruning). Not
  // owned; notified in registration order.
  void AddObserver(FrameLifecycleObserver* observer) {
    observers_.push_back(observer);
  }

  // Allocates one frame of the given kind with ref_count 1, or nullopt if
  // physical memory is exhausted (or a fault was injected). When the
  // preferred node is exhausted the allocation falls back to another node
  // and numa_fallbacks() is bumped — the signal the per-node kswapd
  // watermarks exist to keep rare.
  std::optional<FrameNumber> TryAllocFrame(FrameKind kind);

  // Node-strict variant: allocates on exactly `node` or fails. Used by
  // the NUMA page-table engine, whose replicas are worthless off-node.
  std::optional<FrameNumber> TryAllocFrameOnNode(uint32_t node,
                                                 FrameKind kind);

  // Allocates `count` physically contiguous frames (first-fit, naturally
  // aligned) and returns the first frame number; each frame gets
  // ref_count 1. Needed for 64 KB large pages, whose 16 backing frames
  // must be contiguous and naturally aligned, and for 1 MB sections.
  // `count` is a power of two from kRunFrames to 64 * kRunFrames (16 to
  // 1,024 frames), so a candidate's runs share one word of the free-run
  // bitmap. Returns nullopt when no run exists (fragmentation counts:
  // free_frames() may exceed `count` and this can still fail).
  std::optional<FrameNumber> TryAllocContiguousFrames(uint32_t count,
                                                      FrameKind kind);

  // Infallible wrappers: SAT_CHECK-abort instead of returning failure.
  FrameNumber AllocFrame(FrameKind kind);
  FrameNumber AllocContiguousFrames(uint32_t count, FrameKind kind);

  // Drops one reference; frees the frame when the count reaches zero.
  // Returns true if the frame was actually freed.
  bool UnrefFrame(FrameNumber frame);

  void RefFrame(FrameNumber frame);

  // Pulls a suspect frame out of circulation: a free frame flips to
  // kQuarantined immediately; a live frame is flagged and quarantined when
  // its last reference drops. Quarantined frames are never re-issued by
  // any allocator path. Returns true if the frame was newly condemned
  // (false when it was already quarantined or flagged, or is a permanent
  // zero/kernel frame).
  bool QuarantineFrame(FrameNumber frame);

  // Frames currently in the kQuarantined state (pending flags excluded).
  uint64_t quarantined_frames() const { return quarantined_count_; }

  PageFrame& frame(FrameNumber number);
  const PageFrame& frame(FrameNumber number) const;

  // The always-present shared zero page backing untouched anon reads.
  FrameNumber zero_frame() const { return zero_frame_; }

  // May a user PTE map `frame`? It must exist and hold anonymous memory, a
  // page-cache page, the zero page or permanent kernel frames (sections):
  // anything else in a descriptor is rot. Takes any number, so callers can
  // vet a suspect descriptor's frame bits before calling frame().
  bool UserMappable(FrameNumber frame) const {
    if (frame >= frames_.size()) {
      return false;
    }
    switch (frames_[frame].kind) {
      case FrameKind::kAnon:
      case FrameKind::kFileCache:
      case FrameKind::kZero:
      case FrameKind::kKernel:
        return true;
      default:
        return false;
    }
  }

  // NUMA topology.
  uint32_t num_nodes() const { return num_nodes_; }
  uint64_t frames_per_node() const { return frames_per_node_; }
  uint32_t NodeOfFrame(FrameNumber frame) const {
    return static_cast<uint32_t>(frame / frames_per_node_);
  }
  // First-touch policy: the kernel sets this to the node of the core that
  // is about to fault a page in, so new frames land node-local.
  void set_preferred_node(uint32_t node) { preferred_node_ = node; }

  uint64_t total_frames() const { return frames_.size(); }
  uint64_t free_frames() const { return free_count_; }
  uint64_t used_frames() const { return frames_.size() - free_count_; }
  uint64_t used_bytes() const { return used_frames() * kPageSize; }

  // Per-node free-frame accounting, so kswapd can watch each node's
  // watermark instead of only the global one (a single node can exhaust
  // and silently push every allocation remote while the machine-wide
  // count looks healthy).
  uint64_t free_frames_on_node(uint32_t node) const {
    return free_count_per_node_[node];
  }

  // Allocations that wanted the preferred node but were served remote.
  uint64_t numa_fallbacks() const { return numa_fallbacks_; }
  // Contiguous runs handed out straddling a node boundary.
  uint64_t numa_cross_node_runs() const { return numa_cross_node_runs_; }

  // Number of live frames of a given kind (O(n); for tests and reports).
  uint64_t CountFrames(FrameKind kind) const;

  std::string ToString() const;

 private:
  // Pops the next genuinely free frame of `node`'s list, skipping entries
  // claimed out-of-band by TryAllocContiguousFrames. Returns nullopt when
  // the node is exhausted.
  std::optional<FrameNumber> PopFreeFrame(uint32_t node);

  // Shared tail of the Try* allocators: metadata reset, free-count
  // bookkeeping, observer notification.
  void FinishAlloc(FrameNumber number, FrameKind kind);

  // Free-run index upkeep, called at the four transitions that move a
  // frame into or out of kFree: FinishAlloc, the contiguous claim,
  // UnrefFrame freeing it, and QuarantineFrame of a free frame.
  void NoteFrameFreed(FrameNumber number);
  void NoteFrameTaken(FrameNumber number);

  // The lowest `count`-aligned base in [begin, end) whose `count` frames
  // all lie in [begin, end) and are all free, or nullopt.
  std::optional<FrameNumber> LowestFreeRun(uint32_t count, uint64_t begin,
                                           uint64_t end) const;

  std::vector<PageFrame> frames_;
  // One free list per NUMA node (a single list on single-node machines).
  std::vector<std::vector<FrameNumber>> free_lists_;
  // Whether a frame currently has an entry in its node's free list
  // (entries can go stale when AllocContiguousFrames claims frames
  // out-of-band; stale entries are skipped and discarded by AllocFrame).
  std::vector<bool> free_listed_;
  uint64_t free_count_ = 0;
  // The free-run index: free frames per aligned kRunFrames-frame run, and
  // one bit per run that is wholly free. A partial run at the top of
  // memory never fills, so its bit stays clear.
  std::vector<uint8_t> run_free_count_;
  std::vector<uint64_t> free_runs_;
  std::vector<uint64_t> free_count_per_node_;
  uint64_t numa_fallbacks_ = 0;
  uint64_t numa_cross_node_runs_ = 0;
  uint64_t quarantined_count_ = 0;
  uint32_t num_nodes_ = 1;
  uint64_t frames_per_node_ = 0;
  uint32_t preferred_node_ = 0;
  FrameNumber zero_frame_ = 0;
  FaultInjector* injector_ = nullptr;
  std::vector<FrameLifecycleObserver*> observers_;
};

}  // namespace sat

#endif  // SRC_MEM_PHYS_MEMORY_H_
