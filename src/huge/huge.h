// The translation-reach engine: khugepaged-style automatic large-page
// promotion (the complement the paper's Section 2.3.3 discussion gestures
// at — sharing reduces how many translations exist, large pages grow how
// much address space each one covers).
//
// huged is a background daemon, woken from the same kernel tick as ksmd
// and scrubd, that scans anonymous private regions for 64 KB-aligned runs
// of 16 resident 4 KB PTEs with uniform attributes and collapses each run
// into one ARM large-page descriptor (16 replicas naming the base frame),
// so a single main-TLB entry translates the whole block.
//
// Two collapse paths:
//
//   * In-place promotion — the 16 PTEs already map 16 physically
//     contiguous, naturally aligned frames (common right after a 64 KB
//     file block was COWed page-by-page, or after a migrate collapse was
//     split and left its frames in place). Rewriting small descriptors to
//     large replicas changes no translation (MappedFrameOf is invariant),
//     so this is legal even inside a *shared* (NEED_COPY) PTP: one
//     promotion serves every sharer. No frame refcount moves.
//
//   * Migrate collapse — the frames are scattered, so 16 contiguous
//     frames are allocated, content is copied, and the PTEs are rewritten
//     to large replicas over the new run. This mutates which frames are
//     mapped, so a shared PTP must be lazily unshared first (the KSM
//     precedent); an ENOMEM in either the unshare or the contiguous
//     allocation abandons the candidate with nothing half-collapsed.
//
// Run breakers: invalid PTEs, swap entries, the shared zero frame,
// non-anonymous frames, already-large PTEs, mixed permissions/global/XN,
// and KSM stable frames — unless `unmerge_ksm` policy is set, in which
// case a migrate collapse copies the stable content out (a deduplication
// unmerge, traded for reach).
//
// Demotion (splitting a large run back to 4 KB PTEs) is not the daemon's
// job: it happens synchronously in the VM layer when a partial munmap,
// mprotect, or COW write makes the block non-uniform (VmManager::
// SplitLargeBlock).

#ifndef SRC_HUGE_HUGE_H_
#define SRC_HUGE_HUGE_H_

#include <cstdint>
#include <vector>

#include "src/arch/types.h"
#include "src/mem/phys_memory.h"
#include "src/pt/page_table.h"
#include "src/pt/ptp.h"
#include "src/stats/counters.h"
#include "src/vm/vm_manager.h"

namespace sat {

class MmStruct;
class Tracer;

class HugeDaemon {
 public:
  HugeDaemon(PhysicalMemory* phys, VmManager* vm, KernelCounters* counters);

  HugeDaemon(const HugeDaemon&) = delete;
  HugeDaemon& operator=(const HugeDaemon&) = delete;

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // KSM interaction policy: when true, a migrate collapse may copy KSM
  // stable frames out of a run (unmerging them); when false (default),
  // a stable frame breaks the run.
  void set_unmerge_ksm(bool v) { unmerge_ksm_ = v; }
  bool unmerge_ksm() const { return unmerge_ksm_; }

  // One full huged pass over the anonymous private regions of `targets`,
  // in order. Returns the number of 64 KB runs collapsed this pass. A
  // collapsed run's 16 PTEs are shot down through the PtpAllocator's sink
  // (huged collapses anonymous memory, never global).
  uint32_t ScanOnce(const std::vector<MmStruct*>& targets);

 private:
  // What ScanBlock decided about one 64 KB-aligned block.
  enum class RunClass : uint8_t {
    kIneligible = 0,  // broken run (or already large): leave it alone
    kContiguous,      // promotable in place, no frame movement
    kScattered,       // collapsible by migrating to a fresh contiguous run
  };

  // One candidate PTE's captured state.
  struct Replica {
    HwPte hw;
    LinuxPte sw;
    FrameNumber frame = 0;
    bool ksm_stable = false;
  };

  void ScanTarget(MmStruct& mm, uint32_t* collapsed);

  // Examines the 16 PTEs of the block whose first PTE is `first` (a
  // 64 KB-aligned block lies inside one PTP) and fills `replicas` on an
  // eligible run. `count_scanned` feeds the huge_pages_scanned counter
  // (off for post-unshare re-validation).
  RunClass ClassifyBlock(const PteRef& first, Replica* replicas,
                         bool count_scanned);

  // The two collapse paths. Both return true when the block ended up
  // large.
  bool CollapseInPlace(MmStruct& mm, VirtAddr block_base);
  bool CollapseByMigration(MmStruct& mm, VirtAddr block_base,
                           Replica* replicas);

  // Flushes the 16 PTEs of the run at `block_base` in `pt`.
  static void FlushRun(PageTable& pt, VirtAddr block_base);

  PhysicalMemory* phys_;
  VmManager* vm_;
  KernelCounters* counters_;
  Tracer* tracer_ = nullptr;
  bool unmerge_ksm_ = false;
};

}  // namespace sat

#endif  // SRC_HUGE_HUGE_H_
