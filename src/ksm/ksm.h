// KSM-style same-page merging: content dedup on top of zygote sharing.
//
// The paper shares pages that are identical *by construction* (COW fork,
// preloaded libraries); real Android additionally runs KSM to reclaim anon
// pages that *become* identical after zygote COW diverges. This daemon is
// the simulator's analogue of mm/ksm.c, built on the per-frame content tag
// (PageFrame::content — the simulator models no page bytes, so a 64-bit
// tag stands in for a page's content and "checksumming" is reading it).
//
// Structure, mirroring Linux:
//
//   * A scan pass (`ScanOnce`) walks every madvise(MERGEABLE) anonymous
//     region of every live address space, in task-table order and
//     ascending VA — a fixed order, so the whole subsystem is
//     deterministic under the parallel experiment driver.
//   * The *stable tree* maps content -> the one canonical frame holding
//     it. Every stable frame is write-protected in all its mappings; a
//     write fault COWs away (unmerge) through the ordinary COW path,
//     which never reuses a stable frame in place (the PageKsm rule).
//   * The *unstable tree* is rebuilt each pass: the first page seen with
//     some content is remembered; the second becomes the trigger that
//     promotes the remembered page to stable and merges into it.
//   * The checksum-skip heuristic: a page enters the unstable tree only
//     when its content is unchanged since the previous scan, so pages
//     being actively written never churn the trees.
//
// Merging one PTE means: lazily unshare its PTP if the paper's sharing
// left it NEED_COPY (a shared PTP's entries are communal — KSM, like
// Linux, merges per-address-space PTEs), write-protect + repoint the PTE
// at the stable frame, shoot down the stale translation, and drop the
// duplicate frame's reference. An ENOMEM during the unshare abandons just
// that candidate; nothing is half-merged.
//
// The daemon observes frame lifecycle so a stable frame freed by any path
// (unmerge of the last sharer, swap-out, exit) prunes its tree node.
// Stable frames swap like any other anon frame — one compressed slot
// serves all N sharers' swap PTEs, and the content tag rides through the
// zram slot so a swapped-in page can be re-merged by a later pass.

#ifndef SRC_KSM_KSM_H_
#define SRC_KSM_KSM_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/arch/types.h"
#include "src/mem/phys_memory.h"
#include "src/pt/ptp.h"
#include "src/stats/counters.h"
#include "src/vm/vm_manager.h"

namespace sat {

class MmStruct;
class ReverseMap;
class Tracer;

class KsmDaemon : public FrameLifecycleObserver {
 public:
  KsmDaemon(PhysicalMemory* phys, PtpAllocator* ptps, ReverseMap* rmap,
            VmManager* vm, KernelCounters* counters);

  KsmDaemon(const KsmDaemon&) = delete;
  KsmDaemon& operator=(const KsmDaemon&) = delete;

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // One full ksmd pass over the mergeable regions of `targets`, in order.
  // Returns the number of PTEs merged this pass. A downgraded or
  // repointed PTE is shot down through the PtpAllocator's sink (KSM pages
  // are anonymous, never global).
  uint32_t ScanOnce(const std::vector<MmStruct*>& targets);

  // /sys/kernel/mm/ksm-style gauges. pages_shared counts stable frames;
  // pages_sharing counts the additional PTEs deduplicated into them.
  uint64_t pages_shared() const { return stable_.size(); }
  uint64_t pages_sharing() const;

  // fn(content, frame) over the stable tree in content order (auditor).
  template <typename Fn>
  void ForEachStable(Fn&& fn) const {
    for (const auto& [content, frame] : stable_) {
      fn(content, frame);
    }
  }

  // FrameLifecycleObserver: a freed frame leaves the stable tree (covers
  // unmerge-of-last-sharer, swap-out, and process exit uniformly). The
  // frame's own ksm_stable mark and content name its tree node.
  void OnFrameAllocated(FrameNumber frame, FrameKind kind) override;
  void OnFrameFreed(FrameNumber frame, FrameKind kind) override;

 private:
  // A page remembered by the unstable tree this pass.
  struct Candidate {
    MmStruct* mm = nullptr;
    VirtAddr va = 0;
    FrameNumber frame = 0;
  };

  void ScanTarget(MmStruct& mm, uint32_t* scanned, uint32_t* merged);
  void ScanPage(MmStruct& mm, VirtAddr va, uint32_t* scanned,
                uint32_t* merged);

  // Still mapping the frame it was remembered with, content unchanged?
  bool CandidateStillValid(const Candidate& candidate,
                           uint64_t content) const;

  // Write-protects every PTE mapping `frame` (via the rmap; one entry in
  // a shared PTP covers all sharers), marks it stable, and inserts the
  // tree node. The write-protect is unconditional — even under the
  // hw-L1-write-protect ablation, where shared-PTP entries stay RW and
  // the L1 bit blocks writes, the per-PTE downgrade is harmless and keeps
  // the stable-frame invariant (no writable mapping) unconditional.
  void Promote(uint64_t content, FrameNumber frame);

  // Repoints `va`'s PTE at stable frame `stable`, unsharing the PTP
  // first when NEED_COPY. False (and nothing changed beyond a completed
  // unshare) when the unshare could not allocate or the PTE vanished.
  bool MergeInto(MmStruct& mm, VirtAddr va, FrameNumber stable);

  PhysicalMemory* phys_;
  PtpAllocator* ptps_;
  ReverseMap* rmap_;
  VmManager* vm_;
  KernelCounters* counters_;
  Tracer* tracer_ = nullptr;

  // Stable tree: content -> canonical frame. Ordered by content so every
  // iteration over it is deterministic. The reverse direction is the
  // frame's record: PageFrame::ksm_stable and its content.
  std::map<uint64_t, FrameNumber> stable_;

  // Unstable tree, rebuilt every pass.
  std::map<uint64_t, Candidate> unstable_;

  // Checksum-skip state: (pid << 32 | virtual page) -> content seen at
  // the previous pass. A page joins the unstable tree only when its
  // content has survived one full scan interval unchanged.
  std::unordered_map<uint64_t, uint64_t> last_checksum_;
};

}  // namespace sat

#endif  // SRC_KSM_KSM_H_
