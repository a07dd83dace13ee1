// scrubd: the incremental corruption scrubber (graceful degradation's
// repair half; the recoverable-oops machinery in src/arch/check.h is the
// containment half).
//
// The simulated kernel keeps three redundant copies of mapping state: the
// hardware PTE table the walker reads, the Linux shadow table, and the
// kernel-wide reverse map. Chaos injection (FaultInjector corrupt rules)
// flips bits only in the hardware descriptors, zram slot bytes, and TLB
// entry tags — exactly the state real bit rot hits — so the shadow table
// and the rmap survive as the trusted source scrubd repairs from:
//
//   * hardware/shadow desync, rotten frame bits   -> rebuild from the rmap
//     (conservatively read-only and non-global; the next write or execute
//     takes a permission fault that lazily restores precise permissions
//     from the VMA, the same way a minor fault would)
//   * clean file page behind a rotten descriptor  -> drop and refault
//   * spurious-valid descriptor over an empty or
//     swap shadow entry                           -> invalidate in place
//   * zero-page mapping with rotten frame bits    -> re-point at the zero
//     frame (present shadow with no rmap entry can only be a zero page)
//   * shared-PTP descriptor that became writable  -> write-protect again
//   * checksum-bad zram slot, still swap-cached   -> re-duplicate from the
//     cached frame
//
// What has no redundant copy left — an uncached checksum-bad slot, or a
// descriptor whose shadow and rmap disagree — is reported back to the
// kernel as unrepairable; the kernel oops-kills exactly the sharers of the
// damaged PTP or slot (src/proc/kernel.cc, OopsKillByDamage).

#ifndef SRC_VM_SCRUB_H_
#define SRC_VM_SCRUB_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/arch/types.h"
#include "src/mem/phys_memory.h"
#include "src/mem/zram.h"
#include "src/pt/ptp.h"
#include "src/pt/rmap.h"
#include "src/stats/counters.h"

namespace sat {

struct VmConfig;

// The NUMA replica majority word at (`ptp`, `index`), or nullopt when the
// PTP is not replicated or no strict majority exists (src/numa).
using ReplicaMajorityFn =
    std::function<std::optional<uint32_t>(PtpId ptp, uint32_t index)>;

enum class ScrubSiteResult : uint8_t {
  kClean = 0,
  kRepaired,
  kUnrepairable,
};

struct ScrubSiteRef {
  PtpId ptp = kNoPtp;
  uint32_t index = 0;
};

struct ScrubPassResult {
  uint32_t ptps_walked = 0;
  uint32_t repairs = 0;
  // Damage with no redundant copy left; the kernel oops-kills the sharers.
  std::vector<ScrubSiteRef> unrepairable_sites;
  std::vector<SwapSlotId> unrepairable_slots;
};

class Scrubber {
 public:
  // `config` is the kernel's VM configuration: with share_tlb_global off no
  // descriptor is ever global, and under hw_l1_write_protect writable
  // descriptors in shared PTPs are legal and must not be "repaired". The
  // domain and NEED_COPY state a descriptor must agree with come from the
  // L1 entries of the PTP's sharers.
  Scrubber(PhysicalMemory* phys, PtpAllocator* ptps, ReverseMap* rmap,
           ZramStore* zram, KernelCounters* counters, const VmConfig* config)
      : phys_(phys), ptps_(ptps), rmap_(rmap), zram_(zram),
        counters_(counters), config_(config) {}

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  // NUMA page-table replication: the per-node replicas as a last-resort
  // repair source, consulted only when every other redundant copy is gone
  // — the write-through replica protocol keeps replicas bit-identical to
  // the master, so a strict majority outvotes rot in the master word.
  void set_replica_majority(ReplicaMajorityFn fn) {
    replica_majority_ = std::move(fn);
  }

  // One incremental pass: validates (and repairs in place) up to
  // `ptp_budget` live PTPs starting at the round-robin cursor, then every
  // live zram slot's checksum. Bumps scrub_repairs per repair; collecting
  // unrepairable damage is the caller's job to act on.
  ScrubPassResult RunPass(uint32_t ptp_budget);

  // Validates and, if needed, repairs the single PTE site (`ptp`, `index`)
  // — the touch path's inline detect-and-repair step.
  ScrubSiteResult ScrubSite(PageTablePage& ptp, uint32_t index);

 private:
  // The always-correct conservative rebuild: read-only, non-global,
  // execute-never — a permission/prefetch fault lazily restores the real
  // attributes from the VMA.
  void RebuildFromFrame(PageTablePage& ptp, uint32_t index, FrameNumber frame);
  // Drop-and-refault repair for a clean refetchable page.
  void DropSite(PageTablePage& ptp, uint32_t index, FrameNumber frame);
  // Last-resort repair from the NUMA replica majority (see
  // set_replica_majority). True when repaired.
  bool TryRepairFromReplicaMajority(PageTablePage& ptp, uint32_t index);
  // Run-replica voting: the 16 words of a collapsed 64 KB run are
  // bit-identical, so a word that disagrees with a clear majority of its
  // 16-aligned neighbours (rotted valid/large/frame/attribute bits) is
  // outvoted and rewritten as a copy of theirs. True when repaired.
  bool TryRepairRunReplica(PageTablePage& ptp, uint32_t index);
  // Counts one repair of (`ptp`, `index`) and shoots the site down
  // through the PtpAllocator's sink.
  void RepairedSite(const PageTablePage& ptp, uint32_t index);

  PhysicalMemory* phys_;
  PtpAllocator* ptps_;
  ReverseMap* rmap_;
  ZramStore* zram_;
  KernelCounters* counters_;
  const VmConfig* config_;
  ReplicaMajorityFn replica_majority_;
  // Round-robin position (by live-PTP enumeration order) so successive
  // passes cover the whole table population incrementally.
  uint64_t cursor_ = 0;
};

}  // namespace sat

#endif  // SRC_VM_SCRUB_H_
