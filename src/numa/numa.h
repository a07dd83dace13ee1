// NUMA page-table placement engine (the numaPTE experiment).
//
// The paper's headline mechanism shares L2 page-table pages across
// processes to save memory and cache space; numaPTE (PAPERS.md) argues
// the opposite trade on multi-socket machines — replicate page tables
// per NUMA node so hardware walks always hit local DRAM. This engine
// lets the simulator hold both ends of that tension at once:
//
//   * kLocal     — PTPs stay wherever first-touch placed their frame;
//                  remote walks pay the remote-DRAM surcharge (baseline).
//   * kReplicate — numad promotes PTPs that accumulate remote walks to
//                  replicated: one extra 4 KB frame per non-home node,
//                  holding a bit-identical copy of the hardware half.
//                  The walker then fetches PTEs from the walking core's
//                  node-local replica. A *shared* zygote PTP still has
//                  one replica per node, not per process — exactly the
//                  paper-vs-numaPTE memory/locality frontier.
//   * kMigrate   — sole-owner PTPs migrate wholesale to the dominant
//                  accessor's node (no extra memory, no sharing help).
//
// Coherence is write-through: every PTE mutation funnels through
// PageTablePage::Set/Clear/UpdateFlags/RepairHw, which notify this
// engine (PtpWriteObserver) so all replicas are rewritten in the same
// logical operation — one logical shootdown, never a per-replica one.
// Translations never change at promotion/migration time (only the
// physical address the walker loads PTEs from does), so neither needs a
// TLB flush of its own.
//
// Replicas are pure redundancy: under memory pressure they are the
// first thing sacrificed (kswapd stage 0), and scrubd uses majority
// vote across {master, replicas} as a repair source for rotten words.

#ifndef SRC_NUMA_NUMA_H_
#define SRC_NUMA_NUMA_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "src/arch/pte.h"
#include "src/arch/types.h"
#include "src/mem/phys_memory.h"
#include "src/pt/ptp.h"
#include "src/stats/counters.h"

namespace sat {

// KernelParams::pt_placement — where page-table pages live on a NUMA
// machine.
enum class PtPlacement : uint8_t {
  kLocal = 0,     // first-touch placement, remote walks pay the surcharge
  kReplicate = 1, // numad replicates hot PTPs to every node
  kMigrate = 2,   // numad migrates sole-owner PTPs to the dominant node
};

constexpr const char* PtPlacementName(PtPlacement placement) {
  switch (placement) {
    case PtPlacement::kLocal:
      return "local";
    case PtPlacement::kReplicate:
      return "replicate";
    case PtPlacement::kMigrate:
      return "migrate";
  }
  return "?";
}

// The inverse of PtPlacementName; nullopt for any other word.
constexpr std::optional<PtPlacement> PtPlacementFromName(
    std::string_view name) {
  for (PtPlacement placement :
       {PtPlacement::kLocal, PtPlacement::kReplicate, PtPlacement::kMigrate}) {
    if (name == PtPlacementName(placement)) {
      return placement;
    }
  }
  return std::nullopt;
}

class NumaEngine : public PtpWriteObserver {
 public:
  // One per-node copy of a PTP's hardware half. The frame is a real
  // kPageTable frame on `node` (ref_count 1 — it backs no logical PTP and
  // no L1 entry ever names it); `words` mirrors the 512 raw hardware
  // descriptor words of the master.
  struct Replica {
    uint32_t node = 0;
    FrameNumber frame = 0;
    std::array<uint32_t, kPtesPerPtp> words{};
  };

  // `promote_threshold`: remote walks a PTP must accumulate between
  // numad passes before kReplicate promotes it (or kMigrate moves it).
  NumaEngine(PhysicalMemory* phys, PtpAllocator* ptps,
             KernelCounters* counters, PtPlacement placement,
             uint32_t promote_threshold);

  NumaEngine(const NumaEngine&) = delete;
  NumaEngine& operator=(const NumaEngine&) = delete;
  ~NumaEngine() override;

  PtPlacement placement() const { return placement_; }

  // -------------------------------------------------------------------
  // The walk path.
  // -------------------------------------------------------------------

  // Resolves the physical address the hardware walker loads the PTE for
  // (`ptp`, `index`) from, as seen by a core on `node`: the node-local
  // replica when one exists, the master frame otherwise. Also records
  // the walk in the per-PTP accounting numad's policy runs on, and bumps
  // the numa_walks / numa_remote_walks / numa_replica_walks counters.
  PhysAddr ResolveWalk(const PageTablePage& ptp, uint32_t index,
                       uint32_t node);

  // -------------------------------------------------------------------
  // numad: the placement daemon.
  // -------------------------------------------------------------------

  // One policy pass over the walk statistics accumulated since the last
  // pass: under kReplicate, promotes PTPs with >= promote_threshold
  // remote walks to replicated (one replica per non-home node); under
  // kMigrate, moves sole-owner PTPs whose dominant accessor is off-home
  // to that node. Clears the statistics. Returns promotions+migrations.
  uint32_t RunPass();

  // Frees whole replica sets (ascending PtpId) until at least
  // `target_frames` frames came back, or no replica remains. The
  // memory-pressure hook: replicas are pure redundancy, so they are the
  // first sacrifice. Returns frames freed.
  uint64_t ReclaimReplicas(uint64_t target_frames);

  // -------------------------------------------------------------------
  // Coherence (PtpWriteObserver): the single write-through mutation
  // path. Every Set/Clear/UpdateFlags/RepairHw on a master PTP lands
  // here and rewrites all replicas of that PTP in the same operation.
  // -------------------------------------------------------------------
  void OnHwWrite(PtpId ptp, uint32_t index, uint32_t raw_hw) override;
  void OnPtpDestroyed(PtpId ptp) override;

  // -------------------------------------------------------------------
  // scrubd integration: replicas as a repair source.
  // -------------------------------------------------------------------

  // Majority word across {master, replicas} at (`ptp`, `index`), or
  // nullopt when the PTP has no replicas or no strict majority exists.
  std::optional<uint32_t> ReplicaMajorityWord(PtpId ptp,
                                              uint32_t index) const;

  // One full sweep over every replica word (not budget-limited: audits
  // require replicas bit-identical to their master after a scrub).
  // Where master and replicas disagree: a strict majority against the
  // master rewrites the master (RepairHw, which write-through-converges
  // the replicas) and flushes the site through the PtpAllocator's sink;
  // otherwise the disagreeing replicas are rewritten from the master.
  // Returns words repaired.
  uint32_t ScrubReplicaSweep();

  // Chaos backdoor: XORs `xor_mask` into one replica word, chosen
  // deterministically from `rand` (replica) and `index` (word). Returns
  // false when no replica exists to damage.
  bool CorruptReplicaForChaos(uint64_t rand, uint32_t index,
                              uint32_t xor_mask);

  // -------------------------------------------------------------------
  // Observation (auditor, benches).
  // -------------------------------------------------------------------

  template <typename Fn>
  void ForEachReplica(Fn&& fn) const {
    for (const auto& [id, set] : replicas_) {
      for (const Replica& replica : set) {
        fn(id, replica);
      }
    }
  }

  uint64_t replicated_ptps() const { return replicas_.size(); }
  uint64_t replica_count() const { return replica_count_; }
  uint64_t replica_bytes() const { return replica_count_ * kPageSize; }

 private:
  // Walks recorded against one PTP since the last numad pass.
  struct WalkStats {
    std::vector<uint64_t> per_node;  // indexed by node
    uint64_t remote = 0;             // walks off the master's home node
  };

  uint32_t HomeNodeOf(const PageTablePage& ptp) const {
    return phys_->NodeOfFrame(ptp.frame());
  }
  // Creates replicas of `ptp` on every node but its home (best effort:
  // an exhausted node is skipped). Returns replicas created.
  uint32_t Promote(PageTablePage& ptp);
  // Moves the master frame of a sole-owner PTP to `node`. Returns true
  // on success (false: no frame free on the target node).
  bool Migrate(PageTablePage& ptp, uint32_t node);
  void DropReplicaSet(PtpId ptp);

  PhysicalMemory* phys_;
  PtpAllocator* ptps_;
  KernelCounters* counters_;
  PtPlacement placement_;
  uint32_t promote_threshold_;
  // Ordered containers throughout: numad iterates these, and policy
  // decisions must be deterministic across runs and --jobs shardings.
  std::map<PtpId, std::vector<Replica>> replicas_;
  std::map<PtpId, WalkStats> walk_stats_;
  uint64_t replica_count_ = 0;
};

}  // namespace sat

#endif  // SRC_NUMA_NUMA_H_
