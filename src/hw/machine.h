// Machine: a multi-core extension of the core model — N Cortex-A9-like
// cores with private L1 caches and TLBs sharing one L2, plus TLB
// shootdowns (IPI-based cross-core invalidation) and a simple NUMA
// topology (cores partitioned into nodes; remote-node IPIs cost extra).
//
// The paper's evaluation pins its workloads to one core; on a real
// multi-core device every PTE downgrade — fork's COW pass, an unshare, an
// mprotect — must invalidate stale entries on *every* core the address
// space has run on (Linux's mm_cpumask). The shootdown machinery here
// makes that cost measurable: each remote core in the target mask costs
// an IPI round trip and performs the requested flush locally.
//
// Two shootdown policies:
//
//   * kImmediate — every Shootdown call flushes all masked cores and
//     delivers the IPIs on the spot (one IPI per remote core per call).
//   * kBatched — the initiator's own TLB is flushed immediately (the
//     mutating CPU must observe its own PTE update), but remote flushes
//     are enqueued on a per-initiator pending queue. A later
//     DrainPendingFlushes — the kernel calls it at its sync points:
//     context switch, syscall return, fault-handler exit, daemon tick —
//     applies the whole queue and pays ONE IPI per distinct remote core,
//     however many flush entries targeted it. Until the drain, a remote
//     TLB may hold entries that are stale *only* while a covering entry
//     sits in the queue (the auditor knows this window).

#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/hw/core.h"

namespace sat {

class Tracer;

// A set of cores, as a bitmask (the mm_cpumask analogue). 64-bit: the
// scale-out experiments run up to 64 cores, and `1u << core` arithmetic
// is undefined at core 32.
using CpuMask = uint64_t;

constexpr CpuMask CpuBit(uint32_t core) { return CpuMask{1} << core; }

// The mask selecting every core of an `n`-core machine.
constexpr CpuMask AllCoresMask(uint32_t n) {
  return n >= 64 ? ~CpuMask{0} : CpuBit(n) - 1;
}

// How TLB shootdowns are delivered (see the file comment).
enum class ShootdownPolicy : uint8_t {
  kImmediate = 0,
  kBatched,
};

constexpr const char* ShootdownPolicyName(ShootdownPolicy policy) {
  return policy == ShootdownPolicy::kBatched ? "batched" : "immediate";
}

// The inverse of ShootdownPolicyName; nullopt for any other word.
constexpr std::optional<ShootdownPolicy> ShootdownPolicyFromName(
    std::string_view name) {
  for (ShootdownPolicy policy :
       {ShootdownPolicy::kImmediate, ShootdownPolicy::kBatched}) {
    if (name == ShootdownPolicyName(policy)) {
      return policy;
    }
  }
  return std::nullopt;
}

// The IPIs, batched flushes and queue drains are KernelCounters
// (tlb_shootdown_ipis, tlb_batched_flushes, tlb_batch_drains).
struct ShootdownStats {
  uint64_t shootdowns = 0;       // shootdown operations issued
  uint64_t batch_overflows = 0;  // queue collapses to a full flush
};

class Machine {
 public:
  Machine(const CostModel* costs, KernelCounters* kernel_counters,
          PhysAddr kernel_text_base, const CoreConfig& config,
          uint32_t num_cores, uint32_t num_nodes = 1,
          ShootdownPolicy shootdown_policy = ShootdownPolicy::kImmediate);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }
  Core& core(uint32_t index) { return *cores_[index]; }
  Cache& l2() { return l2_; }

  // NUMA topology: cores are split into `num_nodes` equal contiguous
  // blocks (cores [0, per_node) are node 0, and so on).
  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t NodeOfCore(uint32_t core) const {
    return core / (num_cores() / num_nodes_);
  }

  ShootdownPolicy shootdown_policy() const { return policy_; }

  // -------------------------------------------------------------------
  // TLB shootdowns. `flush` is applied to every core in `mask`, the cores
  // whose TLBs may hold stale entries (the address space's cpumask);
  // `initiator` flushes locally for free. Under kImmediate every other
  // masked core costs an IPI charged to the initiator (it spins for the
  // acknowledgements, as Linux does); under kBatched the remote flushes
  // are queued until DrainPendingFlushes.
  // -------------------------------------------------------------------

  void Shootdown(const TlbFlush& flush, CpuMask mask, uint32_t initiator);

  // Applies every flush pending on `initiator`'s queue to its targets and
  // delivers one batched IPI per distinct remote core. No-op when empty.
  void DrainPendingFlushes(uint32_t initiator);
  // Drains every core's queue (the kernel's sync points do not track who
  // enqueued what; draining all is always sound).
  void DrainAllPendingFlushes();

  bool HasPendingFlushes() const;
  // Flattened snapshot of every pending queue, for the auditor: a TLB
  // entry may be stale on core C only while a covering entry targeting C
  // sits here. Each entry's mask holds only remote cores.
  std::vector<PendingFlush> PendingFlushesSnapshot() const;

  // Interrupts every core in `targets` (which must not include the
  // initiator: a CPU never IPIs itself) and charges the initiator the
  // round-trip wait, plus the remote-node surcharge for cross-node IPIs.
  void DeliverIpis(CpuMask targets, uint32_t initiator);

  const ShootdownStats& shootdown_stats() const { return stats_; }
  void ResetShootdownStats() { stats_ = ShootdownStats{}; }

  // Aggregated counters across all cores.
  CoreCounters TotalCounters() const;

  // Total execution cycles across all cores — the trace clock.
  Cycles TotalCycles() const;

  // Wires the tracer into the machine and every core (shootdown, IPI,
  // domain-fault, and TLB-flush events).
  void set_tracer(Tracer* tracer);

 private:
  void Enqueue(uint32_t initiator, PendingFlush pending);

  const CostModel* costs_;
  KernelCounters* kernel_counters_;
  Cache l2_;
  std::vector<std::unique_ptr<Core>> cores_;
  uint32_t num_nodes_ = 1;
  ShootdownPolicy policy_ = ShootdownPolicy::kImmediate;
  // Per-initiator deferred-flush queues (kBatched only).
  std::vector<std::vector<PendingFlush>> pending_;
  ShootdownStats stats_;
  Tracer* tracer_ = nullptr;
};

}  // namespace sat

#endif  // SRC_HW_MACHINE_H_
