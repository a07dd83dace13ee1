// Software and hardware event counters.
//
// KernelCounters mirrors the new software counters the paper adds to the
// kernel (Section 4.1.1): page faults by kind, PTPs allocated, PTPs shared,
// PTPs unshared, PTEs copied. CoreCounters mirrors the PMU events read from
// the Cortex-A9 Performance Monitor Unit: execution cycles, cache and TLB
// stall cycles, instruction counts.

#ifndef SRC_STATS_COUNTERS_H_
#define SRC_STATS_COUNTERS_H_

#include <cstdint>
#include <string>

#include "src/stats/cost_model.h"

namespace sat {

// X-macro field tables. ToString, operator-, operator+= and the round-trip
// tests all expand the same list, so the three can never drift from the
// struct again (a static_assert below pins the list length to the struct
// size). Adding a counter means adding the field *and* one X(...) line.
#define SAT_KERNEL_COUNTER_FIELDS(X) \
  X(faults_file_backed)              \
  X(faults_anonymous)                \
  X(faults_cow)                      \
  X(faults_hard)                     \
  X(domain_faults)                   \
  X(ptps_allocated)                  \
  X(ptps_shared)                     \
  X(ptps_unshared)                   \
  X(ptes_copied)                     \
  X(ptes_write_protected)            \
  X(ptes_faulted_around)             \
  X(pages_reclaimed)                 \
  X(ptes_cleared_by_reclaim)         \
  X(direct_reclaims)                 \
  X(swap_outs)                       \
  X(swap_ins)                        \
  X(swap_ins_cache_hit)              \
  X(swap_clean_drops)                \
  X(swap_out_failures)               \
  X(swap_out_store_full)             \
  X(swap_out_pool_enomem)            \
  X(lru_rotations)                   \
  X(lru_activations)                 \
  X(kswapd_runs)                     \
  X(kswapd_pages)                    \
  X(forks)                           \
  X(forks_failed)                    \
  X(oom_kills)                       \
  X(tlb_full_flushes)                \
  X(tlb_asid_flushes)                \
  X(tlb_va_flushes)                  \
  X(tlb_shootdown_ipis)              \
  X(tlb_batched_flushes)             \
  X(tlb_batch_drains)                \
  X(ksm_scans)                       \
  X(ksm_pages_scanned)               \
  X(ksm_pages_merged)                \
  X(ksm_ptes_write_protected)        \
  X(ksm_unmerge_faults)              \
  X(ksm_unshares)                    \
  X(ksm_merge_failures)              \
  X(oops_kills)                      \
  X(frames_quarantined)              \
  X(scrub_runs)                      \
  X(scrub_repairs)                   \
  X(scrub_unrepairable)              \
  X(huge_scans)                      \
  X(huge_pages_scanned)              \
  X(huge_collapses)                  \
  X(huge_collapse_failures)          \
  X(huge_splits)                     \
  X(huge_pages_migrated)             \
  X(huge_unshares)                   \
  X(huge_ksm_unmerges)               \
  X(huge_sections_mapped)            \
  X(numa_walks)                      \
  X(numa_remote_walks)               \
  X(numa_replica_walks)              \
  X(numad_runs)                      \
  X(numa_replica_promotions)         \
  X(numa_replica_updates)            \
  X(numa_replica_reclaims)           \
  X(numa_ptp_migrations)             \
  X(numa_replica_repairs)            \
  X(numa_master_repairs)             \
  X(numa_alloc_fallbacks)            \
  X(numa_cross_node_runs)

#define SAT_CORE_COUNTER_FIELDS(X) \
  X(cycles)                        \
  X(icache_stall_cycles)           \
  X(dcache_stall_cycles)           \
  X(itlb_stall_cycles)             \
  X(dtlb_stall_cycles)             \
  X(inst_fetch_lines)              \
  X(data_accesses)                 \
  X(itlb_main_misses)              \
  X(dtlb_main_misses)              \
  X(micro_tlb_misses)              \
  X(l1i_misses)                    \
  X(l1d_misses)                    \
  X(l2_misses)                     \
  X(user_inst_lines)               \
  X(kernel_inst_lines)             \
  X(context_switches)              \
  X(unsound_global_hits)           \
  X(numa_remote_accesses)

// Counters maintained by the simulated kernel, system-wide or snapshot-able
// per experiment window (snapshots subtract).
struct KernelCounters {
  // Page faults, split the way the paper reports them.
  uint64_t faults_file_backed = 0;   // soft + hard faults on file mappings
  uint64_t faults_anonymous = 0;     // anon zero-fill and stack growth
  uint64_t faults_cow = 0;           // write faults that copied a page
  uint64_t faults_hard = 0;          // subset that missed the page cache
  uint64_t domain_faults = 0;        // zygote-domain aborts by non-zygote tasks

  // Page-table bookkeeping.
  uint64_t ptps_allocated = 0;       // PTPs newly allocated
  uint64_t ptps_shared = 0;          // share references taken at fork
  uint64_t ptps_unshared = 0;        // Figure-6 unshare operations
  uint64_t ptes_copied = 0;          // PTEs copied at fork or unshare
  uint64_t ptes_write_protected = 0; // share-time protection pass work

  // PTEs populated speculatively by fault-around (in addition to the
  // faulting page itself).
  uint64_t ptes_faulted_around = 0;

  // Reclaim statistics (the rmap-driven shrink path).
  uint64_t pages_reclaimed = 0;
  uint64_t ptes_cleared_by_reclaim = 0;
  uint64_t direct_reclaims = 0;       // allocation-failure reclaim passes

  // Anonymous swap (zram) statistics.
  uint64_t swap_outs = 0;             // pages compressed out (incl. clean drops)
  uint64_t swap_ins = 0;              // swap faults resolved
  uint64_t swap_ins_cache_hit = 0;    // subset served by the swap cache
  uint64_t swap_clean_drops = 0;      // cached clean pages dropped, no recompress
  uint64_t swap_out_failures = 0;     // zram full / pool allocation failed
  uint64_t swap_out_store_full = 0;   // subset: compressed store at disksize cap
  uint64_t swap_out_pool_enomem = 0;  // subset: backing pool frame alloc failed
  uint64_t lru_rotations = 0;         // unreclaimable candidates rotated to tail
  uint64_t lru_activations = 0;       // referenced pages promoted to active
  uint64_t kswapd_runs = 0;           // background reclaim activations
  uint64_t kswapd_pages = 0;          // pages freed by those runs

  // Fork statistics.
  uint64_t forks = 0;
  uint64_t forks_failed = 0;          // ENOMEM even after reclaim/OOM-kill

  // Tasks killed by the OOM killer.
  uint64_t oom_kills = 0;

  // TLB maintenance issued by the kernel.
  uint64_t tlb_full_flushes = 0;
  uint64_t tlb_asid_flushes = 0;
  uint64_t tlb_va_flushes = 0;
  uint64_t tlb_shootdown_ipis = 0;    // remote cores interrupted for flushes
  uint64_t tlb_batched_flushes = 0;   // remote flushes deferred to a queue
  uint64_t tlb_batch_drains = 0;      // pending-queue drains performed

  // KSM same-page merging (src/ksm).
  uint64_t ksm_scans = 0;                 // completed ksmd scan passes
  uint64_t ksm_pages_scanned = 0;         // merge candidates examined
  uint64_t ksm_pages_merged = 0;          // PTEs repointed at a stable frame
  uint64_t ksm_ptes_write_protected = 0;  // RW PTEs downgraded for merging
  uint64_t ksm_unmerge_faults = 0;        // COW breaks away from stable frames
  uint64_t ksm_unshares = 0;              // shared PTPs privatized to merge
  uint64_t ksm_merge_failures = 0;        // merges abandoned (ENOMEM unshare)

  // Graceful degradation (recoverable oops + scrubd).
  uint64_t oops_kills = 0;            // tasks killed by a recoverable oops
  uint64_t frames_quarantined = 0;    // frames pulled from circulation
  uint64_t scrub_runs = 0;            // scrubd incremental passes
  uint64_t scrub_repairs = 0;         // corruptions scrubd healed in place
  uint64_t scrub_unrepairable = 0;    // corruptions that forced an oops

  // Translation-reach engine (src/huge): khugepaged-style promotion.
  uint64_t huge_scans = 0;              // completed huged scan passes
  uint64_t huge_pages_scanned = 0;      // PTEs read, pending blocks only
  uint64_t huge_collapses = 0;          // 64 KB runs promoted to large PTEs
  uint64_t huge_collapse_failures = 0;  // abandons (ENOMEM migrate/unshare)
  uint64_t huge_splits = 0;             // large runs demoted back to 4 KB
  uint64_t huge_pages_migrated = 0;     // pages copied into contiguous runs
  uint64_t huge_unshares = 0;           // shared PTPs privatized to collapse
  uint64_t huge_ksm_unmerges = 0;       // stable frames copied out of a run
  uint64_t huge_sections_mapped = 0;    // eager 1 MB sections at boot

  // NUMA page-table placement engine (src/numa) and numad daemon.
  uint64_t numa_walks = 0;              // PTE fetches resolved by the engine
  uint64_t numa_remote_walks = 0;       // subset served from remote DRAM
  uint64_t numa_replica_walks = 0;      // subset served by a local replica
  uint64_t numad_runs = 0;              // numad policy passes
  uint64_t numa_replica_promotions = 0; // PTPs promoted to replicated
  uint64_t numa_replica_updates = 0;    // replica words rewritten (coherence)
  uint64_t numa_replica_reclaims = 0;   // replica frames freed under pressure
  uint64_t numa_ptp_migrations = 0;     // sole-owner PTPs moved cross-node
  uint64_t numa_replica_repairs = 0;    // rotten replica words healed by scrubd
  uint64_t numa_master_repairs = 0;     // master words outvoted by replicas
  uint64_t numa_alloc_fallbacks = 0;    // allocations pushed off-node
  uint64_t numa_cross_node_runs = 0;    // contiguous runs straddling nodes

  KernelCounters operator-(const KernelCounters& rhs) const;
  KernelCounters& operator+=(const KernelCounters& rhs);

  std::string ToString() const;
};

// Per-core counters, the PMU analogue.
struct CoreCounters {
  Cycles cycles = 0;                  // total execution cycles
  Cycles icache_stall_cycles = 0;     // L1 I-cache miss stalls
  Cycles dcache_stall_cycles = 0;     // L1 D-cache miss stalls
  Cycles itlb_stall_cycles = 0;       // instruction main-TLB miss stalls
  Cycles dtlb_stall_cycles = 0;       // data main-TLB miss stalls

  uint64_t inst_fetch_lines = 0;      // instruction cache-line fetches issued
  uint64_t data_accesses = 0;

  uint64_t itlb_main_misses = 0;
  uint64_t dtlb_main_misses = 0;
  uint64_t micro_tlb_misses = 0;

  uint64_t l1i_misses = 0;
  uint64_t l1d_misses = 0;
  uint64_t l2_misses = 0;

  uint64_t user_inst_lines = 0;       // user-mode share of inst_fetch_lines
  uint64_t kernel_inst_lines = 0;     // kernel-mode share

  uint64_t context_switches = 0;

  // Instruction fetches served by a global TLB entry whose domain the
  // running process has no rights to — permitted (and therefore unsound)
  // under the MPK data-only isolation model.
  uint64_t unsound_global_hits = 0;

  // L2-missing accesses served by DRAM on a remote NUMA node.
  uint64_t numa_remote_accesses = 0;

  CoreCounters operator-(const CoreCounters& rhs) const;
  CoreCounters& operator+=(const CoreCounters& rhs);

  std::string ToString() const;
};

// Every field is a uint64_t (Cycles included), so equating the struct size
// with the X-macro line count catches a field added to one but not the
// other at compile time.
#define SAT_COUNT_FIELD(field) +1
static_assert(sizeof(KernelCounters) ==
                  (0 SAT_KERNEL_COUNTER_FIELDS(SAT_COUNT_FIELD)) *
                      sizeof(uint64_t),
              "KernelCounters fields and SAT_KERNEL_COUNTER_FIELDS differ");
static_assert(sizeof(CoreCounters) ==
                  (0 SAT_CORE_COUNTER_FIELDS(SAT_COUNT_FIELD)) *
                      sizeof(uint64_t),
              "CoreCounters fields and SAT_CORE_COUNTER_FIELDS differ");
#undef SAT_COUNT_FIELD

}  // namespace sat

#endif  // SRC_STATS_COUNTERS_H_
