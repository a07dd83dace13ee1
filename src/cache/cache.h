// Set-associative cache models with cycle accounting.
//
// Geometry defaults follow the paper's Nexus 7 (Tegra 3, Cortex-A9):
// private 32 KB / 32 KB L1 I/D caches per core, 32-byte lines, and a 1 MB
// L2 shared by all cores. Caches are indexed and tagged by *physical*
// address (the L1I on the A9 is virtually indexed, but with 4-way 32 KB the
// index bits sit inside the page offset, so physical indexing is
// behaviour-identical).
//
// Page-table walks matter here: on ARMv7 the hardware walker's PTE fetches
// allocate into the data cache and L2, so every process with a *private*
// page table drags its own copy of identical PTE lines through the shared
// L2 — the cache-pollution effect the paper's shared PTPs eliminate
// (a shared PTP means one physical PTE line for all sharers).

#ifndef SRC_CACHE_CACHE_H_
#define SRC_CACHE_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/types.h"
#include "src/stats/cost_model.h"
#include "src/stats/counters.h"

namespace sat {

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;

  double MissRate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

// One set-associative cache with LRU replacement.
//
// Each set is stored as packed 32-bit keys (tag + 1; 0 marks an invalid
// way) beside a parallel array of LRU stamps, so a lookup compares one
// small array without branching per way. An invalid way's stamp is 0 and
// valid stamps start at 1, so the oldest stamp picks the first invalid
// way when there is one, else the least recently used.
class Cache {
 public:
  Cache(std::string name, uint32_t size_bytes, uint32_t line_size, uint32_t ways);

  // Touches the line containing `pa`; returns true on hit. A miss fills
  // the line (victim selection is LRU).
  bool Access(PhysAddr pa);

  // Is the line currently resident (no state change)?
  bool Probe(PhysAddr pa) const;

  void InvalidateAll();

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

  const std::string& name() const { return name_; }
  uint32_t line_size() const { return line_size_; }

 private:
  uint64_t LineAddr(PhysAddr pa) const { return pa >> line_shift_; }
  size_t SetBase(uint64_t line_addr) const {
    return static_cast<size_t>(line_addr & (num_sets_ - 1)) * ways_;
  }
  uint32_t KeyOf(uint64_t line_addr) const;
  // The set's hit way as a one-hot mask, 0 on a miss. `kWays` is the
  // associativity when known at compile time, else 0.
  template <uint32_t kWays>
  uint32_t HitMask(size_t base, uint32_t key) const;
  // The way holding the smallest stamp, the lowest on a tie.
  template <uint32_t kWays>
  uint32_t VictimWay(size_t base) const;
  template <uint32_t kWays>
  bool AccessSet(size_t base, uint32_t key);

  std::string name_;
  uint32_t line_size_;
  uint32_t line_shift_;
  uint32_t ways_;
  uint32_t num_sets_;
  uint32_t set_shift_;
  uint64_t clock_ = 0;
  std::vector<uint32_t> keys_;    // num_sets_ x ways_; tag + 1, 0 = invalid
  std::vector<uint64_t> stamps_;  // num_sets_ x ways_; 0 while invalid
  CacheStats stats_;
};

// A core's view of the memory hierarchy: private L1 I/D plus a pointer to
// the (possibly shared) L2. Returns access latencies from the cost model
// and attributes stall cycles + miss counts to the supplied CoreCounters.
class CacheHierarchy {
 public:
  // `l2` may be shared between several hierarchies (multi-core); the
  // caller owns it.
  CacheHierarchy(const CostModel* costs, Cache* l2);

  // Instruction-line fetch.
  Cycles AccessInst(PhysAddr pa, CoreCounters* counters);
  // Data access.
  Cycles AccessData(PhysAddr pa, CoreCounters* counters);
  // Hardware page-table-walk PTE fetch: allocates into L1D + L2 (ARMv7
  // walker behaviour); stall time is charged to the requesting side via
  // the caller.
  Cycles AccessPtw(PhysAddr pa, CoreCounters* counters);

  Cache& l1i() { return l1i_; }
  Cache& l1d() { return l1d_; }
  Cache& l2() { return *l2_; }

  void InvalidateAll();

  // Default Tegra-3-like geometry helpers.
  static Cache MakeL2() { return Cache("L2", 1024 * 1024, 32, 16); }

 private:
  const CostModel* costs_;
  Cache l1i_;
  Cache l1d_;
  Cache* l2_;
};

}  // namespace sat

#endif  // SRC_CACHE_CACHE_H_
