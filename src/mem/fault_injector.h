// Deterministic allocation-failure and corruption injection.
//
// A FaultInjector sits behind PhysicalMemory's Try* allocation entry
// points and decides, per call site, whether the next allocation should
// artificially fail. Three knobs per site, combinable:
//
//   - fail_nth:     fail exactly the Nth attempt at this site (1-based),
//   - every_kth:    fail every k-th attempt (k, 2k, 3k, ...),
//   - probability:  fail each attempt independently with probability p,
//                   drawn from a seeded PRNG so runs are reproducible.
//
// All knobs default to off. The injector only ever affects the fallible
// Try* paths; the infallible wrappers (AllocFrame etc.) go through the
// same Try* code, so injection under them turns into a SAT_CHECK abort —
// tests that want to exercise recovery must call the fallible API (the
// kernel does).
//
// Chaos mode adds seeded bit-flip corruption with the same rule shape at
// a second family of sites (hardware PTE words, zram slot bytes, TLB
// entry tags). The kernel polls ShouldCorrupt at its touch entry point
// and, when it fires, damages live state — then the checksum / scrubd /
// oops machinery has to detect and contain it. Rand64() supplies the
// seeded randomness for choosing *what* to flip, so a (seed, rules) pair
// reproduces the exact same damage sequence.

#ifndef SRC_MEM_FAULT_INJECTOR_H_
#define SRC_MEM_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/stats/rng.h"

namespace sat {

// One entry per distinct allocation site that can be failed independently.
enum class AllocSite : uint32_t {
  kFrame = 0,       // single-frame allocations (anon, file cache, kernel)
  kContiguous = 1,  // naturally-aligned contiguous runs (large pages)
  kPtp = 2,         // page-table-page frame allocations
  kZram = 3,        // compressed-store pool growth (swap-out path)
  kCount = 4,
};

const char* AllocSiteName(AllocSite site);

// One entry per distinct kind of state a chaos bit-flip can damage.
enum class CorruptSite : uint32_t {
  kPteWord = 0,      // a hardware PTE word in a live PTP
  kZramByte = 1,     // a byte of a stored compressed slot
  kTlbTag = 2,       // a main-TLB entry's tag/attributes
  kNumaReplica = 3,  // a word of a per-node page-table replica
  kCount = 4,
};

const char* CorruptSiteName(CorruptSite site);

struct FaultRule {
  uint64_t fail_nth = 0;    // 0 = off; 1-based attempt index to fail once
  uint64_t every_kth = 0;   // 0 = off; fail attempts k, 2k, 3k, ...
  double probability = 0.0; // 0.0 = off; independent per-attempt failure
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  void SetRule(AllocSite site, const FaultRule& rule) {
    rules_[Index(site)] = rule;
  }
  const FaultRule& rule(AllocSite site) const { return rules_[Index(site)]; }

  void SetCorruptRule(CorruptSite site, const FaultRule& rule) {
    corrupt_rules_[Index(site)] = rule;
  }
  const FaultRule& corrupt_rule(CorruptSite site) const {
    return corrupt_rules_[Index(site)];
  }

  // Clears all rules and counters; the PRNG keeps advancing (reseed by
  // constructing a fresh injector if bit-exact replay is needed).
  void Reset();

  // Called once per allocation attempt at `site`. Returns true if this
  // attempt should fail. Always counts the attempt, even with no rules set.
  bool ShouldFail(AllocSite site);

  // Called once per corruption opportunity at `site` (e.g. every page
  // touch for kPteWord). Returns true if this opportunity should flip
  // bits. Same knobs and determinism contract as ShouldFail.
  bool ShouldCorrupt(CorruptSite site);

  // Seeded randomness for picking what to damage once ShouldCorrupt said
  // yes (bit index, byte value, TLB way ...). Advances the shared PRNG.
  uint64_t Rand64() { return rng_(); }

  uint64_t attempts(AllocSite site) const { return attempts_[Index(site)]; }
  uint64_t injected(AllocSite site) const { return injected_[Index(site)]; }
  uint64_t total_injected() const;

  uint64_t corrupt_attempts(CorruptSite site) const {
    return corrupt_attempts_[Index(site)];
  }
  uint64_t corrupt_injected(CorruptSite site) const {
    return corrupt_injected_[Index(site)];
  }
  uint64_t total_corruptions() const;

 private:
  static constexpr uint32_t kNumSites =
      static_cast<uint32_t>(AllocSite::kCount);
  static constexpr uint32_t kNumCorruptSites =
      static_cast<uint32_t>(CorruptSite::kCount);
  static uint32_t Index(AllocSite site) {
    return static_cast<uint32_t>(site);
  }
  static uint32_t Index(CorruptSite site) {
    return static_cast<uint32_t>(site);
  }

  FaultRule rules_[kNumSites];
  uint64_t attempts_[kNumSites] = {};
  uint64_t injected_[kNumSites] = {};
  FaultRule corrupt_rules_[kNumCorruptSites];
  uint64_t corrupt_attempts_[kNumCorruptSites] = {};
  uint64_t corrupt_injected_[kNumCorruptSites] = {};
  Rng rng_;
};

}  // namespace sat

#endif  // SRC_MEM_FAULT_INJECTOR_H_
