// The TLB model: per-core micro TLBs plus a unified set-associative main
// TLB, mirroring the Cortex-A9 arrangement the paper evaluates on
// (instruction/data micro TLBs that are flushed on every context switch,
// and a unified 128-entry main TLB with round-robin replacement).
//
// Entries carry the fields the paper's mechanism depends on:
//   * an ASID, ignored when the entry is global (the global bit is how
//     zygote-preloaded shared code gets one TLB entry for all apps);
//   * a domain id, checked against the current DACR on every hit — a
//     kNoAccess domain produces a *domain fault*, the paper's trap for
//     non-zygote processes touching zygote-domain global entries.

#ifndef SRC_TLB_TLB_H_
#define SRC_TLB_TLB_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/arch/domain.h"
#include "src/arch/pte.h"
#include "src/arch/types.h"

namespace sat {

class Tracer;

struct TlbEntry {
  bool valid = false;
  uint32_t vpn = 0;          // virtual page number of the entry's base
  uint32_t size_pages = 1;   // 1 (4 KB), 16 (64 KB large page) or
                             // 256 (1 MB section)
  Asid asid = 0;
  bool global = false;
  DomainId domain = 0;
  PtePerm perm = PtePerm::kNone;
  bool executable = false;
  FrameNumber frame = 0;

  // Does this entry translate `vpn_query` for `asid_query`? Bitwise, not
  // short-circuit: set scans evaluate it for every way, and each term is
  // cheaper than a mispredicted branch.
  bool Matches(uint32_t vpn_query, Asid asid_query) const {
    return valid & (global | (asid == asid_query)) &
           ((vpn_query & ~(size_pages - 1)) == vpn);
  }

  // Covers the virtual page regardless of ASID (for flush-by-VA).
  bool CoversVpn(uint32_t vpn_query) const {
    return valid && (vpn_query & ~(size_pages - 1)) == vpn;
  }
};

// One TLB-maintenance request: what a shootdown asks every target core to
// invalidate (Core::Flush). A batched shootdown queues it for the remote
// cores until the next drain (PendingFlush), and the auditor exempts every
// entry a queued one covers from its staleness checks.
struct TlbFlush {
  enum class Kind : uint8_t { kAsid = 0, kVa, kAll };
  Kind kind = Kind::kAll;
  Asid asid = 0;    // kAsid: that address space's non-global entries
  VirtAddr va = 0;  // kVa: every entry covering the address, global or not

  static constexpr TlbFlush All() { return TlbFlush{}; }
  static constexpr TlbFlush ForAsid(Asid asid) {
    return TlbFlush{Kind::kAsid, asid, 0};
  }
  static constexpr TlbFlush ForVa(VirtAddr va) {
    return TlbFlush{Kind::kVa, 0, va};
  }

  // Does this flush invalidate `entry` (valid, size-aligned) in a main TLB?
  bool Covers(const TlbEntry& entry) const;
};

// A flush deferred for the remote cores in `mask` (a CpuMask: the
// initiator flushed itself when it queued the request).
struct PendingFlush {
  TlbFlush flush;
  uint64_t mask = 0;
};

// Could a lookup ever return either of these two valid entries for one and
// the same (vpn, asid) query? True when their page ranges overlap and they
// serve a common address space (same ASID, or either one is global). Insert
// uses this to scrub stale duplicates; the property tests use it as the
// no-duplicate invariant.
bool EntriesConflict(const TlbEntry& lhs, const TlbEntry& rhs);

enum class TlbResult : uint8_t {
  kMiss = 0,
  kHit,
  kDomainFault,    // DACR gives no access to the entry's domain
  kPermissionFault,  // domain is client and the PTE permissions deny
};

struct TlbStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t domain_faults = 0;
  uint64_t permission_faults = 0;
  uint64_t insertions = 0;
  uint64_t flushes = 0;
  uint64_t entries_flushed = 0;
};

// Checks `access` against a matching entry under `dacr`: the entry's domain
// first (no access faults, manager bypasses permissions), then, in a client
// domain, PermitsAccess (src/arch/pte.h).
TlbResult CheckEntryAccess(const TlbEntry& entry, AccessType access,
                           const DomainAccessControl& dacr);

// The unified main TLB: set-associative, round-robin replacement per set.
// 64 KB and 1 MB entries are indexed by their aligned base VPN; lookups
// therefore probe the 4 KB-index set, then the 64 KB-index set and the
// 1 MB-index set while an entry of that size is live.
class MainTlb {
 public:
  MainTlb(uint32_t num_entries, uint32_t ways);

  TlbResult Lookup(VirtAddr va, Asid asid, AccessType access,
                   const DomainAccessControl& dacr, TlbEntry* out);

  void Insert(const TlbEntry& entry);

  // Invalidate everything, including global entries (full flush; the
  // no-ASID fallback configuration uses this on context switch... except
  // that global entries surviving is precisely the point, so the fallback
  // uses FlushNonGlobal instead; FlushAll models `TLBIALL`).
  void FlushAll();

  // Invalidate all non-global entries (context switch without ASIDs).
  void FlushNonGlobal();

  // Invalidate every *global* entry (the software fallback for
  // architectures without domains: drop shared entries before running a
  // process outside the sharing group).
  void FlushGlobal();

  // Invalidate non-global entries of one address space.
  void FlushAsid(Asid asid);

  // Invalidate every entry covering `va`, global or not (the domain-fault
  // handler's "flush all TLB entries that match the faulting address").
  void FlushVa(VirtAddr va);

  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  uint32_t ValidEntryCount() const {
    return live_[0] + live_[1] + live_[2];
  }
  // Bytes of virtual address space the valid entries currently translate —
  // the translation-reach metric the promotion engine exists to grow.
  uint64_t ReachBytes() const;
  uint32_t num_entries() const { return static_cast<uint32_t>(entries_.size()); }

  // Geometry and raw-entry inspection, for invariant-checking tests.
  uint32_t ways() const { return ways_; }
  uint32_t num_sets() const { return num_sets_; }
  const TlbEntry& EntryAt(uint32_t set, uint32_t way) const {
    return entries_[set * ways_ + way];
  }

  // Chaos backdoor: mutable access to a stored entry so the injector can
  // flip tag/attribute bits in place, bypassing Insert's dedup scrubbing.
  // Never used by the lookup/insert machinery itself. A flip may change
  // vpn, asid, global or frame, never `valid` or `size_pages`. A flipped VPN can leave the entry outside its home set,
  // so until the next FlushAll every Insert scrubs all the sets it could.
  TlbEntry& EntryAtForChaos(uint32_t set, uint32_t way) {
    chaos_touched_ = true;
    return entries_[set * ways_ + way];
  }

  // Flush operations report entries-flushed counts as trace events.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  // Flush kinds as reported in kTlbFlush events' `a` payload.
  enum FlushKind : uint64_t {
    kFlushKindAll = 0,
    kFlushKindNonGlobal,
    kFlushKindGlobal,
    kFlushKindAsid,
    kFlushKindVa,
  };

  uint32_t SetIndexOf(uint32_t vpn) const { return vpn & (num_sets_ - 1); }
  TlbEntry* FindInSet(uint32_t set, uint32_t vpn, Asid asid);
  // Invalidates every entry in `set` that conflicts with `entry`. Returns
  // the first way it vacated, else the first way already invalid, else -1.
  int32_t ScrubSet(uint32_t set, const TlbEntry& entry);
  // Invalidates one valid entry and drops it from the live counts. Every
  // invalidation goes through here.
  void Retire(TlbEntry& entry);
  template <typename Pred>
  void FlushWhere(FlushKind kind, Pred pred);

  uint32_t ways_;
  uint32_t num_sets_;
  std::vector<TlbEntry> entries_;        // num_sets_ x ways_
  std::vector<uint32_t> replace_cursor_; // round-robin per set
  // Valid entries per page size: 4 KB, 64 KB, 1 MB. While no 64 KB or
  // 1 MB entry is live, nothing can match outside a VPN's home set.
  std::array<uint32_t, 3> live_{};
  // Set by EntryAtForChaos, cleared by FlushAll.
  bool chaos_touched_ = false;
  TlbStats stats_;
  Tracer* tracer_ = nullptr;
};

// A micro TLB: small, fully associative, FIFO replacement, flushed on
// every context switch (Cortex-A9 behaviour the paper leans on).
//
// Almost every lookup misses, so a miss filter sits in front of the
// first-match scan: valid 4 KB entries are counted per VPN bucket, larger
// entries in one total. A lookup whose bucket is empty while no larger
// entry is live cannot match anything and misses without scanning.
class MicroTlb {
 public:
  // Bucket counts are 8-bit, so at most 255 entries.
  static constexpr uint32_t kMaxEntries = 255;

  explicit MicroTlb(uint32_t num_entries);

  TlbResult Lookup(VirtAddr va, Asid asid, AccessType access,
                   const DomainAccessControl& dacr, TlbEntry* out);

  void Insert(const TlbEntry& entry);
  void FlushAll();
  void FlushVa(VirtAddr va);

  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  // Raw-entry inspection (for the invariant auditor).
  uint32_t num_entries() const { return static_cast<uint32_t>(entries_.size()); }
  const TlbEntry& EntryAt(uint32_t index) const { return entries_[index]; }

 private:
  static constexpr uint32_t kBuckets = 256;

  // Could any valid entry cover `vpn`? False is exact; true means scan.
  bool MayCover(uint32_t vpn) const {
    return buckets_[vpn % kBuckets] != 0 || large_live_ != 0;
  }
  void Retire(TlbEntry& entry);

  std::vector<TlbEntry> entries_;
  uint32_t fifo_cursor_ = 0;
  uint32_t live_ = 0;        // valid entries
  uint32_t large_live_ = 0;  // valid 64 KB and 1 MB entries
  std::array<uint8_t, kBuckets> buckets_{};  // valid 4 KB entries per VPN
  TlbStats stats_;
};

}  // namespace sat

#endif  // SRC_TLB_TLB_H_
