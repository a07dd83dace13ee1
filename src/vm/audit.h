// The kernel invariant auditor: a from-scratch cross-check of every piece
// of redundant state the simulated kernel keeps — frame reference counts
// against the PTEs and page-cache residency that justify them, PTP sharer
// lists against the first-level entries naming each PTP, NEED_COPY
// against the write-protection it promises, TLB contents against the page
// tables they cache, and DACR/domain assignments against the zygote
// policy.
//
// The auditor never mutates anything and never aborts: corruption is what
// it exists to *report*, so every walk tolerates the inconsistent state it
// flags (e.g. PTPs are fetched with GetIfLive, which returns nullptr for a
// dangling id instead of asserting). It is deliberately slow — full
// recounts over all of physical memory and every live PTP — because it
// runs in tests (after every fuzz step, at integration-test teardown), not
// on any measured path.
//
// Use via Kernel::AuditInvariants(), which assembles the AuditInput from
// the live subsystems.

#ifndef SRC_VM_AUDIT_H_
#define SRC_VM_AUDIT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/domain.h"
#include "src/arch/types.h"
#include "src/mem/page_cache.h"
#include "src/mem/phys_memory.h"
#include "src/pt/ptp.h"
#include "src/pt/rmap.h"
#include "src/tlb/tlb.h"
#include "src/vm/mm.h"

namespace sat {

class FrameLru;
class ZramStore;

// One broken invariant: which check tripped and what was found.
struct AuditViolation {
  std::string check;   // short stable name, e.g. "frame-refcount"
  std::string detail;  // expected-vs-found, with the offending ids
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  // Number of individual facts verified (so tests can assert the audit
  // actually covered something, not just vacuously passed).
  uint64_t checks = 0;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// One audited address space: the mm plus the task-side state whose
// consistency with it is part of what is audited.
struct AuditSpace {
  const MmStruct* mm = nullptr;
  Pid pid = 0;
  Asid asid = 0;
  bool zygote_like = false;
  DomainAccessControl dacr;
};

// A snapshot of one valid TLB entry and where it was found.
struct AuditTlbEntry {
  TlbEntry entry;
  uint32_t core = 0;
  const char* which = "?";  // "main" / "micro-i" / "micro-d"
};

// One per-node replica of a hot PTP, as maintained by the NUMA page-table
// engine (plain data so the auditor needs no dependency on src/numa).
struct AuditReplica {
  PtpId ptp = kNoPtp;
  uint32_t node = 0;
  FrameNumber frame = 0;
  std::vector<uint32_t> hw_raw;  // kPtesPerPtp words
};

struct AuditInput {
  const PhysicalMemory* phys = nullptr;
  const PageCache* page_cache = nullptr;  // may be null (no file mappings)
  const PtpAllocator* ptps = nullptr;
  const ReverseMap* rmap = nullptr;       // may be null
  // May be null when the page tables hold no swap entries; with one set,
  // swap-slot reference counts, swap-cache residency, and the compressed
  // pool's byte/frame accounting are audited too.
  const ZramStore* zram = nullptr;
  // May be null; with one set, every frame's LRU-list membership is
  // checked against its kind.
  const FrameLru* lru = nullptr;
  std::vector<AuditSpace> spaces;         // every *live* address space
  std::vector<AuditTlbEntry> tlb_entries;
  // Undelivered batched shootdowns. A TLB entry on a core in a flush's
  // mask may disagree with the page tables while the flush covers it: the
  // invalidation has been issued, just not yet delivered. Such entries are
  // exempt from the stale-TLB checks (but not from the geometry checks).
  std::vector<PendingFlush> pending_flushes;
  // Mirror of VmConfig::hw_l1_write_protect: under that ablation shared
  // PTPs legitimately contain hardware-writable PTEs.
  bool hw_l1_write_protect = false;
  // False when the page tables were built without a reverse map (rmap
  // checks are skipped; everything else still runs).
  bool rmap_maintained = true;
  // KSM stable-tree snapshot as (content, frame) pairs — plain data, so
  // the auditor needs no dependency on the daemon. With ksm_audited set,
  // the tree is cross-checked against frame state: every node's frame
  // must be a live anonymous ksm_stable frame whose content equals the
  // node's key, no frame may appear under two keys, and the node count
  // must equal the ksm_stable frame count (the tree <-> frame bijection).
  // Independently of this snapshot, no PTE mapping a ksm_stable frame may
  // be hardware-writable (checked whenever such a frame exists).
  bool ksm_audited = false;
  std::vector<std::pair<uint64_t, FrameNumber>> ksm_stable;
  // NUMA page-table replica snapshot (src/numa): one entry per per-node
  // replica of a hot PTP, with the replica's full hardware-word image.
  // With numa_audited set, every replica is checked against the master
  // PTP: the master must be live, at most one replica per (ptp, node), the
  // replica frame must be a kPageTable frame on the replica's node with
  // ref_count 1 and distinct from every master frame, the node must differ
  // from the master's home node, and the words must be bit-identical to
  // the master's hardware table (write-through coherence).
  bool numa_audited = false;
  std::vector<AuditReplica> replicas;
};

// Runs every check and returns the violations found (empty == healthy).
AuditReport AuditInvariants(const AuditInput& input);

}  // namespace sat

#endif  // SRC_VM_AUDIT_H_
