// VmManager: the machine-independent memory-management entry points of the
// simulated kernel — page-fault handling, fork-time address-space copying
// (with the paper's PTP sharing), and the mmap/munmap/mprotect system
// calls with their unshare triggers (Section 3.1.2's five cases).

#ifndef SRC_VM_VM_MANAGER_H_
#define SRC_VM_VM_MANAGER_H_

#include <cstdint>
#include <optional>

#include "src/arch/fault.h"
#include "src/mem/page_cache.h"
#include "src/mem/phys_memory.h"
#include "src/stats/cost_model.h"
#include "src/stats/counters.h"
#include "src/vm/config.h"
#include "src/vm/mm.h"

namespace sat {

class Tracer;
class ZramStore;

// Why a collapsed 64 KB run (or an eager 1 MB section) was demoted —
// carried in the `b` payload of kHugeSplit trace events.
enum class HugeSplitReason : uint8_t {
  kMunmap = 0,   // partial munmap cut through the block
  kMprotect,     // partial mprotect made the block non-uniform
  kCow,          // a COW write diverged one page of the run
};

struct FaultOutcome {
  bool ok = false;            // false => SIGSEGV (unresolvable) or OOM
  bool oom = false;           // false fault result was a failed allocation,
                              // not a bad access: reclaim-and-retry, not
                              // SIGSEGV
  bool hard = false;          // missed the page cache ("disk" read)
  bool unshared = false;      // the fault triggered a PTP unshare
  uint32_t ptes_copied = 0;   // unshare copy volume
  Cycles kernel_cycles = 0;   // time spent in the handler
};

struct ForkResult {
  bool ok = true;                      // false => ENOMEM; the child's mm
                                       // holds partial state the caller
                                       // must tear down (ExitMm)
  uint32_t vmas_copied = 0;
  uint32_t slots_shared = 0;           // PTPs shared into the child
  uint32_t ptes_copied = 0;            // PTEs copied the stock way
  uint32_t ptes_write_protected = 0;   // share-time protection pass
  uint32_t child_ptps_allocated = 0;   // fresh PTPs the child needed
  Cycles cycles = 0;                   // modelled cost of the fork
};

struct MmapRequest {
  // Page-aligned length in bytes.
  uint32_t length = 0;
  VmProt prot;
  VmKind kind = VmKind::kAnonPrivate;
  FileId file = kNoFile;
  uint32_t file_page_offset = 0;
  // If nonzero, map exactly here (MAP_FIXED without overlap).
  VirtAddr fixed_address = 0;
  bool global = false;
  bool is_stack = false;
  bool zygote_preloaded = false;
  bool use_large_pages = false;
  // Register the region with KSM at creation (equivalent to an immediate
  // madvise(MADV_MERGEABLE); Kernel::Madvise can also set it later).
  bool mergeable = false;
  std::string name;
};

class VmManager {
 public:
  VmManager(PhysicalMemory* phys, PageCache* page_cache,
            KernelCounters* counters, const CostModel* costs, VmConfig config)
      : phys_(phys),
        page_cache_(page_cache),
        counters_(counters),
        costs_(costs),
        config_(config) {}

  VmManager(const VmManager&) = delete;
  VmManager& operator=(const VmManager&) = delete;

  const VmConfig& config() const { return config_; }
  void set_config(const VmConfig& config) { config_ = config; }

  // Fault handling reports per-fault spans (classified by kind) when set.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Swap store for resolving swap-entry faults. Without one, swap PTEs
  // never exist and the fault paths are unchanged.
  void set_zram(ZramStore* zram) { zram_ = zram; }

  // -------------------------------------------------------------------------
  // Page faults.
  // -------------------------------------------------------------------------

  // Resolves a translation or permission abort against `mm`. Covers soft
  // fills from the page cache, anonymous zero-fill, COW copies, populate-
  // into-shared-PTP, and write-triggered unsharing.
  FaultOutcome HandleFault(MmStruct& mm, const MemoryAbort& abort);

  // -------------------------------------------------------------------------
  // Fork.
  // -------------------------------------------------------------------------

  // Copies `parent`'s address space into the empty `child`, honouring the
  // configured kernel (stock / copied-PTEs / shared-PTPs). When fork
  // write-protects live parent mappings, the parent's TLB entries are
  // flushed through the shootdown sink (TlbShootdown::FlushSpace).
  ForkResult Fork(MmStruct& parent, MmStruct& child);

  // -------------------------------------------------------------------------
  // The mmap family.
  // -------------------------------------------------------------------------

  // Returns the mapped address, or 0 on failure (no free range, or — when
  // `out_oom` reports true — an eager unshare that could not allocate its
  // private PTP). Eagerly unshares overlapped shared PTPs (Section 3.1.2
  // case 3) unless the lazy-unshare ablation is on. On OOM no region is
  // inserted; any slots already unshared stay unshared (harmless — the
  // address space remains consistent, just less shared), so the caller
  // can reclaim and retry.
  VirtAddr Mmap(MmStruct& mm, const MmapRequest& request,
                bool* out_oom = nullptr);

  // Munmap/Mprotect can also hit OOM in their unshare step. They unshare
  // *before* mutating regions or PTEs, so an OOM (reported via `out_oom`)
  // leaves the address space exactly as it was. Neither flushes the range
  // it changes: the caller shoots it down (Kernel::FlushRange), after the
  // whole operation.
  void Munmap(MmStruct& mm, VirtAddr start, uint32_t length,
              bool* out_oom = nullptr);

  void Mprotect(MmStruct& mm, VirtAddr start, uint32_t length, VmProt prot,
                bool* out_oom = nullptr);

  // Releases every region and page-table page (process exit).
  void ExitMm(MmStruct& mm);

  // Unshares the slot containing `va` if this mm holds it NEED_COPY.
  // Returns PTEs copied, or nullopt if the private PTP could not be
  // allocated (the slot is then untouched); accumulates modelled cost
  // into *cycles. Public because the KSM daemon must privatize a shared
  // PTP before repointing one of its PTEs at a stable frame.
  std::optional<uint32_t> UnshareIfNeeded(MmStruct& mm, VirtAddr va,
                                          Cycles* cycles);

  // Demotes the 64 KB large-page run covering `va` back to 4 KB PTEs (a
  // pure representation change: same frames, same permissions). No-op
  // when the block holds no large run. The containing slot must be
  // private — every call site either just unshared it or proved no run
  // can span the boundary otherwise. Returns replicas rewritten. Public
  // because reclaim-adjacent callers (tests, future policies) demote too.
  uint32_t SplitLargeBlock(MmStruct& mm, VirtAddr va, HugeSplitReason reason);

 private:
  // Munmap's and Mprotect's demotion step over [start, end): splits the
  // 64 KB runs its edges cut (their slots already private) and drops every
  // 1 MB section it overlaps, recording `reason`.
  void DemoteRange(MmStruct& mm, VirtAddr start, VirtAddr end,
                   HugeSplitReason reason);

  // HandleFault minus the tracing wrapper.
  FaultOutcome HandleFaultImpl(MmStruct& mm, const MemoryAbort& abort);

  // Installs the PTE for a resolved fault, routing through the shared-PTP
  // populate path when the slot is shared.
  void InstallPte(MmStruct& mm, VirtAddr va, HwPte hw, LinuxPte sw);

  FaultOutcome HandleTranslationFault(MmStruct& mm, const VmArea& vma,
                                      VirtAddr va, AccessType access);
  // Resolves a fault on a swap PTE: swap-cache lookup or a fresh frame
  // "decompressed" from the zram store, installed read-only so the COW
  // machinery keeps cache-shared frames clean.
  FaultOutcome HandleSwapInFault(MmStruct& mm, const VmArea& vma, VirtAddr va);
  // Speculatively populates resident neighbours of a read fault (the
  // fault-around ablation).
  void FaultAround(MmStruct& mm, const VmArea& vma, VirtAddr va);
  // Whether `va`'s 64 KB block can be mapped with one large page, and the
  // install itself (16 replicated PTEs over 16 contiguous frames). The
  // install returns false when no contiguous run is available; the fault
  // then falls back to ordinary 4 KB pages.
  bool CanMapLargeBlock(MmStruct& mm, const VmArea& vma, VirtAddr va) const;
  bool InstallLargeBlock(MmStruct& mm, const VmArea& vma, VirtAddr va);
  FaultOutcome HandlePermissionFault(MmStruct& mm, const VmArea& vma,
                                     VirtAddr va, AccessType access);

  // Whether every region overlapping `slot` may live in a shared PTP.
  bool SlotSharable(const MmStruct& mm, uint32_t slot) const;

  PhysicalMemory* phys_;
  PageCache* page_cache_;
  KernelCounters* counters_;
  const CostModel* costs_;
  VmConfig config_;
  Tracer* tracer_ = nullptr;
  ZramStore* zram_ = nullptr;
};

}  // namespace sat

#endif  // SRC_VM_VM_MANAGER_H_
