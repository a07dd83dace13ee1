// Kernel: the facade that owns every simulated subsystem — physical
// memory, the page cache, the PTP allocator, the VM manager, the CPU core,
// and the task table — and exposes the system-call surface the experiments
// drive (fork, exec, exit, mmap, munmap, mprotect) plus two ways of
// touching memory:
//
//   * TouchPage — page-granular access that faults and populates exactly
//     like a real access but skips the TLB/cache/cycle machinery. Used by
//     the footprint-replay experiments (Figures 10-12, Table 3), where
//     only page-fault and page-table counts matter.
//   * Through the Core (kernel().core().FetchLine/Load/Store after
//     ScheduleTo) — the full cycle-level pipeline, used for the launch and
//     IPC experiments (Figures 7-8, 13).

#ifndef SRC_PROC_KERNEL_H_
#define SRC_PROC_KERNEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/arch/check.h"
#include "src/huge/huge.h"
#include "src/hw/machine.h"
#include "src/ksm/ksm.h"
#include "src/mem/fault_injector.h"
#include "src/mem/page_cache.h"
#include "src/mem/phys_memory.h"
#include "src/mem/zram.h"
#include "src/numa/numa.h"
#include "src/pt/ptp.h"
#include "src/stats/cost_model.h"
#include "src/stats/counters.h"
#include "src/proc/syscall.h"
#include "src/proc/task.h"
#include "src/trace/trace.h"
#include "src/vm/audit.h"
#include "src/vm/reclaim.h"
#include "src/vm/scrub.h"
#include "src/vm/swap.h"
#include "src/vm/vm_manager.h"

namespace sat {

struct KernelParams {
  uint64_t phys_bytes = 512ull * 1024 * 1024;
  // Capacity of the compressed swap store (zram disksize). 0 disables
  // swap entirely: no swap PTEs, no kswapd, reclaim behaves as before.
  uint64_t swap_bytes = 0;
  VmConfig vm;
  CoreConfig core;
  // Number of simulated cores (the paper's Tegra 3 has four; its
  // experiments pin to one). TLB maintenance becomes an IPI shootdown
  // over each address space's cpumask when > 1.
  uint32_t num_cores = 1;
  // NUMA nodes: cores and physical frames are split into this many equal
  // contiguous blocks. Off-node L2 misses and cross-node IPIs pay the
  // cost model's remote surcharges. Must divide num_cores.
  uint32_t num_nodes = 1;
  // How TLB shootdowns reach remote cores: kImmediate IPIs on every
  // flush; kBatched defers remote flushes to per-core queues drained at
  // the kernel's sync points (context switch, syscall return, fault
  // return, daemon tick) — one IPI per distinct target per drain.
  ShootdownPolicy shootdown_policy = ShootdownPolicy::kImmediate;
  // Event tracing (off by default; never charges simulated cycles).
  TraceConfig trace;
  // Seed for the deterministic allocation-failure injector (inert until a
  // rule is set via kernel.fault_injector().SetRule(...)).
  uint64_t fault_injection_seed = 42;
  // KSM same-page merging (src/ksm). When enabled, a ksmd scan pass runs
  // from the same wake points as kswapd, every `ksm_wake_interval`-th
  // wake-up; RunKsmScan() also drives passes directly. The daemon itself
  // is always constructed so madvise(MERGEABLE) is always accepted.
  bool ksm_enabled = false;
  uint32_t ksm_wake_interval = 1024;
  // scrubd corruption scrubbing (src/vm/scrub). When enabled, an
  // incremental scrub pass — PTPs cross-checked against the rmap, zram
  // slots against their checksums, TLB entries against the page tables —
  // runs from the kswapd/ksmd wake points every `scrub_wake_interval`-th
  // wake-up. RunScrubPass() also drives passes directly.
  bool scrub = false;
  uint32_t scrub_wake_interval = 1024;
  // huged large-page promotion (src/huge). When enabled, a khugepaged-
  // style pass — collapsing eligible 64 KB runs of 4 KB PTEs into large
  // PTEs, migrating frames when they are not contiguous — runs from the
  // same wake points every `huge_wake_interval`-th wake-up, and the
  // zygote's preloaded code is eagerly mapped with 1 MB sections at boot.
  // RunHugeScan() also drives passes directly.
  bool huge = false;
  uint32_t huge_wake_interval = 1024;
  // Let huged trade KSM dedup back for reach: a collapse may copy stable
  // frames' content into the new contiguous block (an unmerge). Off by
  // default — deduplicated memory usually wins on a memory-tight phone.
  bool huge_unmerge_ksm = false;
  // NUMA page-table placement (src/numa). On a multi-node machine the
  // engine is always constructed (it resolves walks and audits replicas);
  // the numad daemon only ticks when the policy is not kLocal. numad runs
  // from the same wake points as the other daemons every
  // `numad_wake_interval`-th wake-up; RunNumadPass() also drives passes
  // directly. A PTP is promoted (kReplicate) or migrated (kMigrate) after
  // `numad_remote_threshold` remote walks between passes.
  PtPlacement pt_placement = PtPlacement::kLocal;
  uint32_t numad_wake_interval = 1024;
  uint32_t numad_remote_threshold = 8;
};

// How a TouchPage access ended.
enum class TouchStatus : uint8_t {
  kOk = 0,
  kSigSegv,   // unresolvable fault (bad address / permission)
  kOomKill,   // the touching task was OOM-killed while faulting
  kOopsKill,  // a recoverable kernel oops killed the task (corruption in
              // state it shared; see SAT_OOPS_CHECK / OopsDamage)
};

// The madvise subset the simulator models.
enum class MadviseAdvice : uint8_t {
  kMergeable,    // MADV_MERGEABLE: register the range with KSM
  kUnmergeable,  // MADV_UNMERGEABLE: deregister (already-merged pages stay
                 // merged until written; Linux additionally breaks them)
};

// The kernel is the TLB-shootdown sink of its PtpAllocator (TlbShootdown):
// every flush the page-table, VM and daemon layers request reaches the
// machine through FlushSpace or FlushPte below.
class Kernel : private TlbShootdown {
 public:
  explicit Kernel(const KernelParams& params);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // -------------------------------------------------------------------------
  // Process lifecycle.
  // -------------------------------------------------------------------------

  // Creates a task with an empty address space (the init process).
  Task* CreateTask(const std::string& name);

  // Forks `parent`. Copies the address space under the configured kernel
  // (stock / copied-PTEs / shared-PTPs), propagates the zygote-child flag
  // and DACR, assigns a fresh ASID, and charges the modelled fork cost to
  // the core. The outcome carries the child and the per-fork statistics
  // (Table 4's cycles/PTPs/PTEs); on kEnomem — after direct reclaim and
  // OOM-kills (never of the parent) have failed to free enough memory —
  // `child` is nullptr and every piece of partially-built child state
  // (task slot, pid, ASID, page tables, frame references) is rolled back.
  // A dead parent has nothing to copy: kKilled, nothing created.
  ForkOutcome Fork(Task& parent, const std::string& name);

  // Replaces the task's address space (execve). `is_zygote` sets the
  // zygote flag and grants the zygote-domain DACR (Section 3.2.2).
  void Exec(Task& task, const std::string& name, bool is_zygote);

  // Tears down the task's address space and frees its page tables
  // (performing the unshare-at-free logic, Section 3.1.2 case 5). The dead
  // task keeps no MmStruct (`mm` is null); a core it was current on keeps
  // no current task and an empty MMU context, so accesses there fail.
  void Exit(Task& task);

  // -------------------------------------------------------------------------
  // The mmap family.
  // -------------------------------------------------------------------------

  // The kernel-side global-region policy rides on mmap (Section 3.2.2): a
  // file-backed executable mapping created by a task with the zygote flag
  // is marked global (when TLB sharing is configured). Under memory
  // pressure the kernel reclaims / OOM-kills (never `task`) and retries.
  //
  // Errnos: Mmap — kEinval (zero-length or unaligned request), kEnomem
  // (no free range, or memory exhausted even after reclaim), kKilled (the
  // caller is dead, or died at the wake point). Munmap — kEinval
  // (unaligned/zero range), kEfault (the range touches no mapping, as
  // every range of a dead task does), kKilled (the unmap's unshare step
  // could not allocate and the caller was OOM-killed as the very last
  // resort). Mprotect — like Munmap.
  SyscallResult<VirtAddr> Mmap(Task& task, MmapRequest request);
  SyscallResult<void> Munmap(Task& task, VirtAddr start, uint32_t length);
  SyscallResult<void> Mprotect(Task& task, VirtAddr start, uint32_t length,
                               VmProt prot);

  // Flips the MERGEABLE flag on [start, start+length), splitting regions
  // at the boundaries. Pure region bookkeeping: no PTE is touched, so it
  // can never OOM. Errnos like Munmap's (kEinval, kEfault).
  SyscallResult<void> Madvise(Task& task, VirtAddr start, uint32_t length,
                              MadviseAdvice advice);

  // -------------------------------------------------------------------------
  // Memory access.
  // -------------------------------------------------------------------------

  // Page-granular access on behalf of `task` (no TLB/cache simulation).
  // Distinguishes a bad access (kSigSegv — always, for a dead task) from
  // death under memory pressure (kOomKill: the task was chosen — or fell
  // back to — as the OOM victim while faulting; it is no longer alive).
  TouchStatus TouchPageStatus(Task& task, VirtAddr va, AccessType access);

  // Convenience wrapper: true iff the access succeeded.
  bool TouchPage(Task& task, VirtAddr va, AccessType access);

  // A write access that also stamps the page's content tag (the
  // simulator's stand-in for the bytes written — see PageFrame::content).
  // Two pages written with the same value are "byte-identical" to KSM.
  TouchStatus WritePage(Task& task, VirtAddr va, uint64_t value);

  // Installs `task` on a core with full context-switch modelling.
  void ScheduleTo(Task& task, uint32_t core_id = 0);
  // Installs without switch costs (experiment setup).
  void SetCurrent(Task& task, uint32_t core_id = 0);

  Task* current(uint32_t core_id = 0) { return current_[core_id]; }

  // -------------------------------------------------------------------------
  // Subsystem access.
  // -------------------------------------------------------------------------

  // Reclaims up to `target` clean page-cache pages, unmapping them from
  // every mapping page table via the reverse map, with TLB shootdowns.
  ReclaimStats ReclaimFileCache(uint32_t target);

  // Swaps out up to `target` anonymous pages to the compressed store,
  // scanning the inactive-anonymous LRU with second-chance aging (see
  // SwapManager). Returns the pages actually freed; 0 when swap is
  // disabled or nothing is evictable.
  uint32_t SwapOutAnonPages(uint32_t target);

  // One full ksmd pass over every live task's mergeable regions (also run
  // periodically from the kswapd wake points when ksm_enabled). Returns
  // the number of PTEs merged.
  uint32_t RunKsmScan();

  // One incremental scrubd pass (also run periodically from the kswapd
  // wake points when KernelParams::scrub is set): walks a batch of live
  // PTPs validating hardware descriptors against the shadow entries and
  // the rmap, checks zram slot checksums, and cross-checks main-TLB
  // entries against the page tables. Repairs what it can (rebuild from
  // the rmap, drop-and-refault clean file pages, re-duplicate a cached
  // swap slot, flush a rotten TLB entry); what it cannot repair
  // oops-kills exactly the sharers of the damaged state. Returns the
  // number of repairs made this pass.
  uint32_t RunScrubPass();

  // One huged pass over every live task's anonymous regions (also run
  // periodically from the kswapd wake points when KernelParams::huge is
  // set): collapses eligible 64 KB runs into large PTEs. Returns blocks
  // collapsed.
  uint32_t RunHugeScan();

  // Eagerly maps `task`'s zygote-preloaded executable regions with 1 MB
  // L1 sections (boot-time reach for the code every app inherits): each
  // fully covered, resident 1 MB half gets a permanent kernel-owned
  // contiguous copy of the file content, the underlying 4 KB PTEs are
  // cleared, and the section descriptor serves translations from then
  // on. Returns sections mapped; 0 when KernelParams::huge is off.
  uint32_t MapZygoteSections(Task& task);

  // One numad placement pass (also run periodically from the kswapd wake
  // points when pt_placement is not kLocal on a multi-node machine):
  // promotes walk-hot PTPs to replicated or migrates sole-owner PTPs to
  // their dominant accessor's node, per KernelParams::pt_placement.
  // Returns promotions + migrations; 0 on a single-node machine.
  uint32_t RunNumadPass();

  // The allocate → direct-reclaim → OOM-kill chain (run automatically by
  // the fault/fork/mmap paths; public so tests can drive it). Returns
  // true if it freed anything: first a direct-reclaim pass over the file
  // cache, then — if that freed nothing — the OOM killer picks the
  // largest-RSS task that is not the zygote and not in `immune` and
  // kills it. Returns false when there is nothing left to reclaim or
  // kill. `immune2` exists for fork, which must protect both the parent
  // and the half-built child.
  bool RelieveMemoryPressure(const Task* immune, const Task* immune2 = nullptr);

  // The victim the OOM killer would pick right now (nullptr when none).
  Task* PickOomVictim(const Task* immune, const Task* immune2 = nullptr);

  // A task's resident set in pages (valid PTEs across its page table) —
  // the OOM killer's badness metric.
  uint64_t TaskRssPages(const Task& task) const;

  // Deterministic allocation-failure injection (inert until rules are
  // set); wired into PhysicalMemory's fallible allocators.
  FaultInjector& fault_injector() { return *fault_injector_; }

  // Cross-checks every redundant piece of kernel state — frame reference
  // counts, rmap, PTP sharer counts, NEED_COPY write protection, TLB
  // contents, DACR/domain assignments — over all live tasks and cores.
  // Read-only; see src/vm/audit.h. Tests assert report.ok().
  AuditReport AuditInvariants() const;

  Machine& machine() { return *machine_; }
  Core& core(uint32_t index = 0) { return machine_->core(index); }
  uint32_t num_cores() const { return machine_->num_cores(); }
  PhysicalMemory& phys() { return *phys_; }
  PageCache& page_cache() { return *page_cache_; }
  PtpAllocator& ptp_allocator() { return *ptp_allocator_; }
  ReverseMap& rmap() { return rmap_; }
  ZramStore& zram() { return *zram_; }
  FrameLru& lru() { return *lru_; }
  KsmDaemon& ksm() { return *ksm_; }
  HugeDaemon& huge() { return *huge_; }
  // The NUMA placement engine; nullptr on a single-node machine.
  NumaEngine* numa() { return numa_.get(); }
  VmManager& vm() { return *vm_; }
  KernelCounters& counters() { return counters_; }
  const CostModel& costs() const { return costs_; }

  // The event tracer, always constructed (a disabled tracer records
  // nothing); its clock is the machine's total cycle count.
  Tracer& tracer() { return *tracer_; }

  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

 private:
  // Hands out an ASID no live task holds (scanning from next_asid_ and
  // wrapping). On rollover — the search passes 255 — every TLB is flushed
  // before the generation restarts, exactly like Linux/ARM's rollover.
  Asid AllocateAsid();
  // Returns a dead task's ASID to the allocator. Call only after the
  // ASID's TLB entries are flushed (pending queues drained): reissuing a
  // still-cached ASID would alias two address spaces.
  void ReleaseAsid(Asid asid);
  // The common access path: fault until the access is allowed, then (for
  // WritePage) stamp the frame's content before the daemon wake point.
  TouchStatus TouchAndMaybeStore(Task& task, VirtAddr va, AccessType access,
                                 const uint64_t* store);
  // The fault service of both access paths (the Core's abort handler and
  // TouchAndMaybeStore): the VM fault handler under an oops scope, the
  // fault-exit shootdown sync, and on ENOMEM pressure relief (no immunity)
  // and a retry; `task` is OOM-killed when nothing is freed or retries
  // livelock. kOk: resolved. Adds the handler's cycles to `*handler_cycles`.
  TouchStatus ServiceFault(Task& task, const MemoryAbort& abort,
                           Cycles* handler_cycles);
  // Munmap's, Mprotect's and Madvise's argument check: kEinval, kEfault or
  // kOk (see Mmap's comment).
  Errno CheckRange(const Task& task, VirtAddr start, uint32_t length) const;
  // Munmap and Mprotect: the check, then `op(bool* oom)` (the VM call)
  // retried under memory-pressure relief, the caller OOM-killed when
  // nothing is left to free, then the range flush.
  template <typename RangeOp>
  SyscallResult<void> ChangeRange(Task& task, VirtAddr start, uint32_t length,
                                  RangeOp op);
  // Kills `victim`: counters, trace, oom_killed flag, then Exit.
  void OomKill(Task& victim);
  // The recoverable-oops back end: quarantines the damaged frame/PTP and
  // SIGKILL-style kills every task sharing the damaged state (plus
  // `offender`, the task whose kernel entry tripped the oops, if any).
  // Damage reaching the zygote's address space is treated as
  // unrecoverable and escalates to a kernel panic.
  void OopsKillByDamage(const OopsDamage& damage, Task* offender);
  // The task whose address space `table` is (pids are dense from 1, so
  // tasks_[pid - 1]). A table on a live PTP's sharer list always belongs
  // to a live task: exit releases every slot first.
  Task& TaskOf(const PageTable& table);
  // Chaos injection (inert until a corrupt rule is set on the fault
  // injector): flips one seeded bit in a live PTE word, zram slot, or
  // main-TLB entry. Called once per TouchPage entry.
  void MaybeInjectChaos();
  // Cheap per-touch validation of the PTE about to be used; on suspicion
  // scrubs the site at once (the touch path's detect-and-repair step).
  // False only when the site is corrupt AND unrepairable — the caller's
  // cue to oops.
  bool ValidateOrRepairSite(const PteRef& ref);
  // Cross-checks every core's main TLB against the page tables, flushing
  // entries that no longer match (chaos-rotted tags). Returns flush count.
  uint32_t ScrubTlbs();
  // Background-reclaim analogue: when free memory sinks below the low
  // watermark (and swap is enabled), reclaims file cache and swaps out
  // anonymous pages until the high watermark is restored or no further
  // progress is possible. Never OOM-kills. Called from the success paths
  // of TouchPage / Fork / Mmap (where a real kswapd would be woken).
  void RunKswapdIfNeeded();
  MmuContext ContextFor(Task& task);
  // TlbShootdown: an ASID shootdown over every core the owner of `table`
  // ran on (FlushTaskTlb).
  void FlushSpace(const PageTable& table) override;
  // TlbShootdown: flushes the PTE's virtual address on every core any
  // sharer of `ptp` ran on, plus (for global entries) every core the
  // zygote sharing group ran on, attributed to the core whose kernel
  // entry is doing the work.
  void FlushPte(PtpId ptp, uint32_t index, bool global) override;
  // "Flush all TLB entries occupied by the current process": an ASID
  // shootdown over every core `task` has run on, initiated from the one
  // it ran on last. Exit calls it after the address space is gone.
  void FlushTaskTlb(const Task& task);
  // The address spaces a ksmd or huged pass visits: every live task's, in
  // task-table order.
  std::vector<MmStruct*> LiveMms();
  // Precise range flush after PTE-clearing operations. `extra_mask` adds
  // cores beyond the task's own cpumask — the global-entry case, where
  // the stale translations live wherever the sharing group ran.
  void FlushRange(Task& task, VirtAddr start, VirtAddr end,
                  CpuMask extra_mask = 0);
  // Extra flush targets for [start, end): the zygote group's cores when
  // the range covers a global mapping, else 0. Computed *before* the VM
  // operation drops the vma.
  CpuMask GlobalFlushExtraMask(Task& task, VirtAddr start, VirtAddr end) const;
  // A batched-shootdown sync point: drains every pending flush queue.
  void SyncShootdowns();

  // Records which core entered the kernel (every syscall, fault, and
  // schedule path calls this first): daemon shootdowns attribute their
  // IPIs here, and under NUMA the first-touch allocation preference
  // follows the entering core's node.
  void SetActiveCore(uint32_t core_id);

  // Every kernel runs the one calibrated cost model.
  const CostModel costs_ = CostModel::Default();
  KernelCounters counters_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<PhysicalMemory> phys_;
  // Declared after phys_ (it observes frame lifecycle) and before zram_
  // (whose destructor frees pool frames, which notifies the observer).
  std::unique_ptr<FrameLru> lru_;
  std::unique_ptr<PageCache> page_cache_;
  std::unique_ptr<PtpAllocator> ptp_allocator_;
  std::unique_ptr<ZramStore> zram_;
  ReverseMap rmap_;
  std::unique_ptr<VmManager> vm_;
  std::unique_ptr<Reclaimer> reclaimer_;
  std::unique_ptr<SwapManager> swap_mgr_;
  std::unique_ptr<KsmDaemon> ksm_;
  std::unique_ptr<HugeDaemon> huge_;
  std::unique_ptr<Scrubber> scrubber_;
  // Declared before machine_ (cores hold a resolver callback into the
  // engine) and after ptp_allocator_/phys_ (replica teardown unrefs
  // frames and reads PTP liveness).
  std::unique_ptr<NumaEngine> numa_;
  std::unique_ptr<Machine> machine_;
  // Declared after every subsystem: tasks are destroyed first, so page-
  // table teardown can still release swap slots and frames.
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<Task*> current_;
  Pid next_pid_ = 1;
  uint32_t next_asid_ = 1;
  // Which ASIDs are held by live tasks. AllocateAsid skips these: the
  // 8-bit space wraps after 255 tasks, and blindly reissuing a live ASID
  // lets a new address space hit the old one's TLB entries.
  std::array<bool, 256> asid_live_{};
  // The core driving the current kernel entry (syscall or fault) — the
  // initiator of any shootdown a daemon path issues on its behalf.
  uint32_t active_core_ = 0;
  // Every core any zygote-like task has run on: where global (shared
  // group) TLB entries may be cached.
  CpuMask zygote_cpu_mask_ = 0;
  // kswapd watermarks in frames.
  uint32_t kswapd_low_watermark_ = 0;
  uint32_t kswapd_high_watermark_ = 0;
  // The periodic daemons, walked in member order (ksmd, scrubd, huged,
  // numad) at every kswapd wake point. Each runs `pass` on every
  // `interval`-th wake-up, watermark or not: merging, scrubbing, promotion
  // and placement do not wait for memory pressure (interval 0 = off).
  // huged's interval also gates the boot-time section mapping.
  struct WakeDaemon {
    uint32_t interval = 0;
    uint32_t ticks = 0;
    uint32_t (Kernel::*pass)() = nullptr;
  };
  struct {
    WakeDaemon ksmd, scrubd, huged, numad;
  } wake_;
  // Set while kswapd or a periodic daemon runs: no pass's own allocations,
  // flushes or kills may wake another.
  bool in_daemon_ = false;
  // Per-node kswapd watermarks (multi-node machines only): a single node
  // can exhaust — pushing every allocation remote — while the global
  // count still looks healthy, so kswapd also watches each node.
  uint32_t kswapd_node_low_watermark_ = 0;
  uint32_t kswapd_node_high_watermark_ = 0;

  // Mirrors PhysicalMemory's NUMA allocator statistics into counters_
  // (sat_mem cannot depend on sat_stats, so the kernel carries them over).
  void SyncNumaCounters();
};

}  // namespace sat

#endif  // SRC_PROC_KERNEL_H_
