// The simulated CPU core: the full memory-access pipeline of a
// Cortex-A9-like processor, plus the slice of kernel behaviour that is
// architecturally entangled with it (context-switch TLB maintenance,
// domain-fault servicing, kernel-text instruction fetches).
//
// Access pipeline for one user-mode reference:
//
//   micro TLB (I or D) ──miss──▶ main TLB ──miss──▶ hardware table walk
//        │hit                        │hit                  │
//        ▼                           ▼                     ▼
//   domain+perm check          domain+perm check     PTE fetch through
//        │                           │                L1D/L2 (ARMv7 walker
//        ▼                           ▼                allocates into both)
//   cache access               insert micro,               │
//                              cache access          valid ──▶ insert TLBs
//                                                    invalid ─▶ abort to
//                                                               the kernel
//
// Domain faults (a non-zygote process hitting a zygote-domain global
// entry) are serviced here the way the paper's handler does: identify the
// cause from the FSR, flush every TLB entry matching the faulting address,
// return to user — the retry then misses and walks the process's own
// table. Translation/permission aborts are delegated to the registered
// abort handler (the kernel's page-fault path).

#ifndef SRC_HW_CORE_H_
#define SRC_HW_CORE_H_

#include <array>
#include <cstdint>
#include <functional>

#include "src/arch/domain.h"
#include "src/arch/fault.h"
#include "src/arch/types.h"
#include "src/cache/cache.h"
#include "src/pt/page_table.h"
#include "src/stats/cost_model.h"
#include "src/stats/counters.h"
#include "src/tlb/tlb.h"

namespace sat {

// How shared (global) TLB entries are protected from processes outside
// the sharing group — the paper's Section 5.2/6 design-space argument.
enum class IsolationModel : uint8_t {
  // 32-bit ARM domains (the paper's mechanism): every access, data or
  // instruction, is checked against the DACR; mismatches raise precise
  // domain faults. Safe, and no flushing needed.
  kArmDomains = 0,
  // x86-style memory protection keys: pkeys guard *data* accesses only.
  // Instruction fetches bypass the check — a non-member process can
  // consume a stale global entry, which the core counts as an unsound
  // hit (this is exactly why the paper asks for privileged domain
  // control "for both data and instructions").
  kMpkDataOnly,
  // No hardware help: the kernel flushes all global entries whenever it
  // switches to a process outside the sharing group (Section 3.2.3's
  // portability fallback; pairs with scheduler grouping).
  kFlushOnSwitch,
};

constexpr const char* IsolationModelName(IsolationModel model) {
  switch (model) {
    case IsolationModel::kArmDomains:
      return "ARM domains";
    case IsolationModel::kMpkDataOnly:
      return "MPK (data-only)";
    case IsolationModel::kFlushOnSwitch:
      return "flush-on-switch";
  }
  return "?";
}

// What the MMU needs to know about the running process.
struct MmuContext {
  Asid asid = 0;
  DomainAccessControl dacr = DomainAccessControl::StockDefault();
  PageTable* page_table = nullptr;
  // Member of the TLB-sharing group (zygote-like)? Drives the
  // kFlushOnSwitch and kMpkDataOnly isolation models.
  bool zygote_like = false;
};

// Resolves a translation/permission abort (the kernel's fault entry).
// Returns false when the fault is unresolvable (simulated SIGSEGV).
using AbortHandlerFn = std::function<bool(const MemoryAbort&)>;

// Distinct kernel code paths touch distinct windows of kernel text; the
// I-cache pressure each exerts is part of what the experiments measure.
enum class KernelPath : uint8_t {
  kFaultHandler = 0,
  kContextSwitch = 1,
  kBinder = 2,
  kScheduler = 3,
  kFork = 4,
  kMmap = 5,
};

struct CoreConfig {
  // When false, the TLB has no usable ASIDs: every context switch must
  // flush all non-global entries (Figure 13's "Disabled ASID" bars).
  bool asids_enabled = true;
  // How shared TLB entries are protected from non-members.
  IsolationModel isolation = IsolationModel::kArmDomains;
};

class Core {
 public:
  // `l2` is the (shared) last-level cache; `kernel_text_base` is the
  // physical base of the kernel image (for kernel I-fetch modelling).
  Core(const CostModel* costs, Cache* l2, KernelCounters* kernel_counters,
       PhysAddr kernel_text_base, const CoreConfig& config);

  void set_abort_handler(AbortHandlerFn handler) {
    abort_handler_ = std::move(handler);
  }

  // Overrides where the hardware walker fetches second-level PTEs from.
  // The NUMA page-table engine uses this to point walks at this core's
  // node-local replica of the PTP; unset, walks fetch from the master.
  // The returned address changes only the PTE *fetch* (cache/NUMA cost);
  // PTE contents are still read from the master PTP.
  using PteAddrResolverFn =
      std::function<PhysAddr(const PageTablePage&, uint32_t index,
                             uint32_t node)>;
  void set_pte_addr_resolver(PteAddrResolverFn resolver) {
    pte_addr_resolver_ = std::move(resolver);
  }

  // ---------------------------------------------------------------------
  // Context management.
  // ---------------------------------------------------------------------

  // Installs a context without modelling a switch (boot / test setup).
  void SetContext(const MmuContext& context) { context_ = context; }

  // Full context switch: micro TLBs flushed (A9 behaviour), DACR loaded,
  // non-global main-TLB entries flushed when ASIDs are disabled, switch
  // cost and kernel-text footprint charged.
  void SwitchContext(const MmuContext& context);

  const MmuContext& context() const { return context_; }

  // ---------------------------------------------------------------------
  // User-mode accesses.
  // ---------------------------------------------------------------------

  // Fetches the instruction cache line containing `va`. Returns false if
  // the access ultimately SIGSEGVed (abort handler gave up).
  bool FetchLine(VirtAddr va);
  bool Load(VirtAddr va);
  bool Store(VirtAddr va);

  // Trace compression: one pipelined fetch of `va`'s line followed by
  // `burst_len - 1` same-line/straight-line fetches that hit by
  // construction (charged one cycle each). Workload traces model spatial
  // locality this way instead of enumerating every fetch.
  bool FetchBurst(VirtAddr va, uint32_t burst_len);

  // ---------------------------------------------------------------------
  // Kernel-mode work.
  // ---------------------------------------------------------------------

  // Charges `cycles` of kernel execution and streams the path's kernel
  // text window through the I-cache (this is how "more page faults" turns
  // into "more I-cache stalls" in Figures 7-8).
  void RunKernelPath(KernelPath path, Cycles cycles, uint32_t text_lines);

  // TLB maintenance requested by the kernel.
  void FlushTlbAll();
  void FlushTlbNonGlobal();
  void FlushTlbAsid(Asid asid);
  void FlushTlbVa(VirtAddr va);

  // Places this core on a NUMA node: an L2-missing access whose frame
  // lives outside [node * frames_per_node, (node+1) * frames_per_node)
  // pays the remote-DRAM surcharge. `frames_per_node == 0` disables NUMA
  // accounting (the single-node default).
  void ConfigureNuma(uint32_t node, uint64_t frames_per_node) {
    numa_node_ = node;
    numa_frames_per_node_ = frames_per_node;
  }
  uint32_t numa_node() const { return numa_node_; }

  // ---------------------------------------------------------------------
  // Observation.
  // ---------------------------------------------------------------------

  CoreCounters& counters() { return counters_; }
  const CoreCounters& counters() const { return counters_; }

  MainTlb& main_tlb() { return main_tlb_; }
  MicroTlb& micro_itlb() { return micro_itlb_; }
  MicroTlb& micro_dtlb() { return micro_dtlb_; }
  CacheHierarchy& caches() { return caches_; }

  const CoreConfig& config() const { return config_; }

  // Wires the tracer into the core (domain-fault events) and its main TLB
  // (flush events).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    main_tlb_.set_tracer(tracer);
  }

 private:
  // One user access, with fault-retry. `is_fetch` selects the I side.
  bool AccessMemory(VirtAddr va, AccessType access, bool is_fetch);

  // Hardware table walk; returns the abort (kNone on success) and fills
  // *entry on success.
  FaultStatus Walk(VirtAddr va, AccessType access, TlbEntry* entry);

  // Charges the remote-DRAM surcharge when the access to `pa` missed the
  // L2 (detected by the miss-counter delta) and `pa` is off-node.
  void ChargeNumaIfRemote(PhysAddr pa, uint64_t l2_misses_before);

  const CostModel* costs_;
  KernelCounters* kernel_counters_;
  CoreConfig config_;
  CacheHierarchy caches_;
  MainTlb main_tlb_;
  MicroTlb micro_itlb_;
  MicroTlb micro_dtlb_;
  MmuContext context_;
  AbortHandlerFn abort_handler_;
  PteAddrResolverFn pte_addr_resolver_;
  PhysAddr kernel_text_base_;
  // NUMA placement (see ConfigureNuma); 0 frames per node = NUMA off.
  uint32_t numa_node_ = 0;
  uint64_t numa_frames_per_node_ = 0;
  // Per-path rotation cursor through the kernel text windows.
  std::array<uint32_t, 6> kernel_path_cursor_{};
  CoreCounters counters_;
  Tracer* tracer_ = nullptr;
};

}  // namespace sat

#endif  // SRC_HW_CORE_H_
