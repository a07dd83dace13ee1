// VM configuration knobs: which of the paper's mechanisms are active,
// plus the ablation switches discussed in Section 3.1.3. VmConfig{} is the
// stock kernel; the named configurations (stock, shared-ptp,
// shared-ptp-tlb, copied-ptes, ...) live in one registry, NamedConfigs()
// in src/core/sat.h, and ConfigByName(key).vm is each one's VmConfig.

#ifndef SRC_VM_CONFIG_H_
#define SRC_VM_CONFIG_H_

namespace sat {

struct VmConfig {
  // The paper's primary mechanism: share level-2 page-table pages between
  // parent and child at fork, COW-managed via NEED_COPY.
  bool share_ptps = false;

  // The paper's secondary mechanism: set the global bit on PTEs of
  // zygote-preloaded shared code so TLB entries are shared by all
  // zygote-descended processes (guarded by the zygote domain).
  bool share_tlb_global = false;

  // The "Copied PTEs" comparison kernel of Table 4: copy the PTEs of
  // zygote-preloaded shared *code* from parent to child at fork time
  // instead of relying on soft faults.
  bool copy_zygote_code_ptes_at_fork = false;

  // Ablation: when unsharing a PTP, copy only the PTEs whose referenced
  // ("young") bit is set, letting soft faults repopulate the rest
  // ("Whether Page Table Entries Should Be Copied Upon Unsharing").
  bool copy_referenced_only_on_unshare = false;

  // Ablation: defer the unshare triggered by creating a new memory region
  // inside a shared PTP's range from mmap time to the region's first
  // fault. The paper chooses the eager (mmap-time) variant for simplicity;
  // this switch measures what the lazy variant would save.
  bool lazy_unshare_on_new_region = false;

  // Ablation: fault-around — on a file-backed read fault, also populate
  // up to this many adjacent page-cache-resident pages in the same PTP
  // (Linux gained this in 3.15, after the paper's KitKat-era 3.4 kernel;
  // default off matches the paper's stock kernel). The natural question
  // it answers: how much of the soft-fault saving could batching alone
  // provide, without deduplicating any translations?
  uint32_t fault_around_pages = 0;

  // Ablation: model an x86-style first-level write-protect bit ("Hardware
  // Support"). The per-PTE write-protect pass at share time is skipped;
  // the walker treats NEED_COPY itself as denying writes, and unshare
  // write-protects writable entries as it copies them out.
  bool hw_l1_write_protect = false;
};

}  // namespace sat

#endif  // SRC_VM_CONFIG_H_
