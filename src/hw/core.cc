#include "src/hw/core.h"

#include <cassert>

#include "src/trace/trace.h"

namespace sat {

namespace {

// Byte offsets of each kernel path's text window within the kernel image,
// spaced so the windows never overlap.
constexpr PhysAddr KernelPathWindowBase(KernelPath path) {
  return static_cast<PhysAddr>(path) * 256 * 1024;
}

// Size of each path's text window, in cache lines. A path's successive
// invocations rotate through its window: the fault path, for example, is
// not one 6 KB loop but a spread of handler, rmap, allocator and
// page-cache code whose union far exceeds the 32 KB L1I — which is why
// every page fault keeps pushing kernel lines through the instruction
// cache instead of running entirely warm (the Figures 7-8 coupling
// between fault counts and I-cache stalls).
constexpr uint32_t KernelPathWindowLines(KernelPath path) {
  switch (path) {
    case KernelPath::kFaultHandler:
      return 1536;  // 48 KB of fault-path text
    case KernelPath::kContextSwitch:
      return 512;
    case KernelPath::kBinder:
      return 1024;  // 32 KB of binder/IPC text
    case KernelPath::kScheduler:
      return 512;
    case KernelPath::kFork:
      return 2048;
    case KernelPath::kMmap:
      return 1024;
  }
  return 512;
}

constexpr uint32_t kKernelLineSize = 32;

// Cortex-A9 TLB geometry: a 128-entry 4-way main TLB, and 32-entry micro
// TLBs for instructions and data.
constexpr uint32_t kMainTlbEntries = 128;
constexpr uint32_t kMainTlbWays = 4;
constexpr uint32_t kMicroTlbEntries = 32;

}  // namespace

Core::Core(const CostModel* costs, Cache* l2, KernelCounters* kernel_counters,
           PhysAddr kernel_text_base, const CoreConfig& config)
    : costs_(costs),
      kernel_counters_(kernel_counters),
      config_(config),
      caches_(costs, l2),
      main_tlb_(kMainTlbEntries, kMainTlbWays),
      micro_itlb_(kMicroTlbEntries),
      micro_dtlb_(kMicroTlbEntries),
      kernel_text_base_(kernel_text_base) {}

void Core::SwitchContext(const MmuContext& context) {
  counters_.context_switches++;
  counters_.cycles += costs_->context_switch;
  // Cortex-A9: micro TLBs are flushed on every context switch.
  micro_itlb_.FlushAll();
  micro_dtlb_.FlushAll();
  if (!config_.asids_enabled) {
    // No ASIDs: all non-global entries belong to the outgoing process.
    // Global entries — kernel mappings, and with the paper's mechanism the
    // zygote-preloaded shared code — survive.
    main_tlb_.FlushNonGlobal();
    kernel_counters_->tlb_full_flushes++;
  }
  if (config_.isolation == IsolationModel::kFlushOnSwitch &&
      !context.zygote_like) {
    // The domain-less fallback: shared global entries must not be visible
    // to a process outside the sharing group, so drop them all before it
    // runs (Section 3.2.3; the scheduler-grouping ablation exists to make
    // this rare).
    main_tlb_.FlushGlobal();
    kernel_counters_->tlb_full_flushes++;
  }
  context_ = context;
  RunKernelPath(KernelPath::kContextSwitch, 0, costs_->switch_kernel_lines);
}

bool Core::FetchLine(VirtAddr va) {
  counters_.inst_fetch_lines++;
  counters_.user_inst_lines++;
  return AccessMemory(va, AccessType::kExecute, /*is_fetch=*/true);
}

bool Core::FetchBurst(VirtAddr va, uint32_t burst_len) {
  assert(burst_len > 0);
  if (!FetchLine(va)) {
    return false;
  }
  counters_.inst_fetch_lines += burst_len - 1;
  counters_.user_inst_lines += burst_len - 1;
  counters_.cycles += static_cast<Cycles>(burst_len - 1) * costs_->l1_hit;
  return true;
}

bool Core::Load(VirtAddr va) {
  counters_.data_accesses++;
  return AccessMemory(va, AccessType::kRead, /*is_fetch=*/false);
}

bool Core::Store(VirtAddr va) {
  counters_.data_accesses++;
  return AccessMemory(va, AccessType::kWrite, /*is_fetch=*/false);
}

FaultStatus Core::Walk(VirtAddr va, AccessType access, TlbEntry* entry) {
  PageTable* pt = context_.page_table;
  if (pt == nullptr || !IsUserAddress(va)) {
    return FaultStatus::kTranslation;
  }
  counters_.cycles += costs_->walk_overhead;

  const uint32_t slot = PtpSlotIndex(va);
  const L1Entry& l1 = pt->l1(slot);

  // 1 MB sections translate at the first level: no second-level PTE fetch
  // at all, and one TLB entry covers 256 pages — the reach win the eager
  // zygote-code mapping buys. Sections take precedence over any PTEs.
  if (const SectionDesc* section = pt->SectionAt(va)) {
    TlbEntry walked;
    walked.valid = true;
    walked.size_pages = kPtesPerSection;
    walked.vpn = VirtPageNumber(SectionAlignDown(va));
    walked.asid = context_.asid;
    walked.global = section->global;
    walked.domain = l1.domain;
    walked.perm = PtePerm::kReadOnly;
    walked.executable = section->executable;
    walked.frame = section->base;
    *entry = walked;
    return FaultStatus::kNone;
  }

  if (!l1.present()) {
    return FaultStatus::kTranslation;
  }

  const auto ref = pt->FindPte(va);
  assert(ref.has_value());
  // The walker's PTE fetch goes through the cache hierarchy — with shared
  // PTPs this line is physically shared by every sharer, and it can live
  // on a remote NUMA node (unless the resolver redirects it to a
  // node-local replica).
  const PhysAddr pte_pa =
      pte_addr_resolver_
          ? pte_addr_resolver_(*ref->ptp, ref->index, numa_node_)
          : ref->ptp->HwEntryPhysAddr(ref->index);
  const uint64_t l2_misses_before = counters_.l2_misses;
  const Cycles pte_fetch = caches_.AccessPtw(pte_pa, &counters_);
  counters_.cycles += pte_fetch;
  ChargeNumaIfRemote(pte_pa, l2_misses_before);

  const HwPte hw = ref->ptp->hw(ref->index);
  if (!hw.valid()) {
    return FaultStatus::kTranslation;
  }

  // The x86-style first-level write-protect ablation: a NEED_COPY slot
  // denies writes during the walk itself, before per-PTE permissions.
  if (l1.need_copy && access == AccessType::kWrite) {
    return FaultStatus::kPermission;
  }

  // Referenced-bit upkeep (Linux/ARM emulates this in software; folding it
  // into the walk keeps the referenced-only unshare ablation honest).
  LinuxPte sw = ref->ptp->sw(ref->index);
  if (!sw.young()) {
    sw.set_young(true);
    pt->UpdatePte(va, hw, sw, /*allow_shared=*/true);
  }

  TlbEntry walked;
  walked.valid = true;
  walked.size_pages = hw.large() ? kPtesPerLargePage : 1;
  walked.vpn = VirtPageNumber(va) & ~(walked.size_pages - 1);
  walked.asid = context_.asid;
  walked.global = hw.global();
  walked.domain = l1.domain;
  walked.perm = hw.perm();
  walked.executable = hw.executable();
  walked.frame = hw.frame();
  *entry = walked;
  return FaultStatus::kNone;
}

bool Core::AccessMemory(VirtAddr va, AccessType access, bool is_fetch) {
  MicroTlb& micro = is_fetch ? micro_itlb_ : micro_dtlb_;
  Cycles& tlb_stalls =
      is_fetch ? counters_.itlb_stall_cycles : counters_.dtlb_stall_cycles;

  for (int attempt = 0; attempt < 8; ++attempt) {
    TlbEntry entry;
    TlbResult result = micro.Lookup(va, context_.asid, access, context_.dacr, &entry);
    if (result == TlbResult::kMiss) {
      counters_.micro_tlb_misses++;
      result = main_tlb_.Lookup(va, context_.asid, access, context_.dacr, &entry);
      if (result == TlbResult::kHit) {
        counters_.cycles += costs_->main_tlb_hit;
        tlb_stalls += costs_->main_tlb_hit;
        micro.Insert(entry);
      } else if (result == TlbResult::kMiss) {
        if (is_fetch) {
          counters_.itlb_main_misses++;
        } else {
          counters_.dtlb_main_misses++;
        }
        const Cycles before = counters_.cycles;
        const FaultStatus walk_status = Walk(va, access, &entry);
        tlb_stalls += counters_.cycles - before;
        if (walk_status != FaultStatus::kNone) {
          MemoryAbort abort;
          abort.status = walk_status;
          abort.fault_address = va;
          abort.access = access;
          abort.is_prefetch_abort = is_fetch;
          if (!abort_handler_ || !abort_handler_(abort)) {
            return false;  // SIGSEGV
          }
          continue;  // retry after the kernel resolved the fault
        }
        main_tlb_.Insert(entry);
        micro.Insert(entry);
        result = TlbResult::kHit;
      }
    }

    if (result == TlbResult::kDomainFault &&
        config_.isolation == IsolationModel::kMpkDataOnly && is_fetch) {
      // Memory protection keys guard loads and stores only: the fetch is
      // *permitted* through the foreign global entry. Count the hazard —
      // this is the unsoundness that makes MPK alone insufficient for
      // shared instruction translations (Section 5.2).
      counters_.unsound_global_hits++;
      result = TlbResult::kHit;
    }

    switch (result) {
      case TlbResult::kHit: {
        const PhysAddr pa = FrameToPhys(entry.frame) +
                            (va - (static_cast<PhysAddr>(entry.vpn) << kPageShift));
        const uint64_t l2_misses_before = counters_.l2_misses;
        const Cycles latency = is_fetch ? caches_.AccessInst(pa, &counters_)
                                        : caches_.AccessData(pa, &counters_);
        counters_.cycles += latency;
        ChargeNumaIfRemote(pa, l2_misses_before);
        return true;
      }
      case TlbResult::kDomainFault: {
        // The paper's handler: FSR says domain fault; flush every TLB
        // entry matching FAR on this core, return, retry.
        kernel_counters_->domain_faults++;
        kernel_counters_->tlb_va_flushes++;
        {
          TraceSpan span(tracer_, TraceEventType::kDomainFault);
          span.set_args(VirtPageNumber(va), entry.domain);
          span.set_duration(costs_->domain_fault);
          counters_.cycles += costs_->domain_fault;
          micro_itlb_.FlushVa(va);
          micro_dtlb_.FlushVa(va);
          main_tlb_.FlushVa(va);
        }
        continue;
      }
      case TlbResult::kPermissionFault: {
        MemoryAbort abort;
        abort.status = FaultStatus::kPermission;
        abort.fault_address = va;
        abort.access = access;
        abort.is_prefetch_abort = is_fetch;
        if (!abort_handler_ || !abort_handler_(abort)) {
          return false;
        }
        // The kernel fixed the PTE but our TLBs may hold the stale
        // write-protected entry; a real kernel flushes it in the COW path.
        micro_itlb_.FlushVa(va);
        micro_dtlb_.FlushVa(va);
        main_tlb_.FlushVa(va);
        continue;
      }
      case TlbResult::kMiss:
        assert(false && "unreachable: miss was resolved above");
        return false;
    }
  }
  assert(false && "memory access livelocked; fault handler made no progress");
  return false;
}

void Core::RunKernelPath(KernelPath path, Cycles cycles, uint32_t text_lines) {
  counters_.cycles += cycles;
  const PhysAddr window = kernel_text_base_ + KernelPathWindowBase(path);
  const uint32_t window_lines = KernelPathWindowLines(path);
  uint32_t& cursor = kernel_path_cursor_[static_cast<size_t>(path)];
  for (uint32_t i = 0; i < text_lines; ++i) {
    counters_.inst_fetch_lines++;
    counters_.kernel_inst_lines++;
    // Kernel text is mapped with 1 MB global sections; its TLB pressure is
    // negligible and not modelled, its cache pressure very much is.
    counters_.cycles +=
        caches_.AccessInst(window + cursor * kKernelLineSize, &counters_);
    cursor = (cursor + 1) % window_lines;
  }
}

void Core::ChargeNumaIfRemote(PhysAddr pa, uint64_t l2_misses_before) {
  if (numa_frames_per_node_ == 0 ||
      counters_.l2_misses == l2_misses_before) {
    return;  // NUMA off, or the access never left the cache hierarchy
  }
  const uint64_t frame = pa >> kPageShift;
  if (frame / numa_frames_per_node_ != numa_node_) {
    counters_.numa_remote_accesses++;
    counters_.cycles += costs_->numa_remote_dram;
  }
}

void Core::Flush(const TlbFlush& flush) {
  switch (flush.kind) {
    case TlbFlush::Kind::kAll:
      kernel_counters_->tlb_full_flushes++;
      micro_itlb_.FlushAll();
      micro_dtlb_.FlushAll();
      main_tlb_.FlushAll();
      break;
    case TlbFlush::Kind::kAsid:
      kernel_counters_->tlb_asid_flushes++;
      micro_itlb_.FlushAll();
      micro_dtlb_.FlushAll();
      main_tlb_.FlushAsid(flush.asid);
      break;
    case TlbFlush::Kind::kVa:
      kernel_counters_->tlb_va_flushes++;
      micro_itlb_.FlushVa(flush.va);
      micro_dtlb_.FlushVa(flush.va);
      main_tlb_.FlushVa(flush.va);
      break;
  }
}

}  // namespace sat
