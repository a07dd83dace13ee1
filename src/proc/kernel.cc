#include "src/proc/kernel.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>
#include <utility>

#include "src/arch/check.h"

namespace sat {

namespace {

// Pages a direct-reclaim pass tries to free per allocation failure (the
// kernel's batch; small enough to keep the cache warm, large enough that
// one pass usually unblocks the allocation).
constexpr uint32_t kDirectReclaimBatch = 256;

// Anonymous pages one swap-out pass targets (SWAP_CLUSTER_MAX scaled to
// the simulated machine).
constexpr uint32_t kSwapOutBatch = 64;

}  // namespace

const char* ErrnoName(Errno error) {
  switch (error) {
    case Errno::kOk:
      return "OK";
    case Errno::kEnomem:
      return "ENOMEM";
    case Errno::kEfault:
      return "EFAULT";
    case Errno::kEinval:
      return "EINVAL";
    case Errno::kKilled:
      return "KILLED";
  }
  return "?";
}

Kernel::Kernel(const KernelParams& params) {
  tracer_ = std::make_unique<Tracer>(params.trace);
  fault_injector_ =
      std::make_unique<FaultInjector>(params.fault_injection_seed);
  phys_ = std::make_unique<PhysicalMemory>(params.phys_bytes,
                                           params.num_nodes);
  phys_->set_fault_injector(fault_injector_.get());
  lru_ = std::make_unique<FrameLru>(phys_->total_frames());
  phys_->AddObserver(lru_.get());
  page_cache_ = std::make_unique<PageCache>(phys_.get());
  ptp_allocator_ = std::make_unique<PtpAllocator>(phys_.get(), &counters_);
  // The zram store is always constructed; swap_bytes == 0 leaves it
  // disabled (TryStore always fails, no swap PTE is ever created).
  zram_ = std::make_unique<ZramStore>(phys_.get(), params.swap_bytes,
                                      params.fault_injection_seed);
  vm_ = std::make_unique<VmManager>(phys_.get(), page_cache_.get(), &counters_,
                                    &costs_, params.vm);
  vm_->set_zram(zram_.get());
  reclaimer_ = std::make_unique<Reclaimer>(phys_.get(), page_cache_.get(),
                                           ptp_allocator_.get(), &rmap_,
                                           &counters_, lru_.get());
  swap_mgr_ = std::make_unique<SwapManager>(phys_.get(), zram_.get(),
                                            ptp_allocator_.get(), &rmap_,
                                            lru_.get(), &counters_);
  // scrubd, like ksmd, is always constructed (RunScrubPass and the touch
  // path's inline repair work regardless); `scrub` only gates the periodic
  // wake-ups.
  scrubber_ = std::make_unique<Scrubber>(phys_.get(), ptp_allocator_.get(),
                                         &rmap_, zram_.get(), &counters_,
                                         &vm_->config());
  // The KSM daemon is always constructed (so madvise(MERGEABLE) always
  // works and tests can drive scans directly); ksm_enabled only gates the
  // periodic wake-ups. It observes frame lifecycle to prune stable-tree
  // nodes whose frame is freed by any path.
  ksm_ = std::make_unique<KsmDaemon>(phys_.get(), ptp_allocator_.get(), &rmap_,
                                     vm_.get(), &counters_);
  phys_->AddObserver(ksm_.get());
  // huged is always constructed (RunHugeScan and MapZygoteSections can be
  // driven directly); `huge` only gates the periodic wake-ups and the
  // boot-time section mapping.
  huge_ = std::make_unique<HugeDaemon>(phys_.get(), vm_.get(), &counters_,
                                       params.huge_unmerge_ksm);
  // The NUMA placement engine exists whenever the machine has more than
  // one node (it resolves walks and audits replicas even under kLocal,
  // where it never creates any); the numad daemon only ticks when the
  // policy asks for replication or migration.
  if (params.num_nodes > 1) {
    numa_ = std::make_unique<NumaEngine>(phys_.get(), ptp_allocator_.get(),
                                         &counters_, params.pt_placement,
                                         params.numad_remote_threshold);
    // The single write-through mutation path: every PTE write notifies
    // the engine so all replicas are rewritten in the same operation.
    ptp_allocator_->set_write_observer(numa_.get());
    // Replicas as a repair source: before declaring a site unrepairable
    // the scrubber consults the majority word across {master, replicas}.
    scrubber_->set_replica_majority([this](PtpId ptp, uint32_t index) {
      return numa_->ReplicaMajorityWord(ptp, index);
    });
  }
  const auto every = [](bool enabled, uint32_t interval) {
    return enabled ? std::max<uint32_t>(1, interval) : 0;
  };
  wake_.ksmd = {every(params.ksm_enabled, params.ksm_wake_interval), 0,
                &Kernel::RunKsmScan};
  wake_.scrubd = {every(params.scrub, params.scrub_wake_interval), 0,
                  &Kernel::RunScrubPass};
  wake_.huged = {every(params.huge, params.huge_wake_interval), 0,
                 &Kernel::RunHugeScan};
  wake_.numad = {
      every(numa_ != nullptr && params.pt_placement != PtPlacement::kLocal,
            params.numad_wake_interval),
      0, &Kernel::RunNumadPass};
  // Watermarks, Linux-style: wake kswapd below `low`, stop at `high`.
  kswapd_low_watermark_ = static_cast<uint32_t>(
      std::max<uint64_t>(64, phys_->total_frames() / 16));
  kswapd_high_watermark_ = kswapd_low_watermark_ + kswapd_low_watermark_ / 2;
  if (params.num_nodes > 1) {
    // Per-node watermarks: a node's free count can sink (pushing every
    // allocation remote) while the machine-wide count looks healthy.
    kswapd_node_low_watermark_ = std::max<uint32_t>(
        16, kswapd_low_watermark_ / params.num_nodes);
    kswapd_node_high_watermark_ =
        kswapd_node_low_watermark_ + kswapd_node_low_watermark_ / 2;
  }
  // Kernel text lives just past the end of simulated RAM: a unique,
  // collision-free physical window for the cache model (the kernel image
  // itself is not simulated as data).
  const PhysAddr kernel_text_base = FrameToPhys(
      static_cast<FrameNumber>(phys_->total_frames()));
  machine_ = std::make_unique<Machine>(&costs_, &counters_, kernel_text_base,
                                       params.core, params.num_cores,
                                       params.num_nodes,
                                       params.shootdown_policy);
  // Every shootdown the page-table, VM and daemon layers request reaches
  // the machine through this kernel (FlushSpace, FlushPte).
  ptp_allocator_->set_shootdown(this);
  if (params.num_nodes > 1) {
    for (uint32_t i = 0; i < machine_->num_cores(); ++i) {
      machine_->core(i).ConfigureNuma(machine_->NodeOfCore(i),
                                      phys_->frames_per_node());
      // Hardware walks fetch PTEs from the walking core's node-local
      // replica when one exists (and record placement statistics either
      // way).
      machine_->core(i).set_pte_addr_resolver(
          [this](const PageTablePage& ptp, uint32_t index, uint32_t node) {
            return numa_->ResolveWalk(ptp, index, node);
          });
    }
  }
  // Thread the tracer through every instrumented subsystem; its clock is
  // the machine's summed execution cycles.
  tracer_->set_clock([this] { return machine_->TotalCycles(); });
  machine_->set_tracer(tracer_.get());
  vm_->set_tracer(tracer_.get());
  reclaimer_->set_tracer(tracer_.get());
  swap_mgr_->set_tracer(tracer_.get());
  ksm_->set_tracer(tracer_.get());
  huge_->set_tracer(tracer_.get());
  current_.resize(machine_->num_cores(), nullptr);
  for (uint32_t i = 0; i < machine_->num_cores(); ++i) {
    machine_->core(i).set_abort_handler([this, i](const MemoryAbort& abort) {
      Task* task = current_[i];
      if (task == nullptr) {
        return false;  // the core's task exited: nothing is mapped
      }
      SetActiveCore(i);
      if (!task->alive) {
        return false;  // SetCurrent of a dead task: nothing is mapped
      }
      Cycles handler_cycles = 0;
      const TouchStatus status = ServiceFault(*task, abort, &handler_cycles);
      if (status != TouchStatus::kOopsKill) {
        // The fault handler ran to completion: charge its kernel time.
        machine_->core(i).RunKernelPath(KernelPath::kFaultHandler,
                                        handler_cycles,
                                        costs_.fault_kernel_lines);
      }
      return status == TouchStatus::kOk;
    });
  }
}

Asid Kernel::AllocateAsid() {
  // Scan from next_asid_, skipping ASIDs still held by live tasks. The
  // old "reset to 1 and reissue" rollover aliased the 256th task with a
  // live one: two address spaces under one ASID means one can hit the
  // other's TLB entries.
  for (uint32_t scanned = 0; scanned <= 255; ++scanned) {
    if (next_asid_ > 255) {
      // ASID rollover: new generation, flush everything everywhere (the
      // Linux/ARM rollover analogue, kept simple). Live tasks keep their
      // ASIDs — their entries are refetched after the flush. Rollover is
      // a correctness point, so the flush may not linger in a pending
      // queue: drain immediately.
      machine_->Shootdown(TlbFlush::All(),
                          AllCoresMask(machine_->num_cores()), active_core_);
      machine_->DrainAllPendingFlushes();
      next_asid_ = 1;
    }
    const Asid asid = static_cast<Asid>(next_asid_++);
    if (!asid_live_[asid]) {
      asid_live_[asid] = true;
      return asid;
    }
  }
  SAT_CHECK(false && "ASID space exhausted: 255 live tasks");
  return 0;
}

void Kernel::ReleaseAsid(Asid asid) {
  SAT_CHECK(asid_live_[asid] && "releasing an ASID that was never issued");
  asid_live_[asid] = false;
}

MmuContext Kernel::ContextFor(Task& task) {
  MmuContext context;
  context.asid = task.asid;
  context.dacr = task.dacr;
  context.page_table = task.mm ? &task.mm->page_table() : nullptr;
  context.zygote_like = task.IsZygoteLike();
  return context;
}

void Kernel::FlushTaskTlb(const Task& task) {
  const CpuMask mask = task.cpu_mask | CpuBit(task.last_core);
  machine_->Shootdown(TlbFlush::ForAsid(task.asid), mask, task.last_core);
}

void Kernel::FlushSpace(const PageTable& table) { FlushTaskTlb(TaskOf(table)); }

void Kernel::FlushRange(Task& task, VirtAddr start, VirtAddr end,
                        CpuMask extra_mask) {
  // Linux-style heuristic: a handful of page flushes for small ranges, a
  // full flush otherwise. Per-VA flushes also evict matching *global*
  // entries, which matters when global mappings are modified — the caller
  // widens the mask past the task's own cores for that case, because a
  // global entry is cached wherever the *sharing group* ran, not just
  // where this task did.
  constexpr uint32_t kMaxPageFlushes = 64;
  const CpuMask mask = (task.cpu_mask | CpuBit(task.last_core) | extra_mask) &
                       AllCoresMask(machine_->num_cores());
  if ((end - start) / kPageSize <= kMaxPageFlushes) {
    for (uint64_t va = start; va < end; va += kPageSize) {
      machine_->Shootdown(TlbFlush::ForVa(static_cast<VirtAddr>(va)), mask,
                          task.last_core);
    }
  } else {
    machine_->Shootdown(TlbFlush::All(), mask, task.last_core);
  }
}

Task& Kernel::TaskOf(const PageTable& table) {
  const auto index = static_cast<size_t>(table.owner() - 1);
  SAT_CHECK(index < tasks_.size() && tasks_[index]->alive &&
            "page table on a sharer list has no live owner");
  return *tasks_[index];
}

void Kernel::FlushPte(PtpId ptp, uint32_t index, bool global) {
  // The rmap tells the daemons *which PTPs* map a frame; which *cores*
  // may cache the translation follows from the PTP's sharers.
  const PageTablePage& page = ptp_allocator_->Get(ptp);
  CpuMask mask = CpuBit(active_core_);
  for (const PageTable* table : page.sharers()) {
    const Task& sharer = TaskOf(*table);
    mask |= sharer.cpu_mask | CpuBit(sharer.last_core);
  }
  if (global) {
    mask |= zygote_cpu_mask_;
  }
  machine_->Shootdown(TlbFlush::ForVa(page.VaOf(index)),
                      mask & AllCoresMask(machine_->num_cores()),
                      active_core_);
}

CpuMask Kernel::GlobalFlushExtraMask(Task& task, VirtAddr start,
                                     VirtAddr end) const {
  if (!vm_->config().share_tlb_global) {
    return 0;
  }
  for (const VmArea& vma : task.mm->VmasOverlapping(start, end)) {
    if (vma.global) {
      return zygote_cpu_mask_;
    }
  }
  return 0;
}

void Kernel::SyncShootdowns() { machine_->DrainAllPendingFlushes(); }

void Kernel::SetActiveCore(uint32_t core_id) {
  active_core_ = core_id;
  if (machine_->num_nodes() > 1) {
    phys_->set_preferred_node(machine_->NodeOfCore(core_id));
  }
}

Task* Kernel::CreateTask(const std::string& name) {
  auto task = std::make_unique<Task>();
  task->pid = next_pid_++;
  task->name = name;
  task->asid = AllocateAsid();
  task->mm = std::make_unique<MmStruct>(ptp_allocator_.get(), phys_.get(),
                                        &counters_, kDomainUser, &rmap_);
  task->mm->page_table().set_owner(task->pid);
  task->mm->page_table().set_tracer(tracer_.get());
  task->mm->page_table().set_zram(zram_.get());
  Task* raw = task.get();
  tasks_.push_back(std::move(task));
  return raw;
}

ForkOutcome Kernel::Fork(Task& parent, const std::string& name) {
  ForkOutcome outcome;
  if (!parent.alive) {
    outcome.error = Errno::kKilled;
    return outcome;
  }
  SetActiveCore(parent.last_core);
  TraceSpan span(tracer_.get(), TraceEventType::kFork, static_cast<uint32_t>(parent.pid));
  Task* child = CreateTask(name);

  // Section 3.2.2: children of the zygote get the zygote-child flag and
  // with it client access to the zygote domain; their user mappings live
  // in the zygote domain like the parent's.
  if (parent.zygote || parent.zygote_child) {
    child->zygote_child = true;
    child->dacr = parent.dacr;
    child->mm->set_user_domain(parent.mm->user_domain());
  }

  // Undoes the task creation entirely once the child's address space is
  // torn down: the child is the youngest task, so its pid and ASID are
  // simply un-issued again.
  const auto roll_back = [&](Errno error) {
    counters_.forks_failed++;
    SAT_CHECK(tasks_.back().get() == child &&
              "fork rollback: child is not the youngest task");
    ReleaseAsid(child->asid);
    // Un-issue the ASID number too when it was the newest, so a failed
    // fork leaves the allocator exactly where it started.
    if (next_asid_ == static_cast<uint32_t>(child->asid) + 1) {
      next_asid_--;
    }
    tasks_.pop_back();
    next_pid_--;
    span.set_args(0, 0);
    outcome.error = error;
  };

  while (true) {
    try {
      OopsRecoveryScope oops_scope;
      outcome.stats = vm_->Fork(*parent.mm, *child->mm);
    } catch (const KernelOops& oops) {
      // Corrupt parent page table discovered mid-copy: roll the fork back
      // exactly as an ENOMEM would, then contain the damage (which kills
      // the parent as a sharer of the damaged PTP).
      vm_->ExitMm(*child->mm);
      roll_back(Errno::kKilled);
      OopsKillByDamage(oops.damage, &parent);
      SyncShootdowns();
      return outcome;
    }
    if (outcome.stats.ok) {
      break;
    }
    // ENOMEM mid-copy: tear the partial child address space down (regions,
    // PTEs, PTPs, sharer and frame references), then try to free memory.
    // The parent is immune — killing the forking task to satisfy its own
    // fork would be absurd.
    vm_->ExitMm(*child->mm);
    if (!RelieveMemoryPressure(&parent, child)) {
      // Nothing reclaimable and nobody to kill: the fork fails.
      roll_back(Errno::kEnomem);
      SyncShootdowns();
      return outcome;
    }
  }
  machine_->core(parent.last_core)
      .RunKernelPath(KernelPath::kFork, outcome.stats.cycles,
                     /*text_lines=*/180);
  span.set_args(static_cast<uint32_t>(child->pid), outcome.stats.ptes_copied);
  span.set_duration(outcome.stats.cycles);
  RunKswapdIfNeeded();
  outcome.child = child;
  SyncShootdowns();
  return outcome;
}

void Kernel::Exec(Task& task, const std::string& name, bool is_zygote) {
  SetActiveCore(task.last_core);
  Tracer::Emit(tracer_.get(), TraceEventType::kExec, static_cast<uint32_t>(task.pid),
               static_cast<uint32_t>(task.pid));
  vm_->ExitMm(*task.mm);
  FlushTaskTlb(task);
  SyncShootdowns();
  task.name = name;
  task.zygote = is_zygote;
  task.zygote_child = false;
  if (is_zygote) {
    task.dacr = DomainAccessControl::ZygoteLike();
    task.mm->set_user_domain(kDomainZygote);
  } else {
    task.dacr = DomainAccessControl::StockDefault();
    task.mm->set_user_domain(kDomainUser);
  }
}

void Kernel::Exit(Task& task) {
  SAT_CHECK(task.alive && "exit of a task that is already dead");
  SetActiveCore(task.last_core);
  Tracer::Emit(tracer_.get(), TraceEventType::kExit, static_cast<uint32_t>(task.pid),
               static_cast<uint32_t>(task.pid));
  vm_->ExitMm(*task.mm);
  task.mm.reset();  // mmput: a dead task holds no address space
  FlushTaskTlb(task);
  if (task.zygote && vm_->config().share_tlb_global) {
    // The zygote's global entries are not ASID-tagged, so the ASID flush
    // above leaves them cached on every core the sharing group ever ran
    // on. Zygote exit is rare enough to pay for a full shootdown there.
    machine_->Shootdown(
        TlbFlush::All(),
        (zygote_cpu_mask_ | task.cpu_mask | CpuBit(task.last_core)) &
            AllCoresMask(machine_->num_cores()),
        task.last_core);
  }
  // Drain before the ASID goes back in the pool: reissuing an ASID whose
  // flush is still queued would alias the new task with this one.
  SyncShootdowns();
  ReleaseAsid(task.asid);
  task.alive = false;
  task.cpu_mask = 0;
  // A core still running the task (a Core fault can OOM-kill it) drops the
  // context naming the freed page table, so its next access fails.
  for (uint32_t c = 0; c < current_.size(); ++c) {
    if (current_[c] == &task) {
      current_[c] = nullptr;
      machine_->core(c).SetContext(MmuContext{});
    }
  }
}

SyscallResult<VirtAddr> Kernel::Mmap(Task& task, MmapRequest request) {
  if (request.length == 0 || !IsPageAligned(request.length) ||
      !IsPageAligned(request.fixed_address)) {
    return SyscallResult<VirtAddr>::Err(Errno::kEinval);
  }
  if (!task.alive) {
    return SyscallResult<VirtAddr>::Err(Errno::kKilled);
  }
  SetActiveCore(task.last_core);
  // Section 3.2.2's global-region policy: the zygote mapping shared
  // library code marks the region global (only meaningful when TLB
  // sharing is on; the bit is still recorded so experiments can observe
  // the policy independent of the config).
  if (task.zygote && IsFileBacked(request.kind) && request.prot.execute) {
    request.global = true;
  }
  if (task.zygote) {
    request.zygote_preloaded = true;
  }
  while (true) {
    bool oom = false;
    const VirtAddr addr = vm_->Mmap(*task.mm, request, &oom);
    if (addr != 0) {
      RunKswapdIfNeeded();
      SyncShootdowns();
      if (!task.alive) {
        // A scrubd pass at the wake point found unrepairable damage whose
        // blast radius included the caller.
        return SyscallResult<VirtAddr>::Err(Errno::kKilled);
      }
      return SyscallResult<VirtAddr>::Ok(addr);
    }
    if (!oom) {
      // No free range in the address space.
      return SyscallResult<VirtAddr>::Err(Errno::kEnomem);
    }
    if (!RelieveMemoryPressure(&task)) {
      // ENOMEM with nothing left to free.
      return SyscallResult<VirtAddr>::Err(Errno::kEnomem);
    }
  }
}

Errno Kernel::CheckRange(const Task& task, VirtAddr start,
                         uint32_t length) const {
  if (length == 0 || !IsPageAligned(start) || !IsPageAligned(length)) {
    return Errno::kEinval;
  }
  if (!task.alive ||
      task.mm->VmasOverlapping(start, start + length).empty()) {
    return Errno::kEfault;
  }
  return Errno::kOk;
}

template <typename RangeOp>
SyscallResult<void> Kernel::ChangeRange(Task& task, VirtAddr start,
                                        uint32_t length, RangeOp op) {
  if (const Errno error = CheckRange(task, start, length);
      error != Errno::kOk) {
    return SyscallResult<void>::Err(error);
  }
  SetActiveCore(task.last_core);
  // A global mapping's stale entries live on the whole sharing group's
  // cores; an unmap drops the vmas, so widen the mask before the change.
  const CpuMask extra = GlobalFlushExtraMask(task, start, start + length);
  while (true) {
    bool oom = false;
    op(&oom);
    if (!oom) {
      break;
    }
    if (!RelieveMemoryPressure(&task)) {
      // Nothing left to free for the unshare step: the caller is the last
      // resort (its teardown completes an unmap).
      OomKill(task);
      return SyscallResult<void>::Err(Errno::kKilled);
    }
  }
  FlushRange(task, start, start + length, extra);
  SyncShootdowns();
  return SyscallResult<void>::Ok();
}

SyscallResult<void> Kernel::Munmap(Task& task, VirtAddr start,
                                   uint32_t length) {
  return ChangeRange(task, start, length, [&](bool* oom) {
    vm_->Munmap(*task.mm, start, length, oom);
  });
}

SyscallResult<void> Kernel::Mprotect(Task& task, VirtAddr start,
                                     uint32_t length, VmProt prot) {
  return ChangeRange(task, start, length, [&](bool* oom) {
    vm_->Mprotect(*task.mm, start, length, prot, oom);
  });
}

SyscallResult<void> Kernel::Madvise(Task& task, VirtAddr start,
                                    uint32_t length, MadviseAdvice advice) {
  if (const Errno error = CheckRange(task, start, length);
      error != Errno::kOk) {
    return SyscallResult<void>::Err(error);
  }
  // Split at the boundaries by removing and re-inserting the covered
  // pieces with the flag flipped. RemoveRange is pure region bookkeeping;
  // no PTE changes, so nothing to flush and nothing can fail.
  const bool mergeable = advice == MadviseAdvice::kMergeable;
  for (VmArea piece : task.mm->RemoveRange(start, start + length)) {
    piece.mergeable = mergeable;
    task.mm->InsertVma(piece);
  }
  return SyscallResult<void>::Ok();
}

TouchStatus Kernel::TouchPageStatus(Task& task, VirtAddr va,
                                    AccessType access) {
  return TouchAndMaybeStore(task, va, access, nullptr);
}

TouchStatus Kernel::TouchAndMaybeStore(Task& task, VirtAddr va,
                                       AccessType access,
                                       const uint64_t* store) {
  SetActiveCore(task.last_core);
  MaybeInjectChaos();
  if (!task.alive) {
    return TouchStatus::kSigSegv;  // no address space: nothing is mapped
  }
  PageTable& pt = task.mm->page_table();
  // Every kernel entry on the touch path runs under a recovery scope: a
  // corrupt descriptor or swap slot becomes a KernelOops that unwinds to
  // the catch below, which kills only the sharers of the damaged state
  // and quarantines it — the rest of the machine keeps running.
  OopsRecoveryScope oops_scope;
  try {
    // Each iteration either succeeds or resolves a fault. The cap guards
    // against a livelocked fault handler (ServiceFault ends a reclaim
    // livelock itself).
    constexpr int kMaxTouchAttempts = 64;
    for (int attempt = 0; attempt < kMaxTouchAttempts; ++attempt) {
      if (const SectionDesc* section = pt.SectionAt(va)) {
        // Served at the first level: no PTE exists (or may be installed)
        // under a live section. Sections map read-only code, so a write
        // is refused — and a real write would have cleared the section
        // via mprotect first.
        if (!PermitsAccess(PtePerm::kReadOnly, section->executable, access)) {
          return TouchStatus::kSigSegv;
        }
        RunKswapdIfNeeded();
        SyncShootdowns();
        return task.alive ? TouchStatus::kOk : TouchStatus::kOopsKill;
      }
      const auto ref = pt.FindPte(va);
      if (ref.has_value() && !ValidateOrRepairSite(*ref)) {
        SAT_OOPS_CHECK(
            false && "unrepairable corrupt PTE at touch",
            (OopsDamage{OopsDamage::Kind::kPtp, ref->ptp->id()}));
      }
      if (ref.has_value() && ref->ptp->hw(ref->index).valid()) {
        const HwPte hw = ref->ptp->hw(ref->index);
        // The x86-style first-level write-protect ablation denies writes
        // in a NEED_COPY slot before the PTE's own permission is read.
        const bool l1_write_block = vm_->config().hw_l1_write_protect &&
                                    pt.SlotNeedsCopy(va) &&
                                    access == AccessType::kWrite;
        if (!l1_write_block &&
            PermitsAccess(hw.perm(), hw.executable(), access)) {
          // Emulated referenced/dirty bits: the hardware format has none,
          // so the "MMU" sets them in the shadow PTE on access. The
          // swap-out aging pass harvests young (second chance) and uses
          // dirty to decide whether a swap-cached page can be dropped
          // without recompressing.
          LinuxPte sw = ref->ptp->sw(ref->index);
          const bool need_dirty =
              access == AccessType::kWrite && !sw.dirty();
          if (!sw.young() || need_dirty) {
            sw.set_young(true);
            if (access == AccessType::kWrite) {
              sw.set_dirty(true);
            }
            pt.UpdatePte(va, hw, sw, /*allow_shared=*/true);
          }
          if (store != nullptr) {
            // The store retires the instant the access is allowed —
            // before the daemon wake point below, where ksmd could
            // otherwise merge the page between the fault and the store
            // and the new content would land on a stable frame.
            const FrameNumber frame = MappedFrameOf(hw, ref->index);
            SAT_CHECK(frame != phys_->zero_frame());
            SAT_CHECK(!phys_->frame(frame).ksm_stable);
            phys_->frame(frame).content = *store;
          }
          if (numa_ != nullptr) {
            // The page-granular access path has no hardware walker, but
            // numad's placement policy still needs to see which node
            // walked which PTP (and the remote/replica split reported by
            // bench_numa counts these logical walks the same way).
            numa_->ResolveWalk(*ref->ptp, ref->index,
                               machine_->NodeOfCore(task.last_core));
          }
          RunKswapdIfNeeded();
          SyncShootdowns();
          if (!task.alive) {
            // The access itself succeeded, but a scrubd pass at the wake
            // point found unrepairable damage whose blast radius included
            // the toucher.
            return TouchStatus::kOopsKill;
          }
          return TouchStatus::kOk;
        }
      }
      const FaultStatus cause =
          (ref.has_value() && ref->ptp->hw(ref->index).valid())
              ? FaultStatus::kPermission
              : FaultStatus::kTranslation;
      Cycles handler_cycles = 0;  // the page-granular path charges none
      const TouchStatus status = ServiceFault(
          task, MemoryAbort{cause, va, access, access == AccessType::kExecute},
          &handler_cycles);
      if (status != TouchStatus::kOk) {
        return status;
      }
    }
    SAT_CHECK(false && "TouchPage made no progress");
    return TouchStatus::kSigSegv;
  } catch (const KernelOops& oops) {
    OopsKillByDamage(oops.damage, &task);
    SyncShootdowns();
    return TouchStatus::kOopsKill;
  }
}

TouchStatus Kernel::ServiceFault(Task& task, const MemoryAbort& abort,
                                 Cycles* handler_cycles) {
  // A recoverable oops in the fault handler (e.g. a corrupt swap slot
  // discovered at decompress) kills the sharers and fails the access
  // instead of taking the machine down.
  OopsRecoveryScope oops_scope;
  try {
    // Each round resolves the fault, fails it, or frees memory for the
    // next. The cap ends a reclaim livelock, where every pass frees one
    // frame that the retry consumes again (free frames bounce 0 -> 1 -> 0).
    constexpr int kMaxRounds = 64;
    for (int round = 0;; ++round) {
      const FaultOutcome outcome = vm_->HandleFault(*task.mm, abort);
      *handler_cycles += outcome.kernel_cycles;
      SyncShootdowns();  // fault-handler exit
      if (outcome.ok) {
        return TouchStatus::kOk;
      }
      if (!outcome.oom) {
        return TouchStatus::kSigSegv;
      }
      // The fault handler could not allocate. Reclaim / kill and retry;
      // the faulting task itself is a legitimate victim (no immunity), and
      // if nothing else can be freed it falls on its own sword,
      // Linux-style. A livelock ends as if nothing was freed.
      if (!RelieveMemoryPressure(nullptr)) {
        OomKill(task);
        return TouchStatus::kOomKill;
      }
      if (!task.alive) {
        return TouchStatus::kOomKill;  // we were the chosen victim
      }
      if (round + 1 == kMaxRounds) {
        OomKill(task);
        return TouchStatus::kOomKill;
      }
    }
  } catch (const KernelOops& oops) {
    OopsKillByDamage(oops.damage, &task);
    SyncShootdowns();
    return TouchStatus::kOopsKill;
  }
}

bool Kernel::TouchPage(Task& task, VirtAddr va, AccessType access) {
  return TouchPageStatus(task, va, access) == TouchStatus::kOk;
}

TouchStatus Kernel::WritePage(Task& task, VirtAddr va, uint64_t value) {
  // A successful write access always lands on a private writable frame
  // (the fault path COWed away from anything shared, including stable
  // frames); the simulated content is stamped as part of the access.
  return TouchAndMaybeStore(task, va, AccessType::kWrite, &value);
}

ReclaimStats Kernel::ReclaimFileCache(uint32_t target) {
  // Each cleared PTE is flushed over its PTP's sharer set (not a blind
  // all-cores broadcast).
  const ReclaimStats stats = reclaimer_->ReclaimFileCache(target);
  SyncShootdowns();  // daemon tick
  return stats;
}

uint32_t Kernel::SwapOutAnonPages(uint32_t target) {
  if (!zram_->enabled()) {
    return 0;
  }
  const uint32_t freed = swap_mgr_->SwapOut(target);
  SyncShootdowns();  // daemon tick
  return freed;
}

std::vector<MmStruct*> Kernel::LiveMms() {
  std::vector<MmStruct*> mms;
  for (const auto& task : tasks_) {
    if (task->alive) {
      mms.push_back(task->mm.get());
    }
  }
  return mms;
}

uint32_t Kernel::RunKsmScan() {
  const uint32_t merged = ksm_->ScanOnce(LiveMms());
  SyncShootdowns();  // daemon tick
  return merged;
}

uint32_t Kernel::RunHugeScan() {
  const uint32_t collapsed = huge_->ScanOnce(LiveMms());
  SyncShootdowns();  // daemon tick
  return collapsed;
}

uint32_t Kernel::MapZygoteSections(Task& task) {
  if (wake_.huged.interval == 0) {
    return 0;
  }
  SAT_CHECK(task.mm != nullptr);
  MmStruct& mm = *task.mm;
  PageTable& pt = mm.page_table();
  // Snapshot the candidate code regions (the loop below loads cache pages,
  // which never mutates the region list, but a snapshot keeps that a
  // non-assumption).
  struct Candidate {
    VirtAddr start;
    VirtAddr end;
    FileId file;
    uint32_t first_file_page;
    bool global;
  };
  std::vector<Candidate> candidates;
  mm.ForEachVma([&](const VmArea& vma) {
    // The preload set's code: read-only, executable, file-backed, mapped
    // at 4 KB (the 64 KB file-block policy caches the file at a
    // granularity GetOrLoad must not mix with).
    if (vma.zygote_preloaded && vma.prot.execute && !vma.prot.write &&
        IsFileBacked(vma.kind) && !vma.use_large_pages) {
      candidates.push_back(Candidate{vma.start, vma.end, vma.file,
                                     vma.FilePageFor(vma.start), vma.global});
    }
  });
  const bool share_global = vm_->config().share_tlb_global;
  uint32_t mapped = 0;
  for (const Candidate& c : candidates) {
    const uint64_t first =
        (static_cast<uint64_t>(c.start) + kSectionSize - 1) &
        ~static_cast<uint64_t>(kSectionSize - 1);
    for (uint64_t va64 = first; va64 + kSectionSize <= c.end;
         va64 += kSectionSize) {
      const auto va = static_cast<VirtAddr>(va64);
      if (pt.SectionAt(va) != nullptr) {
        continue;  // already mapped (idempotent re-run)
      }
      // Bring the whole megabyte of file content into the page cache
      // *before* allocating the permanent frames, so a load failure is a
      // clean skip with nothing to unwind.
      const uint32_t file_page =
          c.first_file_page + static_cast<uint32_t>((va64 - c.start) >> kPageShift);
      bool resident = true;
      for (uint32_t i = 0; i < kPtesPerSection && resident; ++i) {
        bool hard = false;
        resident =
            page_cache_->GetOrLoad(c.file, file_page + i, &hard) !=
            PageCache::kNoFrame;
      }
      if (!resident) {
        counters_.huge_collapse_failures++;
        continue;
      }
      const std::optional<FrameNumber> base =
          phys_->TryAllocContiguousFrames(kPtesPerSection, FrameKind::kKernel);
      if (!base.has_value()) {
        // No megabyte of contiguous frames this early would be unusual,
        // but fragmentation is a clean abandon like any failed collapse.
        counters_.huge_collapse_failures++;
        continue;
      }
      for (uint32_t i = 0; i < kPtesPerSection; ++i) {
        const FrameNumber src = page_cache_->Lookup(c.file, file_page + i);
        SAT_CHECK(src != PageCache::kNoFrame);
        phys_->frame(*base + i).content = phys_->frame(src).content;
      }
      // Any 4 KB PTEs already faulted in under the half would shadow the
      // section; drop them (they refault harmlessly if the section is
      // ever cleared again).
      pt.ClearRange(va, va + kSectionSize);
      pt.InstallSection(va, *base, c.global && share_global,
                        /*executable=*/true, mm.user_domain());
      counters_.huge_sections_mapped++;
      mapped++;
    }
  }
  if (mapped > 0) {
    FlushTaskTlb(task);
    SyncShootdowns();
  }
  return mapped;
}

void Kernel::RunKswapdIfNeeded() {
  if (in_daemon_) {
    return;
  }
  in_daemon_ = true;
  // Callers on a task's behalf must re-check task.alive afterwards: a
  // scrubd pass that found unrepairable damage kills the sharers here.
  for (WakeDaemon* daemon :
       {&wake_.ksmd, &wake_.scrubd, &wake_.huged, &wake_.numad}) {
    if (daemon->interval != 0 && ++daemon->ticks >= daemon->interval) {
      daemon->ticks = 0;
      (this->*daemon->pass)();
    }
  }
  if (numa_ != nullptr) {
    SyncNumaCounters();
  }
  // Below the global watermark, or — on a multi-node machine — with any
  // single node below its per-node one (its allocations are already
  // silently falling back to remote nodes even though the machine-wide
  // count looks healthy).
  const auto below = [this](uint32_t global, uint32_t per_node) {
    if (phys_->free_frames() < global) {
      return true;
    }
    for (uint32_t node = 0; per_node > 0 && node < phys_->num_nodes();
         ++node) {
      if (phys_->free_frames_on_node(node) < per_node) {
        return true;
      }
    }
    return false;
  };
  if (zram_->enabled() &&
      below(kswapd_low_watermark_, kswapd_node_low_watermark_)) {
    counters_.kswapd_runs++;
    TraceSpan span(tracer_.get(), TraceEventType::kKswapd);
    uint64_t freed_total = 0;
    while (below(kswapd_high_watermark_, kswapd_node_high_watermark_)) {
      // Page-table replicas first (pure redundancy: dropping one costs a
      // few remote walks, not a refetch or a decompress fault), then
      // clean file pages (refetchable), anonymous swap-out last (costs
      // compression now and a decompress fault later). kswapd never
      // OOM-kills; if no pass makes progress it goes back to sleep and
      // the allocation paths handle the shortfall.
      uint64_t freed = 0;
      if (numa_ != nullptr) {
        freed += numa_->ReclaimReplicas(kSwapOutBatch);
      }
      if (below(kswapd_high_watermark_, kswapd_node_high_watermark_)) {
        freed += ReclaimFileCache(kSwapOutBatch).pages_reclaimed;
      }
      if (below(kswapd_high_watermark_, kswapd_node_high_watermark_)) {
        freed += SwapOutAnonPages(kSwapOutBatch);
      }
      freed_total += freed;
      if (freed == 0) {
        break;
      }
    }
    counters_.kswapd_pages += freed_total;
    span.set_args(freed_total, phys_->free_frames());
    SyncShootdowns();  // daemon tick
  }
  in_daemon_ = false;
}

uint32_t Kernel::RunNumadPass() {
  if (numa_ == nullptr) {
    return 0;
  }
  counters_.numad_runs++;
  const uint32_t actions = numa_->RunPass();
  SyncNumaCounters();
  SyncShootdowns();  // daemon tick
  return actions;
}

void Kernel::SyncNumaCounters() {
  counters_.numa_alloc_fallbacks = phys_->numa_fallbacks();
  counters_.numa_cross_node_runs = phys_->numa_cross_node_runs();
}

void Kernel::MaybeInjectChaos() {
  FaultInjector& inj = *fault_injector_;
  if (inj.ShouldCorrupt(CorruptSite::kPteWord)) {
    const std::optional<PtpId> id = ptp_allocator_->AnyLiveId(inj.Rand64());
    if (id.has_value()) {
      PageTablePage& ptp = ptp_allocator_->Get(*id);
      uint32_t index = static_cast<uint32_t>(inj.Rand64() % kPtesPerPtp);
      // Bias the flip toward a live descriptor: rot in a word that maps
      // nothing (and shadows nothing) is semantically inert, and page
      // tables are sparse enough that a uniform pick would mostly land
      // there. Real corruption studies weight by payload for the same
      // reason.
      for (uint32_t probe = 0; probe < kPtesPerPtp; ++probe) {
        const uint32_t i = (index + probe) % kPtesPerPtp;
        if (ptp.hw(i).valid() || ptp.sw(i).raw() != 0) {
          index = i;
          break;
        }
      }
      const uint32_t bit = static_cast<uint32_t>(inj.Rand64() % 32);
      ptp.CorruptHwForChaos(index, 1u << bit);
    }
  }
  if (inj.ShouldCorrupt(CorruptSite::kZramByte)) {
    const std::optional<SwapSlotId> slot = zram_->AnyLiveSlot(inj.Rand64());
    if (slot.has_value()) {
      const uint32_t byte = static_cast<uint32_t>(inj.Rand64() % 8);
      uint64_t flip = (inj.Rand64() & 0xffull) << (8 * byte);
      if (flip == 0) {
        flip = 1ull << (8 * byte);
      }
      zram_->CorruptSlotForChaos(*slot, flip);
    }
  }
  if (inj.ShouldCorrupt(CorruptSite::kTlbTag)) {
    const uint32_t core_id =
        static_cast<uint32_t>(inj.Rand64() % machine_->num_cores());
    MainTlb& tlb = machine_->core(core_id).main_tlb();
    const uint32_t set = static_cast<uint32_t>(inj.Rand64() % tlb.num_sets());
    const uint32_t way = static_cast<uint32_t>(inj.Rand64() % tlb.ways());
    TlbEntry& entry = tlb.EntryAtForChaos(set, way);
    if (entry.valid) {
      switch (inj.Rand64() % 4) {
        case 0:
          entry.vpn ^= 1u << (inj.Rand64() % 20);
          break;
        case 1:
          entry.asid = static_cast<Asid>(entry.asid ^
                                         (1u << (inj.Rand64() % 8)));
          break;
        case 2:
          entry.global = !entry.global;
          break;
        case 3:
          entry.frame ^= 1u << (inj.Rand64() % 16);
          break;
      }
    }
  }
  // Appended after the original sites so an un-ruled kNumaReplica never
  // perturbs the PRNG stream of existing chaos configurations.
  if (numa_ != nullptr && inj.ShouldCorrupt(CorruptSite::kNumaReplica)) {
    const uint64_t pick = inj.Rand64();
    const uint32_t index = static_cast<uint32_t>(inj.Rand64() % kPtesPerPtp);
    const uint32_t bit = static_cast<uint32_t>(inj.Rand64() % 32);
    numa_->CorruptReplicaForChaos(pick, index, 1u << bit);
  }
}

bool Kernel::ValidateOrRepairSite(const PteRef& ref) {
  const HwPte hw = ref.ptp->hw(ref.index);
  const LinuxPte sw = ref.ptp->sw(ref.index);
  bool suspicious;
  if (hw.valid()) {
    suspicious = !sw.present();
    if (!suspicious) {
      const uint8_t perm_raw = static_cast<uint8_t>(hw.perm());
      suspicious = perm_raw == 0 || perm_raw == 3;
    }
    if (!suspicious) {
      const FrameNumber frame = MappedFrameOf(hw, ref.index);
      // COW-only frames (the zero page, KSM stable frames) are never
      // writable.
      suspicious = !phys_->UserMappable(frame) ||
                   (hw.perm() == PtePerm::kReadWrite &&
                    (frame == phys_->zero_frame() ||
                     phys_->frame(frame).ksm_stable));
    }
  } else {
    // Invalid hardware entry over a present shadow entry: the validity
    // bits rotted off a live mapping (a legal invalid entry is either
    // empty or a swap entry, both non-present).
    suspicious = sw.present();
  }
  if (!suspicious) {
    // No rmap cross-check here: this runs on every touch, and the rmap
    // walk is what the suspicion-driven scrub below is for.
    return true;
  }
  return scrubber_->ScrubSite(*ref.ptp, ref.index) !=
         ScrubSiteResult::kUnrepairable;
}

uint32_t Kernel::RunScrubPass() {
  counters_.scrub_runs++;
  // PTPs validated per pass: large enough to cover a small system in one
  // pass, small enough that a wake point stays cheap on a big one.
  constexpr uint32_t kScrubPtpBudget = 64;
  const ScrubPassResult result = scrubber_->RunPass(kScrubPtpBudget);
  uint32_t repairs = result.repairs;
  repairs += ScrubTlbs();
  // Unrepairable damage is acted on after the walk, never during it: the
  // kills below tear down page tables the walk may still be indexing.
  for (const ScrubSiteRef& site : result.unrepairable_sites) {
    if (ptp_allocator_->GetIfLive(site.ptp) == nullptr) {
      continue;  // an earlier kill this pass already tore it down
    }
    counters_.scrub_unrepairable++;
    OopsKillByDamage(OopsDamage{OopsDamage::Kind::kPtp, site.ptp}, nullptr);
  }
  for (const SwapSlotId slot : result.unrepairable_slots) {
    if (!zram_->SlotLive(slot)) {
      continue;
    }
    counters_.scrub_unrepairable++;
    OopsKillByDamage(OopsDamage{OopsDamage::Kind::kSwapSlot, slot}, nullptr);
  }
  if (numa_ != nullptr) {
    // Replica coherence sweep (after the kill loop, so destroyed PTPs
    // have already dropped their sets): every replica word is compared
    // against its master; a majority against the master repairs the
    // master, anything else re-converges the replicas. Full coverage
    // each pass — the audit requires replicas bit-identical afterwards.
    repairs += numa_->ScrubReplicaSweep();
  }
  counters_.frames_quarantined = phys_->quarantined_frames();
  SyncShootdowns();
  return repairs;
}

uint32_t Kernel::ScrubTlbs() {
  uint32_t flushed = 0;
  const auto backs_entry = [&](const Task& t, const TlbEntry& entry,
                               VirtAddr va) {
    const PageTable& pt = t.mm->page_table();
    const auto ref = pt.FindPte(va);
    if (!ref.has_value()) {
      return false;
    }
    const HwPte hw = ref->ptp->hw(ref->index);
    if (!hw.valid()) {
      return false;
    }
    if ((entry.size_pages == kPtesPerLargePage) != hw.large()) {
      return false;
    }
    const FrameNumber frame = entry.size_pages == kPtesPerLargePage
                                  ? hw.frame()
                                  : MappedFrameOf(hw, ref->index);
    return entry.frame == frame && entry.perm == hw.perm() &&
           entry.executable == hw.executable() &&
           entry.global == hw.global() &&
           entry.domain == pt.l1(PtpSlotIndex(va)).domain;
  };
  for (uint32_t c = 0; c < machine_->num_cores(); ++c) {
    MainTlb& tlb = machine_->core(c).main_tlb();
    for (uint32_t set = 0; set < tlb.num_sets(); ++set) {
      for (uint32_t way = 0; way < tlb.ways(); ++way) {
        const TlbEntry& entry = tlb.EntryAt(set, way);
        if (!entry.valid) {
          continue;
        }
        const VirtAddr va = entry.vpn << kPageShift;
        if (!IsUserAddress(va)) {
          tlb.FlushVa(va);  // no modelled mapping is outside user space
          counters_.scrub_repairs++;
          flushed++;
          continue;
        }
        bool ok = false;
        for (const auto& t : tasks_) {
          if (!t->alive) {
            continue;
          }
          if (!entry.global && t->asid != entry.asid) {
            continue;
          }
          if (backs_entry(*t, entry, va)) {
            ok = true;
            break;
          }
        }
        if (!ok) {
          // Stale or rotten (possibly legitimately stale under a pending
          // batched flush — flushing early is always safe).
          tlb.FlushVa(va);
          counters_.scrub_repairs++;
          flushed++;
        }
      }
    }
  }
  return flushed;
}

void Kernel::OopsKillByDamage(const OopsDamage& damage, Task* offender) {
  std::vector<Task*> victims;
  // The blast radius of a damaged PTP: its sharers, in ascending pid
  // order (the order the sharer list keeps).
  const auto add_sharers = [&](const PageTablePage& ptp) {
    for (const PageTable* table : ptp.sharers()) {
      victims.push_back(&TaskOf(*table));
    }
  };
  switch (damage.kind) {
    case OopsDamage::Kind::kNone:
      break;
    case OopsDamage::Kind::kPtp: {
      const PageTablePage* page =
          ptp_allocator_->GetIfLive(static_cast<PtpId>(damage.id));
      if (page != nullptr) {
        add_sharers(*page);
        phys_->QuarantineFrame(page->frame());
      }
      break;
    }
    case OopsDamage::Kind::kFrame: {
      const FrameNumber frame = static_cast<FrameNumber>(damage.id);
      if (frame < phys_->total_frames()) {
        for (const RmapEntry& entry : rmap_.Mappings(frame)) {
          add_sharers(ptp_allocator_->Get(entry.ptp));
        }
        phys_->QuarantineFrame(frame);
      }
      break;
    }
    case OopsDamage::Kind::kSwapSlot: {
      const SwapSlotId slot = static_cast<SwapSlotId>(damage.id);
      // Victims: every task whose page table holds a swap PTE naming the
      // slot. (The swap-cache reference, if any, is torn down with them.)
      for (const auto& t : tasks_) {
        if (!t->alive) {
          continue;
        }
        const PageTable& pt = t->mm->page_table();
        bool references = false;
        for (uint32_t s = pt.NextUsedSlot(0); s < kUserPtpSlots && !references;
             s = pt.NextUsedSlot(s + 1)) {
          const L1Entry& l1 = pt.l1(s);
          if (!l1.present()) {
            continue;
          }
          const PageTablePage& page = ptp_allocator_->Get(l1.ptp);
          for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
            const LinuxPte& sw = page.sw(i);
            if (sw.is_swap() && sw.swap_slot() == slot) {
              references = true;
              break;
            }
          }
        }
        if (references) {
          victims.push_back(t.get());
        }
      }
      break;
    }
  }
  if (offender != nullptr &&
      std::find(victims.begin(), victims.end(), offender) == victims.end()) {
    victims.push_back(offender);
  }
  // Damage reaching the zygote itself is unrecoverable: every future app
  // is forked from that address space, so killing it (or limping on with
  // it corrupt) would be a lie. Zygote *children* are ordinary victims.
  for (const Task* victim : victims) {
    if (victim->zygote) {
      SAT_PANIC("oops damage reaches the zygote address space");
    }
  }
  for (Task* victim : victims) {
    if (!victim->alive) {
      continue;  // double-listed, or torn down by an earlier kill
    }
    counters_.oops_kills++;
    Tracer::Emit(tracer_.get(), TraceEventType::kOomKill, static_cast<uint32_t>(victim->pid),
                 static_cast<uint32_t>(victim->pid), TaskRssPages(*victim));
    victim->oops_killed = true;
    Exit(*victim);
  }
  counters_.frames_quarantined = phys_->quarantined_frames();
}

uint64_t Kernel::TaskRssPages(const Task& task) const {
  return task.mm == nullptr ? 0 : task.mm->page_table().PresentPteCount();
}

Task* Kernel::PickOomVictim(const Task* immune, const Task* immune2) {
  Task* victim = nullptr;
  uint64_t victim_rss = 0;
  for (const auto& candidate : tasks_) {
    Task* t = candidate.get();
    if (!t->alive || t->zygote || t == immune || t == immune2) {
      continue;  // the zygote is sacred (Android's oom_score_adj analogue)
    }
    const uint64_t rss = TaskRssPages(*t);
    // Largest RSS wins; ties go to the younger task (higher pid), which
    // matches "kill the most recently spawned of equals".
    if (victim == nullptr || rss > victim_rss ||
        (rss == victim_rss && t->pid > victim->pid)) {
      victim = t;
      victim_rss = rss;
    }
  }
  return victim;
}

void Kernel::OomKill(Task& victim) {
  counters_.oom_kills++;
  Tracer::Emit(tracer_.get(), TraceEventType::kOomKill, static_cast<uint32_t>(victim.pid),
               static_cast<uint32_t>(victim.pid), TaskRssPages(victim));
  victim.oom_killed = true;
  Exit(victim);
}

bool Kernel::RelieveMemoryPressure(const Task* immune, const Task* immune2) {
  // Stage 0: page-table replicas are pure redundancy — dropping a set
  // costs a few remote walks later, nothing else. Always the first
  // sacrifice.
  if (numa_ != nullptr && numa_->ReclaimReplicas(kDirectReclaimBatch) > 0) {
    return true;
  }
  // Stage 1: direct reclaim of clean file-cache pages. Their contents are
  // refetchable, so dropping them is free apart from future soft faults.
  counters_.direct_reclaims++;
  const ReclaimStats stats = ReclaimFileCache(kDirectReclaimBatch);
  Tracer::Emit(tracer_.get(), TraceEventType::kDirectReclaim, 0,
               stats.pages_reclaimed, phys_->free_frames());
  if (stats.pages_reclaimed > 0) {
    return true;
  }
  // Stage 2: swap out anonymous pages to the compressed store. More
  // expensive than dropping clean file pages (compression now, a
  // decompress fault later) but far cheaper than killing someone.
  if (SwapOutAnonPages(kSwapOutBatch) > 0) {
    return true;
  }
  // Stage 3: the OOM killer.
  Task* victim = PickOomVictim(immune, immune2);
  if (victim == nullptr) {
    return false;
  }
  OomKill(*victim);
  return true;
}

AuditReport Kernel::AuditInvariants() const {
  AuditInput input;
  input.phys = phys_.get();
  input.page_cache = page_cache_.get();
  input.ptps = ptp_allocator_.get();
  input.rmap = &rmap_;
  input.zram = zram_.get();
  input.lru = lru_.get();
  input.hw_l1_write_protect = vm_->config().hw_l1_write_protect;
  input.ksm_audited = true;
  if (numa_ != nullptr) {
    input.numa_audited = true;
    numa_->ForEachReplica([&](PtpId id, const NumaEngine::Replica& replica) {
      AuditReplica snap;
      snap.ptp = id;
      snap.node = replica.node;
      snap.frame = replica.frame;
      snap.hw_raw.assign(replica.words.begin(), replica.words.end());
      input.replicas.push_back(std::move(snap));
    });
  }
  ksm_->ForEachStable([&](uint64_t content, FrameNumber frame) {
    input.ksm_stable.emplace_back(content, frame);
  });
  for (const auto& task : tasks_) {
    if (!task->alive) {
      continue;
    }
    input.spaces.push_back(AuditSpace{task->mm.get(), task->pid, task->asid,
                                      task->IsZygoteLike(), task->dacr});
  }
  // A TLB entry may legally be stale while a covering flush sits in a
  // pending queue; hand the auditor the queues so it can tell that
  // window from a genuine under-flush.
  input.pending_flushes = machine_->PendingFlushesSnapshot();
  for (uint32_t c = 0; c < machine_->num_cores(); ++c) {
    Core& core = machine_->core(c);
    const MainTlb& main = core.main_tlb();
    for (uint32_t set = 0; set < main.num_sets(); ++set) {
      for (uint32_t way = 0; way < main.ways(); ++way) {
        const TlbEntry& entry = main.EntryAt(set, way);
        if (entry.valid) {
          input.tlb_entries.push_back(AuditTlbEntry{entry, c, "main"});
        }
      }
    }
    const auto collect_micro = [&](const MicroTlb& micro, const char* which) {
      for (uint32_t i = 0; i < micro.num_entries(); ++i) {
        if (micro.EntryAt(i).valid) {
          input.tlb_entries.push_back(AuditTlbEntry{micro.EntryAt(i), c, which});
        }
      }
    };
    collect_micro(core.micro_itlb(), "micro-i");
    collect_micro(core.micro_dtlb(), "micro-d");
  }
  return sat::AuditInvariants(input);
}

void Kernel::ScheduleTo(Task& task, uint32_t core_id) {
  SAT_CHECK(task.alive && "scheduling a dead task");
  SetCurrent(task, core_id);
  Tracer::Emit(tracer_.get(), TraceEventType::kContextSwitch, static_cast<uint32_t>(task.pid),
               task.asid, core_id);
  machine_->core(core_id).SwitchContext(ContextFor(task));
}

void Kernel::SetCurrent(Task& task, uint32_t core_id) {
  SAT_CHECK(core_id < machine_->num_cores());
  // Context switch is a batched-shootdown sync point: no stale window may
  // outlive the switch into another address space.
  SyncShootdowns();
  current_[core_id] = &task;
  task.cpu_mask |= CpuBit(core_id);
  task.last_core = core_id;
  SetActiveCore(core_id);
  if (task.IsZygoteLike()) {
    zygote_cpu_mask_ |= CpuBit(core_id);
  }
  machine_->core(core_id).SetContext(ContextFor(task));
}

}  // namespace sat
