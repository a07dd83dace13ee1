#include "src/hw/machine.h"

#include "src/arch/check.h"
#include "src/trace/trace.h"

namespace sat {

namespace {

// Pending-queue cap per initiator. A mutator that outruns its own sync
// points (a huge munmap, a full swap-out pass) collapses the queue into
// one flush-everything entry instead of growing without bound — exactly
// the kernel's full-flush heuristic for large ranges.
constexpr size_t kPendingFlushCap = 64;

}  // namespace

Machine::Machine(const CostModel* costs, KernelCounters* kernel_counters,
                 PhysAddr kernel_text_base, const CoreConfig& config,
                 uint32_t num_cores, uint32_t num_nodes,
                 ShootdownPolicy shootdown_policy)
    : costs_(costs),
      kernel_counters_(kernel_counters),
      l2_(CacheHierarchy::MakeL2()),
      num_nodes_(num_nodes),
      policy_(shootdown_policy) {
  // CpuMask is 64-bit: more cores than mask bits would overflow every
  // cpumask the kernel keeps.
  SAT_CHECK(num_cores >= 1 && num_cores <= 64 &&
            "core count exceeds the cpumask width");
  SAT_CHECK(num_nodes >= 1 && num_nodes <= num_cores &&
            num_cores % num_nodes == 0 &&
            "cores must split evenly across NUMA nodes");
  for (uint32_t i = 0; i < num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(costs, &l2_, kernel_counters,
                                            kernel_text_base, config));
  }
  pending_.resize(num_cores);
}

void Machine::DeliverIpis(CpuMask targets, uint32_t initiator) {
  // A CPU never interrupts itself: local flushes are synchronous.
  SAT_CHECK((targets & CpuBit(initiator)) == 0 &&
            "self-IPI: the initiator belongs in no remote target mask");
  for (uint32_t i = 0; i < num_cores(); ++i) {
    if ((targets & CpuBit(i)) == 0) {
      continue;
    }
    // IPI round trip, charged to the initiating core, which waits for
    // the acknowledgement. Crossing the interconnect to another NUMA
    // node costs extra.
    stats_.ipis++;
    if (kernel_counters_ != nullptr) {
      kernel_counters_->tlb_shootdown_ipis++;
    }
    Cycles cost = costs_->tlb_shootdown_ipi;
    if (NodeOfCore(i) != NodeOfCore(initiator)) {
      cost += costs_->numa_remote_ipi;
    }
    cores_[initiator]->counters().cycles += cost;
    Tracer::Emit(tracer_, TraceEventType::kTlbIpi, 0, i);
  }
}

void Machine::Enqueue(uint32_t initiator, PendingFlush pending) {
  pending.mask &= AllCoresMask(num_cores()) & ~CpuBit(initiator);
  if (pending.mask == 0) {
    return;  // no remote core to reach — nothing deferred
  }
  stats_.batched_entries++;
  if (kernel_counters_ != nullptr) {
    kernel_counters_->tlb_batched_flushes++;
  }
  std::vector<PendingFlush>& queue = pending_[initiator];
  if (queue.size() >= kPendingFlushCap) {
    CpuMask all = pending.mask;
    for (const PendingFlush& p : queue) {
      all |= p.mask;
    }
    queue.clear();
    queue.push_back(PendingFlush{TlbFlush::All(), all});
    stats_.batch_overflows++;
    return;
  }
  queue.push_back(pending);
}

void Machine::DrainPendingFlushes(uint32_t initiator) {
  std::vector<PendingFlush>& queue = pending_[initiator];
  if (queue.empty()) {
    return;
  }
  stats_.batch_drains++;
  if (kernel_counters_ != nullptr) {
    kernel_counters_->tlb_batch_drains++;
  }
  TraceSpan span(tracer_, TraceEventType::kTlbShootdown);
  CpuMask targets = 0;
  for (const PendingFlush& p : queue) {
    targets |= p.mask;
    for (uint32_t i = 0; i < num_cores(); ++i) {
      if (p.mask & CpuBit(i)) {
        cores_[i]->Flush(p.flush);
      }
    }
  }
  span.set_args(queue.size(), targets);
  queue.clear();
  // One batched IPI per distinct remote core, however many flush entries
  // targeted it — the whole point of deferring.
  DeliverIpis(targets, initiator);
}

void Machine::DrainAllPendingFlushes() {
  for (uint32_t i = 0; i < num_cores(); ++i) {
    DrainPendingFlushes(i);
  }
}

bool Machine::HasPendingFlushes() const {
  for (const std::vector<PendingFlush>& queue : pending_) {
    if (!queue.empty()) {
      return true;
    }
  }
  return false;
}

std::vector<PendingFlush> Machine::PendingFlushesSnapshot() const {
  std::vector<PendingFlush> all;
  for (const std::vector<PendingFlush>& queue : pending_) {
    all.insert(all.end(), queue.begin(), queue.end());
  }
  return all;
}

void Machine::Shootdown(const TlbFlush& flush, CpuMask mask,
                        uint32_t initiator) {
  // The span covers the remote flushes, so its duration captures the IPI
  // cycles the initiator spends waiting. Its `a` payload names the target:
  // the ASID, the virtual page, or 0 for a full flush.
  TraceSpan span(tracer_, TraceEventType::kTlbShootdown);
  uint64_t target = 0;
  if (flush.kind == TlbFlush::Kind::kAsid) {
    target = flush.asid;
  } else if (flush.kind == TlbFlush::Kind::kVa) {
    target = VirtPageNumber(flush.va);
  }
  span.set_args(target, mask);
  stats_.shootdowns++;
  if (policy_ == ShootdownPolicy::kBatched) {
    if (mask & CpuBit(initiator)) {
      cores_[initiator]->Flush(flush);
    }
    Enqueue(initiator, PendingFlush{flush, mask});
    return;
  }
  CpuMask remote = 0;
  for (uint32_t i = 0; i < num_cores(); ++i) {
    if ((mask & CpuBit(i)) == 0) {
      continue;
    }
    cores_[i]->Flush(flush);
    if (i != initiator) {
      remote |= CpuBit(i);
    }
  }
  DeliverIpis(remote, initiator);
}

CoreCounters Machine::TotalCounters() const {
  CoreCounters total;
  for (const auto& core : cores_) {
    total += core->counters();
  }
  return total;
}

Cycles Machine::TotalCycles() const {
  Cycles total = 0;
  for (const auto& core : cores_) {
    total += core->counters().cycles;
  }
  return total;
}

void Machine::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  for (auto& core : cores_) {
    core->set_tracer(tracer);
  }
}

}  // namespace sat
