// Tests for the multi-core extension: TLB shootdowns over cpumasks, IPI
// cost accounting, and cross-core correctness of unsharing.

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <vector>

#include "src/core/sat.h"

namespace sat {
namespace {

SystemConfig SmpParams(uint32_t cores, bool share = true) {
  SystemConfig params = ConfigByName(share ? "shared-ptp-tlb" : "stock");
  params.num_cores = cores;
  return params;
}

MmapRequest Anon(VirtAddr at, uint32_t pages) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = at;
  return request;
}

TEST(MachineTest, CoresShareTheL2) {
  Kernel kernel{SmpParams(2)};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 1));
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);

  kernel.SetCurrent(*task, 0);
  kernel.core(0).Load(0x50000000);  // cold: L2 filled
  const uint64_t l2_misses = kernel.core(1).counters().l2_misses;
  kernel.SetCurrent(*task, 1);
  kernel.core(1).Load(0x50000000);  // L1 misses on core 1 (data + PTE
                                    // walk), but both lines hit the L2
  EXPECT_EQ(kernel.core(1).counters().l2_misses, l2_misses);
  EXPECT_EQ(kernel.core(1).counters().l1d_misses, 2u);
}

TEST(MachineTest, ShootdownFlushesMaskedCoresOnly) {
  Kernel kernel{SmpParams(4)};
  Machine& machine = kernel.machine();
  // Seed the same entry into three cores' TLBs by hand.
  TlbEntry entry;
  entry.valid = true;
  entry.vpn = 0x40000;
  entry.size_pages = 1;
  entry.asid = 9;
  entry.domain = kDomainUser;
  entry.perm = PtePerm::kReadOnly;
  entry.executable = true;
  for (uint32_t core : {0u, 1u, 2u}) {
    machine.core(core).main_tlb().Insert(entry);
  }

  machine.Shootdown(TlbFlush::ForAsid(9), /*mask=*/0b011, /*initiator=*/0);
  EXPECT_EQ(machine.core(0).main_tlb().ValidEntryCount(), 0u);
  EXPECT_EQ(machine.core(1).main_tlb().ValidEntryCount(), 0u);
  EXPECT_EQ(machine.core(2).main_tlb().ValidEntryCount(), 1u);  // not masked
  EXPECT_EQ(machine.shootdown_stats().shootdowns, 1u);
  EXPECT_EQ(machine.shootdown_stats().ipis, 1u);  // core 1 only
}

TEST(MachineTest, IpiCostChargedToInitiator) {
  Kernel kernel{SmpParams(4)};
  Machine& machine = kernel.machine();
  const Cycles before0 = machine.core(0).counters().cycles;
  const Cycles before2 = machine.core(2).counters().cycles;
  machine.Shootdown(TlbFlush::ForVa(0x40000000), /*mask=*/0b1111, /*initiator=*/2);
  // Core 2 pays three IPI round trips; core 0 pays nothing.
  EXPECT_EQ(machine.core(2).counters().cycles - before2,
            3 * kernel.costs().tlb_shootdown_ipi);
  EXPECT_EQ(machine.core(0).counters().cycles, before0);
}

TEST(SmpKernelTest, CpumaskTracksWhereTheTaskRan) {
  Kernel kernel{SmpParams(4)};
  Task* task = kernel.CreateTask("t");
  EXPECT_EQ(task->cpu_mask, 0u);
  kernel.ScheduleTo(*task, 1);
  kernel.ScheduleTo(*task, 3);
  EXPECT_EQ(task->cpu_mask, 0b1010u);
  EXPECT_EQ(task->last_core, 3u);
}

TEST(SmpKernelTest, UnshareShootsDownEveryCoreTheTaskUsed) {
  // A plain (non-zygote) parent: its code mappings are not global, so the
  // TLB entries are ASID-tagged and the shootdown's effect is observable
  // as fresh walks. (Global zygote-code entries deliberately survive an
  // ASID shootdown — their translations are unchanged by an unshare.)
  KernelParams params = SmpParams(4);
  Kernel kernel(params);
  Task* zygote = kernel.CreateTask("parent");
  MmapRequest code;
  code.length = 8 * kPageSize;
  code.prot = VmProt::ReadExec();
  code.kind = VmKind::kFilePrivate;
  code.file = 7;
  code.fixed_address = 0x40000000;
  kernel.Mmap(*zygote, code);
  MmapRequest data;
  data.length = 8 * kPageSize;
  data.prot = VmProt::ReadWrite();
  data.kind = VmKind::kFilePrivate;
  data.file = 7;
  data.file_page_offset = 8;
  data.fixed_address = 0x40008000;  // same 2 MB slot as the code
  kernel.Mmap(*zygote, data);
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);
  Task* app = kernel.Fork(*zygote, "app").child;

  // The app executes the shared code on cores 0 and 2, loading TLB
  // entries on both.
  kernel.ScheduleTo(*app, 0);
  EXPECT_TRUE(kernel.core(0).FetchLine(0x40000000));
  kernel.ScheduleTo(*app, 2);
  EXPECT_TRUE(kernel.core(2).FetchLine(0x40000000));

  // A write into the same slot unshares: the shootdown must reach both
  // cores the app ran on.
  kernel.machine().ResetShootdownStats();
  EXPECT_TRUE(kernel.TouchPage(*app, 0x40008000, AccessType::kWrite));
  EXPECT_GE(kernel.machine().shootdown_stats().shootdowns, 1u);
  EXPECT_GE(kernel.machine().shootdown_stats().ipis, 1u);

  // Core 0's stale entry for the app's ASID is gone (its next fetch walks
  // the now-private table).
  const uint64_t walks_before = kernel.core(0).counters().itlb_main_misses;
  kernel.ScheduleTo(*app, 0);
  EXPECT_TRUE(kernel.core(0).FetchLine(0x40000000));
  EXPECT_GT(kernel.core(0).counters().itlb_main_misses, walks_before);
}

TEST(SmpKernelTest, ShootdownSkipsCoresTheTaskNeverUsed) {
  Kernel kernel{SmpParams(4)};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 64));
  kernel.ScheduleTo(*task, 1);  // only ever core 1
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);

  kernel.machine().ResetShootdownStats();
  kernel.Munmap(*task, 0x50000000, 64 * kPageSize);
  // Flushes happened, but no IPIs: the mask is {core 1} and core 1
  // initiates.
  EXPECT_GT(kernel.machine().shootdown_stats().shootdowns, 0u);
  EXPECT_EQ(kernel.machine().shootdown_stats().ipis, 0u);
}

// munmap and mprotect shoot their range down once, page by page
// (Kernel::FlushRange): no whole-ASID flush rides along, and no stale
// entry survives on either core.
TEST(SmpKernelTest, MunmapAndMprotectFlushOnlyTheirRange) {
  Kernel kernel{SmpParams(2, /*share=*/false)};
  Task* task = kernel.CreateTask("t");
  ASSERT_TRUE(kernel.Mmap(*task, Anon(0x50000000, 16)).ok());
  for (uint32_t core : {0u, 1u}) {
    kernel.ScheduleTo(*task, core);
    for (uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(kernel.core(core).Store(0x50000000 + i * kPageSize));
    }
  }
  ASSERT_EQ(kernel.core(0).main_tlb().ValidEntryCount(), 16u);
  ASSERT_EQ(kernel.core(1).main_tlb().ValidEntryCount(), 16u);
  const uint64_t asid_flushes = kernel.counters().tlb_asid_flushes;
  const uint64_t va_flushes = kernel.counters().tlb_va_flushes;

  ASSERT_TRUE(
      kernel.Mprotect(*task, 0x50000000, 8 * kPageSize, VmProt::ReadOnly())
          .ok());
  ASSERT_TRUE(kernel.Munmap(*task, 0x50008000, 8 * kPageSize).ok());
  EXPECT_EQ(kernel.counters().tlb_asid_flushes, asid_flushes);
  EXPECT_EQ(kernel.counters().tlb_va_flushes - va_flushes, 2u * 16u);
  EXPECT_EQ(kernel.core(0).main_tlb().ValidEntryCount(), 0u);
  EXPECT_EQ(kernel.core(1).main_tlb().ValidEntryCount(), 0u);
  const AuditReport audit = kernel.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

TEST(SmpKernelTest, TwoAppsOnTwoCoresShareAndDivergeCorrectly) {
  ZygoteSystem system(SmpParams(2));
  Kernel& kernel = system.kernel();
  Task* a = system.ForkApp("a");
  Task* b = system.ForkApp("b");
  kernel.ScheduleTo(*a, 0);
  kernel.ScheduleTo(*b, 1);

  const LibraryImage* libc = system.catalog().FindByName("libc.so");
  const VirtAddr code_va = system.CodePageVa(libc->id, 0);
  const VirtAddr data_va = system.DataPageVa(libc->id, 0);

  // Both execute the same shared code on their own cores.
  EXPECT_TRUE(kernel.core(0).FetchLine(code_va));
  EXPECT_TRUE(kernel.core(1).FetchLine(code_va));

  // App b writes library data (unshares its copy); app a's view of the
  // pristine data is unchanged.
  EXPECT_TRUE(kernel.core(1).Store(data_va));
  EXPECT_TRUE(kernel.core(0).Load(data_va));
  const auto ra = a->mm->page_table().FindPte(data_va);
  const auto rb = b->mm->page_table().FindPte(data_va);
  EXPECT_NE(ra->ptp->hw(ra->index).frame(), rb->ptp->hw(rb->index).frame());
  EXPECT_TRUE(a->mm->page_table().SlotNeedsCopy(data_va));
  EXPECT_FALSE(b->mm->page_table().SlotNeedsCopy(data_va));
}

// Regression (shared-PTP under-flush): a munmap of a *global* mapping
// used to flush only the unmapping task's own cpu_mask, so a global TLB
// entry cached by some other zygote descendant on another core kept
// serving the dead translation (globals match every ASID, so any
// zygote-like task scheduled there could hit it). The flush mask must
// widen to every core zygote-domain code has run on.
TEST(SmpKernelTest, GlobalEntryFlushedOnCoresOtherSharersUsed) {
  Kernel kernel{SmpParams(2)};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", /*is_zygote=*/true);
  MmapRequest code;
  code.length = 8 * kPageSize;
  code.prot = VmProt::ReadExec();
  code.kind = VmKind::kFilePrivate;
  code.file = 7;
  code.fixed_address = 0x40000000;
  kernel.Mmap(*zygote, code);
  kernel.ScheduleTo(*zygote, 0);
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);

  // A forked app executes the shared code on core 1 and caches a GLOBAL
  // entry there, then exits (a non-zygote exit legitimately leaves
  // global entries in place — their translations are still live).
  Task* app = kernel.Fork(*zygote, "app").child;
  kernel.ScheduleTo(*app, 1);
  EXPECT_TRUE(kernel.core(1).FetchLine(0x40000000));
  kernel.Exit(*app);

  // The zygote, on core 0, unmaps the region. Pre-fix the flush mask was
  // {core 0}; core 1's global entry survived and kept translating.
  kernel.ScheduleTo(*zygote, 0);
  kernel.Munmap(*zygote, 0x40000000, 8 * kPageSize);

  kernel.ScheduleTo(*zygote, 1);
  EXPECT_FALSE(kernel.core(1).FetchLine(0x40000000));
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Satellite: cpumask arithmetic at 64 cores. With a 32-bit mask (or
// `1u << core`), scheduling to core 63 is UB and the shootdown below
// would never reach it.
TEST(SmpKernelTest, SixtyFourCoreSmokeUsesHighMaskBits) {
  Kernel kernel{SmpParams(64)};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 4));
  kernel.ScheduleTo(*task, 63);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.TouchPage(*task, 0x50000000 + i * kPageSize, AccessType::kWrite);
  }
  EXPECT_EQ(task->cpu_mask, 1ull << 63);
  kernel.ScheduleTo(*task, 0);
  EXPECT_EQ(task->cpu_mask, (1ull << 63) | 1u);

  kernel.machine().ResetShootdownStats();
  kernel.Munmap(*task, 0x50000000, 4 * kPageSize);  // must reach core 63
  EXPECT_GE(kernel.machine().shootdown_stats().ipis, 1u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Regression (initiator mis-attribution): daemon-path shootdowns
// (swap-out, reclaim, ksmd) used to hardcode initiator=0, charging the
// IPI round trips to core 0 no matter where the daemon actually ran.
// They must bill the core whose kernel entry drove the pass.
TEST(SmpKernelTest, DaemonShootdownsChargeTheInitiatingCore) {
  KernelParams params = SmpParams(4);
  params.swap_bytes = 16ull * 1024 * 1024;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 16));
  kernel.ScheduleTo(*task, 1);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.TouchPage(*task, 0x50000000 + i * kPageSize, AccessType::kWrite);
  }
  // The swap pass runs from core 3's kernel entry; the sharer mask spans
  // cores 1 and 3, so the IPIs (to core 1) are core 3's to pay.
  kernel.ScheduleTo(*task, 3);
  kernel.machine().ResetShootdownStats();
  const Cycles core0_before = kernel.core(0).counters().cycles;
  kernel.SwapOutAnonPages(16);
  EXPECT_GT(kernel.machine().shootdown_stats().ipis, 0u);
  EXPECT_EQ(kernel.core(0).counters().cycles, core0_before);
}

// ---------------------------------------------------------------------------
// Batched (deferred) shootdowns.
// ---------------------------------------------------------------------------

// The visibility window itself: under the batched policy a remote TLB
// keeps serving the stale entry — with zero IPIs sent — until the next
// drain, which applies every queued flush with one IPI per distinct
// remote target.
TEST(MachineTest, BatchedPolicyDefersRemoteFlushesUntilDrain) {
  KernelParams params = SmpParams(4);
  params.shootdown_policy = ShootdownPolicy::kBatched;
  Kernel kernel(params);
  Machine& machine = kernel.machine();
  TlbEntry entry;
  entry.valid = true;
  entry.vpn = 0x40000;
  entry.size_pages = 1;
  entry.asid = 9;
  entry.domain = kDomainUser;
  entry.perm = PtePerm::kReadOnly;
  entry.executable = true;
  for (uint32_t core : {0u, 1u, 2u}) {
    machine.core(core).main_tlb().Insert(entry);
  }

  machine.Shootdown(TlbFlush::ForAsid(9), /*mask=*/0b0111, /*initiator=*/0);
  // The initiator flushes synchronously; the remotes are only enqueued.
  EXPECT_EQ(machine.core(0).main_tlb().ValidEntryCount(), 0u);
  EXPECT_EQ(machine.core(1).main_tlb().ValidEntryCount(), 1u);
  EXPECT_EQ(machine.core(2).main_tlb().ValidEntryCount(), 1u);
  EXPECT_EQ(machine.shootdown_stats().ipis, 0u);
  EXPECT_TRUE(machine.HasPendingFlushes());
  // The auditor's exemption input sees the window: a covering entry with
  // both remote cores in its mask.
  const auto pending = machine.PendingFlushesSnapshot();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].flush.kind, TlbFlush::Kind::kAsid);
  EXPECT_EQ(pending[0].flush.asid, 9);
  EXPECT_EQ(pending[0].mask, 0b0110u);

  machine.DrainPendingFlushes(0);
  EXPECT_EQ(machine.core(1).main_tlb().ValidEntryCount(), 0u);
  EXPECT_EQ(machine.core(2).main_tlb().ValidEntryCount(), 0u);
  EXPECT_EQ(machine.shootdown_stats().ipis, 2u);  // one per remote target
  EXPECT_EQ(machine.shootdown_stats().batch_drains, 1u);
  EXPECT_FALSE(machine.HasPendingFlushes());
}

// Queue overflow collapses to a full flush instead of dropping entries.
TEST(MachineTest, BatchedQueueOverflowCollapsesToFullFlush) {
  KernelParams params = SmpParams(2);
  params.shootdown_policy = ShootdownPolicy::kBatched;
  Kernel kernel(params);
  Machine& machine = kernel.machine();
  TlbEntry entry;
  entry.valid = true;
  entry.vpn = 0x90000;
  entry.size_pages = 1;
  entry.asid = 3;
  entry.domain = kDomainUser;
  entry.perm = PtePerm::kReadOnly;
  machine.core(1).main_tlb().Insert(entry);

  // Far more distinct VAs than the queue holds — none covering the entry
  // above, so only the overflow collapse can flush it.
  for (uint32_t i = 0; i < 100; ++i) {
    machine.Shootdown(TlbFlush::ForVa(0x50000000 + i * kPageSize), 0b11, /*initiator=*/0);
  }
  EXPECT_GT(machine.shootdown_stats().batch_overflows, 0u);
  machine.DrainPendingFlushes(0);
  EXPECT_EQ(machine.core(1).main_tlb().ValidEntryCount(), 0u);
  EXPECT_EQ(machine.shootdown_stats().ipis, 1u);
}

// One element of a per-core TLB state snapshot, ordered so two runs'
// snapshots can be compared wholesale.
struct TlbKey {
  uint32_t core;
  uint32_t vpn;
  uint32_t size_pages;
  Asid asid;
  bool global;
  FrameNumber frame;
  auto operator<=>(const TlbKey&) const = default;
};

std::vector<TlbKey> SnapshotTlbs(Kernel& kernel) {
  std::vector<TlbKey> keys;
  for (uint32_t c = 0; c < kernel.machine().num_cores(); ++c) {
    const MainTlb& tlb = kernel.core(c).main_tlb();
    for (uint32_t set = 0; set < tlb.num_sets(); ++set) {
      for (uint32_t way = 0; way < tlb.ways(); ++way) {
        const TlbEntry& e = tlb.EntryAt(set, way);
        if (e.valid) {
          keys.push_back({c, e.vpn, e.size_pages, e.asid, e.global, e.frame});
        }
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct PolicyRun {
  std::vector<TlbKey> tlb;
  uint64_t ipis = 0;
  uint64_t faults = 0;
  bool audit_ok = false;
};

// One deterministic unshare-heavy workload, parameterized only by the
// shootdown policy.
PolicyRun RunShootdownWorkload(ShootdownPolicy policy) {
  KernelParams params = SmpParams(4);
  params.shootdown_policy = policy;
  Kernel kernel(params);
  Task* parent = kernel.CreateTask("parent");
  MmapRequest code;
  code.length = 8 * kPageSize;
  code.prot = VmProt::ReadExec();
  code.kind = VmKind::kFilePrivate;
  code.file = 7;
  code.fixed_address = 0x40000000;
  kernel.Mmap(*parent, code);
  MmapRequest data;
  data.length = 8 * kPageSize;
  data.prot = VmProt::ReadWrite();
  data.kind = VmKind::kFilePrivate;
  data.file = 7;
  data.file_page_offset = 8;
  data.fixed_address = 0x40008000;
  kernel.Mmap(*parent, data);
  kernel.ScheduleTo(*parent, 0);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.TouchPage(*parent, 0x40000000 + i * kPageSize,
                     AccessType::kExecute);
  }

  Task* apps[3];
  for (uint32_t a = 0; a < 3; ++a) {
    apps[a] = kernel.Fork(*parent, "app").child;
  }
  // Each app executes shared code on two cores, then unshares by writing
  // library data from a third — every write shoots down the other cores.
  for (uint32_t a = 0; a < 3; ++a) {
    kernel.ScheduleTo(*apps[a], a % 4);
    kernel.core(a % 4).FetchLine(0x40000000 + a * kPageSize);
    kernel.ScheduleTo(*apps[a], (a + 1) % 4);
    kernel.core((a + 1) % 4).FetchLine(0x40000000 + a * kPageSize);
  }
  for (uint32_t a = 0; a < 3; ++a) {
    kernel.ScheduleTo(*apps[a], (a + 2) % 4);
    kernel.TouchPage(*apps[a], 0x40008000 + a * kPageSize,
                     AccessType::kWrite);
  }
  kernel.Munmap(*apps[0], 0x40008000, 8 * kPageSize);
  kernel.Exit(*apps[2]);

  PolicyRun run;
  run.tlb = SnapshotTlbs(kernel);
  run.ipis = kernel.machine().shootdown_stats().ipis;
  run.faults = kernel.counters().faults_file_backed;
  run.audit_ok = kernel.AuditInvariants().ok();
  return run;
}

// Batched and immediate shootdowns must converge to the same machine
// state at every sync point — batching only coalesces the IPIs. The
// simulator is sequential, so no core can observe the window between a
// mutation and the drain that ends its kernel entry.
TEST(SmpKernelTest, BatchedAndImmediatePoliciesConverge) {
  const PolicyRun immediate = RunShootdownWorkload(ShootdownPolicy::kImmediate);
  const PolicyRun batched = RunShootdownWorkload(ShootdownPolicy::kBatched);
  EXPECT_TRUE(immediate.audit_ok);
  EXPECT_TRUE(batched.audit_ok);
  EXPECT_EQ(immediate.faults, batched.faults);
  EXPECT_EQ(immediate.tlb.size(), batched.tlb.size());
  EXPECT_TRUE(immediate.tlb == batched.tlb);
  EXPECT_GT(immediate.ipis, 0u);
  EXPECT_LT(batched.ipis, immediate.ipis);
}

// ---------------------------------------------------------------------------
// NUMA.
// ---------------------------------------------------------------------------

// First-touch placement: the frame lands on the faulting core's node,
// and only off-node L2 misses pay the remote-DRAM surcharge.
TEST(SmpKernelTest, FirstTouchPlacementAndRemoteAccessCharging) {
  KernelParams params = SmpParams(4);
  params.num_nodes = 2;  // cores {0,1} node 0, cores {2,3} node 1
  Kernel kernel(params);
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 1));
  kernel.ScheduleTo(*task, 2);
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);
  const auto ref = task->mm->page_table().FindPte(0x50000000);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(kernel.phys().NodeOfFrame(ref->ptp->hw(ref->index).frame()), 1u);

  // Core 0 (node 0) takes the cold L2 misses against node-1 memory.
  kernel.SetCurrent(*task, 0);
  EXPECT_TRUE(kernel.core(0).Load(0x50000000));
  EXPECT_GE(kernel.core(0).counters().numa_remote_accesses, 1u);
  // Core 2 is node-local to the frame and is never charged.
  EXPECT_EQ(kernel.core(2).counters().numa_remote_accesses, 0u);
}

TEST(MachineTest, CrossNodeIpiPaysRemoteSurcharge) {
  KernelParams params = SmpParams(4);
  params.num_nodes = 2;
  Kernel kernel(params);
  Machine& machine = kernel.machine();
  const Cycles before = machine.core(0).counters().cycles;
  // Targets: core 1 (same node as the initiator) and core 2 (remote).
  machine.Shootdown(TlbFlush::ForVa(0x40000000), /*mask=*/0b0110, /*initiator=*/0);
  EXPECT_EQ(machine.core(0).counters().cycles - before,
            2 * kernel.costs().tlb_shootdown_ipi +
                kernel.costs().numa_remote_ipi);
}

TEST(SmpKernelTest, SingleCoreMachineNeverSendsIpis) {
  Kernel kernel{SmpParams(1)};
  Task* task = kernel.CreateTask("t");
  kernel.ScheduleTo(*task, 0);
  kernel.Mmap(*task, Anon(0x50000000, 32));
  for (uint32_t i = 0; i < 32; ++i) {
    kernel.TouchPage(*task, 0x50000000 + i * kPageSize, AccessType::kWrite);
  }
  kernel.Munmap(*task, 0x50000000, 32 * kPageSize);
  kernel.Exit(*task);
  EXPECT_EQ(kernel.machine().shootdown_stats().ipis, 0u);
}

}  // namespace
}  // namespace sat
