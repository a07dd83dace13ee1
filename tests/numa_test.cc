// Tests for the NUMA page-table placement engine (src/numa): numad
// promotion and migration policy, write-through replica coherence,
// replica reclaim under pressure, scrubd majority-vote repair, and the
// per-node allocator accounting the engine rides on.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/sat.h"

namespace sat {
namespace {

SystemConfig NumaParams(uint32_t cores, uint32_t nodes,
                        PtPlacement placement, uint32_t threshold = 4) {
  SystemConfig params = ConfigByName("shared-ptp-tlb");
  params.num_cores = cores;
  params.num_nodes = nodes;
  params.pt_placement = placement;
  params.numad_remote_threshold = threshold;
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

TEST(NumaEngineTest, SingleNodeMachineHasNoEngine) {
  Kernel kernel{NumaParams(4, 1, PtPlacement::kReplicate)};
  EXPECT_EQ(kernel.numa(), nullptr);
}

TEST(NumaEngineTest, ReplicatePromotesHotPtpAndWalksGoLocal) {
  // Cores {0,1} on node 0, {2,3} on node 1.
  Kernel kernel{NumaParams(4, 2, PtPlacement::kReplicate)};
  ASSERT_NE(kernel.numa(), nullptr);
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 4));
  kernel.ScheduleTo(*task, 0);  // first-touch: frames + PTP on node 0
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.TouchPage(*task, 0x50000000 + i * kPageSize, AccessType::kWrite);
  }
  const auto ref = task->mm->page_table().FindPte(0x50000000);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(kernel.phys().NodeOfFrame(ref->ptp->frame()), 0u);

  // Node-1 touches accumulate remote walks past the promotion threshold.
  kernel.ScheduleTo(*task, 2);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.TouchPage(*task, 0x50000000 + (i % 4) * kPageSize,
                     AccessType::kRead);
  }
  EXPECT_GE(kernel.counters().numa_remote_walks, 4u);

  EXPECT_EQ(kernel.RunNumadPass(), 1u);
  EXPECT_EQ(kernel.numa()->replicated_ptps(), 1u);
  EXPECT_EQ(kernel.numa()->replica_count(), 1u);  // one per non-home node
  EXPECT_EQ(kernel.numa()->replica_bytes(), kPageSize);
  EXPECT_GE(kernel.counters().numa_replica_promotions, 1u);
  EXPECT_GE(kernel.counters().numad_runs, 1u);
  kernel.numa()->ForEachReplica([&](PtpId id, const NumaEngine::Replica& r) {
    EXPECT_EQ(id, ref->ptp->id());
    EXPECT_EQ(r.node, 1u);
    EXPECT_EQ(kernel.phys().NodeOfFrame(r.frame), 1u);
  });

  // Post-promotion, node-1 walks are served from the replica: the
  // replica-walk counter moves, the remote-walk counter does not.
  const uint64_t remote_before = kernel.counters().numa_remote_walks;
  const uint64_t replica_before = kernel.counters().numa_replica_walks;
  kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  EXPECT_GT(kernel.counters().numa_replica_walks, replica_before);
  EXPECT_EQ(kernel.counters().numa_remote_walks, remote_before);

  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(NumaEngineTest, WriteThroughKeepsReplicasCoherent) {
  Kernel kernel{NumaParams(4, 2, PtPlacement::kReplicate, /*threshold=*/2)};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 8));
  kernel.ScheduleTo(*task, 0);
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);
  kernel.ScheduleTo(*task, 2);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  }
  ASSERT_EQ(kernel.RunNumadPass(), 1u);

  // Mutations after promotion — a fresh fault (Set) and an unmap (Clear)
  // — must land in the replica through the write-through observer.
  kernel.TouchPage(*task, 0x50000000 + kPageSize, AccessType::kWrite);
  kernel.Munmap(*task, 0x50000000, kPageSize);
  EXPECT_GE(kernel.counters().numa_replica_updates, 2u);

  const auto ref = task->mm->page_table().FindPte(0x50000000 + kPageSize);
  ASSERT_TRUE(ref.has_value());
  uint32_t replicas_seen = 0;
  kernel.numa()->ForEachReplica([&](PtpId id, const NumaEngine::Replica& r) {
    replicas_seen++;
    for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
      ASSERT_EQ(r.words[i], kernel.ptp_allocator().Get(id).hw(i).raw())
          << "replica word " << i << " desynced";
    }
  });
  EXPECT_EQ(replicas_seen, 1u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(NumaEngineTest, MigrateMovesSoleOwnerPtpToDominantNode) {
  Kernel kernel{NumaParams(4, 2, PtPlacement::kMigrate, /*threshold=*/4)};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 2));
  kernel.ScheduleTo(*task, 0);
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);
  const auto ref = task->mm->page_table().FindPte(0x50000000);
  ASSERT_TRUE(ref.has_value());
  ASSERT_EQ(kernel.phys().NodeOfFrame(ref->ptp->frame()), 0u);

  kernel.ScheduleTo(*task, 2);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  }
  EXPECT_EQ(kernel.RunNumadPass(), 1u);
  EXPECT_EQ(kernel.counters().numa_ptp_migrations, 1u);
  // The PTP now lives wholesale on the dominant accessor's node; no
  // replica memory was spent.
  EXPECT_EQ(kernel.phys().NodeOfFrame(ref->ptp->frame()), 1u);
  EXPECT_EQ(kernel.numa()->replica_count(), 0u);

  // Translations were untouched; the page still reads fine and the
  // sharer count survived the frame move.
  EXPECT_EQ(ref->ptp->SharerCount(), 1u);
  EXPECT_TRUE(kernel.TouchPage(*task, 0x50000000, AccessType::kRead));
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(NumaEngineTest, ExitDropsReplicasWithTheirMaster) {
  Kernel kernel{NumaParams(4, 2, PtPlacement::kReplicate, /*threshold=*/2)};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 2));
  kernel.ScheduleTo(*task, 0);
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);
  kernel.ScheduleTo(*task, 2);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  }
  ASSERT_EQ(kernel.RunNumadPass(), 1u);
  ASSERT_EQ(kernel.numa()->replica_count(), 1u);

  const uint64_t free_before = kernel.phys().free_frames();
  kernel.Exit(*task);
  // No stale replica may outlive its master, and the replica frame went
  // back to the allocator along with the task's own memory.
  EXPECT_EQ(kernel.numa()->replica_count(), 0u);
  EXPECT_GT(kernel.phys().free_frames(), free_before);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(NumaEngineTest, ReclaimSacrificesReplicasAndTheyComeBack) {
  Kernel kernel{NumaParams(4, 2, PtPlacement::kReplicate, /*threshold=*/2)};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 2));
  kernel.ScheduleTo(*task, 0);
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);
  kernel.ScheduleTo(*task, 2);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  }
  ASSERT_EQ(kernel.RunNumadPass(), 1u);

  const uint64_t free_before = kernel.phys().free_frames();
  EXPECT_EQ(kernel.numa()->ReclaimReplicas(1), 1u);
  EXPECT_EQ(kernel.numa()->replica_count(), 0u);
  EXPECT_EQ(kernel.counters().numa_replica_reclaims, 1u);
  EXPECT_EQ(kernel.phys().free_frames(), free_before + 1);

  // The PTP is still walk-hot from node 1, so the next numad pass simply
  // re-promotes it — reclaim trades locality, never correctness.
  kernel.ScheduleTo(*task, 2);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  }
  EXPECT_EQ(kernel.RunNumadPass(), 1u);
  EXPECT_EQ(kernel.numa()->replica_count(), 1u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(NumaEngineTest, ScrubSweepVotesRottenWordsBackToHealth) {
  // Four nodes, one core each: promotion yields three replicas, so
  // {master, r0, r1, r2} can outvote a rotten master 3-to-1.
  Kernel kernel{NumaParams(4, 4, PtPlacement::kReplicate, /*threshold=*/4)};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 2));
  kernel.ScheduleTo(*task, 0);
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);
  for (uint32_t core : {1u, 2u, 3u}) {
    kernel.ScheduleTo(*task, core);
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  }
  ASSERT_EQ(kernel.RunNumadPass(), 1u);
  ASSERT_EQ(kernel.numa()->replica_count(), 3u);

  const auto ref = task->mm->page_table().FindPte(0x50000000);
  ASSERT_TRUE(ref.has_value());
  const PtpId id = ref->ptp->id();
  const uint32_t index = ref->index;
  const uint32_t healthy = ref->ptp->hw(index).raw();

  // Rot in one replica: the master-majority side rewrites the replica.
  ASSERT_TRUE(kernel.numa()->CorruptReplicaForChaos(0, index, 0x2));
  EXPECT_EQ(kernel.numa()->ScrubReplicaSweep(), 1u);
  EXPECT_EQ(kernel.counters().numa_replica_repairs, 1u);

  // Rot in the master: three bit-identical replicas outvote it, and the
  // RepairHw write-through reconverges everyone on the healthy word.
  kernel.ptp_allocator().Get(id).CorruptHwForChaos(index, 0x2);
  EXPECT_GE(kernel.numa()->ScrubReplicaSweep(), 1u);
  EXPECT_GE(kernel.counters().numa_master_repairs, 1u);
  EXPECT_EQ(kernel.ptp_allocator().Get(id).hw(index).raw(), healthy);
  kernel.numa()->ForEachReplica(
      [&](PtpId /*ptp*/, const NumaEngine::Replica& r) {
        EXPECT_EQ(r.words[index], healthy);
      });
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(NumaEngineTest, SharedZygotePtpGetsOneReplicaPerNodeNotPerProcess) {
  ZygoteSystem system(
      NumaParams(4, 2, PtPlacement::kReplicate, /*threshold=*/2));
  Kernel& kernel = system.kernel();
  Task* a = system.ForkApp("a");
  Task* b = system.ForkApp("b");

  const LibraryImage* libc = system.catalog().FindByName("libc.so");
  ASSERT_NE(libc, nullptr);
  const VirtAddr code_va = system.CodePageVa(libc->id, 0);
  // Both apps walk the shared zygote code from node 1.
  kernel.ScheduleTo(*a, 2);
  kernel.ScheduleTo(*b, 3);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.TouchPage(*a, code_va, AccessType::kExecute);
    kernel.TouchPage(*b, code_va, AccessType::kExecute);
  }
  ASSERT_GE(kernel.RunNumadPass(), 1u);

  // The shared PTP is replicated once per non-home node — never once per
  // sharing process (that is the whole memory argument of sharing).
  bool saw_shared = false;
  std::vector<PtpId> seen;
  kernel.numa()->ForEachReplica([&](PtpId id, const NumaEngine::Replica& r) {
    EXPECT_EQ(r.node, 1u);  // two nodes: only node 1 can hold a replica
    for (PtpId prior : seen) {
      EXPECT_NE(prior, id) << "two replicas of ptp " << id << " on one node";
    }
    seen.push_back(id);
    saw_shared |= kernel.ptp_allocator().Get(id).SharerCount() >= 2;
  });
  EXPECT_TRUE(saw_shared);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(NumaEngineTest, NumadTicksOffTheKswapdWakePlumbing) {
  KernelParams params = NumaParams(4, 2, PtPlacement::kReplicate,
                                   /*threshold=*/2);
  params.numad_wake_interval = 4;  // every 4th kernel wake point
  Kernel kernel(params);
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, Anon(0x50000000, 8));
  kernel.ScheduleTo(*task, 0);
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);
  kernel.ScheduleTo(*task, 2);
  for (uint32_t i = 0; i < 16; ++i) {
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  }
  // No explicit RunNumadPass: the touches alone drove the daemon.
  EXPECT_GE(kernel.counters().numad_runs, 1u);
  EXPECT_GE(kernel.counters().numa_replica_promotions, 1u);
  EXPECT_EQ(kernel.numa()->replica_count(), 1u);
}

// ---------------------------------------------------------------------------
// Per-node allocator accounting (the kswapd-watermark satellite).
// ---------------------------------------------------------------------------

TEST(NumaPhysTest, NodeStrictAndFallbackAccounting) {
  PhysicalMemory phys(64 * kPageSize, /*num_nodes=*/2);
  EXPECT_EQ(phys.free_frames_on_node(0) + phys.free_frames_on_node(1),
            phys.free_frames());

  // Drain node 0 (the zero frame already lives there).
  phys.set_preferred_node(0);
  while (phys.free_frames_on_node(0) > 0) {
    const auto frame = phys.TryAllocFrame(FrameKind::kAnon);
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(phys.NodeOfFrame(*frame), 0u);
  }
  EXPECT_EQ(phys.numa_fallbacks(), 0u);

  // Node 0 exhausted: the preferred-node allocation falls back remote and
  // says so; the node-strict variant refuses instead.
  const auto fallback = phys.TryAllocFrame(FrameKind::kAnon);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(phys.NodeOfFrame(*fallback), 1u);
  EXPECT_EQ(phys.numa_fallbacks(), 1u);
  EXPECT_FALSE(phys.TryAllocFrameOnNode(0, FrameKind::kAnon).has_value());
  const auto strict = phys.TryAllocFrameOnNode(1, FrameKind::kPageTable);
  ASSERT_TRUE(strict.has_value());
  EXPECT_EQ(phys.NodeOfFrame(*strict), 1u);
}

TEST(NumaPhysTest, ContiguousRunsPreferOneNodeAndCountStraddles) {
  // 48 frames, 24 per node: the 16-aligned runs are [0,16) on node 0,
  // [16,32) straddling, [32,48) on node 1.
  PhysicalMemory phys(48 * kPageSize, /*num_nodes=*/2);
  phys.set_preferred_node(1);
  const auto run = phys.TryAllocContiguousFrames(16, FrameKind::kAnon);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(phys.NodeOfFrame(*run), phys.NodeOfFrame(*run + 15));
  EXPECT_EQ(phys.numa_cross_node_runs(), 0u);

  // Exhaust everything, then free exactly the straddling window: only a
  // cross-node run can satisfy the next request, and it is counted.
  std::vector<FrameNumber> singles;
  while (const auto f = phys.TryAllocFrame(FrameKind::kAnon)) {
    singles.push_back(*f);
  }
  for (FrameNumber f = 16; f < 32; ++f) {
    phys.UnrefFrame(f);
  }
  const auto straddle = phys.TryAllocContiguousFrames(16, FrameKind::kAnon);
  ASSERT_TRUE(straddle.has_value());
  EXPECT_EQ(*straddle, 16u);
  EXPECT_NE(phys.NodeOfFrame(*straddle), phys.NodeOfFrame(*straddle + 15));
  EXPECT_EQ(phys.numa_cross_node_runs(), 1u);
}

TEST(NumaKernelTest, KswapdWakesOnNodePressureAndEatsReplicasFirst) {
  // Small machine with swap so kswapd can actually run; node 0 will be
  // squeezed while the global watermark still looks healthy.
  KernelParams params = NumaParams(2, 2, PtPlacement::kReplicate,
                                   /*threshold=*/2);
  params.phys_bytes = 16ull * 1024 * 1024;
  params.swap_bytes = 16ull * 1024 * 1024;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("t");
  kernel.ScheduleTo(*task, 0);
  // Build one replica to sacrifice.
  kernel.Mmap(*task, Anon(0x50000000, 2));
  kernel.TouchPage(*task, 0x50000000, AccessType::kWrite);
  kernel.ScheduleTo(*task, 1);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.TouchPage(*task, 0x50000000, AccessType::kRead);
  }
  ASSERT_EQ(kernel.RunNumadPass(), 1u);
  ASSERT_EQ(kernel.numa()->replica_count(), 1u);

  // Direct pressure relief must free the replica before swapping pages.
  EXPECT_TRUE(kernel.RelieveMemoryPressure(nullptr));
  EXPECT_EQ(kernel.numa()->replica_count(), 0u);
  EXPECT_EQ(kernel.counters().numa_replica_reclaims, 1u);
  EXPECT_EQ(kernel.counters().direct_reclaims, 0u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace sat
