// The kernel invariant auditor (src/vm/audit): its own correctness, and
// its use as a fuzzing oracle.
//
//   * A freshly booted system audits clean; so does one that has run the
//     full cycle-level pipeline (populated TLBs, shared PTPs, globals).
//   * The auditor actually detects corruption (a deliberately skewed
//     frame reference count is reported, not absorbed).
//   * Randomized kernel-op fuzzing with deterministic allocation-failure
//     injection, auditing after EVERY step: >= 10k steps across the
//     suite (>= 12k of them with zram swap enabled, and another >= 12k
//     with KSM merging active), every intermediate state must be
//     internally consistent — including the states reached through
//     ENOMEM rollback, direct reclaim, swap-out/swap-in under injected
//     pool-allocation failures, OOM kills, and ksmd merge/unmerge.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "src/core/sat.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// Clean-state audits.
// ---------------------------------------------------------------------------

TEST(AuditTest, FreshBootedSystemAuditsClean) {
  System system(ConfigByName("shared-ptp-tlb-2mb"));
  const AuditReport report = system.kernel().AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 1000u);  // it really looked at things
}

TEST(AuditTest, CycleLevelRunAuditsClean) {
  // Drive the full pipeline so the TLBs hold live entries (global and
  // per-ASID, small and large pages) when the audit runs.
  SystemConfig config = ConfigByName("shared-ptp-tlb");
  config.large_code_pages = true;
  System system(config);
  Kernel& kernel = system.kernel();

  Task* app = system.android().ForkApp("audited");
  ASSERT_NE(app, nullptr);
  kernel.ScheduleTo(*app);
  const AppFootprint& boot = system.android().zygote_boot_footprint();
  for (size_t i = 0; i < 300; ++i) {
    const TouchedPage& page = boot.pages[(i * 13) % boot.pages.size()];
    kernel.core().FetchLine(
        system.android().CodePageVa(page.lib, page.page_index));
  }
  AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();

  kernel.Exit(*app);
  report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditTest, DetectsRefcountCorruption) {
  KernelParams params;
  params.phys_bytes = 16ull * 1024 * 1024;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("victim");
  MmapRequest request;
  request.length = 4 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  const VirtAddr at = kernel.Mmap(*task, request).value;
  ASSERT_NE(at, 0u);
  ASSERT_TRUE(kernel.TouchPage(*task, at, AccessType::kWrite));
  ASSERT_TRUE(kernel.AuditInvariants().ok());

  // Skew one anon frame's reference count behind the kernel's back.
  const auto ref = task->mm->page_table().FindPte(at);
  ASSERT_TRUE(ref.has_value());
  const FrameNumber frame = ref->ptp->hw(ref->index).frame();
  kernel.phys().RefFrame(frame);

  const AuditReport report = kernel.AuditInvariants();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const AuditViolation& violation : report.violations) {
    if (violation.check == "frame-refcount") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << report.ToString();

  kernel.phys().UnrefFrame(frame);  // restore for a clean teardown
  EXPECT_TRUE(kernel.AuditInvariants().ok());
}

TEST(AuditTest, DetectsStaleSharerListEntry) {
  // A sharer-list entry for a table whose L1 does not name the PTP would
  // aim shootdowns and oops kills at the wrong task. The audit compares
  // the list with the L1 entries table by table: swapping the owner for a
  // bystander keeps the count right and must still be caught.
  KernelParams params;
  params.phys_bytes = 16ull * 1024 * 1024;
  Kernel kernel(params);
  Task* owner = kernel.CreateTask("owner");
  Task* bystander = kernel.CreateTask("bystander");
  MmapRequest request;
  request.length = 4 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  const VirtAddr at = kernel.Mmap(*owner, request).value;
  ASSERT_NE(at, 0u);
  ASSERT_TRUE(kernel.TouchPage(*owner, at, AccessType::kWrite));
  ASSERT_TRUE(kernel.AuditInvariants().ok());

  PtpAllocator& ptps = kernel.ptp_allocator();
  const PageTable* owner_pt = &owner->mm->page_table();
  const PageTable* bystander_pt = &bystander->mm->page_table();
  const PtpId id = owner_pt->l1(PtpSlotIndex(at)).ptp;
  ASSERT_NE(bystander_pt->l1(PtpSlotIndex(at)).ptp, id);
  ptps.AddSharer(id, bystander_pt);
  ptps.DropSharer(id, owner_pt);
  ASSERT_EQ(ptps.Get(id).SharerCount(), 1u);  // the count still agrees

  const AuditReport report = kernel.AuditInvariants();
  bool found = false;
  for (const AuditViolation& violation : report.violations) {
    found |= violation.check == "ptp-sharers";
  }
  EXPECT_TRUE(found) << report.ToString();

  ptps.AddSharer(id, owner_pt);  // restore for a clean teardown
  ptps.DropSharer(id, bystander_pt);
  EXPECT_TRUE(kernel.AuditInvariants().ok());
}

TEST(AuditTest, SetPteOverRottedFrameBitsReleasesTheTrueOldFrame) {
  // SetPte over a descriptor whose frame bits rotted asks the rmap which
  // frame the site really maps, and must release that one, not the frame
  // it is installing: else the new frame is freed while mapped and the
  // old one leaks. Both orders of the two frame numbers are probed.
  for (const bool fresh_below : {true, false}) {
    SCOPED_TRACE(fresh_below ? "fresh frame below the old one"
                             : "fresh frame above the old one");
    KernelParams params;
    params.phys_bytes = 16ull * 1024 * 1024;
    Kernel kernel(params);
    PhysicalMemory& phys = kernel.phys();
    Task* task = kernel.CreateTask("victim");
    MmapRequest request;
    request.length = 2 * kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    const VirtAddr at = kernel.Mmap(*task, request).value;
    ASSERT_NE(at, 0u);
    // Frames are handed out lowest first: one taken before the writes
    // numbers below both pages, one taken after numbers above them.
    const FrameNumber early =
        fresh_below ? phys.AllocFrame(FrameKind::kAnon) : 0;
    ASSERT_EQ(kernel.WritePage(*task, at, 1), TouchStatus::kOk);
    ASSERT_EQ(kernel.WritePage(*task, at + kPageSize, 2), TouchStatus::kOk);
    const FrameNumber fresh =
        fresh_below ? early : phys.AllocFrame(FrameKind::kAnon);
    PageTable& pt = task->mm->page_table();
    const PteRef first = *pt.FindPte(at);
    const PteRef second = *pt.FindPte(at + kPageSize);
    const FrameNumber old_frame = first.ptp->hw(first.index).frame();
    const FrameNumber other = second.ptp->hw(second.index).frame();
    ASSERT_EQ(fresh < old_frame, fresh_below);

    // Rot the first descriptor into naming the second page's frame, then
    // install the fresh frame over it.
    first.ptp->CorruptHwForChaos(first.index, (old_frame ^ other)
                                                  << kPageShift);
    pt.SetPte(at,
              HwPte::MakePage(fresh, PtePerm::kReadWrite, /*global=*/false,
                              /*executable=*/false),
              first.ptp->sw(first.index));
    phys.UnrefFrame(fresh);  // the allocator's; the PTE holds its own

    EXPECT_EQ(phys.frame(old_frame).kind, FrameKind::kFree);
    EXPECT_EQ(phys.frame(fresh).ref_count, 1u);
    EXPECT_EQ(phys.frame(other).ref_count, 1u);
    EXPECT_EQ(kernel.rmap().MapCount(fresh), 1u);
    const AuditReport report = kernel.AuditInvariants();
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

// ---------------------------------------------------------------------------
// Fuzzing with the auditor as oracle, under allocation-failure injection.
// ---------------------------------------------------------------------------

struct AuditFuzzCase {
  uint64_t seed;
  bool share_ptps;
  bool hw_l1_wp;
  uint64_t swap_mb = 0;  // zram size; 0 disables swap for the case
  bool ksm = false;      // interleave madvise/WritePage/ksmd scans
  uint32_t cores = 1;    // >1 adds random cross-core migration
  bool batched = false;  // defer shootdowns to per-core queues
  bool chaos = false;    // seeded bit flips in PTEs/zram/TLB + scrubd
  bool huge = false;     // huged collapse/split (periodic and explicit)
  uint32_t nodes = 1;    // >1 boots a NUMA machine with the numaPTE engine
  uint32_t placement = 0;  // PtPlacement as int: 0 local, 1 repl., 2 migr.
};

class AuditFuzzTest : public ::testing::TestWithParam<AuditFuzzCase> {};

TEST_P(AuditFuzzTest, EveryIntermediateStateAuditsClean) {
  const AuditFuzzCase fuzz = GetParam();
  KernelParams params;
  // Small enough that genuine exhaustion happens on top of the injected
  // failures: both OOM paths (rollback and kill) run many times.
  params.phys_bytes = 24ull * 1024 * 1024;
  params.vm.share_ptps = fuzz.share_ptps;
  params.vm.hw_l1_write_protect = fuzz.hw_l1_wp;
  params.swap_bytes = fuzz.swap_mb * 1024 * 1024;
  params.fault_injection_seed = fuzz.seed * 97 + 1;
  params.num_cores = fuzz.cores;
  params.shootdown_policy = fuzz.batched ? ShootdownPolicy::kBatched
                                         : ShootdownPolicy::kImmediate;
  if (fuzz.ksm) {
    // Periodic ksmd wakes fire from inside TouchPage/Fork/Mmap, on top of
    // the explicit scan op below — merges happen at awkward moments.
    params.ksm_enabled = true;
    params.ksm_wake_interval = 7;
  }
  if (fuzz.chaos) {
    // Chaos cases: seeded bit flips land in live PTE words, zram slot
    // bytes, and TLB tags (MaybeInjectChaos, fired from the touch path).
    // Periodic scrubd wakes run on top of the explicit sweeps below.
    params.scrub = true;
    params.scrub_wake_interval = 17;
  }
  if (fuzz.huge) {
    // Periodic huged wakes collapse runs at awkward moments, on top of
    // the explicit scans below; munmap/mprotect/COW then split them
    // again. With KSM active the unmerge policy is on too, so collapses
    // eat stable frames back.
    params.huge = true;
    params.huge_wake_interval = 13;
    params.huge_unmerge_ksm = fuzz.ksm;
  }
  if (fuzz.nodes > 1) {
    // NUMA cases: the numaPTE engine write-through-replicates every PTE
    // mutation the ops below make; periodic numad wakes promote, migrate,
    // and (under reclaim pressure) sacrifice replicas at awkward moments.
    // A low promotion threshold keeps replicas churning at fuzz scale.
    params.num_nodes = fuzz.nodes;
    params.pt_placement = static_cast<PtPlacement>(fuzz.placement);
    params.numad_wake_interval = 11;
    params.numad_remote_threshold = 4;
  }
  Kernel kernel(params);
  kernel.fault_injector().SetRule(AllocSite::kFrame, FaultRule{0, 0, 0.02});
  kernel.fault_injector().SetRule(AllocSite::kPtp, FaultRule{0, 0, 0.02});
  kernel.fault_injector().SetRule(AllocSite::kContiguous,
                                  FaultRule{0, 0, 0.02});
  if (fuzz.swap_mb > 0) {
    // Compressed-pool growth must also survive ENOMEM mid-swap-out.
    kernel.fault_injector().SetRule(AllocSite::kZram, FaultRule{0, 0, 0.02});
  }
  if (fuzz.chaos) {
    kernel.fault_injector().SetCorruptRule(CorruptSite::kPteWord,
                                           FaultRule{0, 0, 0.01});
    kernel.fault_injector().SetCorruptRule(CorruptSite::kTlbTag,
                                           FaultRule{0, 0, 0.01});
    if (fuzz.swap_mb > 0) {
      kernel.fault_injector().SetCorruptRule(CorruptSite::kZramByte,
                                             FaultRule{0, 0, 0.01});
    }
    if (fuzz.nodes > 1) {
      // Replica words rot too; scrubd's majority vote across the replica
      // set (and the master) must repair them before the audit's
      // bit-identity check sees the damage.
      kernel.fault_injector().SetCorruptRule(CorruptSite::kNumaReplica,
                                             FaultRule{0, 0, 0.01});
    }
  }

  std::mt19937_64 rng(fuzz.seed);
  std::vector<Task*> live = {kernel.CreateTask("root")};
  std::map<Task*, std::vector<std::pair<VirtAddr, uint32_t>>> regions;

  for (int op = 0; op < 2000; ++op) {
    // Any op can OOM-kill bystanders: drop the dead before choosing.
    for (size_t i = live.size(); i-- > 0;) {
      if (!live[i]->alive) {
        regions.erase(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (live.empty()) {
      live.push_back(kernel.CreateTask("respawn"));
    }
    Task* task = live[rng() % live.size()];

    // On multi-core cases, migrate: the chosen task lands on a random
    // core, spreading TLB state (and shootdown masks) across cores. Each
    // switch is also a batched-drain sync point.
    if (fuzz.cores > 1 && rng() % 4 == 0) {
      kernel.ScheduleTo(*task, static_cast<uint32_t>(rng() % fuzz.cores));
    }

    const uint64_t op_count = fuzz.ksm ? 16 : (fuzz.swap_mb > 0 ? 13 : 12);
    switch (rng() % op_count) {
      case 0:
      case 1: {  // mmap
        MmapRequest request;
        const uint32_t pages = 1 + static_cast<uint32_t>(rng() % 64);
        request.length = pages * kPageSize;
        if (rng() % 2 == 0) {
          request.prot = VmProt::ReadWrite();
          request.kind = VmKind::kAnonPrivate;
          if (fuzz.ksm) {
            request.mergeable = rng() % 2 == 0;
          }
        } else {
          request.prot =
              (rng() % 2 == 0) ? VmProt::ReadExec() : VmProt::ReadWrite();
          request.kind = VmKind::kFilePrivate;
          request.file = static_cast<FileId>(rng() % 8);
          request.file_page_offset = static_cast<uint32_t>(rng() % 32);
        }
        const VirtAddr at = kernel.Mmap(*task, request).value;
        if (at != 0 && task->alive) {
          regions[task].push_back({at, pages});
        }
        break;
      }
      case 2: {  // munmap (may OOM-kill the caller as last resort)
        auto& list = regions[task];
        if (list.empty()) {
          break;
        }
        const size_t index = rng() % list.size();
        auto [start, pages] = list[index];
        const uint32_t drop = 1 + static_cast<uint32_t>(rng() % pages);
        kernel.Munmap(*task, start, drop * kPageSize);
        if (drop == pages) {
          list.erase(list.begin() + static_cast<std::ptrdiff_t>(index));
        } else {
          list[index] = {start + drop * kPageSize, pages - drop};
        }
        break;
      }
      case 3: {  // mprotect
        auto& list = regions[task];
        if (list.empty()) {
          break;
        }
        auto [start, pages] = list[rng() % list.size()];
        const VmProt prot =
            (rng() % 2 == 0) ? VmProt::ReadOnly() : VmProt::ReadWrite();
        kernel.Mprotect(*task, start, pages * kPageSize, prot);
        break;
      }
      case 4:
      case 5:
      case 6:
      case 7: {  // touch (every outcome is legal; state must stay sound)
        auto& list = regions[task];
        if (list.empty()) {
          break;
        }
        auto [start, pages] = list[rng() % list.size()];
        const VirtAddr va =
            start + static_cast<uint32_t>(rng() % pages) * kPageSize;
        const VmArea* vma = task->mm->FindVma(va);
        if (vma == nullptr) {
          break;
        }
        const AccessType access = vma->prot.write && (rng() % 2 == 0)
                                      ? AccessType::kWrite
                                      : AccessType::kRead;
        kernel.TouchPageStatus(*task, va, access);
        break;
      }
      case 8:
      case 9: {  // fork (nullptr on ENOMEM is a legal outcome)
        if (live.size() >= 10) {
          break;
        }
        Task* child = kernel.Fork(*task, "child").child;
        if (child != nullptr) {
          live.push_back(child);
          regions[child] = regions[task];
        }
        break;
      }
      case 10: {  // exec (occasionally into a zygote-like space — but not
                  // under chaos, where random damage reaching a zygote is
                  // a legitimate panic; the panic path has its own test)
        kernel.Exec(*task, "fuzz-exec", !fuzz.chaos && rng() % 8 == 0);
        regions[task].clear();
        break;
      }
      case 11: {  // exit
        if (live.size() <= 1) {
          break;
        }
        const size_t index = rng() % live.size();
        Task* dying = live[index];
        kernel.Exit(*dying);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
        regions.erase(dying);
        break;
      }
      case 12: {  // swap-out pressure (only when the case enables zram)
        kernel.SwapOutAnonPages(1 + static_cast<uint32_t>(rng() % 16));
        break;
      }
      case 13: {  // madvise (KSM cases only)
        auto& list = regions[task];
        if (list.empty()) {
          break;
        }
        auto [start, pages] = list[rng() % list.size()];
        const uint32_t first = static_cast<uint32_t>(rng() % pages);
        const uint32_t count =
            1 + static_cast<uint32_t>(rng() % (pages - first));
        const MadviseAdvice advice = rng() % 4 == 0
                                         ? MadviseAdvice::kUnmergeable
                                         : MadviseAdvice::kMergeable;
        kernel.Madvise(*task, start + first * kPageSize, count * kPageSize,
                       advice);
        break;
      }
      case 14: {  // write content (small alphabet => duplicates to merge,
                  // and rewrites that unmerge/defeat the checksum skip)
        auto& list = regions[task];
        if (list.empty()) {
          break;
        }
        auto [start, pages] = list[rng() % list.size()];
        const VirtAddr va =
            start + static_cast<uint32_t>(rng() % pages) * kPageSize;
        const VmArea* vma = task->mm->FindVma(va);
        if (vma == nullptr || !vma->prot.write) {
          break;
        }
        kernel.WritePage(*task, va, rng() % 5);
        break;
      }
      case 15: {  // explicit full ksmd pass
        kernel.RunKsmScan();
        break;
      }
    }

    // Huge cases run explicit scans on top of the periodic wakes; gating
    // the draw on fuzz.huge keeps every other case's rng stream (and so
    // its whole op sequence) bit-identical to what it was before huged
    // existed.
    if (fuzz.huge && rng() % 29 == 0) {
      kernel.RunHugeScan();
    }

    // Same gating trick for the numa cases' explicit placement passes.
    if (fuzz.nodes > 1 && rng() % 23 == 0) {
      kernel.RunNumadPass();
    }

    if (fuzz.chaos) {
      // A flipped bit is only guaranteed visible to scrubd (the cheap
      // touch-time checks deliberately skip the rmap cross-check), so
      // sweep the whole PTP population — the pass budget is 64 — before
      // handing the state to the auditor: every audited state is
      // post-detection, with repairs applied and unrepairable damage
      // contained to oops kills, never an abort.
      const uint64_t passes =
          1 + kernel.ptp_allocator().live_ptps() / 64;
      for (uint64_t pass = 0; pass < passes; ++pass) {
        kernel.RunScrubPass();
      }
    }
    const AuditReport report = kernel.AuditInvariants();
    ASSERT_TRUE(report.ok())
        << "after op " << op << ":\n"
        << report.ToString();
  }

  for (Task* task : live) {
    if (task->alive) {
      kernel.Exit(*task);
    }
  }
  if (fuzz.chaos) {
    kernel.RunScrubPass();  // final orphan sweep before the teardown audit
    EXPECT_GT(kernel.fault_injector().total_corruptions(), 0u);
  }
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), 0u);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
  // Every swap slot was released with its last swap PTE; the compressed
  // pool returned its frames.
  EXPECT_EQ(kernel.zram().live_slots(), 0u);
  EXPECT_EQ(kernel.zram().stored_bytes(), 0u);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kZram), 0u);
  // Every stable frame died with its last mapping and was pruned from the
  // stable tree (the daemon observes frame frees).
  EXPECT_EQ(kernel.ksm().pages_shared(), 0u);
  // The injector really fired; the suite fuzzes the failure paths, not
  // just the happy ones.
  EXPECT_GT(kernel.fault_injector().total_injected(), 0u);
}

std::vector<AuditFuzzCase> AuditFuzzCases() {
  return {
      {101, false, false}, {202, false, false}, {303, true, false},
      {404, true, false},  {505, true, true},   {606, true, true},
      // Swap-enabled cases: the same op mix plus explicit swap-out
      // pressure, with zram pool allocations also failure-injected.
      {711, false, false, 16}, {812, false, false, 16},
      {913, true, false, 16},  {1014, true, false, 16},
      {1115, true, true, 16},  {1216, true, true, 16},
      // KSM cases: ksmd scans (periodic and explicit) interleaved with
      // fork/swap/munmap/fault under the same failure injection. 6 cases
      // x 2000 ops = 12k audited steps with merging active.
      {1317, false, false, 0, true}, {1418, false, false, 16, true},
      {1519, true, false, 0, true},  {1620, true, false, 16, true},
      {1721, true, true, 16, true},  {1822, true, true, 16, true},
      // SMP cases: 4 cores with random migration, under both shootdown
      // policies — every audited step may have flushes still sitting in
      // pending queues (the auditor's exemption logic is on trial too).
      {1923, true, false, 0, false, 4, false},
      {2024, true, false, 0, false, 4, true},
      {2125, true, false, 16, true, 4, false},
      {2226, true, false, 16, true, 4, true},
      {2327, true, true, 16, true, 4, true},
      // Chaos cases: on top of the allocation-failure injection, seeded
      // bit flips corrupt live PTE words, TLB tags, and (with swap) zram
      // slot bytes. scrubd repairs what it can; the unrepairable rest is
      // contained to oops kills of the sharers — never a whole-process
      // abort, and never an audit violation.
      {2428, true, false, 0, false, 1, false, true},
      {2529, true, true, 0, false, 1, false, true},
      {2630, true, false, 16, false, 1, false, true},
      {2731, true, false, 16, true, 1, false, true},
      {2832, true, false, 0, false, 4, true, true},
      // Huge cases: huged collapses (in place and by migration, with the
      // lazy unshare under shared PTPs) interleaved with the splits that
      // munmap/mprotect/COW force, under the same allocation-failure
      // injection — including the contiguous-run site migration depends
      // on. The KSM case also runs the unmerge policy; the chaos case
      // lets scrubd's replica vote race against live collapses.
      {2933, false, false, 0, false, 1, false, false, true},
      {3034, true, false, 0, false, 1, false, false, true},
      {3135, true, false, 16, true, 1, false, false, true},
      {3236, true, false, 0, false, 1, false, true, true},
      {3337, true, true, 16, true, 4, true, false, true},
      // NUMA cases: a 2- or 4-node machine with the numaPTE engine
      // write-through-replicating (or migrating) under the same op mix —
      // replicas must stay bit-identical to their masters through fork,
      // munmap, COW, swap, reclaim's replica sacrifice, and teardown.
      // The chaos case adds seeded replica-word rot for scrubd's
      // majority vote to repair.
      {3438, true, false, 0, false, 4, false, false, false, 4, 1},
      {3539, true, false, 16, false, 4, true, false, false, 2, 1},
      {3640, true, false, 0, false, 4, false, false, false, 4, 2},
      {3741, false, false, 0, false, 4, false, false, false, 4, 1},
      {3842, true, false, 16, true, 4, false, false, true, 2, 1},
      {3943, true, false, 0, false, 4, false, true, false, 4, 1},
  };
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AuditFuzzTest, ::testing::ValuesIn(AuditFuzzCases()),
    [](const ::testing::TestParamInfo<AuditFuzzCase>& param_info) {
      const AuditFuzzCase& c = param_info.param;
      std::string name = "seed" + std::to_string(c.seed);
      name += c.share_ptps ? "_shared" : "_stock";
      if (c.hw_l1_wp) name += "_l1wp";
      if (c.swap_mb > 0) name += "_swap";
      if (c.ksm) name += "_ksm";
      if (c.cores > 1) name += "_c" + std::to_string(c.cores);
      if (c.batched) name += "_batched";
      if (c.chaos) name += "_chaos";
      if (c.huge) name += "_huge";
      if (c.nodes > 1) {
        name += "_numa" + std::to_string(c.nodes);
        name += c.placement == 1 ? "r" : c.placement == 2 ? "m" : "l";
      }
      return name;
    });

}  // namespace
}  // namespace sat
