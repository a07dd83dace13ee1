// Memory-pressure robustness: the allocate -> direct-reclaim -> OOM-kill
// chain, fork's ENOMEM rollback, TouchPage's outcome reporting, and the
// same chain behind faults taken through the Core.
//
// The deterministic FaultInjector stands in for exhaustion where a
// precise failure point matters (rollback at every partial-copy depth);
// genuinely tiny machines exercise the real thing (self-sacrifice under
// pressure, the 32 MB fork-bomb of the acceptance criteria).

#include <gtest/gtest.h>

#include <vector>

#include "src/core/sat.h"

namespace sat {
namespace {

// A non-zygote task with `regions` separately-slotted anon regions of
// `pages` pages each, all touched — so a stock fork must copy one PTP per
// region and the task has a predictable RSS.
Task* MakeTouchedTask(Kernel& kernel, const std::string& name,
                      uint32_t regions, uint32_t pages,
                      VirtAddr base = 0x40000000) {
  Task* task = kernel.CreateTask(name);
  for (uint32_t r = 0; r < regions; ++r) {
    MmapRequest request;
    request.length = pages * kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    request.fixed_address = base + r * kPtpSpan;
    EXPECT_NE(kernel.Mmap(*task, request).value, 0u);
    for (uint32_t i = 0; i < pages; ++i) {
      EXPECT_TRUE(kernel.TouchPage(*task, request.fixed_address + i * kPageSize,
                                   AccessType::kWrite));
    }
  }
  return task;
}

MmapRequest AnonRequest(VirtAddr at, uint32_t pages) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = at;
  return request;
}

// ---------------------------------------------------------------------------
// Fork ENOMEM rollback.
// ---------------------------------------------------------------------------

TEST(OomTest, ForkEnomemRollsBackCompletely) {
  KernelParams params;
  params.phys_bytes = 32ull * 1024 * 1024;
  Kernel kernel(params);
  Task* parent = MakeTouchedTask(kernel, "parent", 4, 16);

  const uint64_t frames_before = kernel.phys().used_frames();
  const uint64_t ptps_before = kernel.ptp_allocator().live_ptps();
  const size_t tasks_before = kernel.tasks().size();

  // Every allocation fails; there is no file cache and both fork sides
  // are immune, so the fork must fail and fully undo itself.
  kernel.fault_injector().SetRule(AllocSite::kPtp, FaultRule{0, 1, 0.0});
  kernel.fault_injector().SetRule(AllocSite::kFrame, FaultRule{0, 1, 0.0});
  const ForkOutcome failed = kernel.Fork(*parent, "child");
  EXPECT_EQ(failed.child, nullptr);
  EXPECT_EQ(failed.error, Errno::kEnomem);
  EXPECT_EQ(kernel.counters().forks_failed, 1u);

  EXPECT_EQ(kernel.phys().used_frames(), frames_before);
  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), ptps_before);
  EXPECT_EQ(kernel.tasks().size(), tasks_before);
  AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();

  // With injection off the retry succeeds — and gets the pid and ASID the
  // failed attempt un-issued (nothing leaked from the id spaces either).
  kernel.fault_injector().Reset();
  Task* child = kernel.Fork(*parent, "child").child;
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->pid, parent->pid + 1);
  EXPECT_EQ(child->asid, parent->asid + 1);
  report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(OomTest, ForkRollbackLeaksNothingAtAnyDepth) {
  // Fail the Nth page-table-page allocation of the fork's copy loop, for
  // every N: each depth leaves a differently-shaped partial child, and
  // every one must be torn down to exactly the pre-fork state.
  for (uint64_t depth = 1; depth <= 10; ++depth) {
    KernelParams params;
    params.phys_bytes = 32ull * 1024 * 1024;
    Kernel kernel(params);
    Task* parent = MakeTouchedTask(kernel, "parent", 8, 4);

    const uint64_t frames_before = kernel.phys().used_frames();
    const uint64_t ptps_before = kernel.ptp_allocator().live_ptps();

    kernel.fault_injector().Reset();
    kernel.fault_injector().SetRule(AllocSite::kPtp,
                                    FaultRule{depth, 0, 0.0});
    Task* child = kernel.Fork(*parent, "child").child;
    if (child == nullptr) {
      EXPECT_EQ(kernel.phys().used_frames(), frames_before)
          << "frames leaked at rollback depth " << depth;
      EXPECT_EQ(kernel.ptp_allocator().live_ptps(), ptps_before)
          << "PTPs leaked at rollback depth " << depth;
    } else {
      // The fork needed fewer than `depth` PTP allocations (fail_nth
      // never fired, or reclaim saved it): a success is fine too.
      kernel.Exit(*child);
    }
    const AuditReport report = kernel.AuditInvariants();
    EXPECT_TRUE(report.ok()) << "depth " << depth << ":\n"
                             << report.ToString();
  }
}

// ---------------------------------------------------------------------------
// TouchPage outcome reporting.
// ---------------------------------------------------------------------------

TEST(OomTest, TouchDistinguishesSegvFromOomKill) {
  KernelParams params;
  params.phys_bytes = 8ull * 1024 * 1024;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("toucher");

  // A bad address is a SIGSEGV, not a death sentence.
  EXPECT_EQ(kernel.TouchPageStatus(*task, 0x70000000, AccessType::kRead),
            TouchStatus::kSigSegv);
  EXPECT_TRUE(task->alive);
  EXPECT_EQ(kernel.counters().oom_kills, 0u);

  // Touching more anon memory than the machine has: with no file cache to
  // reclaim and no other task to kill, the toucher falls on its own sword.
  MmapRequest request;
  request.length = 3000 * kPageSize;  // > 2048 frames of an 8 MB machine
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  const VirtAddr base = kernel.Mmap(*task, request).value;
  ASSERT_NE(base, 0u);

  TouchStatus status = TouchStatus::kOk;
  uint32_t touched = 0;
  for (uint32_t i = 0; i < 3000 && status == TouchStatus::kOk; ++i) {
    status = kernel.TouchPageStatus(*task, base + i * kPageSize,
                                    AccessType::kWrite);
    if (status == TouchStatus::kOk) {
      touched++;
    }
  }
  EXPECT_EQ(status, TouchStatus::kOomKill);
  EXPECT_FALSE(task->alive);
  EXPECT_TRUE(task->oom_killed);
  EXPECT_EQ(kernel.counters().oom_kills, 1u);
  EXPECT_GT(touched, 1000u);  // it got most of the machine first

  // The kill tore the whole address space down: nothing anon remains.
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// Victim selection and the reclaim-first policy.
// ---------------------------------------------------------------------------

TEST(OomTest, OomKillerPrefersLargestRssAndSparesZygote) {
  KernelParams params;
  params.phys_bytes = 64ull * 1024 * 1024;
  Kernel kernel(params);

  Task* zygote = MakeTouchedTask(kernel, "zygote", 2, 64, 0x40000000);
  kernel.Exec(*zygote, "app_process", /*is_zygote=*/true);
  MmapRequest request;
  request.length = 64 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x40000000;
  ASSERT_NE(kernel.Mmap(*zygote, request).value, 0u);
  for (uint32_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(kernel.TouchPage(*zygote, 0x40000000 + i * kPageSize,
                                 AccessType::kWrite));
  }

  Task* small = MakeTouchedTask(kernel, "small", 1, 8, 0x50000000);
  Task* big = MakeTouchedTask(kernel, "big", 2, 24, 0x60000000);
  EXPECT_GT(kernel.TaskRssPages(*zygote), kernel.TaskRssPages(*big));
  EXPECT_GT(kernel.TaskRssPages(*big), kernel.TaskRssPages(*small));

  // The zygote has the largest RSS but is never a victim.
  EXPECT_EQ(kernel.PickOomVictim(nullptr), big);
  EXPECT_EQ(kernel.PickOomVictim(big), small);
  EXPECT_EQ(kernel.PickOomVictim(big, small), nullptr);

  // No file cache: stage 1 reclaims nothing, stage 2 kills `big`.
  EXPECT_TRUE(kernel.RelieveMemoryPressure(nullptr));
  EXPECT_EQ(kernel.counters().oom_kills, 1u);
  EXPECT_FALSE(big->alive);
  EXPECT_TRUE(big->oom_killed);
  EXPECT_TRUE(zygote->alive);
  EXPECT_TRUE(small->alive);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(OomTest, DirectReclaimRunsBeforeAnyKill) {
  KernelParams params;
  params.phys_bytes = 64ull * 1024 * 1024;
  Kernel kernel(params);

  // One task with plenty of clean file-cache pages, one pure-anon task.
  Task* reader = kernel.CreateTask("reader");
  MmapRequest request;
  request.length = 300 * kPageSize;
  request.prot = VmProt::ReadOnly();
  request.kind = VmKind::kFilePrivate;
  request.file = 7;
  const VirtAddr base = kernel.Mmap(*reader, request).value;
  ASSERT_NE(base, 0u);
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        kernel.TouchPage(*reader, base + i * kPageSize, AccessType::kRead));
  }
  Task* anon = MakeTouchedTask(kernel, "anon", 1, 32, 0x60000000);

  const uint64_t free_before = kernel.phys().free_frames();
  EXPECT_TRUE(kernel.RelieveMemoryPressure(nullptr));
  EXPECT_EQ(kernel.counters().direct_reclaims, 1u);
  EXPECT_EQ(kernel.counters().oom_kills, 0u);  // cache spared everyone
  EXPECT_GT(kernel.phys().free_frames(), free_before);
  EXPECT_TRUE(reader->alive);
  EXPECT_TRUE(anon->alive);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// An app that outgrows a small machine is the only victim left: it is
// OOM-killed mid-replay, and AppRunner reports that without reading the
// address space the kill freed.
TEST(OomTest, AppRunnerReportsAnAppKilledMidRun) {
  SystemConfig config = ConfigByName("shared-ptp");
  config.phys_bytes = 20ull * 1024 * 1024;
  System system(config);
  AppRunner runner(&system.android());
  const AppFootprint fp =
      system.workload().Generate(AppProfile::Named("Android Browser"));

  const AppRunStats stats = runner.Run(fp, /*exit_after=*/true);
  EXPECT_TRUE(stats.oom_killed);
  EXPECT_FALSE(stats.oops_killed);
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.present_slots, 0u);
  EXPECT_EQ(stats.shared_slots, 0u);
  EXPECT_GT(stats.anon_faults, 0u);
  EXPECT_EQ(system.kernel().counters().oom_kills, 1u);
  EXPECT_TRUE(system.android().zygote()->alive);
  const AuditReport report = system.kernel().AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(OomTest, ReclaimLivelockOomKillsTheToucher) {
  // On 24 MB, a write fault of the browser keeps failing for want of a
  // frame, while each reclaim pass frees exactly one page that the retry
  // consumes again. Every pass reports progress, so the fault path's
  // attempt cap is reached; the toucher is then OOM-killed, as when
  // reclaim frees nothing, and the machine keeps running.
  SystemConfig config = ConfigByName("shared-ptp");
  config.phys_bytes = 24ull * 1024 * 1024;
  System system(config);
  AppRunner runner(&system.android());
  const AppFootprint fp =
      system.workload().Generate(AppProfile::Named("Android Browser"));

  for (int run = 0; run < 3; ++run) {
    const AppRunStats stats = runner.Run(fp);
    EXPECT_TRUE(stats.oom_killed) << "run " << run;
    EXPECT_FALSE(stats.completed) << "run " << run;
  }
  EXPECT_EQ(system.kernel().counters().oom_kills, 3u);
  EXPECT_TRUE(system.android().zygote()->alive);
  const AuditReport report = system.kernel().AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// The cycle-level access path shares the touch path's fault service.
// ---------------------------------------------------------------------------

// Reads clean file pages through TouchPage until no frame is free. The
// whole machine is then page cache plus the task's page tables.
void FillWithCleanFileCache(Kernel& kernel, Task& task) {
  MmapRequest request;
  request.length = 4096 * kPageSize;
  request.prot = VmProt::ReadOnly();
  request.kind = VmKind::kFilePrivate;
  request.file = 7;
  request.fixed_address = 0x40000000;
  ASSERT_NE(kernel.Mmap(task, request).value, 0u);
  for (uint32_t i = 0; kernel.phys().free_frames() > 0; ++i) {
    ASSERT_LT(i, 4096u);
    ASSERT_TRUE(kernel.TouchPage(task, request.fixed_address + i * kPageSize,
                                 AccessType::kRead));
  }
}

TEST(OomTest, CoreFaultRelievesMemoryPressure) {
  KernelParams params;
  params.phys_bytes = 4ull * 1024 * 1024;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("reader");
  FillWithCleanFileCache(kernel, *task);
  // An untouched anonymous page in a fresh 2 MB slot: its fault needs a
  // page-table frame, and none is free.
  ASSERT_NE(kernel.Mmap(*task, AnonRequest(0x60000000, 4)).value, 0u);
  kernel.SetCurrent(*task, 0);

  // The fault reclaims clean cache and retries instead of failing.
  const uint64_t reclaims = kernel.counters().direct_reclaims;
  EXPECT_TRUE(kernel.core().Load(0x60000000));
  EXPECT_EQ(kernel.counters().direct_reclaims, reclaims + 1);
  EXPECT_EQ(kernel.counters().oom_kills, 0u);
  EXPECT_TRUE(task->alive);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(OomTest, CoreFaultOomKillsItsTaskWhenNothingIsFreed) {
  // No file cache and no other task: a store that finds no frame kills
  // the task it runs, the way TouchPage kills the toucher.
  KernelParams params;
  params.phys_bytes = 8ull * 1024 * 1024;
  Kernel kernel(params);
  Task* task = kernel.CreateTask("hog");
  constexpr uint32_t kPages = 3000;  // > 2048 frames of an 8 MB machine
  ASSERT_NE(kernel.Mmap(*task, AnonRequest(0x40000000, kPages)).value, 0u);
  kernel.SetCurrent(*task, 0);

  uint32_t stored = 0;
  while (stored < kPages && kernel.core().Store(0x40000000 + stored * kPageSize)) {
    stored++;
  }
  EXPECT_GT(stored, 1000u);
  EXPECT_LT(stored, kPages);
  EXPECT_FALSE(task->alive);
  EXPECT_TRUE(task->oom_killed);
  EXPECT_EQ(kernel.counters().oom_kills, 1u);
  // The core is left with no task, and its next access fails cleanly.
  EXPECT_EQ(kernel.current(0), nullptr);
  EXPECT_FALSE(kernel.core().Load(0x40000000));
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// On 16 MB the cycle-level launch's own faults find nothing left to
// reclaim and OOM-kill the app mid-launch. The launch reports that it was
// cut short instead of scheduling the dead app, and the machine launches
// again.
TEST(OomTest, LaunchCutShortByAnOomKillIsReported) {
  SystemConfig config = ConfigByName("stock-2mb");
  config.phys_bytes = 16ull * 1024 * 1024;
  System system(config);
  LaunchParams params;
  params.fetch_entries = 100000;
  LaunchSimulator simulator(&system.android(), params);

  for (uint32_t round = 0; round < 2; ++round) {
    const LaunchResult result = simulator.LaunchOnce(round);
    EXPECT_FALSE(result.completed) << "round " << round;
    EXPECT_EQ(result.exec_cycles, 0u) << "round " << round;
    EXPECT_EQ(system.kernel().counters().oom_kills, round + 1);
    EXPECT_TRUE(system.kernel().tasks().back()->oom_killed);
  }
  EXPECT_TRUE(system.android().zygote()->alive);
  EXPECT_TRUE(system.android().system_server()->alive);
  const AuditReport report = system.kernel().AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// The acceptance scenario: a fork-bomb on a 32 MB machine.
// ---------------------------------------------------------------------------

TEST(OomTest, ForkBombOn32MbMachineTerminatesCleanly) {
  SystemConfig config = ConfigByName("shared-ptp-tlb");
  config.phys_bytes = 32ull * 1024 * 1024;
  System system(config);
  Kernel& kernel = system.kernel();

  uint64_t forks_attempted = 0;
  uint64_t forks_denied = 0;
  std::vector<Task*> children;
  for (int i = 0; i < 24; ++i) {
    forks_attempted++;
    Task* child = system.android().ForkApp("bomb" + std::to_string(i));
    if (child == nullptr) {
      forks_denied++;
      continue;
    }
    children.push_back(child);
    // Each surviving child dirties a fresh anon region, pushing the
    // machine into reclaim and then into the OOM killer.
    MmapRequest request;
    request.length = 192 * kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    const VirtAddr base = kernel.Mmap(*child, request).value;
    if (base == 0 || !child->alive) {
      continue;
    }
    for (uint32_t page = 0; page < 192; ++page) {
      if (kernel.TouchPageStatus(*child, base + page * kPageSize,
                                 AccessType::kWrite) != TouchStatus::kOk) {
        break;
      }
    }
  }

  // The machine survived; the zygote is untouchable and still alive.
  EXPECT_TRUE(system.android().zygote()->alive);
  EXPECT_FALSE(system.android().zygote()->oom_killed);

  // Pressure actually happened, and the chain ran in order: reclaim
  // passes first, OOM kills once the cache was spent.
  const KernelCounters& counters = kernel.counters();
  EXPECT_GT(counters.direct_reclaims, 0u);
  EXPECT_GT(counters.oom_kills + counters.forks_failed, 0u);
  EXPECT_EQ(counters.forks_failed, forks_denied);

  // Counter accuracy: every recorded kill is a dead task flagged
  // oom_killed, and vice versa.
  uint64_t flagged = 0;
  for (const auto& task : kernel.tasks()) {
    if (task->oom_killed) {
      EXPECT_FALSE(task->alive);
      flagged++;
    }
  }
  EXPECT_EQ(flagged, counters.oom_kills);

  AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();

  for (Task* child : children) {
    if (child->alive) {
      kernel.Exit(*child);
    }
  }
  report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace sat
