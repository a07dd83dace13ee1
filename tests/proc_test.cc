// Unit tests for the process layer: task lifecycle, zygote flags and DACR
// propagation, the kernel's mmap policy, TouchPage semantics, ASID
// management, and the scheduler's grouping policy.

#include <gtest/gtest.h>

#include "src/core/sat.h"
#include "src/proc/kernel.h"
#include "src/proc/scheduler.h"

namespace sat {
namespace {

MmapRequest AnonRequest(VirtAddr at, uint32_t pages, bool stack = false) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = at;
  request.is_stack = stack;
  return request;
}

MmapRequest CodeRequest(VirtAddr at, uint32_t pages, FileId file) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadExec();
  request.kind = VmKind::kFilePrivate;
  request.file = file;
  request.fixed_address = at;
  return request;
}

TEST(KernelTest, CreateTaskAssignsPidAndAsid) {
  Kernel kernel{KernelParams{}};
  Task* a = kernel.CreateTask("a");
  Task* b = kernel.CreateTask("b");
  EXPECT_NE(a->pid, b->pid);
  EXPECT_NE(a->asid, b->asid);
  EXPECT_FALSE(a->IsZygoteLike());
}

TEST(KernelTest, ExecSetsZygoteFlagAndDomain) {
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("init");
  kernel.Exec(*task, "app_process", /*is_zygote=*/true);
  EXPECT_TRUE(task->zygote);
  EXPECT_FALSE(task->zygote_child);
  EXPECT_EQ(task->dacr.Get(kDomainZygote), DomainAccess::kClient);
  EXPECT_EQ(task->mm->user_domain(), kDomainZygote);
}

TEST(KernelTest, ForkPropagatesZygoteChildFlag) {
  Kernel kernel{KernelParams{}};
  Task* init = kernel.CreateTask("init");
  Task* zygote = kernel.Fork(*init, "zygote").child;
  kernel.Exec(*zygote, "app_process", true);
  Task* app = kernel.Fork(*zygote, "app").child;
  EXPECT_TRUE(app->zygote_child);
  EXPECT_FALSE(app->zygote);
  EXPECT_TRUE(app->IsZygoteLike());
  EXPECT_EQ(app->dacr.Get(kDomainZygote), DomainAccess::kClient);
  EXPECT_EQ(app->mm->user_domain(), kDomainZygote);

  // Grandchildren keep the flag.
  Task* grandchild = kernel.Fork(*app, "svc").child;
  EXPECT_TRUE(grandchild->zygote_child);

  // Children of plain processes do not acquire it.
  Task* plain = kernel.Fork(*init, "daemon").child;
  EXPECT_FALSE(plain->IsZygoteLike());
  EXPECT_EQ(plain->mm->user_domain(), kDomainUser);
}

TEST(KernelTest, ZygoteMmapOfCodeIsMarkedGlobalAndPreloaded) {
  Kernel kernel{ConfigByName("shared-ptp-tlb")};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);

  kernel.Mmap(*zygote, CodeRequest(0x40000000, 4, 7));
  const VmArea* code = zygote->mm->FindVma(0x40000000);
  ASSERT_NE(code, nullptr);
  EXPECT_TRUE(code->global);
  EXPECT_TRUE(code->zygote_preloaded);

  // Data (non-executable) is preloaded but not global.
  MmapRequest data = AnonRequest(0x40400000, 4);
  data.kind = VmKind::kFilePrivate;
  data.file = 7;
  kernel.Mmap(*zygote, data);
  const VmArea* data_vma = zygote->mm->FindVma(0x40400000);
  EXPECT_FALSE(data_vma->global);
  EXPECT_TRUE(data_vma->zygote_preloaded);

  // Non-zygote mmaps of code get neither.
  Task* plain = kernel.CreateTask("plain");
  kernel.Mmap(*plain, CodeRequest(0x40000000, 4, 8));
  EXPECT_FALSE(plain->mm->FindVma(0x40000000)->global);
  EXPECT_FALSE(plain->mm->FindVma(0x40000000)->zygote_preloaded);
}

TEST(KernelTest, TouchPageFaultsOnceThenNot) {
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, CodeRequest(0x40000000, 2, 7));
  EXPECT_TRUE(kernel.TouchPage(*task, 0x40000000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, 1u);
  EXPECT_TRUE(kernel.TouchPage(*task, 0x40000000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, 1u);
  EXPECT_FALSE(kernel.TouchPage(*task, 0x70000000, AccessType::kRead));
}

TEST(KernelTest, TouchPageWriteUpgradesThroughCow) {
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, AnonRequest(0x50000000, 2));
  EXPECT_TRUE(kernel.TouchPage(*task, 0x50000000, AccessType::kRead));
  EXPECT_TRUE(kernel.TouchPage(*task, 0x50000000, AccessType::kWrite));
  const auto ref = task->mm->page_table().FindPte(0x50000000);
  EXPECT_EQ(ref->ptp->hw(ref->index).perm(), PtePerm::kReadWrite);
}

TEST(KernelTest, SharedForkThenTouchSharesSoftFaults) {
  Kernel kernel{ConfigByName("shared-ptp-tlb")};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);
  kernel.Mmap(*zygote, CodeRequest(0x40000000, 8, 7));
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);

  Task* app = kernel.Fork(*zygote, "app").child;
  // The PTE populated by the zygote is inherited: no fault.
  const uint64_t faults = kernel.counters().faults_file_backed;
  EXPECT_TRUE(kernel.TouchPage(*app, 0x40000000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, faults);

  // A page the app faults in becomes visible to a *later* fork.
  kernel.TouchPage(*app, 0x40001000, AccessType::kExecute);
  Task* app2 = kernel.Fork(*zygote, "app2").child;
  const uint64_t faults2 = kernel.counters().faults_file_backed;
  EXPECT_TRUE(kernel.TouchPage(*app2, 0x40001000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, faults2);
}

TEST(KernelTest, ExitFreesSharedPtpsByRefcount) {
  Kernel kernel{ConfigByName("shared-ptp-tlb")};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);
  kernel.Mmap(*zygote, CodeRequest(0x40000000, 8, 7));
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);

  const uint64_t live_before = kernel.ptp_allocator().live_ptps();
  Task* app = kernel.Fork(*zygote, "app").child;
  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), live_before);  // shared
  kernel.Exit(*app);
  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), live_before);
  EXPECT_FALSE(app->alive);
}

TEST(KernelTest, AccessAfterExitOnTheSameCoreFails) {
  // Exit frees the page table the core's context named: the core keeps no
  // task and no table, so a later access walks nothing and fails.
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("t");
  kernel.Mmap(*task, AnonRequest(0x50000000, 2));
  kernel.SetCurrent(*task, 0);
  EXPECT_TRUE(kernel.core().Store(0x50000000));
  kernel.Exit(*task);
  EXPECT_EQ(kernel.current(0), nullptr);
  EXPECT_FALSE(kernel.core().Load(0x50000000));
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(KernelTest, LastForkResultExposesTable4Stats) {
  Kernel kernel{ConfigByName("shared-ptp-tlb")};
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);
  kernel.Mmap(*zygote, CodeRequest(0x40000000, 8, 7));
  kernel.Mmap(*zygote, AnonRequest(0xB0000000, 8, /*stack=*/true));
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);
  kernel.TouchPage(*zygote, 0xB0000000, AccessType::kWrite);

  const ForkResult result = kernel.Fork(*zygote, "app").stats;
  EXPECT_EQ(result.slots_shared, 1u);           // the code slot
  EXPECT_EQ(result.ptes_copied, 1u);            // the stack page
  EXPECT_EQ(result.child_ptps_allocated, 1u);   // the stack PTP
  EXPECT_GT(result.cycles, 0u);
}

// Regression: the old rollover reset next_asid_ to 1 and reissued ASIDs
// still held by live tasks, so the 256th allocation aliased a live
// address space (two tasks sharing one ASID can hit each other's TLB
// entries). The allocator must skip live ASIDs across the wrap.
TEST(KernelTest, AsidRolloverSkipsLiveTasks) {
  Kernel kernel{KernelParams{}};
  Task* keeper = kernel.CreateTask("keeper");
  const Asid kept = keeper->asid;
  // 300 short-lived tasks push the 8-bit ASID space around the horn
  // while `keeper` stays alive holding the first ASID.
  for (int i = 0; i < 300; ++i) {
    Task* t = kernel.CreateTask("t" + std::to_string(i));
    ASSERT_NE(t->asid, kept) << "live ASID reissued at iteration " << i;
    ASSERT_NE(t->asid, 0);
    kernel.Exit(*t);
  }
  // The wrap flushed a generation and the survivor kept its ASID.
  EXPECT_GE(kernel.counters().tlb_full_flushes, 1u);
  EXPECT_EQ(keeper->asid, kept);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(SchedulerTest, RoundRobinCyclesThroughTasks) {
  Kernel kernel{KernelParams{}};
  Task* a = kernel.CreateTask("a");
  Task* b = kernel.CreateTask("b");
  Scheduler scheduler(&kernel, /*group_zygote_like=*/false);
  scheduler.AddTask(a);
  scheduler.AddTask(b);
  Task* first = scheduler.RunQuantum();
  Task* second = scheduler.RunQuantum();
  EXPECT_NE(first, second);
  EXPECT_EQ(scheduler.stats().switches, 2u);
}

TEST(SchedulerTest, GroupingReducesCrossGroupSwitches) {
  auto run = [](bool grouped) {
    Kernel kernel{KernelParams{}};
    Task* init = kernel.CreateTask("init");
    Task* zygote = kernel.Fork(*init, "zygote").child;
    kernel.Exec(*zygote, "app_process", true);
    Scheduler scheduler(&kernel, grouped);
    // Two zygote-like apps and two plain daemons.
    scheduler.AddTask(kernel.Fork(*zygote, "app1").child);
    scheduler.AddTask(kernel.CreateTask("daemon1"));
    scheduler.AddTask(kernel.Fork(*zygote, "app2").child);
    scheduler.AddTask(kernel.CreateTask("daemon2"));
    for (int i = 0; i < 100; ++i) {
      scheduler.RunQuantum();
    }
    return scheduler.stats();
  };
  const SchedulerStats plain = run(false);
  const SchedulerStats grouped = run(true);
  EXPECT_LT(grouped.cross_group_switches, plain.cross_group_switches);
}

TEST(SchedulerTest, DeadTasksAreDropped) {
  Kernel kernel{KernelParams{}};
  Task* a = kernel.CreateTask("a");
  Task* b = kernel.CreateTask("b");
  Scheduler scheduler(&kernel, false);
  scheduler.AddTask(a);
  scheduler.AddTask(b);
  kernel.Exit(*b);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(scheduler.RunQuantum(), a);
  }
}

}  // namespace
}  // namespace sat
