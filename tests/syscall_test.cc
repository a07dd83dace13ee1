// Tests for the errno-style syscall surface: every error path of
// Mmap/Munmap/Mprotect (EINVAL argument validation, EFAULT unmapped
// ranges, ENOMEM exhaustion, the kKilled last resort, calls on a dead
// task) and the ForkOutcome contract. The happy paths are covered
// throughout the rest of the suite; this file pins down how each call
// *fails*.

#include <gtest/gtest.h>

#include "src/core/sat.h"
#include "src/proc/kernel.h"

namespace sat {
namespace {

MmapRequest AnonRequest(VirtAddr at, uint32_t pages) {
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = at;
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

// A zygote with a touched, shared-PTP-eligible code region, plus a forked
// child that inherits the region's PTPs shared — the setup in which
// unshare operations (and therefore unshare allocation failures) occur.
struct SharedFixture {
  Kernel kernel;
  Task* zygote;
  Task* child;
  static constexpr VirtAddr kCode = 0x40000000;

  SharedFixture()
      : kernel(ConfigByName("shared-ptp-tlb")) {
    zygote = kernel.CreateTask("zygote");
    kernel.Exec(*zygote, "app_process", /*is_zygote=*/true);
    EXPECT_TRUE(kernel.Mmap(*zygote, CodeRequest(kCode, 64, 7)).ok());
    for (uint32_t page = 0; page < 64; ++page) {
      kernel.TouchPage(*zygote, kCode + page * kPageSize,
                       AccessType::kExecute);
    }
    const ForkOutcome fork = kernel.Fork(*zygote, "child");
    EXPECT_TRUE(fork.ok());
    child = fork.child;
    EXPECT_GT(fork.stats.slots_shared, 0u);
  }
};

// ---------------------------------------------------------------------------
// EINVAL: malformed arguments never touch the address space.
// ---------------------------------------------------------------------------

TEST(SyscallTest, MmapRejectsMalformedRequests) {
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("t");

  MmapRequest zero = AnonRequest(0x40000000, 1);
  zero.length = 0;
  EXPECT_EQ(kernel.Mmap(*task, zero).error, Errno::kEinval);

  MmapRequest unaligned_length = AnonRequest(0x40000000, 1);
  unaligned_length.length = kPageSize / 2;
  EXPECT_EQ(kernel.Mmap(*task, unaligned_length).error, Errno::kEinval);

  MmapRequest unaligned_addr = AnonRequest(0x40000000 + 123, 1);
  const SyscallResult<VirtAddr> result = kernel.Mmap(*task, unaligned_addr);
  EXPECT_EQ(result.error, Errno::kEinval);
  EXPECT_EQ(result.value, 0u);  // value stays the T default on failure
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(static_cast<bool>(result));
  EXPECT_TRUE(task->mm->VmasOverlapping(0x40000000, 0x50000000).empty());
}

TEST(SyscallTest, MunmapAndMprotectRejectMalformedRanges) {
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("t");
  EXPECT_TRUE(kernel.Mmap(*task, AnonRequest(0x40000000, 4)).ok());

  EXPECT_EQ(kernel.Munmap(*task, 0x40000000, 0).error, Errno::kEinval);
  EXPECT_EQ(kernel.Munmap(*task, 0x40000001, kPageSize).error,
            Errno::kEinval);
  EXPECT_EQ(kernel.Munmap(*task, 0x40000000, kPageSize / 2).error,
            Errno::kEinval);
  EXPECT_EQ(
      kernel.Mprotect(*task, 0x40000001, kPageSize, VmProt::ReadOnly()).error,
      Errno::kEinval);
  // The mapping is untouched.
  EXPECT_NE(task->mm->FindVma(0x40000000), nullptr);
}

// ---------------------------------------------------------------------------
// EFAULT: ranges that touch no mapping.
// ---------------------------------------------------------------------------

TEST(SyscallTest, MunmapAndMprotectReportEfaultOnUnmappedRanges) {
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("t");
  EXPECT_TRUE(kernel.Mmap(*task, AnonRequest(0x40000000, 4)).ok());

  EXPECT_EQ(kernel.Munmap(*task, 0x50000000, 4 * kPageSize).error,
            Errno::kEfault);
  EXPECT_EQ(kernel
                .Mprotect(*task, 0x50000000, 4 * kPageSize,
                          VmProt::ReadOnly())
                .error,
            Errno::kEfault);
  // A range that overlaps the mapping at all is not EFAULT.
  EXPECT_TRUE(kernel.Munmap(*task, 0x40000000, 2 * kPageSize).ok());
}

// ---------------------------------------------------------------------------
// ENOMEM.
// ---------------------------------------------------------------------------

TEST(SyscallTest, MmapReportsEnomemWhenNoFreeRangeExists) {
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("t");
  MmapRequest huge;
  huge.length = 0xC0000000u;  // 3 GB: larger than the whole mmap window
  huge.prot = VmProt::ReadWrite();
  huge.kind = VmKind::kAnonPrivate;
  EXPECT_EQ(kernel.Mmap(*task, huge).error, Errno::kEnomem);
  EXPECT_TRUE(task->alive);
}

TEST(SyscallTest, MmapReportsEnomemWhenUnshareCannotAllocate) {
  SharedFixture fixture;
  Kernel& kernel = fixture.kernel;

  // Creating a new region inside a shared PTP's span unshares it eagerly,
  // which needs a fresh PTP frame. Fail every PTP allocation: the kernel
  // reclaims what it can, then gives up with ENOMEM (the caller survives;
  // only Munmap/Mprotect resort to killing it).
  kernel.fault_injector().SetRule(AllocSite::kPtp, FaultRule{0, 1, 0.0});
  const SyscallResult<VirtAddr> result = kernel.Mmap(
      *fixture.child, AnonRequest(SharedFixture::kCode + 64 * kPageSize, 1));
  kernel.fault_injector().Reset();
  EXPECT_EQ(result.error, Errno::kEnomem);
  EXPECT_EQ(result.value, 0u);
  EXPECT_TRUE(fixture.child->alive);
}

// ---------------------------------------------------------------------------
// kKilled: the caller as the last resort.
// ---------------------------------------------------------------------------

TEST(SyscallTest, MunmapKillsCallerWhenUnshareCannotAllocate) {
  SharedFixture fixture;
  Kernel& kernel = fixture.kernel;

  // A partial unmap of a shared slot must unshare it first. With every
  // PTP allocation failing and nothing reclaimable left, the kernel's
  // only way to complete the operation is to OOM-kill the caller (whose
  // teardown finishes the unmap).
  kernel.fault_injector().SetRule(AllocSite::kPtp, FaultRule{0, 1, 0.0});
  const SyscallResult<void> result =
      kernel.Munmap(*fixture.child, SharedFixture::kCode, kPageSize);
  kernel.fault_injector().Reset();
  EXPECT_EQ(result.error, Errno::kKilled);
  EXPECT_FALSE(fixture.child->alive);
  EXPECT_TRUE(fixture.zygote->alive);  // never the zygote's fault
}

TEST(SyscallTest, MprotectKillsCallerWhenUnshareCannotAllocate) {
  SharedFixture fixture;
  Kernel& kernel = fixture.kernel;

  kernel.fault_injector().SetRule(AllocSite::kPtp, FaultRule{0, 1, 0.0});
  const SyscallResult<void> result = kernel.Mprotect(
      *fixture.child, SharedFixture::kCode, kPageSize, VmProt::ReadOnly());
  kernel.fault_injector().Reset();
  EXPECT_EQ(result.error, Errno::kKilled);
  EXPECT_FALSE(fixture.child->alive);
}

// ---------------------------------------------------------------------------
// A dead task: Exit freed its address space, so nothing is mapped.
// ---------------------------------------------------------------------------

TEST(SyscallTest, DeadTaskCallsFailWithoutAnAddressSpace) {
  Kernel kernel{KernelParams{}};
  Task* task = kernel.CreateTask("t");
  ASSERT_TRUE(kernel.Mmap(*task, AnonRequest(0x40000000, 4)).ok());
  ASSERT_TRUE(kernel.TouchPage(*task, 0x40000000, AccessType::kWrite));
  kernel.Exit(*task);
  ASSERT_EQ(task->mm, nullptr);
  const KernelCounters before = kernel.counters();

  EXPECT_EQ(kernel.Mmap(*task, AnonRequest(0x50000000, 1)).error,
            Errno::kKilled);
  EXPECT_EQ(kernel.Munmap(*task, 0x40000000, kPageSize).error,
            Errno::kEfault);
  EXPECT_EQ(
      kernel.Mprotect(*task, 0x40000000, kPageSize, VmProt::ReadOnly()).error,
      Errno::kEfault);
  EXPECT_EQ(kernel
                .Madvise(*task, 0x40000000, kPageSize,
                         MadviseAdvice::kMergeable)
                .error,
            Errno::kEfault);
  EXPECT_EQ(kernel.TouchPageStatus(*task, 0x40000000, AccessType::kRead),
            TouchStatus::kSigSegv);
  EXPECT_EQ(kernel.WritePage(*task, 0x40000000, 7), TouchStatus::kSigSegv);
  // Installed on a core anyway, every access through it faults and fails.
  kernel.SetCurrent(*task);
  EXPECT_FALSE(kernel.core().Load(0x40000000));
  // Argument validation still comes first.
  EXPECT_EQ(kernel.Munmap(*task, 0x40000001, kPageSize).error,
            Errno::kEinval);
  const size_t tasks_before = kernel.tasks().size();
  const ForkOutcome fork = kernel.Fork(*task, "orphan");
  EXPECT_EQ(fork.error, Errno::kKilled);
  EXPECT_EQ(fork.child, nullptr);
  EXPECT_EQ(kernel.tasks().size(), tasks_before);

  EXPECT_EQ(kernel.counters().faults_anonymous, before.faults_anonymous);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// ForkOutcome and ErrnoName.
// ---------------------------------------------------------------------------

TEST(SyscallTest, ForkOutcomeCarriesChildStatsAndError) {
  SharedFixture fixture;
  const ForkOutcome ok = fixture.kernel.Fork(*fixture.zygote, "second");
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.error, Errno::kOk);
  ASSERT_NE(ok.child, nullptr);
  EXPECT_GT(ok.stats.cycles, 0u);
  EXPECT_GT(ok.stats.slots_shared, 0u);

  // A stock-kernel parent with touched private memory: its fork must
  // copy, and with every allocation failing that copy cannot proceed.
  Kernel stock{KernelParams{}};
  Task* parent = stock.CreateTask("parent");
  EXPECT_TRUE(stock.Mmap(*parent, AnonRequest(0x40000000, 16)).ok());
  for (uint32_t page = 0; page < 16; ++page) {
    stock.TouchPage(*parent, 0x40000000 + page * kPageSize,
                    AccessType::kWrite);
  }
  stock.fault_injector().SetRule(AllocSite::kPtp, FaultRule{0, 1, 0.0});
  stock.fault_injector().SetRule(AllocSite::kFrame, FaultRule{0, 1, 0.0});
  const ForkOutcome failed = stock.Fork(*parent, "child");
  stock.fault_injector().Reset();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.child, nullptr);
  EXPECT_EQ(failed.error, Errno::kEnomem);
}

TEST(SyscallTest, ErrnoNamesAreStable) {
  EXPECT_STREQ(ErrnoName(Errno::kOk), "OK");
  EXPECT_STREQ(ErrnoName(Errno::kEnomem), "ENOMEM");
  EXPECT_STREQ(ErrnoName(Errno::kEfault), "EFAULT");
  EXPECT_STREQ(ErrnoName(Errno::kEinval), "EINVAL");
  EXPECT_STREQ(ErrnoName(Errno::kKilled), "KILLED");
}

}  // namespace
}  // namespace sat
