// Death tests: the simulator enforces its kernel invariants with live
// assertions (NDEBUG is stripped in every build type — see the top-level
// CMakeLists); these tests pin the contract that misuse aborts loudly
// instead of corrupting state.

#include <gtest/gtest.h>

#include "src/core/sat.h"

namespace sat {
namespace {

class InvariantDeathTest : public ::testing::Test {
 protected:
  InvariantDeathTest()
      : phys_(1024 * kPageSize), alloc_(&phys_, &counters_) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }

  HwPte AnonPte(PtePerm perm) {
    const FrameNumber frame = phys_.AllocFrame(FrameKind::kAnon);
    return HwPte::MakePage(frame, perm, false, true);
  }

  PhysicalMemory phys_;
  KernelCounters counters_;
  PtpAllocator alloc_;
};

TEST_F(InvariantDeathTest, MutatingASharedSlotWithoutUnshareAborts) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  LinuxPte sw;
  sw.set_present(true);
  parent.EnsurePtp(0x40000000, kDomainUser);
  parent.SetPte(0x40000000, AnonPte(PtePerm::kReadOnly), sw);
  parent.ShareSlotInto(child, PtpSlotIndex(0x40000000));

  // SetPte without allow_shared on a NEED_COPY slot is a kernel bug.
  EXPECT_DEATH(child.SetPte(0x40001000, AnonPte(PtePerm::kReadOnly), sw),
               "unshare first");
  // So is clearing a PTE there.
  EXPECT_DEATH(child.ClearPte(0x40000000), "unshare first");
  // And so is installing a *writable* entry even via the shared path:
  // every PTE in a shared PTP must be COW-safe.
  EXPECT_DEATH(child.SetPte(0x40001000, AnonPte(PtePerm::kReadWrite), sw,
                            /*allow_shared=*/true),
               "write-protected");
}

TEST_F(InvariantDeathTest, EnsurePtpOnSharedSlotAborts) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  LinuxPte sw;
  sw.set_present(true);
  parent.EnsurePtp(0x40000000, kDomainUser);
  parent.SetPte(0x40000000, AnonPte(PtePerm::kReadOnly), sw);
  parent.ShareSlotInto(child, PtpSlotIndex(0x40000000));
  EXPECT_DEATH(child.EnsurePtp(0x40000000, kDomainUser), "NEED_COPY");
}

TEST_F(InvariantDeathTest, SetPteWithoutPtpAborts) {
  PageTable pt(&alloc_, &phys_, &counters_);
  LinuxPte sw;
  sw.set_present(true);
  EXPECT_DEATH(pt.SetPte(0x40000000, AnonPte(PtePerm::kReadOnly), sw),
               "EnsurePtp");
}

TEST_F(InvariantDeathTest, SharingAnEmptySlotAborts) {
  PageTable parent(&alloc_, &phys_, &counters_);
  PageTable child(&alloc_, &phys_, &counters_);
  EXPECT_DEATH(parent.ShareSlotInto(child, 5), "empty slot");
}

TEST_F(InvariantDeathTest, UnrefOfADeadFrameAborts) {
  const FrameNumber frame = phys_.AllocFrame(FrameKind::kAnon);
  phys_.UnrefFrame(frame);  // frees it
  EXPECT_DEATH(phys_.UnrefFrame(frame), "dead frame|free frame");
}

TEST_F(InvariantDeathTest, RefOfAFreeFrameAborts) {
  const FrameNumber frame = phys_.AllocFrame(FrameKind::kAnon);
  phys_.UnrefFrame(frame);
  EXPECT_DEATH(phys_.RefFrame(frame), "free frame");
}

TEST_F(InvariantDeathTest, UseOfAFreedPtpAborts) {
  PageTable pt(&alloc_, &phys_, &counters_);
  const PtpId id = pt.EnsurePtp(0x40000000, kDomainUser).id();
  pt.ReleaseSlot(PtpSlotIndex(0x40000000));
  EXPECT_DEATH(alloc_.Get(id), "freed PTP");
}

TEST_F(InvariantDeathTest, OverlappingVmaInsertAborts) {
  MmStruct mm(&alloc_, &phys_, &counters_, kDomainUser);
  VmArea vma;
  vma.start = 0x40000000;
  vma.end = 0x40004000;
  vma.prot = VmProt::ReadWrite();
  mm.InsertVma(vma);
  VmArea overlapping = vma;
  overlapping.start = 0x40002000;
  overlapping.end = 0x40006000;
  EXPECT_DEATH(mm.InsertVma(overlapping), "overlapping");
}

TEST_F(InvariantDeathTest, MisalignedTlbEntryInsertAborts) {
  MainTlb tlb(128, 2);
  TlbEntry entry;
  entry.valid = true;
  entry.vpn = 3;                       // not 16-aligned
  entry.size_pages = kPtesPerLargePage;
  EXPECT_DEATH(tlb.Insert(entry), "size-aligned");
}

TEST_F(InvariantDeathTest, ReissuingAQuarantinedFrameAborts) {
  const FrameNumber frame = phys_.AllocFrame(FrameKind::kAnon);
  phys_.QuarantineFrame(frame);  // live: flagged, condemned on last unref
  phys_.UnrefFrame(frame);
  EXPECT_EQ(phys_.frame(frame).kind, FrameKind::kQuarantined);
  EXPECT_DEATH(phys_.RefFrame(frame), "quarantined");
}

// ---------------------------------------------------------------------------
// Recoverable oops: unrepairable corruption kills exactly the sharers of
// the damaged state; damage reaching the zygote still panics the kernel;
// a machine under seeded bit flips with scrubd on keeps running.
// ---------------------------------------------------------------------------

class OopsRecoveryTest : public ::testing::Test {
 protected:
  OopsRecoveryTest() {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    params_.phys_bytes = 16ull * 1024 * 1024;
    params_.vm.share_ptps = true;
  }

  // Maps one anonymous RW page into `task` and dirties it. Returns the VA.
  static VirtAddr MapDirtyPage(Kernel& kernel, Task& task) {
    MmapRequest request;
    request.length = kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    const VirtAddr at = kernel.Mmap(task, request).value;
    EXPECT_NE(at, 0u);
    EXPECT_EQ(kernel.WritePage(task, at, 7), TouchStatus::kOk);
    return at;
  }

  // Unrepairable compound damage at `task`'s PTE for `va`: flip a frame
  // bit in the hardware word AND lose the rmap entry, so no trusted copy
  // of the dirty page's location survives.
  static void InflictCompoundDamage(Kernel& kernel, Task& task, VirtAddr va) {
    const auto ref = task.mm->page_table().FindPte(va);
    ASSERT_TRUE(ref.has_value());
    ASSERT_TRUE(ref->ptp->sw(ref->index).dirty());
    const FrameNumber frame = ref->ptp->hw(ref->index).frame();
    ref->ptp->CorruptHwForChaos(ref->index, 1u << kPageShift);
    kernel.rmap().Remove(frame, ref->ptp->id(), ref->index);
  }

  KernelParams params_;
};

TEST_F(OopsRecoveryTest, UnrepairableSiteOopsKillsExactlyTheSharers) {
  Kernel kernel(params_);
  Task* parent = kernel.CreateTask("parent");
  Task* bystander = kernel.CreateTask("bystander");
  const VirtAddr va = MapDirtyPage(kernel, *parent);
  MapDirtyPage(kernel, *bystander);

  Task* child = kernel.Fork(*parent, "child").child;
  ASSERT_NE(child, nullptr);
  ASSERT_TRUE(kernel.AuditInvariants().ok());
  InflictCompoundDamage(kernel, *parent, va);

  kernel.RunScrubPass();

  // Blast radius: both sharers of the damaged PTP die as oops kills; the
  // bystander (own PTP, untouched state) keeps running.
  EXPECT_FALSE(parent->alive);
  EXPECT_TRUE(parent->oops_killed);
  EXPECT_FALSE(child->alive);
  EXPECT_TRUE(child->oops_killed);
  EXPECT_TRUE(bystander->alive);
  EXPECT_FALSE(bystander->oops_killed);
  EXPECT_EQ(kernel.counters().oops_kills, 2u);
  EXPECT_GE(kernel.counters().scrub_unrepairable, 1u);
  // The orphaned dirty frame and the damaged PTP's frame both left
  // circulation instead of being re-issued.
  EXPECT_GE(kernel.counters().frames_quarantined, 1u);

  // The surviving system is internally consistent and keeps working.
  kernel.RunScrubPass();
  EXPECT_TRUE(kernel.AuditInvariants().ok());
  EXPECT_TRUE(kernel.TouchPage(*bystander, MapDirtyPage(kernel, *bystander),
                               AccessType::kRead));
  kernel.Exit(*bystander);
  EXPECT_TRUE(kernel.AuditInvariants().ok());
}

TEST_F(OopsRecoveryTest, UnrepairableZygoteDamageStillPanics) {
  Kernel kernel(params_);
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "zygote", /*is_zygote=*/true);
  const VirtAddr va = MapDirtyPage(kernel, *zygote);
  InflictCompoundDamage(kernel, *zygote, va);
  EXPECT_DEATH(kernel.RunScrubPass(), "KERNEL PANIC");
}

// The chaos contract end to end (DESIGN.md section 5i): a 16-core machine
// under the full sharing mechanism, scrubd on, with seeded bit flips in
// live PTE words and TLB tags while apps fork, replay and exit. The run
// never aborts, nearly every app finishes, and the rest end in a kill.
// The replays never fill a TLB, so a coda fills every core's TLB through
// the cycle-level core and then rots its tags: the scrubber's TLB
// cross-check must flush the rotted entries, leaving a clean audit.
TEST_F(OopsRecoveryTest, ChaosRunOnSixteenCoresRepairsTlbRot) {
  SystemConfig config = ConfigByName("shared-ptp-tlb");
  config.num_cores = 16;
  config.scrub = true;
  config.scrub_wake_interval = 64;
  System system(config);
  Kernel& kernel = system.kernel();
  kernel.fault_injector().SetCorruptRule(CorruptSite::kPteWord,
                                         FaultRule{0, 0, 1e-4});
  kernel.fault_injector().SetCorruptRule(CorruptSite::kTlbTag,
                                         FaultRule{0, 0, 1e-4});

  const std::vector<AppProfile> apps = AppProfile::PaperBenchmarks();
  constexpr uint32_t kApps = 8;
  AppRunner runner(&system.android());
  Task* zygote = system.android().zygote();
  uint32_t finished = 0;
  for (uint32_t a = 0; a < kApps; ++a) {
    // Each app forks and replays from a different core, so repairs and
    // oops kills exercise cross-core shootdowns too.
    kernel.ScheduleTo(*zygote, a % kernel.num_cores());
    const AppRunStats stats = runner.Run(
        system.workload().Generate(apps[a]), /*exit_after=*/true);
    EXPECT_TRUE(stats.completed || stats.oops_killed || stats.oom_killed)
        << apps[a].name;
    finished += stats.completed ? 1 : 0;
  }
  EXPECT_GE(finished, kApps - 1);
  EXPECT_GT(kernel.fault_injector().total_corruptions(), 0u);

  const uint64_t repairs_before_coda = kernel.counters().scrub_repairs;
  const AppFootprint& boot = system.android().zygote_boot_footprint();
  for (uint32_t c = 0; c < kernel.num_cores(); ++c) {
    kernel.ScheduleTo(*zygote, c);
    for (size_t i = 0; i < 64; ++i) {
      const TouchedPage& page =
          boot.pages[(c * 64 + i * 13) % boot.pages.size()];
      kernel.core(c).FetchLine(
          system.android().CodePageVa(page.lib, page.page_index));
    }
  }
  kernel.fault_injector().SetCorruptRule(CorruptSite::kTlbTag,
                                         FaultRule{0, 0, 0.01});
  for (size_t i = 0; i < 4096; ++i) {
    const TouchedPage& page = boot.pages[(i * 7) % boot.pages.size()];
    kernel.TouchPage(*zygote,
                     system.android().CodePageVa(page.lib, page.page_index),
                     AccessType::kRead);
  }
  kernel.RunScrubPass();
  EXPECT_GT(kernel.counters().scrub_repairs, repairs_before_coda);
  const AuditReport audit = kernel.AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

}  // namespace
}  // namespace sat
