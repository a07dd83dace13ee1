// Integration tests: whole-system scenarios through the public facade,
// cross-config consistency, and resource-balance invariants over long
// process lifecycles.

#include <gtest/gtest.h>

#include "src/core/sat.h"

namespace sat {
namespace {

TEST(SystemTest, ConfigNamesAreDescriptive) {
  EXPECT_EQ(ConfigByName("stock").Name(), "Stock Android");
  EXPECT_EQ(ConfigByName("shared-ptp").Name(), "Shared PTP");
  EXPECT_EQ(ConfigByName("shared-ptp-tlb-2mb").Name(), "Shared PTP & TLB - 2MB");
  EXPECT_EQ(ConfigByName("copied-ptes").Name(), "Copied PTEs");
  SystemConfig no_asid = ConfigByName("stock");
  no_asid.core.asids_enabled = false;
  EXPECT_EQ(no_asid.Name(), "Stock Android (no ASID)");
}

TEST(SystemTest, AllNamedConfigsBoot) {
  for (const NamedSystemConfig& entry : NamedConfigs()) {
    System system(entry.config);
    EXPECT_NE(system.android().zygote(), nullptr) << entry.key;
    EXPECT_EQ(system.loader().zygote_layout().size(), 88u) << entry.key;
    const AuditReport report = system.kernel().AuditInvariants();
    EXPECT_TRUE(report.ok()) << entry.key << ":\n" << report.ToString();
  }
}

TEST(SystemTest, IdenticalTranslationsAcrossAppsUnderSharing) {
  // The paper's foundational observation: translations of preloaded code
  // are identical across apps. With shared PTPs they are not merely
  // identical — they are the same physical PTEs.
  System system(ConfigByName("shared-ptp"));
  Task* a = system.android().ForkApp("a");
  Task* b = system.android().ForkApp("b");
  const AppFootprint& boot = system.android().zygote_boot_footprint();
  uint32_t checked = 0;
  for (size_t i = 0; i < boot.pages.size(); i += 97) {
    const VirtAddr va =
        system.android().CodePageVa(boot.pages[i].lib, boot.pages[i].page_index);
    const auto ra = a->mm->page_table().FindPte(va);
    const auto rb = b->mm->page_table().FindPte(va);
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(ra->ptp, rb->ptp);  // same PTP object: shared
    EXPECT_EQ(ra->ptp->hw(ra->index).frame(), rb->ptp->hw(rb->index).frame());
    checked++;
  }
  EXPECT_GT(checked, 30u);
}

TEST(SystemTest, StockAppsHavePrivateTablesButSharedFrames) {
  System system(ConfigByName("stock"));
  Kernel& kernel = system.kernel();
  Task* a = system.android().ForkApp("a");
  Task* b = system.android().ForkApp("b");
  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");
  const VirtAddr va = system.android().CodePageVa(libc->id, 0);
  kernel.TouchPage(*a, va, AccessType::kExecute);
  kernel.TouchPage(*b, va, AccessType::kExecute);
  const auto ra = a->mm->page_table().FindPte(va);
  const auto rb = b->mm->page_table().FindPte(va);
  EXPECT_NE(ra->ptp, rb->ptp);  // duplicated translation structures...
  EXPECT_EQ(ra->ptp->hw(ra->index).frame(),
            rb->ptp->hw(rb->index).frame());  // ...same physical page
}

TEST(SystemTest, ManyAppLifecyclesBalanceResources) {
  // Fork/run/exit 12 apps under sharing; afterwards the machine is back
  // to its post-boot resource footprint.
  System system(ConfigByName("shared-ptp-2mb"));
  Kernel& kernel = system.kernel();
  const uint64_t frames_baseline = kernel.phys().used_frames();
  const uint64_t ptps_baseline = kernel.ptp_allocator().live_ptps();

  AppRunner runner(&system.android());
  const auto apps = AppProfile::PaperBenchmarks();
  for (int round = 0; round < 12; ++round) {
    const AppFootprint fp =
        system.workload().Generate(apps[static_cast<size_t>(round) % apps.size()]);
    runner.Run(fp, /*exit_after=*/true);
  }
  // PTPs: exactly the boot set again (apps' private PTPs were freed; the
  // shared ones survive by design).
  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), ptps_baseline);
  // Frames: only page-cache growth (new libraries read) may remain above
  // the baseline — no anonymous-memory leak across app lifecycles.
  System fresh(ConfigByName("shared-ptp-2mb"));
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon),
            fresh.kernel().phys().CountFrames(FrameKind::kAnon));
  EXPECT_GE(kernel.phys().used_frames(), frames_baseline);
  EXPECT_EQ(kernel.phys().used_frames() - frames_baseline,
            kernel.phys().CountFrames(FrameKind::kFileCache) -
                fresh.kernel().phys().CountFrames(FrameKind::kFileCache));
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(SystemTest, ConcurrentAppsShareUnsharedIndependently) {
  // Two live apps diverge independently: one writes library data (and
  // unshares), the other keeps sharing.
  System system(ConfigByName("shared-ptp"));
  Kernel& kernel = system.kernel();
  Task* writer = system.android().ForkApp("writer");
  Task* reader = system.android().ForkApp("reader");

  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");
  const VirtAddr data_va = system.android().DataPageVa(libc->id, 0);
  const VirtAddr code_va = system.android().CodePageVa(libc->id, 0);

  EXPECT_TRUE(kernel.TouchPage(*writer, data_va, AccessType::kWrite));
  EXPECT_FALSE(writer->mm->page_table().SlotNeedsCopy(data_va));
  EXPECT_TRUE(reader->mm->page_table().SlotNeedsCopy(data_va));

  // The reader still reads the pristine data through the shared PTP; the
  // writer sees its private COW copy.
  EXPECT_TRUE(kernel.TouchPage(*reader, data_va, AccessType::kRead));
  const auto wr = writer->mm->page_table().FindPte(data_va);
  const auto rd = reader->mm->page_table().FindPte(data_va);
  EXPECT_NE(wr->ptp->hw(wr->index).frame(), rd->ptp->hw(rd->index).frame());

  // Code in the same slot: the writer privatized it, translations match.
  kernel.TouchPage(*writer, code_va, AccessType::kExecute);
  kernel.TouchPage(*reader, code_va, AccessType::kExecute);
  const auto wc = writer->mm->page_table().FindPte(code_va);
  const auto rc = reader->mm->page_table().FindPte(code_va);
  if (wc.has_value() && rc.has_value() && wc->ptp->hw(wc->index).valid() &&
      rc->ptp->hw(rc->index).valid()) {
    EXPECT_EQ(wc->ptp->hw(wc->index).frame(), rc->ptp->hw(rc->index).frame());
  }
}

TEST(SystemTest, CycleSimAndTouchReplayAgreeOnFaultCounts) {
  // The two drive modes must produce the same page-fault arithmetic for
  // the same access pattern.
  auto faults_via = [](bool cycle_sim) {
    System system(ConfigByName("shared-ptp"));
    Kernel& kernel = system.kernel();
    Task* app = system.android().ForkApp("app");
    const LibraryImage* libskia =
        system.android().catalog().FindByName("libskia.so");
    const KernelCounters before = kernel.counters();
    if (cycle_sim) {
      kernel.ScheduleTo(*app);
    }
    for (uint32_t page = 0; page < 64; ++page) {
      const VirtAddr va = system.android().CodePageVa(libskia->id, page * 3);
      if (cycle_sim) {
        EXPECT_TRUE(kernel.core().FetchLine(va));
      } else {
        EXPECT_TRUE(kernel.TouchPage(*app, va, AccessType::kExecute));
      }
    }
    return (kernel.counters() - before).faults_file_backed;
  };
  EXPECT_EQ(faults_via(false), faults_via(true));
}

TEST(SystemTest, DomainIsolationAcrossTheWholeStack) {
  // A non-zygote daemon running on the same core as zygote apps never
  // consumes their global TLB entries — end-to-end.
  System system(ConfigByName("shared-ptp-tlb"));
  Kernel& kernel = system.kernel();
  Task* app = system.android().ForkApp("app");
  Task* daemon = kernel.CreateTask("daemon");

  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");
  const VirtAddr va = system.android().CodePageVa(libc->id, 0);

  // The daemon maps something private at the same VA.
  MmapRequest request;
  request.length = 4 * kPageSize;
  request.prot = VmProt::ReadExec();
  request.kind = VmKind::kFilePrivate;
  request.file = 777777;
  request.fixed_address = PageAlignDown(va);
  kernel.Mmap(*daemon, request);

  kernel.ScheduleTo(*app);
  EXPECT_TRUE(kernel.core().FetchLine(va));  // loads a global zygote entry

  kernel.ScheduleTo(*daemon);
  EXPECT_TRUE(kernel.core().FetchLine(va));
  EXPECT_EQ(kernel.counters().domain_faults, 1u);

  // The daemon got *its* mapping, not the zygote's.
  const auto daemon_pte = daemon->mm->page_table().FindPte(va);
  ASSERT_TRUE(daemon_pte.has_value());
  const FrameNumber daemon_frame = daemon_pte->ptp->hw(daemon_pte->index).frame();
  const auto app_pte = app->mm->page_table().FindPte(va);
  EXPECT_NE(daemon_frame, app_pte->ptp->hw(app_pte->index).frame());

  // With global and per-ASID TLB entries live on the core, every
  // structure still agrees.
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(SystemTest, LargePageMappingsWorkEndToEnd) {
  // The complement experiment: a 64 KB large-page mapping flows from mmap
  // through the fault handler (16 replicated PTEs over 16 contiguous
  // frames) and occupies a single TLB entry.
  System system(ConfigByName("stock"));
  Kernel& kernel = system.kernel();
  Task* task = kernel.CreateTask("large");
  MmapRequest request;
  request.length = kLargePageSize;
  request.prot = VmProt::ReadExec();
  request.kind = VmKind::kFilePrivate;
  request.file = 888888;
  request.fixed_address = 0x70000000;  // 64 KB aligned
  request.use_large_pages = true;
  kernel.Mmap(*task, request);

  // One touch populates the whole block.
  const uint64_t faults_before = kernel.counters().faults_file_backed;
  EXPECT_TRUE(kernel.TouchPage(*task, 0x70000000, AccessType::kExecute));
  EXPECT_EQ(kernel.counters().faults_file_backed, faults_before + 1);

  kernel.ScheduleTo(*task);
  EXPECT_TRUE(kernel.core().FetchLine(0x70000000));
  const uint64_t misses = kernel.core().counters().itlb_main_misses;
  // Every page of the 64 KB region hits the single large TLB entry.
  for (uint32_t i = 1; i < kPtesPerLargePage; ++i) {
    EXPECT_TRUE(kernel.core().FetchLine(0x70000000 + i * kPageSize));
  }
  EXPECT_EQ(kernel.core().counters().itlb_main_misses, misses);

  // A live large-page TLB entry audits against its 16 replicated PTEs.
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace sat
