// Tests for the methodology tools: the smaps analogue (Rss/PSS including
// page-table PSS) and the perf-style PC sampler.

#include <gtest/gtest.h>

#include "src/core/sat.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// Smaps.
// ---------------------------------------------------------------------------

TEST(SmapsTest, RssCountsResidentPagesOnly) {
  System system(ConfigByName("stock"));
  Kernel& kernel = system.kernel();
  Task* task = kernel.CreateTask("t");
  MmapRequest request;
  request.length = 16 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x50000000;
  request.name = "probe";
  kernel.Mmap(*task, request);
  for (uint32_t i = 0; i < 5; ++i) {
    kernel.TouchPage(*task, 0x50000000 + i * kPageSize, AccessType::kWrite);
  }

  const SmapsReport report =
      GenerateSmaps(*task->mm, kernel.ptp_allocator(), &kernel.rmap());
  ASSERT_EQ(report.vmas.size(), 1u);
  EXPECT_EQ(report.vmas[0].name, "probe");
  EXPECT_EQ(report.vmas[0].size_kb, 64u);
  EXPECT_EQ(report.vmas[0].rss_kb, 20u);
  EXPECT_DOUBLE_EQ(report.vmas[0].pss_kb, 20.0);  // private: full charge
  EXPECT_EQ(report.vmas[0].private_kb, 20u);
  EXPECT_EQ(report.page_table_kb, 4u);
  EXPECT_NE(report.ToString().find("probe"), std::string::npos);
}

TEST(SmapsTest, PssSplitsSharedFramesAcrossProcesses) {
  // Under the stock kernel, N processes mapping the same file page each
  // get a 1/N PSS share.
  System system(ConfigByName("stock"));
  Kernel& kernel = system.kernel();
  Task* a = system.android().ForkApp("a");
  Task* b = system.android().ForkApp("b");
  const LibraryImage* libc = system.android().catalog().FindByName("libc.so");
  const VirtAddr va = system.android().CodePageVa(libc->id, 0);
  kernel.TouchPage(*a, va, AccessType::kExecute);
  kernel.TouchPage(*b, va, AccessType::kExecute);

  const SmapsReport report =
      GenerateSmaps(*a->mm, kernel.ptp_allocator(), &kernel.rmap());
  for (const VmaReport& vma : report.vmas) {
    if (vma.name == "libc.so:code") {
      EXPECT_EQ(vma.rss_kb, 4u);
      EXPECT_DOUBLE_EQ(vma.pss_kb, 2.0);  // split between a and b
      EXPECT_EQ(vma.shared_clean_kb, 4u);
    }
  }
}

TEST(SmapsTest, SharedPtpPssCountsSharersThroughOnePte) {
  // Under shared PTPs, one PTE serves both apps; PSS must still split the
  // page between the two processes (via the PTP's sharer count).
  System system(ConfigByName("shared-ptp"));
  Kernel& kernel = system.kernel();
  Task* a = system.android().ForkApp("a");
  Task* b = system.android().ForkApp("b");
  (void)b;
  const LibraryImage* libpng = system.android().catalog().FindByName("libpng.so");
  const VirtAddr va = system.android().CodePageVa(libpng->id, 0);
  kernel.TouchPage(*a, va, AccessType::kExecute);

  const SmapsReport report =
      GenerateSmaps(*a->mm, kernel.ptp_allocator(), &kernel.rmap());
  bool found = false;
  for (const VmaReport& vma : report.vmas) {
    if (vma.name == "libpng.so:code") {
      found = true;
      // The resident pages (ours + whatever the zygote's boot touched)
      // are all shared through one PTP by zygote + system_server + a + b:
      // PSS is exactly a quarter of Rss.
      EXPECT_GE(vma.rss_kb, 4u);
      EXPECT_NEAR(vma.pss_kb, vma.rss_kb / 4.0, 0.01);
      EXPECT_EQ(vma.shared_clean_kb, vma.rss_kb);
      EXPECT_EQ(vma.private_kb, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SmapsTest, PageTablePssShowsTheTranslationSaving) {
  auto page_table_columns = [](const SystemConfig& config) {
    System system(config);
    Task* app = system.android().ForkApp("app");
    // Touch some code so stock builds private tables.
    const AppFootprint& boot = system.android().zygote_boot_footprint();
    for (size_t i = 0; i < boot.pages.size(); i += 8) {
      system.kernel().TouchPage(
          *app,
          system.android().CodePageVa(boot.pages[i].lib, boot.pages[i].page_index),
          AccessType::kExecute);
    }
    const SmapsReport report = GenerateSmaps(
        *app->mm, system.kernel().ptp_allocator(), &system.kernel().rmap());
    return std::pair<uint32_t, double>(report.page_table_kb,
                                       report.page_table_pss_kb);
  };

  const auto [stock_kb, stock_pss] = page_table_columns(ConfigByName("stock"));
  const auto [shared_kb, shared_pss] =
      page_table_columns(ConfigByName("shared-ptp"));
  // Stock: every PTP is private; PSS equals the classic footprint.
  EXPECT_DOUBLE_EQ(stock_pss, static_cast<double>(stock_kb));
  // Shared: the app's table footprint is mostly inherited PTPs whose cost
  // splits across zygote + system_server + app.
  EXPECT_LT(shared_pss, static_cast<double>(shared_kb) / 2.0);
  EXPECT_GT(shared_kb, 0u);
}

// ---------------------------------------------------------------------------
// PerfSampler.
// ---------------------------------------------------------------------------

TEST(ProfilerTest, SamplesAtTheConfiguredRate) {
  ZygoteSystem system(ConfigByName("shared-ptp-tlb"));
  Kernel& kernel = system.kernel();
  Task* app = system.ForkApp("app");
  kernel.ScheduleTo(*app);

  PerfSampler sampler(&system, 0, /*interval=*/5000);
  const Cycles before = kernel.core().counters().cycles;
  const AppFootprint& boot = system.zygote_boot_footprint();
  for (int i = 0; i < 4000; ++i) {
    const TouchedPage& page = boot.pages[static_cast<size_t>(i * 13) % boot.pages.size()];
    kernel.core().FetchBurst(system.CodePageVa(page.lib, page.page_index), 20);
  }
  const Cycles elapsed = kernel.core().counters().cycles - before;
  const double expected = static_cast<double>(elapsed) / 5000.0;
  EXPECT_GT(sampler.sample_count(), expected * 0.5);
  EXPECT_LT(sampler.sample_count(), expected * 1.5);
}

TEST(ProfilerTest, ClassifiesSamplesByCategory) {
  ZygoteSystem system(ConfigByName("shared-ptp-tlb"));
  Kernel& kernel = system.kernel();
  Task* app = system.ForkApp("app");
  kernel.ScheduleTo(*app);

  PerfSampler sampler(&system, 0, /*interval=*/800);
  // Fetch exclusively from one zygote-preloaded .so.
  const LibraryImage* libskia = system.catalog().FindByName("libskia.so");
  for (uint32_t i = 0; i < 3000; ++i) {
    kernel.core().FetchBurst(system.CodePageVa(libskia->id, (i * 5) % 512), 8);
  }
  const SampleBreakdown breakdown = sampler.Analyze(*app);
  ASSERT_GT(breakdown.total, 50u);
  // All user samples classify as zygote-preloaded dynamic libs; the only
  // other samples are kernel text (fault handlers).
  EXPECT_GT(breakdown.UserShare(CodeCategory::kZygoteDynamicLib), 0.99);
  EXPECT_GT(breakdown.SharedCodeShare(), 0.99);
}

TEST(ProfilerTest, DeadTaskUserSamplesAreUnmapped) {
  ZygoteSystem system(ConfigByName("shared-ptp-tlb"));
  Kernel& kernel = system.kernel();
  Task* app = system.ForkApp("app");
  kernel.ScheduleTo(*app);

  PerfSampler sampler(&system, 0, /*interval=*/800);
  const LibraryImage* libskia = system.catalog().FindByName("libskia.so");
  for (uint32_t i = 0; i < 3000; ++i) {
    kernel.core().FetchBurst(system.CodePageVa(libskia->id, (i * 5) % 512), 8);
  }
  const SampleBreakdown live = sampler.Analyze(*app);
  ASSERT_GT(live.total, live.kernel + live.unmapped);

  // Exit frees the address space: the same samples no longer resolve.
  kernel.Exit(*app);
  const SampleBreakdown dead = sampler.Analyze(*app);
  EXPECT_EQ(dead.total, live.total);
  EXPECT_EQ(dead.kernel, live.kernel);
  EXPECT_EQ(dead.unmapped, live.total - live.kernel);
}

TEST(ProfilerTest, KernelSamplesShowUpDuringFaultStorms) {
  ZygoteSystem system(ConfigByName("stock"));  // every page faults
  Kernel& kernel = system.kernel();
  Task* app = system.ForkApp("app");
  kernel.ScheduleTo(*app);

  PerfSampler sampler(&system, 0, /*interval=*/400);
  const AppFootprint& boot = system.zygote_boot_footprint();
  for (size_t i = 0; i < 1500; ++i) {
    const TouchedPage& page = boot.pages[i % boot.pages.size()];
    kernel.core().FetchLine(system.CodePageVa(page.lib, page.page_index));
  }
  const SampleBreakdown breakdown = sampler.Analyze(*app);
  // A cold fault storm spends real time in the kernel fault path.
  EXPECT_GT(breakdown.KernelFraction(), 0.2);
  EXPECT_NE(breakdown.ToString().find("kernel="), std::string::npos);
}

}  // namespace
}  // namespace sat
