// Tests for the methodology tools: the smaps analogue (Rss/PSS including
// page-table PSS).

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

}  // namespace
}  // namespace sat
