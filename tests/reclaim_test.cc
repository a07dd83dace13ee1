// Tests for the reverse map and the page-cache reclaim path — the
// "translation overhead grows linearly with the number of processes"
// claim, exercised from the unmap side.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/core/sat.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// ReverseMap unit tests.
// ---------------------------------------------------------------------------

TEST(RmapTest, AddRemoveCount) {
  ReverseMap rmap;
  EXPECT_EQ(rmap.MapCount(5), 0u);
  rmap.Add(5, 1, 10);
  rmap.Add(5, 2, 10);
  rmap.Add(6, 1, 11);
  EXPECT_EQ(rmap.MapCount(5), 2u);
  EXPECT_EQ(rmap.MapCount(6), 1u);
  EXPECT_EQ(rmap.total_entries(), 3u);

  rmap.Remove(5, 1, 10);
  EXPECT_EQ(rmap.MapCount(5), 1u);
  rmap.Remove(5, 9, 9);  // absent: no-op
  EXPECT_EQ(rmap.MapCount(5), 1u);
  rmap.Remove(5, 2, 10);
  EXPECT_EQ(rmap.MapCount(5), 0u);
  EXPECT_EQ(rmap.total_entries(), 1u);
}

TEST(RmapTest, ForEachVisitsAllMappings) {
  ReverseMap rmap;
  rmap.Add(7, 1, 0);
  rmap.Add(7, 2, 0);
  uint32_t visited = 0;
  rmap.ForEach(7, [&](const RmapEntry& entry) {
    EXPECT_EQ(entry.ptp, static_cast<PtpId>(visited + 1));
    EXPECT_EQ(entry.index, 0u);
    visited++;
  });
  EXPECT_EQ(visited, 2u);
  rmap.ForEach(99, [&](const RmapEntry&) { FAIL(); });
}

// ---------------------------------------------------------------------------
// Rmap maintenance through the kernel.
// ---------------------------------------------------------------------------

class ReclaimTest : public ::testing::Test {
 protected:
  ReclaimTest() : system_(ConfigByName("shared-ptp")) {}

  Kernel& kernel() { return system_.kernel(); }

  FrameNumber FrameAt(Task& task, VirtAddr va) {
    const auto ref = task.mm->page_table().FindPte(va);
    return ref->ptp->hw(ref->index).frame();
  }

  System system_;
};

TEST_F(ReclaimTest, SharedPtpPageHasOneRmapEntryForAllSharers) {
  // The headline property: N sharers, one rmap entry.
  Task* a = system_.android().ForkApp("a");
  Task* b = system_.android().ForkApp("b");
  Task* c = system_.android().ForkApp("c");
  (void)b;
  (void)c;
  const LibraryImage* libc = system_.android().catalog().FindByName("libc.so");
  const VirtAddr va = system_.android().CodePageVa(libc->id, 1);
  kernel().TouchPage(*a, va, AccessType::kExecute);  // populates shared PTP
  EXPECT_EQ(kernel().rmap().MapCount(FrameAt(*a, va)), 1u);
}

TEST_F(ReclaimTest, StockPagesHaveOneEntryPerProcess) {
  System stock(ConfigByName("stock"));
  Task* a = stock.android().ForkApp("a");
  Task* b = stock.android().ForkApp("b");
  Task* c = stock.android().ForkApp("c");
  const LibraryImage* libc = stock.android().catalog().FindByName("libc.so");
  const VirtAddr va = stock.android().CodePageVa(libc->id, 1);
  for (Task* task : {a, b, c}) {
    stock.kernel().TouchPage(*task, va, AccessType::kExecute);
  }
  const auto ref = a->mm->page_table().FindPte(va);
  EXPECT_EQ(stock.kernel().rmap().MapCount(ref->ptp->hw(ref->index).frame()),
            3u);
}

TEST_F(ReclaimTest, ReclaimUnmapsFromEverySharerAtOnce) {
  Task* a = system_.android().ForkApp("a");
  Task* b = system_.android().ForkApp("b");
  const LibraryImage* libc = system_.android().catalog().FindByName("libc.so");
  const VirtAddr va = system_.android().CodePageVa(libc->id, 1);
  kernel().TouchPage(*a, va, AccessType::kExecute);

  ReclaimStats stats;
  EXPECT_TRUE(system_.kernel().vm().config().share_ptps);
  Reclaimer reclaimer(&kernel().phys(), &kernel().page_cache(),
                      &kernel().ptp_allocator(), &kernel().rmap(),
                      &kernel().counters(), &kernel().lru());
  EXPECT_TRUE(reclaimer.ReclaimPage(libc->file, 1, &stats));
  EXPECT_EQ(stats.pages_reclaimed, 1u);
  EXPECT_EQ(stats.ptes_cleared, 1u);  // one clear serves both sharers

  // Both sharers now fault again on access.
  const uint64_t faults = kernel().counters().faults_file_backed;
  kernel().TouchPage(*a, va, AccessType::kExecute);
  EXPECT_EQ(kernel().counters().faults_file_backed, faults + 1);
  // ...and b sees the repopulated entry without another fault (shared PTP).
  kernel().TouchPage(*b, va, AccessType::kExecute);
  EXPECT_EQ(kernel().counters().faults_file_backed, faults + 1);
}

TEST_F(ReclaimTest, ReclaimFreesTheFrame) {
  Task* a = system_.android().ForkApp("a");
  const LibraryImage* libpng = system_.android().catalog().FindByName("libpng.so");
  const VirtAddr va = system_.android().CodePageVa(libpng->id, 0);
  kernel().TouchPage(*a, va, AccessType::kExecute);
  const FrameNumber frame = FrameAt(*a, va);
  EXPECT_EQ(kernel().phys().frame(frame).kind, FrameKind::kFileCache);

  ReclaimStats stats;
  Reclaimer reclaimer(&kernel().phys(), &kernel().page_cache(),
                      &kernel().ptp_allocator(), &kernel().rmap(),
                      &kernel().counters(), &kernel().lru());
  reclaimer.ReclaimPage(libpng->file, 0, &stats);
  EXPECT_EQ(kernel().phys().frame(frame).kind, FrameKind::kFree);
  EXPECT_EQ(kernel().page_cache().Lookup(libpng->file, 0),
            PageCache::kNoFrame);
}

TEST_F(ReclaimTest, DirtyAndLargeMappingsAreSkipped) {
  Task* a = system_.android().ForkApp("a");
  // A shared-writable mapping: its page may be dirty -> unreclaimable.
  MmapRequest request;
  request.length = 2 * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kFileShared;
  request.file = 424242;
  request.fixed_address = 0x70000000;
  kernel().Mmap(*a, request);
  kernel().TouchPage(*a, 0x70000000, AccessType::kWrite);

  ReclaimStats stats;
  Reclaimer reclaimer(&kernel().phys(), &kernel().page_cache(),
                      &kernel().ptp_allocator(), &kernel().rmap(),
                      &kernel().counters(), &kernel().lru());
  EXPECT_FALSE(reclaimer.ReclaimPage(424242, 0, &stats));
  EXPECT_EQ(stats.pages_skipped, 1u);

  // A large-page mapping: skipped (the block would need splitting).
  SystemConfig large_config = ConfigByName("shared-ptp");
  large_config.large_code_pages = true;
  large_config.phys_bytes = 1024ull * 1024 * 1024;
  System large_system(large_config);
  Kernel& large_kernel = large_system.kernel();
  Task* app = large_system.android().ForkApp("app");
  (void)app;
  const LibraryImage* libc = large_system.android().catalog().FindByName("libc.so");
  Reclaimer large_reclaimer(&large_kernel.phys(), &large_kernel.page_cache(),
                            &large_kernel.ptp_allocator(), &large_kernel.rmap(),
                            &large_kernel.counters(), &large_kernel.lru());
  ReclaimStats large_stats;
  EXPECT_FALSE(large_reclaimer.ReclaimPage(libc->file, 0, &large_stats));
  EXPECT_EQ(large_stats.pages_skipped, 1u);
}

TEST_F(ReclaimTest, KernelLevelReclaimFlushesTlbs) {
  Task* a = system_.android().ForkApp("a");
  kernel().ScheduleTo(*a);
  const AppFootprint& boot = system_.android().zygote_boot_footprint();
  const TouchedPage& page = boot.pages.front();
  const VirtAddr va = system_.android().CodePageVa(page.lib, page.page_index);
  EXPECT_TRUE(kernel().core().FetchLine(va));  // TLB entry live

  const ReclaimStats stats = kernel().ReclaimFileCache(50);
  EXPECT_EQ(stats.pages_reclaimed, 50u);
  EXPECT_GT(stats.tlb_flushes, 0u);
  EXPECT_EQ(kernel().counters().pages_reclaimed, 50u);

  // The system still works: accesses refault and repopulate.
  EXPECT_TRUE(kernel().core().FetchLine(va));
}

// Forwards every shootdown to the kernel's own sink except the per-PTE
// flush of one chosen site: a kernel that skips exactly one shootdown.
class DroppingShootdown : public TlbShootdown {
 public:
  DroppingShootdown(TlbShootdown* real, PtpId ptp, uint32_t index)
      : real_(real), ptp_(ptp), index_(index) {}

  void FlushSpace(const PageTable& table) override { real_->FlushSpace(table); }
  void FlushPte(PtpId ptp, uint32_t index, bool global) override {
    if (ptp == ptp_ && index == index_) {
      dropped++;
      return;
    }
    real_->FlushPte(ptp, index, global);
  }

  uint32_t dropped = 0;

 private:
  TlbShootdown* real_;
  PtpId ptp_;
  uint32_t index_;
};

// The auditor's detection power for a missed shootdown. An app caches the
// translation of a file page in core 0's TLBs, and reclaim then unmaps
// every clean file page through a sink that forwards everything, except,
// when `drop` is set, the flush of that one page's PTE. Under a config
// that shares TLB entries the page is zygote code, so the stale entry is
// global. Returns the audit.
AuditReport AuditAfterReclaim(const SystemConfig& config, bool drop,
                              VirtAddr* va_out) {
  System system(config);
  Kernel& kernel = system.kernel();
  Task* a = system.android().ForkApp("a");
  kernel.ScheduleTo(*a);
  const TouchedPage& page = system.android().zygote_boot_footprint().pages.front();
  const VirtAddr va = system.android().CodePageVa(page.lib, page.page_index);
  *va_out = va;
  EXPECT_TRUE(kernel.core().FetchLine(va));  // TLB entries live
  const auto ref = a->mm->page_table().FindPte(va);
  TlbShootdown* real = kernel.ptp_allocator().shootdown();
  DroppingShootdown sink(real, drop ? ref->ptp->id() : kNoPtp, ref->index);
  kernel.ptp_allocator().set_shootdown(&sink);

  kernel.ReclaimFileCache(static_cast<uint32_t>(kernel.phys().total_frames()));
  EXPECT_FALSE(ref->ptp->hw(ref->index).valid());  // the page was reclaimed
  EXPECT_EQ(sink.dropped, drop ? 1u : 0u);
  AuditReport audit = kernel.AuditInvariants();
  kernel.ptp_allocator().set_shootdown(real);
  return audit;
}

TEST(ShootdownAuditTest, AuditCatchesOneSkippedPteShootdown) {
  // On shared-ptp-tlb the stale entry is global: its sharers' PTEs are
  // gone, so only the freed frame it still names gives it away.
  for (const char* name : {"shared-ptp", "shared-ptp-tlb"}) {
    SCOPED_TRACE(name);
    VirtAddr va = 0;
    const AuditReport clean =
        AuditAfterReclaim(ConfigByName(name), /*drop=*/false, &va);
    EXPECT_TRUE(clean.ok()) << clean.ToString();

    const AuditReport stale =
        AuditAfterReclaim(ConfigByName(name), /*drop=*/true, &va);
    const std::string vpn = "vpn " + std::to_string(VirtPageNumber(va)) + ":";
    const bool caught = std::any_of(
        stale.violations.begin(), stale.violations.end(),
        [&](const AuditViolation& v) {
          return v.check.rfind("tlb-", 0) == 0 &&
                 v.detail.find(vpn) != std::string::npos;
        });
    EXPECT_TRUE(caught) << stale.ToString();
  }
}

TEST_F(ReclaimTest, ReclaimThenFullRunStaysBalanced) {
  AppRunner runner(&system_.android());
  const AppFootprint fp = system_.workload().Generate(AppProfile::Named("Email"));
  runner.Run(fp, /*exit_after=*/true);
  kernel().ReclaimFileCache(500);
  // Another full app lifecycle on the post-reclaim machine.
  const AppRunStats stats = runner.Run(fp, /*exit_after=*/true);
  EXPECT_GT(stats.file_faults, 0u);
  EXPECT_EQ(kernel().phys().CountFrames(FrameKind::kAnon) > 0, true);
}

}  // namespace
}  // namespace sat
