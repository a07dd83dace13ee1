// Unit tests for the core model: the access pipeline (micro TLB → main
// TLB → walk → abort), context-switch TLB behaviour, the domain-fault
// service path, and kernel-path charging.

#include <gtest/gtest.h>

#include "src/core/sat.h"
#include "src/hw/core.h"
#include "src/mem/page_cache.h"
#include "src/mem/phys_memory.h"
#include "src/vm/vm_manager.h"

namespace sat {
namespace {

// A miniature kernel: enough wiring to drive the Core against real page
// tables without the process layer.
class HwTest : public ::testing::Test {
 protected:
  HwTest()
      : phys_(4096 * kPageSize),
        cache_(&phys_),
        alloc_(&phys_, &counters_),
        vm_(&phys_, &cache_, &counters_, &CostModel::Default(),
            VmConfig{}),
        l2_(CacheHierarchy::MakeL2()),
        core_(&CostModel::Default(), &l2_, &counters_,
              FrameToPhys(static_cast<FrameNumber>(phys_.total_frames())),
              CoreConfig{}) {
    core_.set_abort_handler([this](const MemoryAbort& abort) {
      if (current_mm_ == nullptr) {
        return false;
      }
      return vm_.HandleFault(*current_mm_, abort).ok;
    });
  }

  std::unique_ptr<MmStruct> NewMm(DomainId domain = kDomainUser) {
    return std::make_unique<MmStruct>(&alloc_, &phys_, &counters_, domain);
  }

  void Use(MmStruct* mm, Asid asid, DomainAccessControl dacr, bool switch_cost) {
    current_mm_ = mm;
    MmuContext context;
    context.asid = asid;
    context.dacr = dacr;
    context.page_table = mm ? &mm->page_table() : nullptr;
    if (switch_cost) {
      core_.SwitchContext(context);
    } else {
      core_.SetContext(context);
    }
  }

  VirtAddr MapFile(MmStruct& mm, VirtAddr at, uint32_t pages, VmProt prot,
                   FileId file, bool global = false) {
    MmapRequest request;
    request.length = pages * kPageSize;
    request.prot = prot;
    request.kind = VmKind::kFilePrivate;
    request.file = file;
    request.fixed_address = at;
    request.global = global;
    return vm_.Mmap(mm, request);
  }

  PhysicalMemory phys_;
  PageCache cache_;
  KernelCounters counters_;
  PtpAllocator alloc_;
  VmManager vm_;
  Cache l2_;
  Core core_;
  MmStruct* current_mm_ = nullptr;
};

TEST_F(HwTest, FetchFaultsInPageThenHitsTlb) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 2, VmProt::ReadExec(), 1);
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);

  EXPECT_TRUE(core_.FetchLine(0x40000000));
  EXPECT_EQ(counters_.faults_file_backed, 1u);
  EXPECT_EQ(core_.counters().itlb_main_misses, 2u);  // miss, fault, remiss

  const uint64_t misses = core_.counters().itlb_main_misses;
  EXPECT_TRUE(core_.FetchLine(0x40000020));  // same page, micro-TLB hit
  EXPECT_EQ(core_.counters().itlb_main_misses, misses);
  EXPECT_EQ(counters_.faults_file_backed, 1u);  // no new fault
}

TEST_F(HwTest, UnmappedFetchSegfaults) {
  auto mm = NewMm();
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);
  EXPECT_FALSE(core_.FetchLine(0x40000000));
}

TEST_F(HwTest, KernelAddressFetchFailsFromUserPipeline) {
  auto mm = NewMm();
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);
  EXPECT_FALSE(core_.FetchLine(0xC0000000));
}

TEST_F(HwTest, StoreDrivesCowThroughPermissionFault) {
  auto mm = NewMm();
  MmapRequest request;
  request.length = kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x50000000;
  vm_.Mmap(*mm, request);
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);

  // Load first: zero page mapped read-only; the store then COWs.
  EXPECT_TRUE(core_.Load(0x50000000));
  EXPECT_TRUE(core_.Store(0x50000000));
  EXPECT_EQ(counters_.faults_anonymous, 2u);
  // And the new mapping is writable without further faults.
  const uint64_t faults = counters_.faults_anonymous;
  EXPECT_TRUE(core_.Store(0x50000004));
  EXPECT_EQ(counters_.faults_anonymous, faults);
}

TEST_F(HwTest, ContextSwitchFlushesMicroTlb) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 1, VmProt::ReadExec(), 1);
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);
  EXPECT_TRUE(core_.FetchLine(0x40000000));

  const uint64_t micro_misses = core_.counters().micro_tlb_misses;
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), true);  // switch
  EXPECT_TRUE(core_.FetchLine(0x40000000));
  // Micro TLB was flushed, so this is a micro miss — but the main TLB
  // (ASIDs enabled) still holds the entry.
  EXPECT_GT(core_.counters().micro_tlb_misses, micro_misses);
  EXPECT_EQ(counters_.faults_file_backed, 1u);
}

TEST_F(HwTest, NoAsidSwitchFlushesNonGlobalOnly) {
  CoreConfig config;
  config.asids_enabled = false;
  Core core(&CostModel::Default(), &l2_, &counters_,
            FrameToPhys(static_cast<FrameNumber>(phys_.total_frames())),
            config);
  core.set_abort_handler([this](const MemoryAbort& abort) {
    return vm_.HandleFault(*current_mm_, abort).ok;
  });

  auto mm = NewMm(kDomainZygote);
  MapFile(*mm, 0x40000000, 1, VmProt::ReadExec(), 1, /*global=*/false);
  MapFile(*mm, 0x40400000, 1, VmProt::ReadExec(), 2, /*global=*/true);
  vm_.set_config(ConfigByName("shared-ptp-tlb").vm);

  current_mm_ = mm.get();
  MmuContext context;
  context.asid = 1;
  context.dacr = DomainAccessControl::ZygoteLike();
  context.page_table = &mm->page_table();
  core.SetContext(context);
  EXPECT_TRUE(core.FetchLine(0x40000000));
  EXPECT_TRUE(core.FetchLine(0x40400000));

  const uint64_t main_misses_before = core.counters().itlb_main_misses;
  core.SwitchContext(context);  // flushes all non-global entries
  EXPECT_TRUE(core.FetchLine(0x40400000));  // global survived: no main miss
  EXPECT_EQ(core.counters().itlb_main_misses, main_misses_before);
  EXPECT_TRUE(core.FetchLine(0x40000000));  // non-global was flushed
  EXPECT_EQ(core.counters().itlb_main_misses, main_misses_before + 1);
  vm_.set_config(VmConfig{});
}

TEST_F(HwTest, DomainFaultFlushesAndRetriesIntoOwnTable) {
  vm_.set_config(ConfigByName("shared-ptp-tlb").vm);

  // A zygote-like process loads a global TLB entry for 0x40000000.
  auto zygote_mm = NewMm(kDomainZygote);
  MapFile(*zygote_mm, 0x40000000, 1, VmProt::ReadExec(), 1, /*global=*/true);
  Use(zygote_mm.get(), 1, DomainAccessControl::ZygoteLike(), false);
  EXPECT_TRUE(core_.FetchLine(0x40000000));

  // A non-zygote process maps the same VA to a different file, and has no
  // access to the zygote domain.
  auto other_mm = NewMm(kDomainUser);
  MapFile(*other_mm, 0x40000000, 1, VmProt::ReadExec(), 99, /*global=*/false);
  Use(other_mm.get(), 2, DomainAccessControl::StockDefault(), true);

  EXPECT_TRUE(core_.FetchLine(0x40000000));
  EXPECT_EQ(counters_.domain_faults, 1u);
  // The retry walked the non-zygote process's own table: its file page.
  const auto ref = other_mm->page_table().FindPte(0x40000000);
  ASSERT_TRUE(ref.has_value());
  EXPECT_TRUE(ref->ptp->hw(ref->index).valid());

  // Back on the zygote side, everything still works (its entry was the
  // one flushed, but the walk restores it).
  Use(zygote_mm.get(), 1, DomainAccessControl::ZygoteLike(), true);
  EXPECT_TRUE(core_.FetchLine(0x40000000));
  EXPECT_EQ(counters_.domain_faults, 1u);  // no new fault
  vm_.set_config(VmConfig{});
}

TEST_F(HwTest, L1WriteProtectAblationFaultsOnSharedSlotWrite) {
  VmConfig config = ConfigByName("shared-ptp").vm;
  config.hw_l1_write_protect = true;
  vm_.set_config(config);

  auto parent = NewMm();
  auto child = NewMm();
  MmapRequest request;
  request.length = kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = 0x50000000;
  vm_.Mmap(*parent, request);
  vm_.HandleFault(*parent,
                  MemoryAbort{FaultStatus::kTranslation, 0x50000000,
                              AccessType::kWrite, false});
  vm_.Fork(*parent, *child);
  // No per-PTE protection pass happened, yet the write must still fault
  // (L1-level COW) and unshare.
  EXPECT_EQ(counters_.ptes_write_protected, 0u);
  Use(child.get(), 3, DomainAccessControl::StockDefault(), false);
  EXPECT_TRUE(core_.Store(0x50000000));
  EXPECT_EQ(counters_.ptps_unshared, 1u);
  EXPECT_FALSE(child->page_table().SlotNeedsCopy(0x50000000));
  vm_.set_config(VmConfig{});
}

TEST_F(HwTest, NoPageTableContextSegfaults) {
  Use(nullptr, 0, DomainAccessControl::StockDefault(), false);
  MmuContext context;  // page_table == nullptr (kernel thread)
  core_.SetContext(context);
  current_mm_ = nullptr;
  EXPECT_FALSE(core_.FetchLine(0x40000000));
}

TEST_F(HwTest, FetchBurstPropagatesFailure) {
  auto mm = NewMm();
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);
  EXPECT_FALSE(core_.FetchBurst(0x40000000, 16));  // unmapped
}

TEST_F(HwTest, FetchBurstChargesTailCycles) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 1, VmProt::ReadExec(), 1);
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);
  core_.FetchLine(0x40000000);  // warm everything

  const CoreCounters before = core_.counters();
  EXPECT_TRUE(core_.FetchBurst(0x40000000, 10));
  const CoreCounters delta = core_.counters() - before;
  EXPECT_EQ(delta.inst_fetch_lines, 10u);
  EXPECT_EQ(delta.cycles, 10 * CostModel::Default().l1_hit);
}

TEST_F(HwTest, RunKernelPathChargesCyclesAndLines) {
  const CoreCounters before = core_.counters();
  core_.RunKernelPath(KernelPath::kFaultHandler, 1000, 50);
  const CoreCounters delta = core_.counters() - before;
  EXPECT_EQ(delta.kernel_inst_lines, 50u);
  EXPECT_GE(delta.cycles, 1000u + 50);  // base + at least a cycle per line
}

TEST_F(HwTest, KernelPathsRotateThroughDistinctTextWindows) {
  // Each invocation continues through the path's text window (the fault
  // path is bigger than the L1I, so faults keep costing I-cache misses).
  core_.RunKernelPath(KernelPath::kContextSwitch, 0, 10);
  const uint64_t misses_first = core_.counters().l1i_misses;
  EXPECT_EQ(misses_first, 10u);  // cold window
  core_.RunKernelPath(KernelPath::kContextSwitch, 0, 10);
  EXPECT_EQ(core_.counters().l1i_misses, misses_first + 10);  // rotated on

  // The context-switch window (512 lines = 16 KB) fits the L1I: once the
  // rotation wraps, its lines are warm again.
  core_.RunKernelPath(KernelPath::kContextSwitch, 0, 512 - 20);
  const uint64_t misses_wrapped = core_.counters().l1i_misses;
  core_.RunKernelPath(KernelPath::kContextSwitch, 0, 20);
  EXPECT_EQ(core_.counters().l1i_misses, misses_wrapped);

  // A different path uses a distinct window: cold lines again.
  core_.RunKernelPath(KernelPath::kBinder, 0, 10);
  EXPECT_EQ(core_.counters().l1i_misses, misses_wrapped + 10);
}

TEST_F(HwTest, WalkChargesTlbStallsNotDcacheStalls) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 1, VmProt::ReadExec(), 1);
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);
  core_.FetchLine(0x40000000);
  EXPECT_GT(core_.counters().itlb_stall_cycles, 0u);
  EXPECT_EQ(core_.counters().dcache_stall_cycles, 0u);
}

TEST_F(HwTest, WalkSetsReferencedBit) {
  auto mm = NewMm();
  MapFile(*mm, 0x40000000, 1, VmProt::ReadExec(), 1);
  Use(mm.get(), 1, DomainAccessControl::StockDefault(), false);
  core_.FetchLine(0x40000000);
  const auto ref = mm->page_table().FindPte(0x40000000);
  EXPECT_TRUE(ref->ptp->sw(ref->index).young());
}

}  // namespace
}  // namespace sat
