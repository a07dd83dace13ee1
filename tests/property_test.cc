// Property-based tests: parameterized sweeps asserting invariants that
// must hold for *every* configuration, seed, and workload — not just the
// calibrated paper scenarios.
//
//   * Randomized kernel-op fuzzing (mmap/munmap/mprotect/touch/fork/exit)
//     with resource-balance checks at teardown, across seeds x configs.
//   * Translation equivalence: whatever the kernel configuration, the
//     virtual-to-physical mapping an app observes for preloaded code is
//     identical — sharing changes the *structures*, never the semantics.
//   * Fault-count dominance: shared-PTP kernels never take more
//     file-backed faults than stock for the same replay.
//   * TLB geometry sweeps: accounting identities hold for any size/ways.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "src/core/sat.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// Randomized kernel-op fuzzing.
// ---------------------------------------------------------------------------

struct FuzzCase {
  uint64_t seed;
  bool share_ptps;
  bool hw_l1_wp;
  bool lazy_unshare;
  bool ref_only_unshare;
};

class KernelFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(KernelFuzzTest, RandomOpsPreserveResourceBalance) {
  const FuzzCase fuzz = GetParam();
  KernelParams params;
  params.phys_bytes = 128ull * 1024 * 1024;
  params.vm.share_ptps = fuzz.share_ptps;
  params.vm.hw_l1_write_protect = fuzz.hw_l1_wp;
  params.vm.lazy_unshare_on_new_region = fuzz.lazy_unshare;
  params.vm.copy_referenced_only_on_unshare = fuzz.ref_only_unshare;
  Kernel kernel(params);

  std::mt19937_64 rng(fuzz.seed);
  Task* root = kernel.CreateTask("root");
  std::vector<Task*> live = {root};
  // Track each task's regions so touches stay in-bounds.
  std::map<Task*, std::vector<std::pair<VirtAddr, uint32_t>>> regions;

  const uint64_t frames_baseline = kernel.phys().used_frames();

  for (int op = 0; op < 600; ++op) {
    Task* task = live[rng() % live.size()];
    switch (rng() % 10) {
      case 0:
      case 1: {  // mmap (anon or file, sometimes into fresh 2 MB slots)
        MmapRequest request;
        const uint32_t pages = 1 + static_cast<uint32_t>(rng() % 64);
        request.length = pages * kPageSize;
        if (rng() % 2 == 0) {
          request.prot = VmProt::ReadWrite();
          request.kind = VmKind::kAnonPrivate;
        } else {
          request.prot = (rng() % 2 == 0) ? VmProt::ReadExec() : VmProt::ReadWrite();
          request.kind = VmKind::kFilePrivate;
          request.file = static_cast<FileId>(rng() % 8);
          request.file_page_offset = static_cast<uint32_t>(rng() % 32);
        }
        const VirtAddr at = kernel.Mmap(*task, request).value;
        if (at != 0) {
          regions[task].push_back({at, pages});
        }
        break;
      }
      case 2: {  // munmap a random region (possibly partially)
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
      case 6: {  // touch
        auto& list = regions[task];
        if (list.empty()) {
          break;
        }
        auto [start, pages] = list[rng() % list.size()];
        const VirtAddr va = start + static_cast<uint32_t>(rng() % pages) * kPageSize;
        const VmArea* vma = task->mm->FindVma(va);
        if (vma == nullptr) {
          break;  // that part was since unmapped
        }
        const AccessType access = vma->prot.write && (rng() % 2 == 0)
                                      ? AccessType::kWrite
                                      : AccessType::kRead;
        kernel.TouchPage(*task, va, access);
        break;
      }
      case 7:
      case 8: {  // fork (nullptr on ENOMEM is a legal outcome)
        if (live.size() >= 12) {
          break;
        }
        Task* child = kernel.Fork(*task, "child").child;
        if (child != nullptr) {
          live.push_back(child);
          regions[child] = regions[task];  // inherited regions
        }
        break;
      }
      case 9: {  // exit (keep at least one task)
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
    }
  }

  // Every redundant structure must agree before teardown...
  const AuditReport mid_report = kernel.AuditInvariants();
  EXPECT_TRUE(mid_report.ok()) << mid_report.ToString();

  // Teardown: exit everything. All anonymous memory and all PTPs must be
  // gone; only page-cache frames may outlive the processes.
  for (Task* task : live) {
    if (task->alive) {
      kernel.Exit(*task);
    }
  }
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), 0u);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), 0u);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kPageTable), 0u);
  EXPECT_EQ(kernel.phys().used_frames() - frames_baseline,
            kernel.phys().CountFrames(FrameKind::kFileCache));
}

std::vector<FuzzCase> FuzzCases() {
  std::vector<FuzzCase> cases;
  for (uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    cases.push_back({seed, false, false, false, false});
    cases.push_back({seed, true, false, false, false});
    cases.push_back({seed, true, true, false, false});
    cases.push_back({seed, true, false, true, false});
    cases.push_back({seed, true, false, false, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, KernelFuzzTest, ::testing::ValuesIn(FuzzCases()),
    [](const ::testing::TestParamInfo<FuzzCase>& param_info) {
      const FuzzCase& c = param_info.param;
      std::string name = "seed" + std::to_string(c.seed);
      name += c.share_ptps ? "_shared" : "_stock";
      if (c.hw_l1_wp) name += "_l1wp";
      if (c.lazy_unshare) name += "_lazy";
      if (c.ref_only_unshare) name += "_refonly";
      return name;
    });

// ---------------------------------------------------------------------------
// Translation equivalence across kernel configurations.
// ---------------------------------------------------------------------------

class TranslationEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TranslationEquivalenceTest, SharingNeverChangesTranslations) {
  const std::string app_name = GetParam();

  // Run the same app replay under stock and shared kernels and compare
  // every resulting translation of its shared-code footprint.
  auto translations = [&](SystemConfig config) {
    System system(config);
    AppRunner runner(&system.android());
    const AppFootprint fp =
        system.workload().Generate(AppProfile::Named(app_name));
    Task* app = system.android().ForkApp(fp.app_name + "#probe");
    Kernel& kernel = system.kernel();
    std::map<uint64_t, uint32_t> out;  // page key -> file page index
    for (const TouchedPage& page : fp.pages) {
      if (!IsZygotePreloadedCategory(page.category)) {
        continue;
      }
      const VirtAddr va =
          system.android().CodePageVa(page.lib, page.page_index);
      EXPECT_TRUE(kernel.TouchPage(*app, va, AccessType::kExecute));
      const auto ref = app->mm->page_table().FindPte(va);
      const FrameNumber frame = ref->ptp->hw(ref->index).frame();
      const PageFrame& meta = kernel.phys().frame(frame);
      // Identify the *content*, not the frame number (allocation order
      // differs between configs): it must be the right page of the right
      // file.
      EXPECT_EQ(meta.kind, FrameKind::kFileCache);
      EXPECT_EQ(meta.file, static_cast<FileId>(page.lib));
      out[(static_cast<uint64_t>(static_cast<uint32_t>(page.lib)) << 32) |
          page.page_index] = meta.file_page_index;
    }
    return out;
  };

  const auto stock = translations(ConfigByName("stock"));
  const auto shared = translations(ConfigByName("shared-ptp-tlb"));
  EXPECT_EQ(stock, shared);
  EXPECT_FALSE(stock.empty());
}

INSTANTIATE_TEST_SUITE_P(Apps, TranslationEquivalenceTest,
                         ::testing::Values("Angrybirds", "Email",
                                           "Google Calendar"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Fault-count dominance.
// ---------------------------------------------------------------------------

class FaultDominanceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultDominanceTest, SharedKernelNeverFaultsMore) {
  const std::string app_name = GetParam();
  auto faults = [&](SystemConfig config) {
    System system(config);
    AppRunner runner(&system.android());
    const AppFootprint fp =
        system.workload().Generate(AppProfile::Named(app_name));
    return runner.Run(fp).file_faults;
  };
  EXPECT_LE(faults(ConfigByName("shared-ptp")), faults(ConfigByName("stock")));
  EXPECT_LE(faults(ConfigByName("shared-ptp-2mb")),
            faults(ConfigByName("stock-2mb")));
}

INSTANTIATE_TEST_SUITE_P(Apps, FaultDominanceTest,
                         ::testing::Values("Angrybirds", "Adobe Reader",
                                           "Chrome", "WPS", "MX Player"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// TLB geometry sweep.
// ---------------------------------------------------------------------------

struct TlbGeometry {
  uint32_t entries;
  uint32_t ways;
};

class TlbGeometryTest : public ::testing::TestWithParam<TlbGeometry> {};

TEST_P(TlbGeometryTest, AccountingIdentitiesHold) {
  const TlbGeometry geometry = GetParam();
  MainTlb tlb(geometry.entries, geometry.ways);
  const DomainAccessControl dacr = DomainAccessControl::StockDefault();
  std::mt19937_64 rng(99);

  for (int i = 0; i < 4000; ++i) {
    const uint32_t vpn = static_cast<uint32_t>(rng() % 512);
    const Asid asid = static_cast<Asid>(1 + rng() % 3);
    TlbEntry entry;
    if (tlb.Lookup(vpn << 12, asid, AccessType::kRead, dacr, &entry) ==
        TlbResult::kMiss) {
      entry.valid = true;
      entry.vpn = vpn;
      entry.size_pages = 1;
      entry.asid = asid;
      entry.domain = kDomainUser;
      entry.perm = PtePerm::kReadOnly;
      entry.executable = true;
      entry.frame = vpn;
      tlb.Insert(entry);
    }
  }

  const TlbStats& stats = tlb.stats();
  EXPECT_EQ(stats.lookups, 4000u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.insertions, stats.misses);
  EXPECT_LE(tlb.ValidEntryCount(), geometry.entries);
  EXPECT_GT(tlb.ValidEntryCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometryTest,
    ::testing::Values(TlbGeometry{32, 1}, TlbGeometry{64, 2},
                      TlbGeometry{128, 2}, TlbGeometry{128, 4},
                      TlbGeometry{256, 2}, TlbGeometry{512, 4}),
    [](const ::testing::TestParamInfo<TlbGeometry>& param_info) {
      return "e" + std::to_string(param_info.param.entries) + "w" +
             std::to_string(param_info.param.ways);
    });

// ---------------------------------------------------------------------------
// Duplicate-freedom: after ANY sequence of inserts and flushes, no two
// valid entries may answer the same (vpn, asid) lookup — same-ASID or
// global duplicates, at either page size. This is the invariant behind the
// stale-duplicate re-insert fix: before it, re-inserting a VPN with a
// changed global bit, ASID, or page size left both copies valid.
// ---------------------------------------------------------------------------

class TlbDuplicateFreedomTest : public ::testing::TestWithParam<TlbGeometry> {
};

TEST_P(TlbDuplicateFreedomTest, NoTwoEntriesAnswerTheSameLookup) {
  const TlbGeometry geometry = GetParam();
  std::mt19937_64 rng(geometry.entries * 31ull + geometry.ways);

  for (int round = 0; round < 6; ++round) {
    MainTlb tlb(geometry.entries, geometry.ways);
    for (int op = 0; op < 2000; ++op) {
      const uint32_t roll = static_cast<uint32_t>(rng() % 100);
      if (roll < 80) {
        // Insert: small or large page, random ASID, sometimes global —
        // deliberately revisiting a small VPN range so attribute-changing
        // re-inserts (the bug's trigger) happen constantly.
        TlbEntry entry;
        entry.valid = true;
        const bool large = (rng() % 8) == 0;
        entry.size_pages = large ? kPtesPerLargePage : 1;
        entry.vpn = static_cast<uint32_t>(rng() % 256);
        if (large) {
          entry.vpn &= ~(kPtesPerLargePage - 1);
        }
        entry.asid = static_cast<Asid>(1 + rng() % 4);
        entry.global = (rng() % 4) == 0;
        entry.domain = kDomainUser;
        entry.perm = PtePerm::kReadOnly;
        entry.executable = true;
        entry.frame = entry.vpn + 7;
        tlb.Insert(entry);
      } else if (roll < 90) {
        tlb.FlushAsid(static_cast<Asid>(1 + rng() % 4));
      } else {
        tlb.FlushVa(static_cast<VirtAddr>(rng() % 256) << 12);
      }
    }

    std::vector<TlbEntry> live;
    for (uint32_t set = 0; set < tlb.num_sets(); ++set) {
      for (uint32_t way = 0; way < tlb.ways(); ++way) {
        const TlbEntry& entry = tlb.EntryAt(set, way);
        if (entry.valid) {
          live.push_back(entry);
        }
      }
    }
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t j = i + 1; j < live.size(); ++j) {
        EXPECT_FALSE(EntriesConflict(live[i], live[j]))
            << "duplicate entries: vpn " << live[i].vpn << "/" << live[j].vpn
            << " size " << live[i].size_pages << "/" << live[j].size_pages
            << " asid " << static_cast<int>(live[i].asid) << "/"
            << static_cast<int>(live[j].asid) << " global " << live[i].global
            << "/" << live[j].global;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDuplicateFreedomTest,
    ::testing::Values(TlbGeometry{8, 2}, TlbGeometry{32, 1},
                      TlbGeometry{64, 2}, TlbGeometry{128, 4},
                      TlbGeometry{256, 2}),
    [](const ::testing::TestParamInfo<TlbGeometry>& param_info) {
      return "e" + std::to_string(param_info.param.entries) + "w" +
             std::to_string(param_info.param.ways);
    });

// ---------------------------------------------------------------------------
// Cache accounting sweep.
// ---------------------------------------------------------------------------

struct CacheGeometry {
  uint32_t size;
  uint32_t ways;
};

class CacheGeometryTest : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheGeometryTest, StatsAreConsistentAndBounded) {
  const CacheGeometry geometry = GetParam();
  Cache cache("sweep", geometry.size, 32, geometry.ways);
  std::mt19937_64 rng(7);
  uint64_t observed_hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (cache.Access((rng() % 4096) * 32)) {
      observed_hits++;
    }
  }
  EXPECT_EQ(cache.stats().accesses, 20000u);
  EXPECT_EQ(cache.stats().accesses - cache.stats().misses, observed_hits);
  EXPECT_GE(cache.stats().MissRate(), 0.0);
  EXPECT_LE(cache.stats().MissRate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(CacheGeometry{4096, 2}, CacheGeometry{16384, 4},
                      CacheGeometry{32768, 4}, CacheGeometry{65536, 8},
                      CacheGeometry{1048576, 16}),
    [](const ::testing::TestParamInfo<CacheGeometry>& param_info) {
      return "s" + std::to_string(param_info.param.size) + "w" +
             std::to_string(param_info.param.ways);
    });

// ---------------------------------------------------------------------------
// Config-matrix sweep: every extension combination boots a full system,
// runs an app lifecycle, and leaves the machine balanced.
// ---------------------------------------------------------------------------

struct MatrixCase {
  bool share_ptps;
  bool share_tlb;
  bool two_mb;
  bool large_pages;
  bool no_asids;
  uint32_t cores;
  uint32_t fault_around;
  IsolationModel isolation;
};

class ConfigMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigMatrixTest, BootRunExitStaysBalanced) {
  const MatrixCase m = GetParam();
  SystemConfig config;
  config.vm.share_ptps = m.share_ptps;
  config.vm.share_tlb_global = m.share_tlb;
  config.mapping_policy =
      m.two_mb ? MappingPolicy::kTwoMbAligned : MappingPolicy::kOriginal;
  config.large_code_pages = m.large_pages;
  config.core.asids_enabled = !m.no_asids;
  config.num_cores = m.cores;
  config.vm.fault_around_pages = m.fault_around;
  config.core.isolation = m.isolation;
  config.phys_bytes = 1024ull * 1024 * 1024;

  System system(config);
  Kernel& kernel = system.kernel();
  const uint64_t ptps_baseline = kernel.ptp_allocator().live_ptps();
  const uint64_t anon_baseline = kernel.phys().CountFrames(FrameKind::kAnon);

  // One full app lifecycle in touch-replay mode...
  AppRunner runner(&system.android());
  const AppFootprint fp =
      system.workload().Generate(AppProfile::Named("Chrome Sandbox"));
  const AppRunStats stats = runner.Run(fp, /*exit_after=*/true);
  EXPECT_GT(stats.file_faults + stats.inherited_ptes, 100u);

  // ...and a burst through the cycle-level pipeline on the last core.
  Task* app = system.android().ForkApp("pipeline");
  kernel.ScheduleTo(*app, m.cores - 1);
  const AppFootprint& boot = system.android().zygote_boot_footprint();
  for (size_t i = 0; i < 400; ++i) {
    const TouchedPage& page = boot.pages[(i * 17) % boot.pages.size()];
    EXPECT_TRUE(kernel.core(m.cores - 1)
                    .FetchLine(system.android().CodePageVa(page.lib,
                                                           page.page_index)));
  }
  kernel.Exit(*app);

  EXPECT_EQ(kernel.ptp_allocator().live_ptps(), ptps_baseline);
  EXPECT_EQ(kernel.phys().CountFrames(FrameKind::kAnon), anon_baseline);
  const AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
  // The sound isolation models never leak instruction translations.
  if (m.isolation != IsolationModel::kMpkDataOnly) {
    EXPECT_EQ(kernel.machine().TotalCounters().unsound_global_hits, 0u);
  }
}

std::vector<MatrixCase> MatrixCases() {
  std::vector<MatrixCase> cases;
  cases.push_back({false, false, false, false, false, 1, 0,
                   IsolationModel::kArmDomains});
  cases.push_back({true, false, false, false, false, 1, 0,
                   IsolationModel::kArmDomains});
  cases.push_back({true, true, true, false, false, 1, 0,
                   IsolationModel::kArmDomains});
  cases.push_back({true, true, false, true, false, 1, 0,
                   IsolationModel::kArmDomains});
  cases.push_back({true, true, false, false, true, 1, 0,
                   IsolationModel::kArmDomains});
  cases.push_back({true, true, false, false, false, 4, 0,
                   IsolationModel::kArmDomains});
  cases.push_back({true, true, true, true, false, 2, 16,
                   IsolationModel::kArmDomains});
  cases.push_back({true, true, false, false, false, 1, 0,
                   IsolationModel::kFlushOnSwitch});
  cases.push_back({true, true, false, false, false, 2, 8,
                   IsolationModel::kMpkDataOnly});
  cases.push_back({false, false, true, true, true, 4, 16,
                   IsolationModel::kArmDomains});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigMatrixTest, ::testing::ValuesIn(MatrixCases()),
    [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
      const MatrixCase& m = param_info.param;
      std::string name;
      name += m.share_ptps ? "ptp" : "stock";
      if (m.share_tlb) name += "_tlb";
      if (m.two_mb) name += "_2mb";
      if (m.large_pages) name += "_lp";
      if (m.no_asids) name += "_noasid";
      if (m.cores > 1) name += "_c" + std::to_string(m.cores);
      if (m.fault_around > 0) name += "_fa" + std::to_string(m.fault_around);
      if (m.isolation == IsolationModel::kMpkDataOnly) name += "_mpk";
      if (m.isolation == IsolationModel::kFlushOnSwitch) name += "_flush";
      return name;
    });

// ---------------------------------------------------------------------------
// Fork-depth sweep: chains of forks keep sharer counts exact.
// ---------------------------------------------------------------------------

class ForkChainTest : public ::testing::TestWithParam<int> {};

TEST_P(ForkChainTest, SharerCountsMatchChainDepth) {
  const int depth = GetParam();
  KernelParams params;
  params.vm.share_ptps = true;
  Kernel kernel(params);
  Task* zygote = kernel.CreateTask("zygote");
  kernel.Exec(*zygote, "app_process", true);
  MmapRequest request;
  request.length = 8 * kPageSize;
  request.prot = VmProt::ReadExec();
  request.kind = VmKind::kFilePrivate;
  request.file = 5;
  request.fixed_address = 0x40000000;
  kernel.Mmap(*zygote, request);
  kernel.TouchPage(*zygote, 0x40000000, AccessType::kExecute);

  std::vector<Task*> chain = {zygote};
  for (int i = 0; i < depth; ++i) {
    chain.push_back(kernel.Fork(*chain.back(), "c" + std::to_string(i)).child);
  }
  const PtpId shared = zygote->mm->page_table().l1(PtpSlotIndex(0x40000000)).ptp;
  EXPECT_EQ(kernel.ptp_allocator().Get(shared).SharerCount(),
            static_cast<uint32_t>(depth + 1));

  // Tear down leaf-first; count drops one per exit.
  for (int i = depth; i >= 1; --i) {
    kernel.Exit(*chain[static_cast<size_t>(i)]);
    EXPECT_EQ(kernel.ptp_allocator().Get(shared).SharerCount(),
              static_cast<uint32_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, ForkChainTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace sat
