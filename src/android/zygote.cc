#include "src/android/zygote.h"

#include <algorithm>
#include <cassert>
#include <random>

namespace sat {

namespace {

// Placement of the zygote's anonymous heaps: one region per 2 MB slot so
// the stock fork's per-slot PTP cost is visible, as on the real platform
// where the Dalvik/ART heaps span many PTPs.
constexpr VirtAddr kAnonHeapBase = 0x20000000;
constexpr VirtAddr kStackTop = 0xBE800000;

// The zygote's boot footprint. Table 4 reports 5,900 populated
// instruction PTEs and 7 stack pages. The anonymous heaps are 30 regions
// x 100 touched pages; the stock kernel copies these PTEs at every fork
// (the 3,900 PTE / 38 PTP cost Table 4 attributes to the stock fork).
// Static initialization dirties 800 library data pages.
constexpr uint32_t kBootCodePages = 5900;
constexpr uint32_t kStackPages = 7;
constexpr uint32_t kAnonRegions = 30;
constexpr uint32_t kAnonPagesPerRegion = 100;
constexpr uint32_t kBootDataWrites = 800;

}  // namespace

std::string SystemConfig::Name() const {
  std::string name;
  if (vm.copy_zygote_code_ptes_at_fork) {
    name = "Copied PTEs";
  } else if (vm.share_ptps && vm.share_tlb_global) {
    name = "Shared PTP & TLB";
  } else if (vm.share_ptps) {
    name = "Shared PTP";
  } else {
    name = "Stock Android";
  }
  if (mapping_policy == MappingPolicy::kTwoMbAligned) {
    name += " - 2MB";
  }
  if (!core.asids_enabled) {
    name += " (no ASID)";
  }
  if (vm.copy_referenced_only_on_unshare) {
    name += " [ref-only unshare]";
  }
  if (vm.lazy_unshare_on_new_region) {
    name += " [lazy unshare]";
  }
  if (vm.hw_l1_write_protect) {
    name += " [L1 WP]";
  }
  if (large_code_pages) {
    name += " [64KB code]";
  }
  if (vm.fault_around_pages > 0) {
    name += " [FA" + std::to_string(vm.fault_around_pages) + "]";
  }
  if (core.isolation != IsolationModel::kArmDomains) {
    name += std::string(" [") + IsolationModelName(core.isolation) + "]";
  }
  if (swap_bytes > 0) {
    name += " [zram " + std::to_string(swap_bytes >> 20) + "MB]";
  }
  if (ksm_enabled) {
    name += " [ksm]";
  }
  if (scrub) {
    name += " [scrub]";
  }
  if (huge) {
    name += huge_unmerge_ksm ? " [huge+unmerge]" : " [huge]";
  }
  if (num_cores > 1) {
    name += " [" + std::to_string(num_cores) + " cores";
    if (num_nodes > 1) {
      name += ", " + std::to_string(num_nodes) + " nodes";
      if (pt_placement != PtPlacement::kLocal) {
        name += std::string(", pt-") + PtPlacementName(pt_placement);
      }
    }
    name += "]";
  }
  if (shootdown_policy == ShootdownPolicy::kBatched) {
    name += " [batched shootdown]";
  }
  return name;
}

ZygoteSystem::ZygoteSystem(const SystemConfig& config)
    : config_(config), catalog_(LibraryCatalog::AndroidDefault()) {
  kernel_ = std::make_unique<Kernel>(config_);
  loader_ = std::make_unique<DynamicLoader>(kernel_.get(), &catalog_,
                                            config_.mapping_policy);
  loader_->set_large_code_pages(config_.large_code_pages);
  workload_ = std::make_unique<WorkloadFactory>(&catalog_);
  Boot();
}

void ZygoteSystem::Boot() {
  Kernel& kernel = *kernel_;

  init_ = kernel.CreateTask("init");
  zygote_ = kernel.Fork(*init_, "zygote").child;
  kernel.Exec(*zygote_, "app_process(zygote)", /*is_zygote=*/true);
  kernel.SetCurrent(*zygote_);

  // Preload the 88 shared objects; the kernel's mmap policy marks the code
  // segments global because the caller holds the zygote flag.
  loader_->PreloadAll(*zygote_);

  // Eager 1 MB sections over the preload set's code (the translation-
  // reach engine's boot-time contribution; no-op unless `huge` is on).
  kernel.MapZygoteSections(*zygote_);

  // Stack (excluded from PTP sharing as a design choice).
  MmapRequest stack_request;
  stack_request.length = 1024 * kPageSize;  // 4 MB reservation
  stack_request.prot = VmProt::ReadWrite();
  stack_request.kind = VmKind::kAnonPrivate;
  stack_request.fixed_address = kStackTop - 1024 * kPageSize;
  stack_request.is_stack = true;
  stack_request.name = "[stack]";
  const VirtAddr stack_base = kernel.Mmap(*zygote_, stack_request).value;
  for (uint32_t i = 0; i < kStackPages; ++i) {
    kernel.TouchPage(*zygote_,
                     kStackTop - (i + 1) * kPageSize, AccessType::kWrite);
  }
  (void)stack_base;

  // Anonymous heaps (ART heap, linker allocations, property areas, ...).
  for (uint32_t region = 0; region < kAnonRegions; ++region) {
    MmapRequest anon_request;
    anon_request.length = kPtpSpan;  // one 2 MB slot each
    anon_request.prot = VmProt::ReadWrite();
    anon_request.kind = VmKind::kAnonPrivate;
    anon_request.fixed_address = kAnonHeapBase + region * kPtpSpan;
    anon_request.name = "[anon:heap" + std::to_string(region) + "]";
    const VirtAddr base = kernel.Mmap(*zygote_, anon_request).value;
    for (uint32_t page = 0; page < kAnonPagesPerRegion; ++page) {
      kernel.TouchPage(*zygote_, base + page * kPageSize, AccessType::kWrite);
    }
  }

  // Boot-time execution: touch the hottest pages of the preload set.
  boot_footprint_ =
      workload_->GenerateZygoteFootprint(kBootCodePages, config_.seed);
  for (const TouchedPage& page : boot_footprint_.pages) {
    kernel.TouchPage(*zygote_, CodePageVa(page.lib, page.page_index),
                     AccessType::kExecute);
  }

  // Static initialization dirties library data (COW copies in place).
  {
    std::mt19937_64 rng(config_.seed ^ 0xD1B54A32D192ED03ull);
    const auto preload = catalog_.ZygotePreloadSet();
    // Dirty the biggest data segments first (boot image, libart, ...).
    std::vector<LibraryId> by_data(preload.begin(), preload.end());
    std::sort(by_data.begin(), by_data.end(), [&](LibraryId a, LibraryId b) {
      return catalog_.Get(a).data_pages > catalog_.Get(b).data_pages;
    });
    uint32_t remaining = kBootDataWrites;
    for (LibraryId lib : by_data) {
      if (remaining == 0) {
        break;
      }
      const LibraryImage& image = catalog_.Get(lib);
      if (image.data_pages == 0) {
        continue;
      }
      // Concentrated in the few biggest data segments (boot image, ART,
      // webview): static init dirties about half of each.
      const uint32_t here = std::min(remaining, std::max(1u, image.data_pages / 2));
      for (uint32_t i = 0; i < here; ++i) {
        const auto page = static_cast<uint32_t>(rng() % image.data_pages);
        kernel.TouchPage(*zygote_, DataPageVa(lib, page), AccessType::kWrite);
      }
      remaining -= here;
    }
  }

  // The system_server: the first zygote child, running Android's core
  // services (it is the peer of every app-launch IPC).
  system_server_ = kernel.Fork(*zygote_, "system_server").child;
}

Task* ZygoteSystem::ForkApp(const std::string& name) {
  return ForkAppWithStats(name).child;
}

ForkOutcome ZygoteSystem::ForkAppWithStats(const std::string& name) {
  return kernel_->Fork(*zygote_, name);
}

VirtAddr ZygoteSystem::CodePageVa(LibraryId lib, uint32_t page_index) const {
  const MappedLibrary* mapped = loader_->FindZygoteMapping(lib);
  assert(mapped != nullptr && "library was not preloaded by the zygote");
  assert(page_index < catalog_.Get(lib).code_pages);
  return mapped->code_base + page_index * kPageSize;
}

VirtAddr ZygoteSystem::DataPageVa(LibraryId lib, uint32_t page_index) const {
  const MappedLibrary* mapped = loader_->FindZygoteMapping(lib);
  assert(mapped != nullptr && "library was not preloaded by the zygote");
  assert(page_index < catalog_.Get(lib).data_pages);
  return mapped->data_base + page_index * kPageSize;
}

uint32_t ZygoteSystem::CountInheritedPtes(Task& task,
                                          const AppFootprint& fp) const {
  const PageTable& pt = task.mm->page_table();
  uint32_t inherited = 0;
  for (const TouchedPage& page : fp.pages) {
    if (!IsZygotePreloadedCategory(page.category)) {
      continue;
    }
    const auto ref = pt.FindPte(CodePageVa(page.lib, page.page_index));
    if (ref.has_value() && ref->ptp->hw(ref->index).valid()) {
      inherited++;
    }
  }
  return inherited;
}

}  // namespace sat
