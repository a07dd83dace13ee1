// ZygoteSystem: a booted simulated Android machine.
//
// Boot replays the process-creation model of Section 2.1: init is created,
// the zygote is forked from it and execs app_process (acquiring the zygote
// flag and, with TLB sharing configured, the zygote-domain DACR), preloads
// the 88 shared objects, runs its boot work (touching the hottest pages of
// the preload set — the ~5,900 instruction PTEs of Table 4 — dirtying
// library data, and building its anonymous heaps), and forks the
// system_server. Every application process is subsequently forked from the
// zygote *without* exec, inheriting the preloaded address space
// copy-on-write — which is precisely what makes translations identical
// across apps and PTP/TLB sharing sound.

#ifndef SRC_ANDROID_ZYGOTE_H_
#define SRC_ANDROID_ZYGOTE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/loader/loader.h"
#include "src/proc/kernel.h"
#include "src/workload/footprint.h"

namespace sat {

// The configuration of a booted machine: the kernel's own knobs, plus the
// three the kernel lacks (the loader's placement and page size, and the
// boot seed). NamedConfigs() (src/core/sat.h) names the configurations
// the paper evaluates.
struct SystemConfig : KernelParams {
  // kTwoMbAligned maps shared-library code at 2 MB boundaries and data in
  // separate PTPs; kOriginal is the stock loader's placement.
  MappingPolicy mapping_policy = MappingPolicy::kOriginal;
  // Map preloaded code with 64 KB large pages (the Section 2.3.3
  // complement: PTPs holding large-page entries share exactly like 4 KB
  // ones).
  bool large_code_pages = false;
  // Seeds the zygote's boot footprint and static-init data writes;
  // scenario runs derive their RNG seeds from it too.
  uint64_t seed = 42;

  // The label benches print and record as `system`, e.g.
  // "Shared PTP & TLB - 2MB (no ASID)"; --config filters match it.
  std::string Name() const;
};

class ZygoteSystem {
 public:
  explicit ZygoteSystem(const SystemConfig& config);

  Kernel& kernel() { return *kernel_; }
  DynamicLoader& loader() { return *loader_; }
  WorkloadFactory& workload() { return *workload_; }
  LibraryCatalog& catalog() { return catalog_; }

  Task* zygote() { return zygote_; }
  Task* system_server() { return system_server_; }

  // Forks an application process from the zygote (no exec — the Android
  // model). ForkApp keeps the child-or-nullptr convenience shape; use
  // ForkAppWithStats when the per-fork statistics (Table 4) matter.
  Task* ForkApp(const std::string& name);
  ForkOutcome ForkAppWithStats(const std::string& name);

  // Resolves a footprint page to its virtual address in the canonical
  // (zygote-inherited) layout. Only valid for zygote-preloaded libraries;
  // app-local libraries are resolved through per-task layouts owned by the
  // runner.
  VirtAddr CodePageVa(LibraryId lib, uint32_t page_index) const;
  VirtAddr DataPageVa(LibraryId lib, uint32_t page_index) const;

  // Number of *valid* instruction PTEs in `task`'s page table that back
  // the zygote-preloaded pages listed in `fp` — Table 3's "PTEs inherited
  // from the zygote" when PTPs are shared.
  uint32_t CountInheritedPtes(Task& task, const AppFootprint& fp) const;

  const SystemConfig& config() const { return config_; }
  const AppFootprint& zygote_boot_footprint() const { return boot_footprint_; }

 private:
  void Boot();

  SystemConfig config_;
  LibraryCatalog catalog_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<DynamicLoader> loader_;
  std::unique_ptr<WorkloadFactory> workload_;
  Task* init_ = nullptr;
  Task* zygote_ = nullptr;
  Task* system_server_ = nullptr;
  AppFootprint boot_footprint_;
};

}  // namespace sat

#endif  // SRC_ANDROID_ZYGOTE_H_
