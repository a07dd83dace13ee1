// The public entry point of libsat: one header, one config struct, one
// registry of named configurations, one System class.
//
//   sat::SystemConfig config = sat::ConfigByName("shared-ptp-tlb-2mb");
//   config.phys_bytes = 64ull << 20;  // any KernelParams knob, by its name
//   sat::System system(config);
//   sat::AppRunner runner(&system.android());
//   auto stats = runner.Run(footprint);
//
// SystemConfig (src/android/zygote.h) is the kernel's own KernelParams
// plus the three knobs the kernel lacks. A System is a fully booted
// simulated Android machine (zygote preloaded, system_server running)
// under one of the kernel configurations the paper evaluates. Everything below this facade — the VM subsystem, page-table
// sharing, the TLB/cache/core models, the workload generators — is also
// public and usable directly; this header is the curated starting point.

#ifndef SRC_CORE_SAT_H_
#define SRC_CORE_SAT_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/android/app_runner.h"
#include "src/android/binder.h"
#include "src/android/launch.h"
#include "src/android/profiler.h"
#include "src/android/zygote.h"
#include "src/loader/loader.h"
#include "src/proc/kernel.h"
#include "src/proc/scheduler.h"
#include "src/vm/config.h"
#include "src/vm/reclaim.h"
#include "src/vm/smaps.h"
#include "src/workload/analysis.h"
#include "src/workload/app_profile.h"
#include "src/workload/footprint.h"

namespace sat {

// -----------------------------------------------------------------
// The registry of named configurations used throughout the evaluation.
// -----------------------------------------------------------------

// One registry entry: the stable machine-friendly key (usable as a
// --config=<key> flag value and in filenames) plus the configuration.
struct NamedSystemConfig {
  std::string_view key;
  SystemConfig config;
};

// Every named configuration, in the paper's canonical presentation order
// (stock first, the full shared design last, the Table-4 comparison
// kernel after that, then the huge and numa extensions). Benches, tests,
// and --config flags all derive their config lists from this one table;
// a raw-Kernel test takes ConfigByName(key) as its KernelParams, or
// ConfigByName(key).vm as its VmConfig.
const std::vector<NamedSystemConfig>& NamedConfigs();

// Looks up a registry key; dies on an unknown key (call sites pass
// compile-time constants). For user input use TryConfigByName.
SystemConfig ConfigByName(std::string_view key);

// Flag-parsing variant: nullopt on an unknown key.
std::optional<SystemConfig> TryConfigByName(std::string_view key);

// "stock, stock-2mb, ..." — for --help text and error messages.
std::string NamedConfigKeyList();

class System {
 public:
  explicit System(const SystemConfig& config);

  const SystemConfig& config() const { return zygote_system_->config(); }
  const std::string& name() const { return name_; }

  ZygoteSystem& android() { return *zygote_system_; }
  Kernel& kernel() { return zygote_system_->kernel(); }
  Core& core() { return kernel().core(); }
  DynamicLoader& loader() { return zygote_system_->loader(); }
  WorkloadFactory& workload() { return zygote_system_->workload(); }
  Tracer& tracer() { return kernel().tracer(); }

 private:
  std::string name_;
  std::unique_ptr<ZygoteSystem> zygote_system_;
};

}  // namespace sat

#endif  // SRC_CORE_SAT_H_
