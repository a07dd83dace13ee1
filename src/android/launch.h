// LaunchSimulator: the cycle-level application-launch experiment of
// Figures 7-9.
//
// The measured window matches the paper's: it begins when the zygote-child
// process first starts executing and ends right before app-specific Java
// classes load — a code path that is identical across applications (the
// Helloworld benchmark). One launch is:
//
//   fork from the zygote (before the window, as in the paper) →
//   [window start] relocation/static-init writes into library data
//   segments (these unshare PTPs; with the original layout they take the
//   co-resident *code* translations down with them), the common ART
//   startup instruction stream through the preloaded libraries, a few
//   binder round-trips with the system_server, heap warm-up
//   [window end] → exit.
//
// Repeated launches expose the steady state the paper reports: pages a
// launch populates in *shared* PTPs persist in the zygote's page table and
// are inherited by the next launch, while pages populated after an unshare
// die with the app — which is why 2 MB alignment (code PTPs never unshare)
// beats the original layout.

#ifndef SRC_ANDROID_LAUNCH_H_
#define SRC_ANDROID_LAUNCH_H_

#include <cstdint>
#include <vector>

#include "src/android/zygote.h"

namespace sat {

struct LaunchParams {
  uint32_t code_pages = 1850;      // common launch path, zygote-preloaded
  uint32_t private_pages = 60;     // the app's own apk/oat pages
  uint32_t data_writes = 90;       // relocation/static-init writes
  uint32_t dirty_libs = 12;
  uint32_t anon_pages = 120;       // heap warm-up
  uint32_t fetch_entries = 700000;  // trace entries per launch
  uint32_t fetch_burst = 100;       // instructions represented per entry
  uint32_t ipc_roundtrips = 8;     // system_server round-trips
  uint64_t seed = 7;
};

struct LaunchResult {
  Cycles exec_cycles = 0;
  Cycles icache_stall_cycles = 0;
  Cycles itlb_stall_cycles = 0;
  uint64_t file_faults = 0;
  uint64_t ptps_allocated = 0;
  uint64_t kernel_inst_lines = 0;
  uint64_t user_inst_lines = 0;
  // False when memory pressure cut the launch short: the fork or an mmap
  // found no memory, or an OOM kill took the app or the system_server.
  // The other fields are then zero.
  bool completed = true;
};

class LaunchSimulator {
 public:
  LaunchSimulator(ZygoteSystem* system, const LaunchParams& params);

  // One complete launch (fork → window → exit). `round` perturbs the
  // trace order the way run-to-run variation would. Under memory pressure
  // the launch may end early; see LaunchResult::completed.
  LaunchResult LaunchOnce(uint32_t round);

  const AppFootprint& launch_path() const { return launch_path_; }

 private:
  ZygoteSystem* system_;
  LaunchParams params_;
  AppFootprint launch_path_;            // the common ART startup footprint
  std::vector<DataWrite> data_writes_;  // relocation targets
  std::vector<VirtAddr> server_pages_;  // system_server side of the IPCs
  FileId app_file_;
};

}  // namespace sat

#endif  // SRC_ANDROID_LAUNCH_H_
