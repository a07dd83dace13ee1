// Application profiles: the calibrated synthetic stand-in for the paper's
// 11 Android benchmarks (Section 4.1.2).
//
// The real traces (perf PC samples + page-fault logs from a Nexus 7) are
// unavailable, so each profile carries the *structure* the paper measures
// in Section 2 — how many instruction pages per code category (Figure 2),
// what share of fetches per category (Figure 3), the user/kernel split
// (Table 1), how many libraries the footprint spreads across, and how
// strongly the app biases towards library-common hot pages (the overlap
// knob behind Table 2). The system-level experiments (Tables 3-4, Figures
// 7-13) then *measure* outcomes on address spaces built from these
// profiles; those numbers are outputs of the simulated kernel, not inputs.

#ifndef SRC_WORKLOAD_APP_PROFILE_H_
#define SRC_WORKLOAD_APP_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sat {

struct AppProfile {
  std::string name;

  // Table 1: fraction of instruction fetches executed in kernel mode
  // (I/O-heavy apps like Chrome Privilege, MX Player and WPS are high).
  double kernel_fraction = 0.1;

  // Figure 2 targets: touched instruction pages per category.
  uint32_t zygote_so_pages = 0;     // zygote-preloaded .so code
  uint32_t zygote_java_pages = 0;   // AOT boot image code
  uint32_t app_process_pages = 0;   // the zygote program binary
  uint32_t other_lib_pages = 0;     // app-/platform-specific dynamic libs
  uint32_t private_pages = 0;       // the app's own code

  // Footprint spread.
  uint32_t num_zygote_libs = 40;    // preloaded .so objects invoked
  uint32_t num_other_libs = 8;      // non-preloaded libs linked

  // Probability that a footprint cluster lands on the library's common
  // hot set rather than an app-specific spot: the Table 2 overlap knob.
  double common_page_bias = 0.82;

  // Figure 3 targets: share of user-mode fetches per category
  // (remainder goes to app_process).
  double fetch_share_zygote_so = 0.61;
  double fetch_share_java = 0.11;
  double fetch_share_other = 0.26;
  double fetch_share_private = 0.019;

  // Steady-state dynamics: writes into library data segments (the
  // unshare driver), spread over this many distinct libraries, plus
  // anonymous heap pages touched.
  uint32_t data_pages_written = 120;
  uint32_t dirty_libs = 18;
  uint32_t anon_pages_touched = 900;

  // Non-library files the app reads via mmap (its apk, resources, fonts):
  // contributes file-backed faults that sharing cannot eliminate.
  uint32_t private_file_pages = 400;

  uint64_t seed = 1;

  // The paper's 11-app suite with per-app parameters calibrated to
  // Section 2's measurements.
  static std::vector<AppProfile> PaperBenchmarks();

  // A single named profile (asserts on unknown names).
  static AppProfile Named(const std::string& name);
};

}  // namespace sat

#endif  // SRC_WORKLOAD_APP_PROFILE_H_
