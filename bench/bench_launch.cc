// Figures 7-9: application launch under {Stock, Shared PTP & TLB} x
// {original, 2 MB alignment}. One set of repeated Helloworld launches
// through the full cycle-level pipeline feeds all three figures:
//
// - Figure 7, launch execution time. Paper: sharing improves it by 7%
//   with the original alignment and 10% with 2 MB alignment.
// - Figure 8, L1 I-cache stall cycles. Paper: sharing cuts them 15% and
//   24%, because eliminated soft faults stop dragging the kernel
//   fault-handler text through the I-cache.
// - Figure 9, PTPs allocated and file-backed faults, normalized to stock
//   with the original alignment. Paper (baseline 72 PTPs / 1,900 faults):
//   sharing drops faults to 110 (94% fewer; 93 with 2 MB, 95% fewer) and
//   PTPs to 23 (68% fewer; 28 with 2 MB, 61% fewer).
//
// Each configuration is one harness job with its own System, so the four
// series run concurrently under --jobs and come back in the paper's
// order regardless of worker count.

#include <string>
#include <vector>

#include "bench/common.h"

namespace sat {
namespace {

const char* const kKeys[] = {"stock", "shared-ptp-tlb", "stock-2mb",
                             "shared-ptp-tlb-2mb"};

// The paper's 100-execution box plots are dominated by the steady state,
// which sharing reaches once the shared PTPs are populated, so the first
// launches of every series are dropped.
constexpr int kWarmupRounds = 3;

using LaunchField = uint64_t LaunchResult::*;

// The launches one configuration kept after warm-up.
struct LaunchSeries {
  std::string name;
  std::vector<LaunchResult> rounds;
  // Launches that completed, warm-ups included, when memory pressure cut
  // one short (its rounds stop there); -1 when every launch completed.
  int cut_short_after = -1;
  // Why the System never booted (BootFailure); no launch ran. Empty when
  // it booted.
  std::string boot_failure;

  std::vector<double> Column(LaunchField field) const {
    std::vector<double> out;
    for (const LaunchResult& r : rounds) {
      out.push_back(static_cast<double>(r.*field));
    }
    return out;
  }
  double Median(LaunchField field) const { return sat::Median(Column(field)); }
};

// Percent by which series `to` cuts the median of `field` below `from`.
double Reduction(const std::vector<LaunchSeries>& series, LaunchField field,
                 size_t from, size_t to) {
  return (1.0 - series[to].Median(field) / series[from].Median(field)) *
         100.0;
}

// Figures 7 and 8: a box-and-whisker summary of `field` per configuration.
void PrintBoxPlot(const std::vector<LaunchSeries>& series, LaunchField field,
                  int digits) {
  TablePrinter table({"Config", "min", "Q1", "median", "Q3", "max"});
  for (const LaunchSeries& s : series) {
    const FiveNumberSummary summary = Summarize(s.Column(field));
    table.AddRow({s.name, FormatDouble(summary.minimum / 1e6, digits),
                  FormatDouble(summary.q1 / 1e6, digits),
                  FormatDouble(summary.median / 1e6, digits),
                  FormatDouble(summary.q3 / 1e6, digits),
                  FormatDouble(summary.maximum / 1e6, digits)});
  }
  std::cout << "(all values x10^6 cycles)\n";
  table.Print(std::cout);
  std::cout << "\n";
}

int Run(const BenchOptions& options) {
  if (options.phys_mb > 0) {
    std::cout << "physical memory override: " << options.phys_mb
              << " MB (small-memory pressure regime; shape checks are "
                 "calibrated for the 512 MB default)\n\n";
  }
  const int rounds = options.smoke ? 10 : 30;
  std::vector<LaunchSeries> series(std::size(kKeys));
  Harness harness("launch", options);
  for (size_t i = 0; i < series.size(); ++i) {
    const SystemConfig config = ConfigByName(kKeys[i]);
    series[i].name = config.Name();
    harness.AddJob(
        kKeys[i], config,
        [s = &series[i], rounds](System& system, JobRecord& record) {
          s->boot_failure = BootFailure(system);
          if (!s->boot_failure.empty()) {
            return;
          }
          LaunchSimulator simulator(&system.android(), LaunchParams{});
          for (int round = 0; round < rounds + kWarmupRounds; ++round) {
            const LaunchResult result =
                simulator.LaunchOnce(static_cast<uint32_t>(round));
            if (!result.completed) {
              s->cut_short_after = round;
              record.Label("launch.cut_short",
                           std::to_string(round) + " of " +
                               std::to_string(rounds + kWarmupRounds) +
                               " launches completed");
              break;
            }
            if (round >= kWarmupRounds) {
              s->rounds.push_back(result);
            }
          }
          record.Metric("launch.rounds",
                        static_cast<double>(s->rounds.size()));
          record.Metric("launch.exec_cycles_median",
                        s->Median(&LaunchResult::exec_cycles));
          record.Metric("launch.icache_stalls_median",
                        s->Median(&LaunchResult::icache_stall_cycles));
          record.Metric("launch.file_faults_median",
                        s->Median(&LaunchResult::file_faults));
          record.Metric("launch.ptps_median",
                        s->Median(&LaunchResult::ptps_allocated));
        });
  }
  if (!harness.Run()) {
    return 1;
  }
  if (options.phys_mb > 0) {
    for (const JobRecord& record : harness.records()) {
      if (!record.metrics.empty()) {
        PrintPressureSummary(record);
      }
    }
    std::cout << "\n";
  }
  // A configuration whose System did not boot ran no launch, and a launch
  // cut short by memory pressure ends its configuration's rounds, so the
  // figures would compare series of unequal length. Either fails the run
  // under --config too, before any partial-run table.
  bool boot_failed = false;
  for (const LaunchSeries& s : series) {
    if (!s.boot_failure.empty()) {
      std::cout << "boot failed [" << s.name << "]: " << s.boot_failure
                << "\n";
      boot_failed = true;
    }
  }
  bool cut_short = false;
  for (const LaunchSeries& s : series) {
    if (s.cut_short_after >= 0) {
      std::cout << "launches cut short [" << s.name << "]: "
                << s.cut_short_after << " of " << rounds + kWarmupRounds
                << " completed before memory pressure ended one\n";
      cut_short = true;
    }
  }
  if (boot_failed || cut_short) {
    // Fails the run as an OFF shape check would.
    std::cout << "\n" << (boot_failed ? "boot failed" : "launches cut short")
              << ": figures and shape checks skipped\n";
    return 1;
  }
  if (!harness.ran_all()) {
    PrintPartialRun(harness, {{"launch.exec_cycles_median", 0},
                              {"launch.icache_stalls_median", 0},
                              {"launch.ptps_median", 0},
                              {"launch.file_faults_median", 0}});
    return 0;
  }

  bool ok = true;
  const LaunchField exec = &LaunchResult::exec_cycles;
  PrintHeader("Figure 7", "Application launch execution time (cycles)");
  PrintBoxPlot(series, exec, 2);
  ok &= ShapeCheck(std::cout, "launch speed improvement, original align (%)",
                   7.0, Reduction(series, exec, 0, 1), 0.6);
  ok &= ShapeCheck(std::cout, "launch speed improvement, 2MB align (%)", 10.0,
                   Reduction(series, exec, 2, 3), 0.6);
  // The paper's 2MB-shared launch is ~3% faster than original-shared. The
  // model lands within 10% of that ratio but not on the ordering (its
  // original-vs-2MB difference is smaller; see EXPERIMENTS.md), so the
  // label names the ratio, not a winner.
  ok &= ShapeCheck(std::cout, "launch time ratio, 2MB-shared / original-shared",
                   0.97, series[3].Median(exec) / series[1].Median(exec),
                   0.1);

  const LaunchField icache = &LaunchResult::icache_stall_cycles;
  std::cout << "\n";
  PrintHeader("Figure 8", "Application launch L1 I-cache stall cycles");
  PrintBoxPlot(series, icache, 3);
  ok &= ShapeCheck(std::cout, "I-cache stall reduction, original align (%)",
                   15.0, Reduction(series, icache, 0, 1), 0.6);
  ok &= ShapeCheck(std::cout, "I-cache stall reduction, 2MB align (%)", 24.0,
                   Reduction(series, icache, 2, 3), 0.6);

  const LaunchField faults = &LaunchResult::file_faults;
  const LaunchField ptps = &LaunchResult::ptps_allocated;
  std::cout << "\n";
  PrintHeader("Figure 9",
              "PTPs allocated and file-backed page faults during launch "
              "(normalized to stock, original alignment)");
  const double base_faults = series[0].Median(faults);
  const double base_ptps = series[0].Median(ptps);
  TablePrinter table({"Config", "PTPs", "PTPs (norm)", "file faults",
                      "faults (norm)"});
  for (const LaunchSeries& s : series) {
    table.AddRow({s.name, FormatDouble(s.Median(ptps), 0),
                  FormatPercent(s.Median(ptps) / base_ptps),
                  FormatDouble(s.Median(faults), 0),
                  FormatPercent(s.Median(faults) / base_faults)});
  }
  table.Print(std::cout);
  std::cout << "\n";
  ok &= ShapeCheck(std::cout, "stock launch file faults", 1900, base_faults,
                   0.3);
  ok &= ShapeCheck(std::cout, "fault reduction, shared original (%)", 94.0,
                   Reduction(series, faults, 0, 1), 0.15);
  ok &= ShapeCheck(std::cout, "fault reduction, shared 2MB (%)", 95.0,
                   Reduction(series, faults, 0, 3), 0.15);
  ok &= ShapeCheck(std::cout, "PTP reduction, shared original (%)", 68.0,
                   Reduction(series, ptps, 0, 1), 0.45);
  ok &= ShapeCheck(std::cout, "PTP reduction, shared 2MB (%)", 61.0,
                   Reduction(series, ptps, 0, 3), 0.45);
  // 2MB-shared faults fewer than original-shared (code PTPs never unshare).
  ok &= ShapeCheck(std::cout, "2MB-shared faults <= original-shared", 1.0,
                   series[3].Median(faults) <= series[1].Median(faults) + 1
                       ? 1.0
                       : 0.0,
                   0.01);
  return ok ? 0 : 1;
}

// --trace-out: replay a few launches under the full mechanism with tracing
// on and export the timeline (fork, faults, unshares, shootdowns, launch
// phases). A separate run so the figures' numbers stay untouched.
bool WriteLaunchTrace(const BenchOptions& options) {
  SystemConfig config =
      WithPhysMb(ConfigByName("shared-ptp-tlb-2mb"), options.phys_mb);
  config.trace.enabled = true;
  System system(config);
  LaunchSimulator simulator(&system.android(), LaunchParams{});
  for (uint32_t round = 0; round < 3; ++round) {
    simulator.LaunchOnce(round);
  }
  return DumpTrace(system, options.trace_out);
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  const int status = sat::Run(options);
  if (!options.trace_out.empty() && !sat::WriteLaunchTrace(options)) {
    return 1;
  }
  return status;
}
