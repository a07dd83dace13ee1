// The Section 4.2.1 soft-page-fault cost: the paper measures ~2,700
// cycles / 2.25 us with LMbench lat_pagefault. The simulated-cycle check
// runs as a harness job, so it lands in the BENCH_pagefault.json results
// file. Host-side throughput of the simulator is measured by perfbench
// (perfbench/README.md), not here.

#include <iostream>

#include "bench/common.h"

namespace sat {
namespace {

// Simulated cost of one soft (minor) page fault: trap + handler work +
// kernel-text I-cache effects, measured end-to-end through the core.
void MeasureSoftFaultCost(System& system, JobRecord& record) {
  Kernel& kernel = system.kernel();
  Task* task = kernel.CreateTask("lat_pagefault");
  MmapRequest request;
  request.length = 4096 * kPageSize;
  request.prot = VmProt::ReadOnly();
  request.kind = VmKind::kFilePrivate;
  request.file = 123456;
  const VirtAddr base = kernel.Mmap(*task, request).value;
  kernel.ScheduleTo(*task);

  // Pre-warm the page cache so every fault is soft (LMbench touches a
  // file that is resident).
  for (uint32_t page = 0; page < 4096; ++page) {
    bool hard = false;
    kernel.page_cache().GetOrLoad(123456, page, &hard);
  }

  // Warm the kernel fault path, then measure.
  for (uint32_t page = 0; page < 64; ++page) {
    kernel.core().Load(base + page * kPageSize);
  }
  const Cycles before = kernel.core().counters().cycles;
  const uint64_t faults_before = kernel.counters().faults_file_backed;
  constexpr uint32_t kFaults = 2048;
  for (uint32_t page = 64; page < 64 + kFaults; ++page) {
    kernel.core().Load(base + page * kPageSize);
  }
  const double cycles_per_fault =
      static_cast<double>(kernel.core().counters().cycles - before) / kFaults;
  const uint64_t faults_taken =
      kernel.counters().faults_file_backed - faults_before;

  record.Metric("lat_pagefault.cycles_per_fault", cycles_per_fault);
  record.Metric("lat_pagefault.faults_measured",
                static_cast<double>(faults_taken));
}

int CheckSoftFaultCost(const BenchOptions& options) {
  Harness harness("pagefault", options);
  harness.AddJob("lat_pagefault", ConfigByName("stock"),
                 [](System& system, JobRecord& record) {
                   MeasureSoftFaultCost(system, record);
                 });
  if (!harness.Run()) {
    return 1;
  }

  std::cout << "\n";
  PrintHeader("Sec 4.2.1", "Soft page fault cost (LMbench lat_pagefault)");
  if (!harness.ran_all()) {
    std::cout << "--config filter active: lat_pagefault runs under stock "
                 "only; nothing to report\n";
    return 0;
  }
  const JobRecord& record = harness.records()[0];
  std::cout << "  faults measured: "
            << FormatDouble(MetricOr(record, "lat_pagefault.faults_measured"),
                            0)
            << "\n";
  const bool ok =
      ShapeCheck(std::cout, "soft page fault cost (cycles)", 2700.0,
                 MetricOr(record, "lat_pagefault.cycles_per_fault"), 0.35);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  return sat::CheckSoftFaultCost(options);
}
