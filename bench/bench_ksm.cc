// Extension experiment — KSM-style same-page merging on top of zygote
// sharing. The paper's mechanism deduplicates *translations*; this bench
// measures the orthogonal win from deduplicating anonymous *content*, and
// what it costs.
//
// 8 zygote children each build a madvise(MERGEABLE) heap whose pages are
// 60% drawn from a dictionary shared across the fleet (the Android
// pattern: identical Dalvik/ART heap metadata in every app) and 40%
// process-unique. ksmd passes then merge the duplicates, and a write-back
// phase makes a quarter of each heap diverge again — paying the COW
// unmerge faults and the write-protection TLB shootdowns.
//
// Reported per kernel: anonymous RSS before/after merging, stable/sharing
// page gauges, merge/unmerge traffic, and the shootdown IPIs the
// write-protection sweeps cost. Shape target: >= 20% of anonymous memory
// back with KSM on, zero effect with it off.

#include "bench/common.h"

namespace sat {
namespace {

constexpr uint32_t kChildren = 8;
constexpr uint32_t kDictionarySize = 32;

struct KsmOutcome {
  uint64_t anon_before = 0;
  uint64_t anon_after = 0;
  uint64_t anon_final = 0;  // after the write-back phase
  uint64_t pages_shared = 0;
  uint64_t pages_sharing = 0;
  uint64_t shootdown_ipis = 0;

  double Reduction() const {
    return anon_before == 0
               ? 0.0
               : static_cast<double>(anon_before - anon_after) /
                     static_cast<double>(anon_before);
  }
};

// Anon-RSS saved by KSM, measured against the ksm-off kernel on the same
// workload (the on-kernel's own "before" is already partially merged —
// the periodic ksmd runs during population).
double ReductionVsOff(const KsmOutcome& off, const KsmOutcome& on) {
  return off.anon_after == 0
             ? 0.0
             : static_cast<double>(off.anon_after - on.anon_after) /
                   static_cast<double>(off.anon_after);
}

// The page's content: pages at 60% of the indices hold one of
// kDictionarySize fleet-wide values (the same value at the same index in
// every child, and recurring across indices — both cross-process and
// within-process duplicates); the rest are unique to (child, index).
uint64_t ContentFor(uint32_t child, uint32_t page) {
  if (page % 10 < 6) {
    return 1000 + (page * 7) % kDictionarySize;
  }
  return (static_cast<uint64_t>(child + 1) << 32) | page;
}

KsmOutcome RunFleet(System& system, uint32_t heap_pages, bool scan) {
  KsmOutcome out;
  Kernel& kernel = system.kernel();
  std::vector<Task*> children;
  std::vector<VirtAddr> heaps;
  for (uint32_t c = 0; c < kChildren; ++c) {
    Task* child = system.android().ForkApp("app" + std::to_string(c));
    // Spread the fleet: merges then write-protect PTEs whose owners ran
    // on other cores, so the rmap-derived sharer masks really span cores
    // (all-on-one-core would make every shootdown a local flush).
    kernel.ScheduleTo(*child, c % kernel.machine().num_cores());
    MmapRequest request;
    request.length = heap_pages * kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    request.mergeable = true;
    request.name = "merge_heap";
    const VirtAddr heap = kernel.Mmap(*child, request).value;
    for (uint32_t p = 0; p < heap_pages; ++p) {
      kernel.WritePage(*child, heap + p * kPageSize, ContentFor(c, p));
    }
    children.push_back(child);
    heaps.push_back(heap);
  }
  out.anon_before = kernel.phys().CountFrames(FrameKind::kAnon);

  if (scan) {
    // Pass 1 records checksums, pass 2 merges; pass 3 verifies the scan
    // has converged (it finds nothing new).
    for (int pass = 0; pass < 3; ++pass) {
      kernel.RunKsmScan();
    }
  }
  out.anon_after = kernel.phys().CountFrames(FrameKind::kAnon);
  out.pages_shared = kernel.ksm().pages_shared();
  out.pages_sharing = kernel.ksm().pages_sharing();

  // Write-back phase: every child rewrites a quarter of its heap with
  // fresh private values. With KSM on, writes into merged pages take the
  // COW unmerge fault.
  for (uint32_t c = 0; c < kChildren; ++c) {
    for (uint32_t p = 0; p < heap_pages; p += 4) {
      kernel.WritePage(*children[c], heaps[c] + p * kPageSize,
                       (0xD1Dull << 48) | (static_cast<uint64_t>(c) << 32) | p);
    }
  }
  out.anon_final = kernel.phys().CountFrames(FrameKind::kAnon);
  out.shootdown_ipis = kernel.counters().tlb_shootdown_ipis;

  for (Task* child : children) {
    kernel.Exit(*child);
  }
  return out;
}

void RecordOutcome(const KsmOutcome& outcome, JobRecord& record) {
  record.Metric("ksm.anon_frames_before", static_cast<double>(outcome.anon_before));
  record.Metric("ksm.anon_frames_after", static_cast<double>(outcome.anon_after));
  record.Metric("ksm.anon_frames_final", static_cast<double>(outcome.anon_final));
  record.Metric("ksm.reduction_pct", outcome.Reduction() * 100.0);
  record.Metric("ksm.pages_shared", static_cast<double>(outcome.pages_shared));
  record.Metric("ksm.pages_sharing", static_cast<double>(outcome.pages_sharing));
  record.Metric("ksm.shootdown_ipis", static_cast<double>(outcome.shootdown_ipis));
}

int Run(const BenchOptions& options) {
  PrintHeader("Extension",
              "KSM same-page merging over zygote fork: anonymous-RSS "
              "reduction and its unmerge/shootdown cost");

  const uint32_t heap_pages = options.smoke ? 384 : 1024;
  KsmOutcome off, on;
  Harness harness("ksm", options);
  // A 4-core machine, so the write-protection sweep's TLB flushes pay
  // real cross-core IPIs (on one core a shootdown is a local flush).
  SystemConfig base = ConfigByName("shared-ptp");
  base.num_cores = 4;
  harness.AddCustomJob("ksm-off/shared-ptp", [&](JobRecord& record) {
    System system(harness.Resolve(base, "ksm-off/shared-ptp"));
    off = RunFleet(system, heap_pages, /*scan=*/false);
    RecordOutcome(off, record);
    Harness::CaptureSystem(system, &record);
  });
  harness.AddCustomJob("ksm-on/shared-ptp", [&](JobRecord& record) {
    SystemConfig config = base;
    config.ksm_enabled = true;
    System system(harness.Resolve(config, "ksm-on/shared-ptp"));
    on = RunFleet(system, heap_pages, /*scan=*/true);
    RecordOutcome(on, record);
    Harness::CaptureSystem(system, &record);
  });
  if (!harness.Run()) {
    return 1;
  }

  TablePrinter table({"kernel", "anon frames (populated)", "anon frames "
                      "(post-scan)", "reduction", "pages_shared",
                      "pages_sharing", "shootdown IPIs"});
  table.AddRow({"ksm-off", std::to_string(off.anon_before),
                std::to_string(off.anon_after),
                FormatDouble(off.Reduction() * 100, 1) + "%",
                std::to_string(off.pages_shared),
                std::to_string(off.pages_sharing),
                std::to_string(off.shootdown_ipis)});
  table.AddRow({"ksm-on", std::to_string(on.anon_before),
                std::to_string(on.anon_after),
                FormatDouble(on.Reduction() * 100, 1) + "%",
                std::to_string(on.pages_shared),
                std::to_string(on.pages_sharing),
                std::to_string(on.shootdown_ipis)});
  table.Print(std::cout);

  const JobRecord& on_record = harness.record(1);
  std::cout << "\nksm-on traffic: "
            << MetricOr(on_record, "counters.ksm_pages_scanned")
            << " pages scanned over "
            << MetricOr(on_record, "counters.ksm_scans") << " passes, "
            << MetricOr(on_record, "counters.ksm_pages_merged") << " merged ("
            << MetricOr(on_record, "counters.ksm_unshares")
            << " PTP unshares), "
            << MetricOr(on_record, "counters.ksm_ptes_write_protected")
            << " PTEs write-protected, "
            << MetricOr(on_record, "counters.ksm_unmerge_faults")
            << " unmerge COW faults after write-back\n\n";

  bool ok = true;
  // The tentpole claim: merging wins back >= 20% of anonymous memory on
  // this fleet, measured on vs off. (60% duplicated pages collapse to
  // the dictionary, diluted by the zygote-inherited anon baseline.)
  const double reduction = ReductionVsOff(off, on);
  ok &= reduction >= 0.20;
  std::cout << "  [shape] anon-RSS reduction, KSM on vs off: floor=20%  "
            << "measured=" << FormatDouble(reduction * 100, 1) << "%  ("
            << (reduction >= 0.20 ? "ok" : "OFF") << ")\n";
  ok &= ShapeCheck(std::cout, "anon-RSS reduction with KSM off", 0.0,
                   off.Reduction(), 0.0);
  // The cost side is real: write-back unmerges via COW, and the
  // write-protection sweeps paid shootdown IPIs beyond the off-run's.
  const double unmerges = MetricOr(on_record, "counters.ksm_unmerge_faults");
  ok &= unmerges > 0;
  std::cout << "  [shape] unmerge COW faults after write-back: > 0  "
            << "measured=" << FormatDouble(unmerges, 0) << "  ("
            << (unmerges > 0 ? "ok" : "OFF") << ")\n";
  ok &= on.shootdown_ipis > off.shootdown_ipis;
  std::cout << "  [shape] shootdown IPIs, ksm-on vs off: "
            << on.shootdown_ipis << " vs " << off.shootdown_ipis << "  ("
            << (on.shootdown_ipis > off.shootdown_ipis ? "ok" : "OFF")
            << ")\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  return sat::Run(options);
}
