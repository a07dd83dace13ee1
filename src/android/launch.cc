#include "src/android/launch.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <random>

#include "src/trace/trace.h"

namespace sat {

LaunchSimulator::LaunchSimulator(ZygoteSystem* system,
                                 const LaunchParams& params)
    : system_(system), params_(params) {
  // The common ART startup path: the hottest slice of the preload set.
  // Generated with the same head-biased machinery as the zygote's boot
  // footprint, so most launch pages are among those the zygote already
  // populated — the Table 3 inheritance that shared PTPs convert into
  // eliminated soft faults.
  launch_path_ = system_->workload().GenerateZygoteFootprint(
      params_.code_pages, params_.seed);

  // Relocation/static-init write targets, spread over the libraries with
  // the largest data segments.
  LibraryCatalog& catalog = system_->catalog();
  std::vector<LibraryId> by_data = catalog.ZygotePreloadSet();
  std::sort(by_data.begin(), by_data.end(), [&](LibraryId a, LibraryId b) {
    return catalog.Get(a).data_pages > catalog.Get(b).data_pages;
  });
  std::mt19937_64 rng(params_.seed ^ 0xBF58476D1CE4E5B9ull);
  uint32_t remaining = params_.data_writes;
  for (uint32_t i = 0; i < params_.dirty_libs && remaining > 0 &&
                       i < by_data.size();
       ++i) {
    const LibraryImage& image = catalog.Get(by_data[i]);
    if (image.data_pages == 0) {
      continue;
    }
    const uint32_t here = std::min(
        remaining, std::max(1u, params_.data_writes / params_.dirty_libs));
    for (uint32_t j = 0; j < here; ++j) {
      data_writes_.push_back(DataWrite{
          by_data[i], static_cast<uint32_t>(rng() % image.data_pages)});
    }
    remaining -= here;
  }

  // The system_server side of the launch IPCs: its hot inherited pages.
  const AppFootprint& boot = system_->zygote_boot_footprint();
  for (size_t i = 0; i < boot.pages.size() && server_pages_.size() < 120; ++i) {
    server_pages_.push_back(
        system_->CodePageVa(boot.pages[i].lib, boot.pages[i].page_index));
  }

  app_file_ = 2000000;  // the Helloworld apk/oat "file"
}

LaunchResult LaunchSimulator::LaunchOnce(uint32_t round) {
  Kernel& kernel = system_->kernel();
  Core& core = kernel.core();

  // Figure 9 counts page-table growth over the whole launch procedure,
  // fork included; the *time* window (Figures 7-8) starts only when the
  // child first executes, matching the paper's measurement boundaries.
  const KernelCounters kernel_before = kernel.counters();

  Tracer* tracer = &kernel.tracer();
  TraceSpan launch_span(tracer, TraceEventType::kAppPhase);
  launch_span.set_args(static_cast<uint64_t>(AppPhase::kLaunch), round);

  Task* app = system_->ForkApp("helloworld");
  if (app == nullptr) {
    return LaunchResult{.completed = false};
  }
  // Any allocation below may OOM-kill the app or the system_server, and
  // the launch then ends short. An access on a core whose task was killed
  // fails; both tasks are checked after the mmaps, before each ScheduleTo
  // of a round trip and at the window's end.
  Task* server = system_->system_server();
  const auto both_alive = [&] {
    return app->alive && server != nullptr && server->alive;
  };
  const auto cut_short = [&] {
    if (app->alive) {
      kernel.Exit(*app);
    }
    return LaunchResult{.completed = false};
  };
  launch_span.set_pid(app->pid);
  kernel.ScheduleTo(*app);

  // The app's own code/resources and heap.
  MmapRequest file_request;
  file_request.length = std::max(params_.private_pages, 1u) * kPageSize;
  file_request.prot = VmProt::ReadExec();
  file_request.kind = VmKind::kFilePrivate;
  file_request.file = app_file_;
  file_request.name = "helloworld:oat";
  const VirtAddr private_base = kernel.Mmap(*app, file_request).value;

  MmapRequest heap_request;
  heap_request.length = std::max(params_.anon_pages, 1u) * kPageSize;
  heap_request.prot = VmProt::ReadWrite();
  heap_request.kind = VmKind::kAnonPrivate;
  heap_request.name = "helloworld:heap";
  const VirtAddr heap_base = kernel.Mmap(*app, heap_request).value;
  if (private_base == 0 || heap_base == 0 || !both_alive()) {
    return cut_short();
  }

  // -------------------------------------------------------------------
  // Window start.
  // -------------------------------------------------------------------
  const CoreCounters core_before = core.counters();

  std::optional<TraceSpan> window_span;
  window_span.emplace(tracer, TraceEventType::kAppPhase, app->pid);
  window_span->set_args(static_cast<uint64_t>(AppPhase::kWindow), round);

  std::mt19937_64 rng(params_.seed * 1000003 + round);

  // First-touch order: every launch page once, then weighted revisits.
  std::vector<VirtAddr> pages;
  pages.reserve(launch_path_.pages.size() + params_.private_pages);
  for (const TouchedPage& page : launch_path_.pages) {
    pages.push_back(system_->CodePageVa(page.lib, page.page_index));
  }
  for (uint32_t i = 0; i < params_.private_pages; ++i) {
    pages.push_back(private_base + i * kPageSize);
  }
  std::shuffle(pages.begin(), pages.end(), rng);

  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const uint32_t entries = params_.fetch_entries;
  const uint32_t write_window = entries / 5;  // relocations happen early
  uint32_t next_write = 0;
  uint32_t next_anon = 0;
  uint32_t next_ipc = 1;

  for (uint32_t i = 0; i < entries; ++i) {
    // Interleaved events.
    if (next_write < data_writes_.size() &&
        i >= next_write * write_window / std::max<size_t>(data_writes_.size(), 1)) {
      const DataWrite& write = data_writes_[next_write++];
      core.Store(system_->DataPageVa(write.lib, write.page_index));
    }
    if (next_anon < params_.anon_pages &&
        i >= next_anon * entries / std::max(params_.anon_pages, 1u)) {
      core.Store(heap_base + next_anon * kPageSize);
      next_anon++;
    }
    if (next_ipc <= params_.ipc_roundtrips &&
        i >= next_ipc * entries / (params_.ipc_roundtrips + 1)) {
      next_ipc++;
      // Round trip to the system_server.
      core.RunKernelPath(KernelPath::kBinder, kernel.costs().binder_hop,
                         kernel.costs().binder_kernel_lines);
      if (!both_alive()) {
        return cut_short();
      }
      kernel.ScheduleTo(*server);
      for (uint32_t s = 0; s < 30; ++s) {
        core.FetchBurst(server_pages_[(s * 7 + round) % server_pages_.size()],
                        params_.fetch_burst);
      }
      core.RunKernelPath(KernelPath::kBinder, kernel.costs().binder_hop,
                         kernel.costs().binder_kernel_lines);
      if (!both_alive()) {
        return cut_short();
      }
      kernel.ScheduleTo(*app);
    }

    // The instruction stream itself.
    VirtAddr va;
    if (i < pages.size()) {
      va = pages[i];
    } else {
      const double u = uniform(rng);
      va = pages[static_cast<size_t>(u * u * static_cast<double>(pages.size()))];
    }
    // Line selection: each page has a small cluster of hot lines (the
    // functions actually executed) at a page-specific offset — launch
    // code has strong spatial locality, so the instruction working set is
    // a dozen lines per page, not all 128, and the per-page offset keeps
    // cache-set usage spread the way real code layouts do.
    const uint32_t hot_base = ((va >> kPageShift) * 2654435761u) % 116;
    const double lu = uniform(rng);
    const uint32_t line = hot_base + static_cast<uint32_t>(lu * lu * lu * 20.0);
    core.FetchBurst(va + line * 32, params_.fetch_burst);
  }

  if (!both_alive()) {
    return cut_short();
  }

  // -------------------------------------------------------------------
  // Window end.
  // -------------------------------------------------------------------
  window_span.reset();
  const CoreCounters core_delta = core.counters() - core_before;
  const KernelCounters kernel_delta = kernel.counters() - kernel_before;

  LaunchResult result;
  result.exec_cycles = core_delta.cycles;
  result.icache_stall_cycles = core_delta.icache_stall_cycles;
  result.itlb_stall_cycles = core_delta.itlb_stall_cycles;
  result.file_faults = kernel_delta.faults_file_backed;
  result.ptps_allocated = kernel_delta.ptps_allocated;
  result.kernel_inst_lines = core_delta.kernel_inst_lines;
  result.user_inst_lines = core_delta.user_inst_lines;

  kernel.Exit(*app);
  return result;
}

}  // namespace sat
