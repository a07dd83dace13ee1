#include "src/android/app_runner.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <random>
#include <vector>

#include "src/arch/check.h"
#include "src/trace/trace.h"

namespace sat {

namespace {

// Allocates a 2 MB-aligned spot for a private region. Real Android
// address spaces scatter their private mappings — dex caches, resource
// mmaps, ashmem, GC heap fragments — across the address space rather than
// packing them, which is why an app owns on the order of a hundred
// private page-table pages that no sharing scheme can eliminate
// (Figure 11's stock baseline).
// Returns 0 when physical memory stayed exhausted even after the kernel's
// reclaim/OOM-kill chain (the run is then reported as incomplete).
VirtAddr MapScattered(Kernel& kernel, Task& task, uint32_t pages, VmProt prot,
                      VmKind kind, FileId file, const std::string& name) {
  const auto spot = task.mm->FindFreeRangeAligned(
      pages * kPageSize, kPtpSpan, 0x10000000, 0xB0000000);
  SAT_CHECK(spot.has_value() && "address space exhausted");
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = prot;
  request.kind = kind;
  request.file = file;
  request.fixed_address = *spot;
  request.name = name;
  const VirtAddr at = kernel.Mmap(task, request).value;
  SAT_CHECK(at == *spot || at == 0);
  return at;
}

}  // namespace

VirtAddr AppRunner::ResolveCodeVa(const RunLayout& layout,
                                  const TouchedPage& page) const {
  if (IsZygotePreloadedCategory(page.category)) {
    return system_->CodePageVa(page.lib, page.page_index);
  }
  const auto it = layout.app_libs.find(page.lib);
  assert(it != layout.app_libs.end() && "unmapped app library");
  return it->second.code_base + page.page_index * kPageSize;
}

AppRunStats AppRunner::Run(const AppFootprint& fp, bool exit_after) {
  Kernel& kernel = system_->kernel();
  AppRunStats stats;
  stats.app_name = fp.app_name;

  const KernelCounters before = kernel.counters();

  Tracer* tracer = &kernel.tracer();
  TraceSpan run_span(tracer, TraceEventType::kAppPhase);
  run_span.set_args(static_cast<uint64_t>(AppPhase::kRun));

  Task* app;
  {
    TraceSpan fork_span(tracer, TraceEventType::kAppPhase);
    fork_span.set_args(static_cast<uint64_t>(AppPhase::kForkApp));
    app = system_->ForkApp(fp.app_name);
    if (app == nullptr) {
      // Fork failed with ENOMEM even after reclaim and OOM-kills.
      stats.completed = false;
      return stats;
    }
    fork_span.set_pid(app->pid);
  }
  run_span.set_pid(app->pid);
  kernel.SetCurrent(*app);
  // A scrubd pass at fork's wake point can already have killed the app.
  stats.inherited_ptes =
      app->alive ? system_->CountInheritedPtes(*app, fp) : 0;

  std::optional<TraceSpan> map_span;
  map_span.emplace(tracer, TraceEventType::kAppPhase, app->pid);
  map_span->set_args(static_cast<uint64_t>(AppPhase::kMap));

  std::mt19937_64 rng(std::hash<std::string>{}(fp.app_name) ^ 0xABCDEF123456ull);

  // -------------------------------------------------------------------
  // Map the app-local pieces.
  // -------------------------------------------------------------------
  RunLayout layout;
  for (LibraryId lib : fp.other_libs) {
    layout.app_libs.emplace(lib, system_->loader().MapAppLibrary(*app, lib));
  }
  if (fp.private_code_lib >= 0) {
    layout.app_libs.emplace(fp.private_code_lib,
                            system_->loader().MapAppLibrary(*app, fp.private_code_lib));
  }

  // Under memory pressure any of the mappings below can fail outright
  // (Mmap returns 0 once reclaim and the OOM killer are both spent); the
  // run then replays whatever was established and reports !completed.
  // An Mmap can also come back with the app itself dead: the OOM killer
  // or an oops chose it as a victim mid-syscall.
  bool out_of_memory = false;

  // Private file mappings (apk, resources, fonts, databases): many small
  // scattered regions.
  std::vector<VirtAddr> file_pages;
  {
    uint32_t remaining = fp.private_file_pages;
    uint32_t region_index = 0;
    while (remaining > 0 && !out_of_memory && app->alive) {
      const uint32_t here = std::min(remaining, 48u);
      const VirtAddr base = MapScattered(
          kernel, *app, here, VmProt::ReadOnly(), VmKind::kFilePrivate,
          static_cast<FileId>(next_file_id_++),
          fp.app_name + ":file" + std::to_string(region_index++));
      if (base == 0) {
        out_of_memory = true;
        break;
      }
      for (uint32_t i = 0; i < here; ++i) {
        file_pages.push_back(base + i * kPageSize);
      }
      remaining -= here;
    }
  }

  // The heap: fragmented across 2 MB regions (ART GC spaces).
  std::vector<VirtAddr> heap_pages;
  {
    uint32_t remaining = fp.anon_pages;
    uint32_t region_index = 0;
    while (remaining > 0 && !out_of_memory && app->alive) {
      const uint32_t here = std::min(remaining, 256u);
      const VirtAddr base = MapScattered(
          kernel, *app, kPtpSpan / kPageSize, VmProt::ReadWrite(),
          VmKind::kAnonPrivate, kNoFile,
          fp.app_name + ":heap" + std::to_string(region_index++));
      if (base == 0) {
        out_of_memory = true;
        break;
      }
      for (uint32_t i = 0; i < here; ++i) {
        heap_pages.push_back(base + i * kPageSize);
      }
      remaining -= here;
    }
  }

  // Miscellaneous private anonymous regions (JIT caches, thread stacks,
  // ashmem, binder buffers): small, numerous, scattered.
  std::vector<VirtAddr> misc_pages;
  {
    const uint32_t misc_regions =
        50 + std::min<uint32_t>(fp.TotalPages() / 80, 80);
    for (uint32_t region = 0; region < misc_regions && !out_of_memory &&
                             app->alive;
         ++region) {
      const uint32_t pages = 8 + static_cast<uint32_t>(rng() % 17);
      const VirtAddr base = MapScattered(
          kernel, *app, pages, VmProt::ReadWrite(), VmKind::kAnonPrivate,
          kNoFile, fp.app_name + ":misc" + std::to_string(region));
      if (base == 0) {
        out_of_memory = true;
        break;
      }
      const uint32_t touched = std::max(1u, pages / 2);
      for (uint32_t i = 0; i < touched; ++i) {
        misc_pages.push_back(base + i * kPageSize);
      }
    }
  }

  // -------------------------------------------------------------------
  // Build the replay schedule: every touch event in one list, shuffled
  // deterministically, so data writes and heap growth interleave with
  // instruction first-touches.
  // -------------------------------------------------------------------
  struct Event {
    VirtAddr va;
    AccessType access;
  };
  std::vector<Event> events;
  events.reserve(fp.pages.size() + fp.data_writes.size() + heap_pages.size() +
                 file_pages.size() + misc_pages.size() + 512);
  for (const TouchedPage& page : fp.pages) {
    events.push_back(Event{ResolveCodeVa(layout, page), AccessType::kExecute});
  }
  for (const DataWrite& write : fp.data_writes) {
    events.push_back(
        Event{system_->DataPageVa(write.lib, write.page_index), AccessType::kWrite});
  }
  // GOT/vtable reads into every used library's data segment: in the
  // original layout these land in slots the code already occupies; with
  // 2 MB alignment they populate the separate (and still shared) data
  // slots — the Figure 12 gap between 39% and 60% shared.
  for (LibraryId lib : fp.zygote_libs_used) {
    const LibraryImage& image = system_->catalog().Get(lib);
    if (image.data_pages == 0) {
      continue;
    }
    const uint32_t reads = std::min(image.data_pages, 3u);
    for (uint32_t i = 0; i < reads; ++i) {
      events.push_back(Event{
          system_->DataPageVa(lib, static_cast<uint32_t>(rng() % image.data_pages)),
          AccessType::kRead});
    }
  }
  for (VirtAddr va : heap_pages) {
    events.push_back(Event{va, AccessType::kWrite});
  }
  for (VirtAddr va : misc_pages) {
    events.push_back(Event{va, AccessType::kWrite});
  }
  for (VirtAddr va : file_pages) {
    events.push_back(Event{va, AccessType::kRead});
  }
  std::shuffle(events.begin(), events.end(), rng);
  map_span.reset();

  if (app->alive) {
    TraceSpan replay_span(tracer, TraceEventType::kAppPhase, app->pid);
    replay_span.set_args(static_cast<uint64_t>(AppPhase::kReplay));
    for (const Event& event : events) {
      const TouchStatus status =
          kernel.TouchPageStatus(*app, event.va, event.access);
      if (status == TouchStatus::kOomKill) {
        // The app itself was the last remaining OOM victim: stop the
        // replay; its address space is already torn down.
        stats.oom_killed = true;
        break;
      }
      if (status == TouchStatus::kOopsKill) {
        // A recoverable oops killed the app to contain corrupted state it
        // was touching or sharing; the rest of the system keeps running.
        stats.oops_killed = true;
        break;
      }
      SAT_CHECK(status == TouchStatus::kOk &&
                "replay touched an unmapped address");
    }
  }
  // A kill can also land while a *mapping* syscall above was in progress;
  // fold that in from the task flags.
  stats.oom_killed = stats.oom_killed || app->oom_killed;
  stats.oops_killed = stats.oops_killed || app->oops_killed;
  stats.completed = !out_of_memory && !stats.oom_killed && !stats.oops_killed;

  const KernelCounters delta = kernel.counters() - before;
  stats.file_faults = delta.faults_file_backed;
  stats.anon_faults = delta.faults_anonymous;
  stats.cow_faults = delta.faults_cow;
  stats.ptps_allocated = delta.ptps_allocated;
  stats.ptps_unshared = delta.ptps_unshared;
  stats.ptes_copied = delta.ptes_copied;
  if (app->alive) {  // a killed app holds no page table
    stats.present_slots = app->mm->page_table().PresentSlotCount();
    stats.shared_slots = app->mm->page_table().SharedSlotCount();
  }

  if (exit_after && app->alive) {
    kernel.Exit(*app);
  }
  return stats;
}

}  // namespace sat
