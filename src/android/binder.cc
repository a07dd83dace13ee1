#include "src/android/binder.h"

#include <algorithm>
#include <cassert>

#include "src/stats/rng.h"

namespace sat {

BinderBenchmark::BinderBenchmark(ZygoteSystem* system,
                                 const BinderParams& params)
    : system_(system), params_(params) {}

void BinderBenchmark::BuildWorkingSets() {
  Kernel& kernel = system_->kernel();
  LibraryCatalog& catalog = system_->catalog();

  // The shared slice of both working sets: the binder call path through
  // the zygote-preloaded libraries. Identical virtual addresses in client
  // and server — the sharing opportunity.
  std::vector<VirtAddr> shared;
  const char* kSharedLibs[] = {"libbinder.so", "libc.so", "libutils.so",
                               "liblog.so", "libcutils.so"};
  for (const char* name : kSharedLibs) {
    const LibraryImage* image = catalog.FindByName(name);
    assert(image != nullptr);
    // Scattered call-path pages: every third page from the head.
    for (uint32_t page = 0;
         page < image->code_pages && shared.size() < params_.shared_pages;
         page += 3) {
      shared.push_back(system_->CodePageVa(image->id, page));
    }
    if (shared.size() >= params_.shared_pages) {
      break;
    }
  }
  assert(shared.size() >= params_.shared_pages);

  // Process-private code: each side maps its own library.
  const LibraryId client_lib = catalog.Register(
      "binder_client.odex", CodeCategory::kPrivateCode,
      std::max(params_.client_own_pages * 8, 8u), 8);
  const LibraryId server_lib = catalog.Register(
      "binder_service.odex", CodeCategory::kPrivateCode,
      std::max(params_.server_own_pages * 2 + 2, 8u), 8);
  const MappedLibrary client_mapped =
      system_->loader().MapAppLibrary(*client_, client_lib);
  const MappedLibrary server_mapped =
      system_->loader().MapAppLibrary(*server_, server_lib);

  client_pages_ = shared;
  // The client's application code has its hot functions at a coarse page
  // stride (section-aligned padding between hot regions, a common .text
  // layout), so its TLB entries pile into a small group of sets and
  // conflict among themselves; the server's handler is a small strided
  // loop spread across sets. This is what gives the client the worst of
  // the TLB capacity pressure — and the most to gain from deduplicating
  // the shared libbinder entries — while the server's entries mostly
  // survive a context switch once ASIDs exist (Figure 13's asymmetry).
  for (uint32_t i = 0; i < params_.client_own_pages; ++i) {
    client_pages_.push_back(client_mapped.code_base + i * 8 * kPageSize);
  }
  server_pages_ = shared;
  for (uint32_t i = 0; i < params_.server_own_pages; ++i) {
    server_pages_.push_back(server_mapped.code_base + (2 * i + 1) * kPageSize);
  }

  // Parcel buffers.
  auto map_buffer = [&](Task& task, const std::string& name) {
    MmapRequest request;
    request.length = 16 * kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    request.name = name;
    const VirtAddr base = kernel.Mmap(task, request).value;
    assert(base != 0);
    return base;
  };
  client_buffer_ = map_buffer(*client_, "binder:client-parcel");
  server_buffer_ = map_buffer(*server_, "binder:server-parcel");
}

BinderResult BinderBenchmark::Run() {
  Kernel& kernel = system_->kernel();
  Core& core = kernel.core();

  // The parent is the service; the client is forked from it, so both are
  // zygote descendants (the real microbenchmark runs inside the Android
  // runtime for exactly this reason — it must exercise the preloaded
  // libbinder).
  server_ = system_->ForkApp("binder_service");
  client_ = kernel.Fork(*server_, "binder_client").child;
  BuildWorkingSets();

  const KernelCounters kernel_before = kernel.counters();
  BinderResult result;
  result.transactions = params_.transactions;

  // The client's own code advances a sliding window each call; the
  // server's handler and the shared call path run in full every call.
  size_t client_own_cursor = 0;
  Rng rng(params_.seed);

  auto fetch = [&](VirtAddr va) {
    core.FetchBurst(va + static_cast<VirtAddr>(rng() % 128) * 32,
                    params_.fetch_burst);
  };

  auto run_hop = [&](Task& task, VirtAddr buffer, BinderSideStats* stats,
                     bool is_client, bool measure) {
    kernel.ScheduleTo(task);
    const CoreCounters before = core.counters();
    // The shared binder path.
    const std::vector<VirtAddr>& pages = is_client ? client_pages_ : server_pages_;
    for (uint32_t i = 0; i < params_.shared_pages; ++i) {
      fetch(pages[i]);
    }
    if (is_client) {
      for (uint32_t i = 0; i < params_.client_own_per_hop; ++i) {
        fetch(pages[params_.shared_pages +
                    (client_own_cursor + i) % params_.client_own_pages]);
      }
      client_own_cursor = (client_own_cursor + params_.client_own_per_hop) %
                          params_.client_own_pages;
    } else {
      for (uint32_t i = 0; i < params_.server_own_pages; ++i) {
        fetch(pages[params_.shared_pages + i]);
      }
    }
    for (uint32_t i = 0; i < params_.data_accesses_per_hop; ++i) {
      if ((i & 1) == 0) {
        core.Load(buffer + (i % 16) * kPageSize);
      } else {
        core.Store(buffer + (i % 16) * kPageSize);
      }
    }
    // The transaction send/receive kernel path.
    core.RunKernelPath(KernelPath::kBinder, kernel.costs().binder_hop,
                       kernel.costs().binder_kernel_lines);
    if (measure) {
      const CoreCounters delta = core.counters() - before;
      stats->cycles += delta.cycles;
      stats->itlb_stall_cycles += delta.itlb_stall_cycles;
      stats->itlb_main_misses += delta.itlb_main_misses;
      stats->inst_lines += delta.inst_fetch_lines;
    }
  };

  for (uint32_t t = 0; t < params_.warmup_transactions + params_.transactions;
       ++t) {
    const bool measure = t >= params_.warmup_transactions;
    run_hop(*client_, client_buffer_, &result.client, /*is_client=*/true,
            measure);
    run_hop(*server_, server_buffer_, &result.server, /*is_client=*/false,
            measure);
  }

  const KernelCounters kernel_delta = kernel.counters() - kernel_before;
  result.file_faults = kernel_delta.faults_file_backed;
  result.ptps_allocated = kernel_delta.ptps_allocated;
  result.domain_faults = kernel_delta.domain_faults;

  kernel.Exit(*client_);
  kernel.Exit(*server_);
  return result;
}

}  // namespace sat
