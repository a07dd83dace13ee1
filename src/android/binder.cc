#include "src/android/binder.h"

#include <algorithm>
#include <cassert>

namespace sat {

namespace {

constexpr uint32_t kParcelPages = 16;

}  // namespace

BinderPair::BinderPair(ZygoteSystem* system, Task* client, Task* server,
                       const BinderParams& params, uint32_t core,
                       const std::string& tag)
    : kernel_(&system->kernel()), params_(params), core_(core) {
  LibraryCatalog& catalog = system->catalog();

  // The shared slice of both working sets: the binder call path through
  // the zygote-preloaded libraries. Identical virtual addresses in client
  // and server — the sharing opportunity.
  const char* kSharedLibs[] = {"libbinder.so", "libc.so", "libutils.so",
                               "liblog.so", "libcutils.so"};
  for (const char* name : kSharedLibs) {
    const LibraryImage* image = catalog.FindByName(name);
    assert(image != nullptr);
    // Scattered call-path pages: every third page from the head.
    for (uint32_t page = 0;
         page < image->code_pages && shared_.size() < params_.shared_pages;
         page += 3) {
      shared_.push_back(system->CodePageVa(image->id, page));
    }
    if (shared_.size() >= params_.shared_pages) {
      break;
    }
  }
  assert(shared_.size() >= params_.shared_pages);

  // Process-private code: each side maps its own library.
  const LibraryId client_lib = catalog.Register(
      tag + "_client.odex", CodeCategory::kPrivateCode,
      std::max(params_.client_own_pages * 8, 8u), 8);
  const LibraryId server_lib = catalog.Register(
      tag + "_service.odex", CodeCategory::kPrivateCode,
      std::max(params_.server_own_pages * 2 + 2, 8u), 8);
  const MappedLibrary client_mapped =
      system->loader().MapAppLibrary(*client, client_lib);
  const MappedLibrary server_mapped =
      system->loader().MapAppLibrary(*server, server_lib);

  // The client's application code has its hot functions at a coarse page
  // stride (section-aligned padding between hot regions, a common .text
  // layout), so its TLB entries pile into a small group of sets and
  // conflict among themselves; the server's handler is a small strided
  // loop spread across sets, run in full every call. This is what gives
  // the client the worst of the TLB capacity pressure — and the most to
  // gain from deduplicating the shared libbinder entries — while the
  // server's entries mostly survive a context switch once ASIDs exist
  // (Figure 13's asymmetry).
  client_.task = client;
  client_.per_hop = params_.client_own_per_hop;
  for (uint32_t i = 0; i < params_.client_own_pages; ++i) {
    client_.own.push_back(client_mapped.code_base + i * 8 * kPageSize);
  }
  server_.task = server;
  server_.per_hop = params_.server_own_pages;
  for (uint32_t i = 0; i < params_.server_own_pages; ++i) {
    server_.own.push_back(server_mapped.code_base + (2 * i + 1) * kPageSize);
  }

  // Parcel buffers.
  for (Side* side : {&client_, &server_}) {
    MmapRequest request;
    request.length = kParcelPages * kPageSize;
    request.prot = VmProt::ReadWrite();
    request.kind = VmKind::kAnonPrivate;
    request.name =
        tag + (side == &client_ ? ":client-parcel" : ":server-parcel");
    side->parcel = kernel_->Mmap(*side->task, request).value;
  }
}

bool BinderPair::Transact(Rng& rng, BinderSideStats* client_stats,
                          BinderSideStats* server_stats) {
  if (!alive()) {
    return false;
  }
  Hop(rng, client_, client_stats);
  if (!alive()) {
    return false;
  }
  Hop(rng, server_, server_stats);
  return alive();
}

void BinderPair::Hop(Rng& rng, Side& side, BinderSideStats* stats) {
  kernel_->ScheduleTo(*side.task, core_);
  Core& core = kernel_->core(core_);
  const CoreCounters before = core.counters();
  auto fetch = [&](VirtAddr va) {
    core.FetchBurst(va + static_cast<VirtAddr>(rng() % 128) * 32,
                    params_.fetch_burst);
  };
  for (VirtAddr va : shared_) {
    fetch(va);
  }
  // The next `per_hop` private code pages, wrapping: a sliding window
  // over the client's application code, all of the server's handler.
  for (uint32_t i = 0; i < side.per_hop; ++i) {
    fetch(side.own[side.cursor]);
    side.cursor = (side.cursor + 1) % side.own.size();
  }
  for (uint32_t i = 0; i < params_.data_accesses_per_hop && side.parcel != 0;
       ++i) {
    const VirtAddr va = side.parcel + (i % kParcelPages) * kPageSize;
    if ((i & 1) == 0) {
      core.Load(va);
    } else {
      core.Store(va);
    }
  }
  // The transaction send/receive kernel path.
  core.RunKernelPath(KernelPath::kBinder, kernel_->costs().binder_hop,
                     kernel_->costs().binder_kernel_lines);
  if (stats != nullptr) {
    const CoreCounters delta = core.counters() - before;
    stats->cycles += delta.cycles;
    stats->itlb_stall_cycles += delta.itlb_stall_cycles;
    stats->itlb_main_misses += delta.itlb_main_misses;
    stats->inst_lines += delta.inst_fetch_lines;
  }
}

BinderBenchmark::BinderBenchmark(ZygoteSystem* system,
                                 const BinderParams& params)
    : system_(system), params_(params) {}

BinderResult BinderBenchmark::Run() {
  Kernel& kernel = system_->kernel();

  // The parent is the service; the client is forked from it, so both are
  // zygote descendants (the real microbenchmark runs inside the Android
  // runtime for exactly this reason — it must exercise the preloaded
  // libbinder).
  Task* server = system_->ForkApp("binder_service");
  Task* client = kernel.Fork(*server, "binder_client").child;
  BinderPair pair(system_, client, server, params_, /*core=*/0, "binder");

  const KernelCounters kernel_before = kernel.counters();
  BinderResult result;
  Rng rng(params_.seed);
  for (uint32_t t = 0; t < params_.warmup_transactions + params_.transactions;
       ++t) {
    const bool measure = t >= params_.warmup_transactions;
    if (!pair.Transact(rng, measure ? &result.client : nullptr,
                       measure ? &result.server : nullptr)) {
      break;
    }
    result.transactions += measure ? 1 : 0;
  }

  const KernelCounters kernel_delta = kernel.counters() - kernel_before;
  result.file_faults = kernel_delta.faults_file_backed;
  result.ptps_allocated = kernel_delta.ptps_allocated;
  result.domain_faults = kernel_delta.domain_faults;

  for (Task* task : {client, server}) {
    if (task->alive) {
      kernel.Exit(*task);
    }
  }
  return result;
}

}  // namespace sat
