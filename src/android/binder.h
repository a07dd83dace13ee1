// The Android IPC microbenchmark of Section 4.2.4 / Figure 13.
//
// A parent process acts as a service and a child as a client; the client
// binds to the service and invokes its API in a tight synchronous loop.
// Both sides run the zygote-preloaded libbinder code path intensively, and
// both are pinned to one core (the paper uses cpusets), so every
// transaction is two context switches through the same TLB. The
// instruction working sets of the two processes overlap on the shared
// library pages — with TLB sharing those pages cost *one* global entry
// instead of one per ASID, relieving the capacity pressure that the
// 128-entry main TLB otherwise feels on every switch.
//
// BinderPair is one such client/server pair and its transaction;
// BinderBenchmark runs one pair as the Figure 13 experiment, and the
// scenario engine's BinderIpcLoop element runs a fleet of them.

#ifndef SRC_ANDROID_BINDER_H_
#define SRC_ANDROID_BINDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/android/zygote.h"
#include "src/stats/rng.h"

namespace sat {

struct BinderParams {
  uint32_t transactions = 10000;
  uint32_t warmup_transactions = 500;
  // Instruction working-set pages per side: `shared` pages come from the
  // zygote-preloaded libraries (libbinder, libc, libutils) and have
  // identical virtual addresses in both processes; `own` pages are
  // process-private code.
  //
  // The shapes are asymmetric by design, mirroring the microbenchmark:
  // the server's handler is a small, always-hot loop (its TLB entries
  // survive a context switch when ASIDs exist), while the client runs a
  // larger application path that cycles through its own pages over a few
  // transactions — so the client bears the TLB capacity pressure, and
  // deduplicating the shared libbinder entries relieves the client most
  // (the Figure 13 asymmetry: client -36%, server -19%).
  uint32_t shared_pages = 40;         // libbinder/libc call path, both sides
  uint32_t client_own_pages = 60;     // client's application code
  uint32_t client_own_per_hop = 30;   // slice of it executed per call
  uint32_t server_own_pages = 8;      // service handler, fully hot
  uint32_t fetch_burst = 4;
  uint32_t data_accesses_per_hop = 6;  // parcel buffer reads/writes
  uint64_t seed = 11;
};

struct BinderSideStats {
  Cycles cycles = 0;
  Cycles itlb_stall_cycles = 0;
  uint64_t itlb_main_misses = 0;
  uint64_t inst_lines = 0;
};

struct BinderResult {
  BinderSideStats client;
  BinderSideStats server;
  uint64_t transactions = 0;
  uint64_t file_faults = 0;
  uint64_t ptps_allocated = 0;
  uint64_t domain_faults = 0;
};

// One client/server pair pinned to one core. Both tasks are zygote
// descendants, so the binder call path through the preloaded libraries
// sits at identical virtual addresses in both. Construction registers
// and maps each side's private code ("<tag>_client.odex", then
// "<tag>_service.odex") and maps its parcel buffer ("<tag>:client-parcel",
// then "<tag>:server-parcel").
class BinderPair {
 public:
  BinderPair(ZygoteSystem* system, Task* client, Task* server,
             const BinderParams& params, uint32_t core,
             const std::string& tag);

  // One transaction: the client's hop, then the server's, each switched
  // onto the pair's core. A hop fetches the shared call path and its
  // side's private code, reads and writes its parcel buffer, and runs the
  // binder kernel path; a non-null stats pointer accumulates its side's
  // core counters over the hop. Returns false, and runs no further hop,
  // once either task is dead.
  bool Transact(Rng& rng, BinderSideStats* client_stats,
                BinderSideStats* server_stats);

  bool alive() const { return client_.task->alive && server_.task->alive; }

 private:
  // One endpoint. Each hop fetches `per_hop` of its private code pages,
  // starting at `cursor`.
  struct Side {
    Task* task = nullptr;
    std::vector<VirtAddr> own;
    uint32_t per_hop = 0;
    size_t cursor = 0;
    VirtAddr parcel = 0;  // 0 when the parcel buffer could not be mapped
  };

  void Hop(Rng& rng, Side& side, BinderSideStats* stats);

  Kernel* kernel_;
  BinderParams params_;
  uint32_t core_;
  std::vector<VirtAddr> shared_;  // the call path, identical in both sides
  Side client_;
  Side server_;
};

class BinderBenchmark {
 public:
  BinderBenchmark(ZygoteSystem* system, const BinderParams& params);

  // Forks the service from the zygote and the client from the service,
  // runs one pair on core 0 through the warm-up and measured
  // transactions, and exits both.
  BinderResult Run();

 private:
  ZygoteSystem* system_;
  BinderParams params_;
};

}  // namespace sat

#endif  // SRC_ANDROID_BINDER_H_
