// Binder IPC walkthrough, scenario-engine edition: the paper's Section
// 4.2.4 microbenchmark as a one-line element graph. BinderIpcLoop runs
// the same client/server pair as bench_fig13 (BinderPair,
// src/android/binder.h): the pair ping-pongs over the zygote-preloaded
// call path, two context switches per transaction, both processes pinned
// to one simulated core. Run under a ladder of configurations, it shows
// how the global bit + zygote domain turn the shared libbinder pages into
// single TLB entries.
//
// Exits 1 unless the iTLB stalls per transaction keep Figure 13's order:
// Shared PTP & TLB below Stock Android, which is below Stock Android
// without ASIDs, and Shared PTP & TLB below itself without ASIDs.
//
//   $ ./build/examples/binder_ipc

#include <cstdio>

#include "src/scenario/parser.h"
#include "src/scenario/registry.h"
#include "src/scenario/runner.h"

namespace {

constexpr char kIpcLoop[] =
    "set ticks 40;\n"
    "ipc :: BinderIpcLoop(pairs 1, transactions 100);\n";

// Runs the graph on `config` and prints and returns its iTLB stall cycles
// per transaction, summed over every core.
double RunIpc(const sat::ScenarioGraph& graph, sat::SystemConfig config,
              const char* note) {
  sat::System system(config);
  sat::ScenarioRunConfig run;
  run.rng_seed = config.seed;
  const sat::ScenarioRunOutcome outcome = sat::RunScenarioOnSystem(
      &system, graph, sat::ElementRegistry::Default(), run);

  sat::Cycles itlb_stalls = 0;
  for (uint32_t c = 0; c < config.num_cores; ++c) {
    itlb_stalls += system.kernel().core(c).counters().itlb_stall_cycles;
  }
  const double per_txn =
      outcome.stats.ipc_transactions == 0
          ? 0.0
          : static_cast<double>(itlb_stalls) /
                static_cast<double>(outcome.stats.ipc_transactions);
  std::printf("%-34s %6llu txns   iTLB stalls/txn: %8.1f%s\n",
              system.name().c_str(),
              static_cast<unsigned long long>(outcome.stats.ipc_transactions),
              per_txn, note);
  return per_txn;
}

}  // namespace

int main() {
  const sat::ScenarioParseResult parsed = sat::ParseScenario(
      kIpcLoop, "binder_ipc", &sat::ElementRegistry::Default());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n",
                 parsed.FormatError("binder_ipc (inline)").c_str());
    return 2;
  }

  std::printf("Binder ping-pong as a scenario graph:\n\n%s\n",
              parsed.graph.ToString().c_str());

  // The ASID dimension: without ASIDs every context switch flushes all
  // non-global TLB entries.
  sat::SystemConfig stock_no_asid = sat::ConfigByName("stock");
  stock_no_asid.core.asids_enabled = false;
  const double stock_flush =
      RunIpc(parsed.graph, stock_no_asid, "   <- flush on every switch");
  const double stock = RunIpc(parsed.graph, sat::ConfigByName("stock"), "");
  RunIpc(parsed.graph, sat::ConfigByName("shared-ptp"),
         "   <- page tables shared, TLB not");
  const double shared =
      RunIpc(parsed.graph, sat::ConfigByName("shared-ptp-tlb"),
             "   <- libbinder pages: one global entry each");

  sat::SystemConfig shared_no_asid = sat::ConfigByName("shared-ptp-tlb");
  shared_no_asid.core.asids_enabled = false;
  const double shared_flush =
      RunIpc(parsed.graph, shared_no_asid,
             "   <- global entries survive even the flushes");

  std::printf(
      "\nThe shared-TLB configurations win because the client and server\n"
      "execute the same zygote-preloaded call path at the same virtual\n"
      "addresses: one global TLB entry serves both, halving the capacity\n"
      "demand that the 128-entry main TLB feels on every switch.\n");
  if (!(shared < stock && stock < stock_flush && shared < shared_flush)) {
    std::fprintf(stderr,
                 "binder_ipc: iTLB stalls per transaction out of Figure 13's "
                 "order\n");
    return 1;
  }
  return 0;
}
