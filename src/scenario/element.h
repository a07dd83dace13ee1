// The composable scenario engine's element interface (DESIGN.md 5k).
//
// A workload is no longer a hard-coded bench body: it is a graph of small
// WorkloadElements — SpawnStorm, MemoryChurn, SwapThrash, LaunchReplay... —
// wired together by a Click-style text DSL (src/scenario/parser.h) and
// driven tick by tick against one simulated System. Elements are
// configured from named parameters, source elements spawn processes and
// push them to their downstream neighbours, and every element applies its
// per-tick behaviour to the processes it has adopted. All randomness
// flows through one seeded ScenarioRng per run, so a scenario is exactly
// as deterministic as the PR-4 driver contract requires: same graph, same
// seed, same shard — bit-identical counters at any --jobs value.

#ifndef SRC_SCENARIO_ELEMENT_H_
#define SRC_SCENARIO_ELEMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/sat.h"
#include "src/proc/syscall.h"

namespace sat {

// ---------------------------------------------------------------------------
// Seeded randomness: a self-contained splitmix64/xorshift generator. No
// libm, no std::uniform_* (whose algorithms vary across standard
// libraries) — scenario results must reproduce bit-for-bit on any host.
// ---------------------------------------------------------------------------

class ScenarioRng {
 public:
  explicit ScenarioRng(uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ull) {}

  uint64_t Next64() {
    // splitmix64: passes BigCrush, two multiplies and three xors.
    state_ += 0x9E3779B97F4A7C15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, n); n == 0 returns 0.
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next64() % n; }

  // Uniform in [0, 1) with 53 significant bits (exact IEEE arithmetic).
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  // True with probability p (exact comparison of exact values).
  bool Chance(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Errno-style outcomes, consistent with the PR-4 syscall surface: an
// element that rejects its configuration reports *which* errno and why,
// and the parser forwards it with the element's line in the .scn file.
// ---------------------------------------------------------------------------

struct ScenarioResult {
  Errno error = Errno::kOk;
  std::string message;

  bool ok() const { return error == Errno::kOk; }
  static ScenarioResult Ok() { return {}; }
  static ScenarioResult Err(Errno e, std::string m) {
    return {e, std::move(m)};
  }
};

// ---------------------------------------------------------------------------
// Named parameters, as parsed from `Kind(key value, key value)`.
// ---------------------------------------------------------------------------

struct ElementParam {
  std::string key;
  std::string value;
  bool quoted = false;  // value was a "quoted string" in the source
};

struct ElementParams {
  std::vector<ElementParam> items;
};

// Typed parameter access for Configure(): every read marks its key as
// recognised, and Finish() rejects the leftovers — so a typo'd parameter
// fails the parse instead of silently running a default workload.
class ParamReader {
 public:
  explicit ParamReader(const ElementParams& params) : params_(params) {
    seen_.resize(params.items.size(), false);
  }

  uint64_t U64(std::string_view key, uint64_t fallback);
  double F64(std::string_view key, double fallback);
  bool Bool(std::string_view key, bool fallback);
  std::string Str(std::string_view key, std::string_view fallback);

  // kOk when every parameter was recognised and well-formed; kEinval
  // (with the offending key in the message) otherwise.
  ScenarioResult Finish() const;

 private:
  const ElementParam* Take(std::string_view key);
  void BadValue(const ElementParam& param, std::string_view expected);

  const ElementParams& params_;
  std::vector<bool> seen_;
  std::string first_error_;
};

// ---------------------------------------------------------------------------
// The per-run context handed to Tick()/Push(): the System under load, the
// seeded rng, the clock, this shard's slice of the population, and the
// central process registry that guarantees audit-clean teardown.
// ---------------------------------------------------------------------------

struct ScenarioStats {
  uint64_t processes_spawned = 0;
  uint64_t processes_exited = 0;
  uint64_t processes_lost = 0;  // OOM/oops-killed out from under an element
  uint64_t pages_touched = 0;
  uint64_t launches = 0;           // LaunchReplay full app executions
  uint64_t launches_incomplete = 0;
  uint64_t ipc_transactions = 0;
  uint32_t ticks_run = 0;
};

class ScenarioContext {
 public:
  ScenarioContext(System* system, uint64_t rng_seed, uint32_t shard_index,
                  uint32_t shard_count, double scale)
      : system_(system),
        rng_(rng_seed),
        shard_index_(shard_index),
        shard_count_(shard_count),
        scale_(scale) {}

  System& system() { return *system_; }
  Kernel& kernel() { return system_->kernel(); }
  ScenarioRng& rng() { return rng_; }
  ScenarioStats& stats() { return stats_; }
  const ScenarioStats& stats() const { return stats_; }

  uint32_t tick() const { return tick_; }
  void set_tick(uint32_t t) { tick_ = t; }
  uint32_t shard_index() const { return shard_index_; }
  uint32_t shard_count() const { return shard_count_; }

  // This shard's slice of a scenario-wide population: slices differ by at
  // most one and always sum to `total` across the shard set.
  uint64_t ShardShare(uint64_t total) const {
    const uint64_t base = total / shard_count_;
    const uint64_t extra = total % shard_count_;
    return base + (shard_index_ < extra ? 1 : 0);
  }

  // --smoke scaling: populations shrink by `scale`, but never to zero.
  uint64_t Scaled(uint64_t n) const {
    if (n == 0 || scale_ >= 1.0) {
      return n;
    }
    const uint64_t scaled =
        static_cast<uint64_t>(static_cast<double>(n) * scale_);
    return scaled == 0 ? 1 : scaled;
  }

  // Forks a process from the zygote, registers it for teardown, and
  // spreads it round-robin over the simulated cores. Returns nullptr when
  // the fork failed with ENOMEM even after reclaim and OOM-kills.
  Task* SpawnProcess(const std::string& name);

  // Forks from an arbitrary live parent (the ForkBomb tree); same
  // registration and core spreading as SpawnProcess.
  Task* SpawnChild(Task& parent, const std::string& name);

  // The shared touch-replay runner (one per shard, so every LaunchReplay
  // element draws distinct private-file ids from the same sequence).
  AppRunner& app_runner();

  // Exits `task` now (no-op if it already died — the OOM killer and the
  // oops machinery get there first sometimes). All scenario-driven exits
  // go through here so no task is ever exited twice.
  void ExitProcess(Task* task);

  // Exits every registered process that is still alive: the audit-clean
  // teardown step the runner performs after the last tick.
  void ExitAll();

  uint32_t live_processes() const;

 private:
  System* system_;
  ScenarioRng rng_;
  ScenarioStats stats_;
  uint32_t tick_ = 0;
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;
  double scale_ = 1.0;
  uint32_t next_core_ = 0;
  std::vector<Task*> processes_;  // every task any element spawned
  std::unique_ptr<AppRunner> app_runner_;
};

// ---------------------------------------------------------------------------
// The element interface.
// ---------------------------------------------------------------------------

class WorkloadElement {
 public:
  virtual ~WorkloadElement() = default;

  // The registered kind ("SpawnStorm", "MemoryChurn", ...).
  virtual std::string_view kind() const = 0;

  // Applies named parameters. Called exactly once, before the first Tick.
  virtual ScenarioResult Configure(const ElementParams& params) = 0;

  // One scheduler round. Elements tick in declaration order.
  virtual void Tick(ScenarioContext& ctx) = 0;

  // Receives a process pushed from an upstream element's output port.
  // The default adopts nothing and forwards downstream, so pass-through
  // chains compose; elements that adopt call Adopt() then forward.
  virtual void Push(ScenarioContext& ctx, Task* task) {
    PushDownstream(ctx, task);
  }

  // True when the element has no further work (sources: budget spent and
  // pool drained). The run stops early once every element is done.
  virtual bool Done(const ScenarioContext& ctx) const {
    (void)ctx;
    return true;
  }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void ConnectOutput(WorkloadElement* downstream) {
    outputs_.push_back(downstream);
  }
  const std::vector<WorkloadElement*>& outputs() const { return outputs_; }

 protected:
  void PushDownstream(ScenarioContext& ctx, Task* task) {
    for (WorkloadElement* out : outputs_) {
      out->Push(ctx, task);
    }
  }

 private:
  std::string name_;
  std::vector<WorkloadElement*> outputs_;
};

}  // namespace sat

#endif  // SRC_SCENARIO_ELEMENT_H_
