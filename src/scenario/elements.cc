// The built-in workload element library (DESIGN.md 5k).
//
// Each element is a small, composable piece of fleet behaviour:
//
//   SpawnStorm    app-server request storm: short-lived worker processes
//   DiurnalLoad   the same spawn source at a day-shaped (triangle-wave) rate
//   ForkBomb      a uFork-style fork tree under a live-process cap
//   MemoryChurn   random read/write churn over per-process anon regions
//   SwapThrash    sequential walks over working sets larger than DRAM
//   NumaSweep     cross-node walkers feeding numad's placement policy
//   BinderIpcLoop client/server ping-pong over the shared libbinder path
//   LaunchReplay  the paper's app-launch replays behind the element API
//
// SpawnStorm and DiurnalLoad are one class, SpawnSource; MemoryChurn,
// SwapThrash and NumaSweep share the AdoptingElement base. BinderIpcLoop
// and LaunchReplay run the experiments' own code: BinderPair (Figure 13)
// and AppRunner (the launch figures).
//
// Population parameters (count, procs, pairs, forks) are scenario-wide:
// each shard takes its ShardShare, so the shard set sums to the declared
// fleet no matter how it is split. Everything random draws from the
// shard's ScenarioRng — never from std:: distributions or the wall clock.

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "src/scenario/registry.h"

namespace sat {
namespace {

// Allocates and maps a scattered anonymous region for one process, the
// way real Android heaps land (2 MB-aligned spots, own PTP slots).
// Returns 0 when physical memory stayed exhausted after reclaim/OOM, or
// when the task is already dead (a later spawn or a wake point killed it).
VirtAddr MapAnonRegion(ScenarioContext& ctx, Task& task, uint32_t pages,
                       bool mergeable, const std::string& name) {
  if (!task.alive) {
    return 0;
  }
  const auto spot = task.mm->FindFreeRangeAligned(
      pages * kPageSize, kPtpSpan, 0x10000000, 0xB0000000);
  if (!spot.has_value()) {
    return 0;
  }
  MmapRequest request;
  request.length = pages * kPageSize;
  request.prot = VmProt::ReadWrite();
  request.kind = VmKind::kAnonPrivate;
  request.fixed_address = *spot;
  request.mergeable = mergeable;
  request.name = name;
  return ctx.kernel().Mmap(task, request).value;
}

// A fresh process's first touch: maps a `pages`-page heap named after
// `element` and writes every page once with a random stamp, stopping if
// the process dies. SpawnSource's workers and ForkBomb's tree nodes.
void TouchHeap(ScenarioContext& ctx, Task& task, uint32_t pages,
               const std::string& element) {
  if (pages == 0) {
    return;
  }
  const VirtAddr base =
      MapAnonRegion(ctx, task, pages, false, element + ":heap");
  for (uint32_t p = 0; base != 0 && task.alive && p < pages; ++p) {
    ctx.kernel().WritePage(task, base + p * kPageSize, ctx.rng().Next64());
    ctx.stats().pages_touched++;
  }
}

// ---------------------------------------------------------------------------
// SpawnStorm and DiurnalLoad: one spawn source. Each tick forks that
// tick's rate of workers from the zygote; each touches a `touch_pages`
// heap, is pushed downstream, and exits `lifetime` ticks after its birth.
//
//   SpawnStorm   a request storm: a flat `rate` per tick until `count`
//                workers have run.
//   DiurnalLoad  a day: the rate is a triangle wave from `trough` to
//                `peak` over `period` ticks (integer arithmetic only — no
//                libm, bit-identical everywhere), so downstream elements
//                see the population swell and shrink the way a phone
//                fleet's evening does. `count 0`, the default, spawns
//                until the scenario's ticks run out.
// ---------------------------------------------------------------------------

class SpawnSource : public WorkloadElement {
 public:
  explicit SpawnSource(bool diurnal) : diurnal_(diurnal) {}

  std::string_view kind() const override {
    return diurnal_ ? "DiurnalLoad" : "SpawnStorm";
  }

  ScenarioResult Configure(const ElementParams& params) override {
    ParamReader reader(params);
    if (!diurnal_) {
      count_ = reader.U64("count", 200);
      peak_ = trough_ = reader.U64("rate", 20);
      lifetime_ = static_cast<uint32_t>(reader.U64("lifetime", 3));
      touch_pages_ = static_cast<uint32_t>(reader.U64("touch_pages", 16));
      return reader.Finish();
    }
    period_ = static_cast<uint32_t>(reader.U64("period", 48));
    peak_ = reader.U64("peak", 8);
    trough_ = reader.U64("trough", 1);
    lifetime_ = static_cast<uint32_t>(reader.U64("lifetime", 6));
    touch_pages_ = static_cast<uint32_t>(reader.U64("touch_pages", 8));
    count_ = reader.U64("count", 0);
    ScenarioResult result = reader.Finish();
    if (result.ok() && period_ < 2) {
      result = ScenarioResult::Err(Errno::kEinval, "period must be >= 2");
    }
    if (result.ok() && peak_ < trough_) {
      result = ScenarioResult::Err(Errno::kEinval, "peak must be >= trough");
    }
    return result;
  }

  void Tick(ScenarioContext& ctx) override {
    if (!started_) {
      started_ = true;
      target_ = ctx.ShardShare(ctx.Scaled(count_));
    }
    std::erase_if(pool_, [](const Worker& w) { return !w.task->alive; });
    const uint64_t rate = ctx.Scaled(RateAt(ctx.tick()));
    for (uint64_t i = 0; i < rate && (Unbounded() || spawned_ < target_);
         ++i) {
      Task* task = ctx.SpawnProcess(name() + "#" + std::to_string(spawned_));
      spawned_++;
      if (task == nullptr) {
        continue;  // fleet-scale runs tolerate ENOMEM forks
      }
      TouchHeap(ctx, *task, touch_pages_, name());
      if (task->alive) {
        pool_.push_back(Worker{task, ctx.tick()});
        PushDownstream(ctx, task);
      }
    }
    // Retire workers whose lifetime expired, oldest first (the pool is in
    // birth order).
    size_t kept = 0;
    for (const Worker& worker : pool_) {
      if (ctx.tick() >= worker.born + lifetime_) {
        ctx.ExitProcess(worker.task);
      } else {
        pool_[kept++] = worker;
      }
    }
    pool_.resize(kept);
  }

  bool Done(const ScenarioContext&) const override {
    // Unbounded, the scenario's `ticks` ends the run.
    return !Unbounded() && started_ && spawned_ >= target_ && pool_.empty();
  }

 private:
  struct Worker {
    Task* task = nullptr;
    uint32_t born = 0;
  };

  bool Unbounded() const { return diurnal_ && count_ == 0; }

  // A flat rate is the wave with peak == trough.
  uint64_t RateAt(uint32_t tick) const {
    const uint32_t phase = tick % period_;
    const uint32_t half = period_ / 2;
    const uint32_t tri = phase <= half ? phase : period_ - phase;
    return trough_ + ((peak_ - trough_) * tri) / half;
  }

  const bool diurnal_;
  uint32_t period_ = 2;
  uint64_t peak_ = 0;
  uint64_t trough_ = 0;
  uint32_t lifetime_ = 0;
  uint32_t touch_pages_ = 0;
  uint64_t count_ = 0;
  bool started_ = false;
  uint64_t target_ = 0;
  uint64_t spawned_ = 0;
  std::vector<Worker> pool_;
};

// ---------------------------------------------------------------------------
// ForkBomb: a uFork-style fork tree. Spends a total budget of `forks`,
// `rate` per tick: each step takes the oldest live tree node, forks
// `fanout` children from it (each touching `touch_pages` pages), then
// exits the parent. The live tree never exceeds `cap` processes — the
// fleet analogue of RLIMIT_NPROC, and what keeps the 8-bit ASID space
// honest at 10k-fork scale.
// ---------------------------------------------------------------------------

class ForkBomb : public WorkloadElement {
 public:
  std::string_view kind() const override { return "ForkBomb"; }

  ScenarioResult Configure(const ElementParams& params) override {
    ParamReader reader(params);
    forks_ = reader.U64("forks", 1000);
    fanout_ = reader.U64("fanout", 2);
    rate_ = reader.U64("rate", 64);
    cap_ = reader.U64("cap", 48);
    touch_pages_ = static_cast<uint32_t>(reader.U64("touch_pages", 4));
    ScenarioResult result = reader.Finish();
    if (result.ok() && fanout_ == 0) {
      result = ScenarioResult::Err(Errno::kEinval, "fanout must be >= 1");
    }
    return result;
  }

  void Tick(ScenarioContext& ctx) override {
    if (!started_) {
      started_ = true;
      budget_ = ctx.ShardShare(ctx.Scaled(forks_));
    }
    std::erase_if(frontier_, [](const Task* task) { return !task->alive; });
    uint64_t tick_budget = ctx.Scaled(rate_);
    while (tick_budget > 0 && budget_ > 0) {
      if (frontier_.empty()) {
        Task* root = ctx.SpawnProcess(name() + "#" + std::to_string(spawned_));
        spawned_++;
        budget_--;
        tick_budget--;
        if (root != nullptr) {
          TouchAndPush(ctx, root);
          frontier_.push_back(root);
        }
        continue;
      }
      Task* parent = frontier_.front();
      frontier_.pop_front();
      if (!parent->alive) {
        continue;
      }
      for (uint64_t i = 0; i < fanout_ && budget_ > 0 && tick_budget > 0;
           ++i) {
        Task* child =
            ctx.SpawnChild(*parent, name() + "#" + std::to_string(spawned_));
        spawned_++;
        budget_--;
        tick_budget--;
        if (child != nullptr && child->alive) {
          TouchAndPush(ctx, child);
          frontier_.push_back(child);
        }
      }
      ctx.ExitProcess(parent);
      while (frontier_.size() > cap_) {
        ctx.ExitProcess(frontier_.front());
        frontier_.pop_front();
      }
    }
    if (budget_ == 0) {
      // Budget spent: drain the remaining tree, `rate` exits per tick.
      uint64_t drain = ctx.Scaled(rate_);
      while (drain > 0 && !frontier_.empty()) {
        ctx.ExitProcess(frontier_.front());
        frontier_.pop_front();
        drain--;
      }
    }
  }

  bool Done(const ScenarioContext&) const override {
    return started_ && budget_ == 0 && frontier_.empty();
  }

 private:
  void TouchAndPush(ScenarioContext& ctx, Task* task) {
    TouchHeap(ctx, *task, touch_pages_, name());
    if (task->alive) {
      PushDownstream(ctx, task);
    }
  }

  uint64_t forks_ = 0;
  uint64_t fanout_ = 0;
  uint64_t rate_ = 0;
  uint64_t cap_ = 0;
  uint32_t touch_pages_ = 0;
  bool started_ = false;
  uint64_t budget_ = 0;
  uint64_t spawned_ = 0;
  std::deque<Task*> frontier_;
};

// ---------------------------------------------------------------------------
// AdoptingElement: the base of MemoryChurn, SwapThrash and NumaSweep,
// which each work a pool of processes through a per-process anonymous
// heap of `heap_pages_`. Every process pushed to the element is adopted
// (its heap mapped) and forwarded downstream; with `procs` set, the
// element also spawns that population of its own on its first tick. Dead
// processes leave the pool before each tick's Work(). A self-sourced
// pool has no natural end, so the element runs the configured ticks out;
// as a pure sink it never holds the run open.
// ---------------------------------------------------------------------------

class AdoptingElement : public WorkloadElement {
 public:
  void Push(ScenarioContext& ctx, Task* task) final {
    Adopt(ctx, task);
    PushDownstream(ctx, task);
  }

  void Tick(ScenarioContext& ctx) final {
    if (!started_) {
      started_ = true;
      const uint64_t own = ctx.ShardShare(ctx.Scaled(procs_));
      for (uint64_t i = 0; i < own; ++i) {
        Task* task = ctx.SpawnProcess(name() + "#" + std::to_string(i));
        if (task != nullptr) {
          Push(ctx, task);
        }
      }
    }
    std::erase_if(pool_, [](const Entry& e) { return !e.task->alive; });
    Work(ctx);
  }

  bool Done(const ScenarioContext&) const final { return procs_ == 0; }

 protected:
  struct Entry {
    Task* task = nullptr;
    VirtAddr base = 0;    // the heap; 0 when it has none
    uint32_t cursor = 0;  // the next page of a sequential walk
  };

  // The heap's region is named after the element plus `heap_tag`. A
  // process whose heap cannot be mapped is not adopted, unless
  // `keep_heapless`.
  AdoptingElement(const char* heap_tag, bool keep_heapless)
      : heap_tag_(heap_tag), keep_heapless_(keep_heapless) {}

  // The element's per-tick behaviour over the live pool.
  virtual void Work(ScenarioContext& ctx) = 0;

  uint64_t procs_ = 0;
  uint32_t heap_pages_ = 0;
  bool mergeable_ = false;
  std::vector<Entry> pool_;

 private:
  void Adopt(ScenarioContext& ctx, Task* task) {
    if (task == nullptr || !task->alive) {
      return;
    }
    const VirtAddr base =
        heap_pages_ == 0 ? 0
                         : MapAnonRegion(ctx, *task, heap_pages_, mergeable_,
                                         name() + heap_tag_);
    if (base != 0 || keep_heapless_) {
      pool_.push_back(Entry{task, base, 0});
    }
  }

  const char* heap_tag_;
  const bool keep_heapless_;
  bool started_ = false;
};

// ---------------------------------------------------------------------------
// MemoryChurn: random churn over each process's `pages`-page heap.
// `dirty` of the `touches` per process per tick are writes drawn from
// `values` distinct contents — small value spaces give KSM something to
// merge.
// ---------------------------------------------------------------------------

class MemoryChurn : public AdoptingElement {
 public:
  MemoryChurn() : AdoptingElement(":churn", false) {}

  std::string_view kind() const override { return "MemoryChurn"; }

  ScenarioResult Configure(const ElementParams& params) override {
    ParamReader reader(params);
    heap_pages_ = static_cast<uint32_t>(reader.U64("pages", 256));
    touches_ = reader.U64("touches", 64);
    dirty_ = reader.F64("dirty", 0.5);
    values_ = reader.U64("values", 16);
    procs_ = reader.U64("procs", 0);
    mergeable_ = reader.Bool("mergeable", false);
    ScenarioResult result = reader.Finish();
    if (result.ok() && (dirty_ < 0.0 || dirty_ > 1.0)) {
      result = ScenarioResult::Err(Errno::kEinval, "dirty must be in [0, 1]");
    }
    if (result.ok() && heap_pages_ == 0) {
      result = ScenarioResult::Err(Errno::kEinval, "pages must be >= 1");
    }
    return result;
  }

 private:
  void Work(ScenarioContext& ctx) override {
    const uint64_t touches = ctx.Scaled(touches_);
    for (Entry& entry : pool_) {
      for (uint64_t t = 0; t < touches && entry.task->alive; ++t) {
        const VirtAddr va =
            entry.base +
            static_cast<uint32_t>(ctx.rng().Uniform(heap_pages_)) * kPageSize;
        if (ctx.rng().Chance(dirty_)) {
          ctx.kernel().WritePage(*entry.task, va,
                                 ctx.rng().Uniform(values_ == 0 ? 1 : values_));
        } else {
          ctx.kernel().TouchPage(*entry.task, va, AccessType::kRead);
        }
        ctx.stats().pages_touched++;
      }
    }
  }

  uint64_t touches_ = 0;
  double dirty_ = 0.0;
  uint64_t values_ = 0;
};

// ---------------------------------------------------------------------------
// BinderIpcLoop: `pairs` client/server process pairs ping-ponging
// `transactions` times per tick — each a BinderPair, the Figure 13
// microbenchmark's pair (src/android/binder.h) with its default working
// sets, pinned to its client's core. The element draws one seed from the
// shard's ScenarioRng for the Rng that all of its pairs' hops share.
// ---------------------------------------------------------------------------

class BinderIpcLoop : public WorkloadElement {
 public:
  std::string_view kind() const override { return "BinderIpcLoop"; }

  ScenarioResult Configure(const ElementParams& params) override {
    ParamReader reader(params);
    pairs_ = reader.U64("pairs", 2);
    transactions_ = reader.U64("transactions", 25);
    return reader.Finish();
  }

  void Tick(ScenarioContext& ctx) override {
    if (!started_) {
      started_ = true;
      Setup(ctx);
    }
    std::erase_if(pairs_live_,
                  [](const BinderPair& pair) { return !pair.alive(); });
    const uint64_t transactions = ctx.Scaled(transactions_);
    for (BinderPair& pair : pairs_live_) {
      for (uint64_t t = 0;
           t < transactions && pair.Transact(rng_, nullptr, nullptr); ++t) {
        ctx.stats().ipc_transactions++;
      }
    }
  }

  // A perpetual driver: the run length is the scenario's `ticks`.
  bool Done(const ScenarioContext&) const override {
    return pairs_live_.empty() && started_;
  }

 private:
  void Setup(ScenarioContext& ctx) {
    rng_ = Rng(ctx.rng().Next64());
    const uint64_t want = ctx.ShardShare(ctx.Scaled(pairs_));
    for (uint64_t i = 0; i < want; ++i) {
      const std::string id = "#" + std::to_string(i);
      Task* client = ctx.SpawnProcess(name() + ":client" + id);
      Task* server = ctx.SpawnProcess(name() + ":server" + id);
      if (client == nullptr || server == nullptr) {
        continue;
      }
      BinderPair pair(&ctx.system().android(), client, server, BinderParams{},
                      client->last_core, name() + id);
      if (pair.alive()) {
        pairs_live_.push_back(std::move(pair));
        PushDownstream(ctx, client);
        PushDownstream(ctx, server);
      }
    }
  }

  uint64_t pairs_ = 0;
  uint64_t transactions_ = 0;
  bool started_ = false;
  Rng rng_{0};
  std::vector<BinderPair> pairs_live_;
};

// ---------------------------------------------------------------------------
// LaunchReplay: the pre-existing app-launch replay machinery
// (WorkloadFactory + AppRunner) behind the element API. Launches `rate`
// apps per tick, `count` in total, cycling through the paper's 11-app
// suite (or one named app); every launch is a complete fork -> map ->
// replay -> exit execution with a fresh footprint seed.
// ---------------------------------------------------------------------------

class LaunchReplay : public WorkloadElement {
 public:
  std::string_view kind() const override { return "LaunchReplay"; }

  ScenarioResult Configure(const ElementParams& params) override {
    ParamReader reader(params);
    app_ = reader.Str("app", "paper");
    count_ = reader.U64("count", 20);
    rate_ = reader.U64("rate", 2);
    ScenarioResult result = reader.Finish();
    if (!result.ok()) {
      return result;
    }
    profiles_ = AppProfile::PaperBenchmarks();
    if (app_ != "paper") {
      bool known = false;
      for (const AppProfile& profile : profiles_) {
        if (profile.name == app_) {
          profiles_ = {profile};
          known = true;
          break;
        }
      }
      if (!known) {
        return ScenarioResult::Err(
            Errno::kEfault,
            "unknown app '" + app_ + "' (use \"paper\" or a suite app name)");
      }
    }
    return result;
  }

  void Tick(ScenarioContext& ctx) override {
    if (!started_) {
      started_ = true;
      target_ = ctx.ShardShare(ctx.Scaled(count_));
    }
    uint64_t budget = ctx.Scaled(rate_);
    while (budget > 0 && launched_ < target_) {
      budget--;
      AppProfile profile = profiles_[launched_ % profiles_.size()];
      // Every launch gets its own footprint variation, like a fleet of
      // distinct users running distinct sessions of the same app.
      profile.seed = ctx.rng().Next64();
      const AppFootprint footprint =
          ctx.system().workload().Generate(profile);
      const AppRunStats run =
          ctx.app_runner().Run(footprint, /*exit_after=*/true);
      launched_++;
      ctx.stats().launches++;
      if (!run.completed) {
        ctx.stats().launches_incomplete++;
      }
    }
  }

  bool Done(const ScenarioContext&) const override {
    return started_ && launched_ >= target_;
  }

 private:
  std::string app_;
  uint64_t count_ = 0;
  uint64_t rate_ = 0;
  std::vector<AppProfile> profiles_;
  bool started_ = false;
  uint64_t target_ = 0;
  uint64_t launched_ = 0;
};

// ---------------------------------------------------------------------------
// SwapThrash: sequential walks, `stride` pages apart, over each process's
// `pages`-page working set, sized past what DRAM can hold (pair with
// `set phys_mb` / `set swap_mb`). Each page gets a distinct content
// stamp, so the zram store sees realistic, poorly-deduplicating data
// while the LRU cycles.
// ---------------------------------------------------------------------------

class SwapThrash : public AdoptingElement {
 public:
  SwapThrash() : AdoptingElement(":thrash", false) {}

  std::string_view kind() const override { return "SwapThrash"; }

  ScenarioResult Configure(const ElementParams& params) override {
    ParamReader reader(params);
    heap_pages_ = static_cast<uint32_t>(reader.U64("pages", 1024));
    touches_ = reader.U64("touches", 256);
    stride_ = static_cast<uint32_t>(reader.U64("stride", 1));
    procs_ = reader.U64("procs", 0);
    ScenarioResult result = reader.Finish();
    if (result.ok() && (heap_pages_ == 0 || stride_ == 0)) {
      result =
          ScenarioResult::Err(Errno::kEinval, "pages and stride must be >= 1");
    }
    return result;
  }

 private:
  void Work(ScenarioContext& ctx) override {
    const uint64_t touches = ctx.Scaled(touches_);
    for (Entry& entry : pool_) {
      for (uint64_t t = 0; t < touches && entry.task->alive; ++t) {
        const uint32_t page = entry.cursor % heap_pages_;
        entry.cursor += stride_;
        // Content = the page's index: stable across revisits (clean
        // swap-cache hits possible), distinct across pages (no trivial
        // KSM merging).
        ctx.kernel().WritePage(*entry.task, entry.base + page * kPageSize,
                               0x5A700000ull + page);
        ctx.stats().pages_touched++;
      }
    }
  }

  uint64_t touches_ = 0;
  uint32_t stride_ = 0;
};

// ---------------------------------------------------------------------------
// NumaSweep: `procs` resident walkers spread over every core — and so,
// on a multi-node machine, every NUMA node — each sweeping a window of
// the zygote's preloaded shared code plus a private first-touch anon
// heap. The cross-node walk pattern is exactly what feeds numad's
// per-PTP statistics; every `numad_every` ticks the element runs an
// explicit numad pass, so replication or migration (`set pt_placement
// replicate`) happens mid-scenario with reclaim, chaos, and scrubd all
// interfering. On a single-node machine the pass is a no-op and the
// element degrades to a plain shared-code walker. A walker whose heap
// could not be mapped walks the shared code alone.
// ---------------------------------------------------------------------------

class NumaSweep : public AdoptingElement {
 public:
  NumaSweep() : AdoptingElement(":heap", true) {}

  std::string_view kind() const override { return "NumaSweep"; }

  ScenarioResult Configure(const ElementParams& params) override {
    ParamReader reader(params);
    procs_ = reader.U64("procs", 8);
    shared_pages_ = static_cast<uint32_t>(reader.U64("shared_pages", 12));
    heap_pages_ = static_cast<uint32_t>(reader.U64("anon_pages", 16));
    touches_ = reader.U64("touches", 24);
    numad_every_ = static_cast<uint32_t>(reader.U64("numad_every", 4));
    return reader.Finish();
  }

 private:
  void Work(ScenarioContext& ctx) override {
    const AppFootprint& boot = ctx.system().android().zygote_boot_footprint();
    const uint32_t avail = static_cast<uint32_t>(boot.pages.size());
    const uint64_t touches = ctx.Scaled(touches_);
    for (Entry& entry : pool_) {
      // Walk from the process's own core so the walk's node — and the
      // remote/local split numad sees — is deterministic.
      ctx.kernel().ScheduleTo(*entry.task, entry.task->last_core);
      for (uint64_t t = 0; t < touches && entry.task->alive; ++t) {
        if (avail > 0 && (heap_pages_ == 0 || entry.base == 0 || t % 2 == 0)) {
          const TouchedPage& page =
              boot.pages[(entry.cursor++) % std::min(avail, shared_pages_)];
          ctx.kernel().TouchPage(
              *entry.task,
              ctx.system().android().CodePageVa(page.lib, page.page_index),
              AccessType::kExecute);
        } else if (entry.base != 0) {
          ctx.kernel().WritePage(
              *entry.task,
              entry.base + static_cast<uint32_t>(
                               ctx.rng().Uniform(heap_pages_)) * kPageSize,
              ctx.rng().Next64());
        }
        ctx.stats().pages_touched++;
      }
    }
    if (numad_every_ > 0 && (ctx.tick() + 1) % numad_every_ == 0) {
      ctx.kernel().RunNumadPass();
    }
  }

  uint32_t shared_pages_ = 0;
  uint64_t touches_ = 0;
  uint32_t numad_every_ = 0;
};

}  // namespace

void RegisterBuiltinElements(ElementRegistry* registry) {
  registry->Register("SpawnStorm",
                     [] { return std::make_unique<SpawnSource>(false); });
  registry->Register("ForkBomb", [] { return std::make_unique<ForkBomb>(); });
  registry->Register("MemoryChurn",
                     [] { return std::make_unique<MemoryChurn>(); });
  registry->Register("BinderIpcLoop",
                     [] { return std::make_unique<BinderIpcLoop>(); });
  registry->Register("LaunchReplay",
                     [] { return std::make_unique<LaunchReplay>(); });
  registry->Register("SwapThrash",
                     [] { return std::make_unique<SwapThrash>(); });
  registry->Register("DiurnalLoad",
                     [] { return std::make_unique<SpawnSource>(true); });
  registry->Register("NumaSweep",
                     [] { return std::make_unique<NumaSweep>(); });
}

}  // namespace sat
