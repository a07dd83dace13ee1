// The benchmark's pinned workloads and its observer element.
//
// Every input the benchmark feeds the simulator is defined here, in the
// benchmark's own code: the three scenario element graphs (copies of the
// checked-in fork_storm_10k, swap_thrash_ksm and phone_fleet_diurnal
// graphs) and the launch parameters. Nothing is read from scenarios/ or
// bench/ at run time, so editing those cannot move the baseline.
//
// Host time per scenario tick is taken by SpanMark, a pure observer
// element placed before the first graph element and after each one. Each
// tick it appends one steady_clock timestamp to a MarkLog; the
// differences between consecutive marks are the elements' tick self
// times. SpanMark never touches the System, the ScenarioRng, the stats or
// any process, so the runner executes the graph exactly as it would
// without it (perfbench/tests/observer_test.cc checks this).

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/registry.h"
#include "src/scenario/runner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Host timestamps appended by SpanMark observers, in tick order.
class MarkLog {
 public:
  void Clear() { stamps_.clear(); }
  // Reserve a whole shard's marks up front, so that a mark never
  // reallocates inside a timed tick.
  void Reserve(size_t n) { stamps_.reserve(n); }
  void Mark() { stamps_.push_back(Clock::now()); }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 private:
  std::vector<Clock::time_point> stamps_;
};

// The observer element (kind "SpanMark"). `log` may be null, which makes
// it a no-op; the parser's validation pass instantiates it that way.
class SpanMark final : public sat::WorkloadElement {
 public:
  explicit SpanMark(MarkLog* log) : log_(log) {}

  std::string_view kind() const override { return "SpanMark"; }
  sat::ScenarioResult Configure(const sat::ElementParams& params) override;
  void Tick(sat::ScenarioContext& ctx) override;
  // Inherited Done() is true, so a mark never holds a run open. Marks
  // are never wired, so Push() is never called on one.

 private:
  MarkLog* log_ = nullptr;
};

// The built-in element library plus SpanMark bound to `log`.
sat::ElementRegistry MakeRegistry(MarkLog* log);

// One pinned scenario graph; the `fleet` workload runs all three.
struct ScenarioWorkload {
  std::string name;        // short name, used in error messages and tests
  std::string graph_name;  // graph name: the seed-derivation scope
  std::vector<std::string> settings;       // `set` statements
  std::vector<std::string> element_names;  // declaration (= tick) order
  std::vector<std::string> element_decls;  // `Kind(params)`, same order
  std::vector<std::string> edges;          // `a -> b` statements
};

const std::vector<ScenarioWorkload>& ScenarioWorkloads();
// nullptr for an unknown name.
const ScenarioWorkload* FindScenarioWorkload(std::string_view name);

// The graph's .scn text. With `with_marks`, a SpanMark precedes the first
// element and follows every element, so a tick logs
// element_names.size() + 1 marks.
std::string GraphText(const ScenarioWorkload& workload, bool with_marks);

// Parses GraphText against `registry`; dies with the parse error on a
// malformed pinned graph (a bug in this file, not an input error).
sat::ScenarioGraph ParseWorkload(const ScenarioWorkload& workload,
                                 bool with_marks,
                                 const sat::ElementRegistry& registry);

// The job name of shard run `run`: "shard<k>" on the first pass over the
// graph's shards (as bench_scenario names them), "shard<k>.pass<p>" after.
std::string ShardJobName(uint32_t run, uint32_t shard_count);

// The System one shard run boots, and the rng seed of its ScenarioContext,
// both derived from the workload seed with DeriveJobSeed exactly as
// `bench_scenario --seed` derives them.
sat::SystemConfig ShardSystemConfig(const sat::ScenarioGraph& graph,
                                    uint64_t seed, const std::string& job);
sat::ScenarioRunConfig ShardRunConfig(const sat::ScenarioGraph& graph,
                                      const sat::SystemConfig& config,
                                      uint32_t run, const std::string& job);

// The launch workload: Helloworld launches with the default LaunchParams
// on the full shared design with 2 MB alignment, timed after the warm-up
// launches Figures 7-9 drop.
inline constexpr std::string_view kLaunchConfig = "shared-ptp-tlb-2mb";
inline constexpr uint32_t kLaunchWarmups = 3;
sat::SystemConfig LaunchSystemConfig(uint64_t seed);
sat::LaunchParams LaunchParamsFor(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
