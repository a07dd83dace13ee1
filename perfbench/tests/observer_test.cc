// SpanMark must be a pure observer: the benchmark times scenario ticks by
// inserting marks between a pinned graph's elements, which is only sound
// if the marks change nothing the simulator computes.
//
// Build and run: python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/workloads.h"

namespace perfbench {
namespace {

struct ShardResult {
  sat::ScenarioRunOutcome outcome;
  sat::KernelCounters kernel;
  std::vector<sat::CoreCounters> cores;
};

// Shard 0 of `workload`'s pinned graph, with or without marks.
ShardResult RunFirstShard(const ScenarioWorkload& workload, bool with_marks,
                          MarkLog* log) {
  const sat::ElementRegistry registry = MakeRegistry(log);
  const sat::ScenarioGraph graph =
      ParseWorkload(workload, with_marks, registry);
  const std::string job = ShardJobName(0, sat::ScenarioShardCount(graph));
  const sat::SystemConfig config = ShardSystemConfig(graph, /*seed=*/7, job);
  sat::System system(config);
  ShardResult result;
  result.outcome = sat::RunScenarioOnSystem(
      &system, graph, registry, ShardRunConfig(graph, config, 0, job));
  result.kernel = system.kernel().counters();
  for (uint32_t i = 0; i < system.kernel().num_cores(); ++i) {
    result.cores.push_back(system.kernel().core(i).counters());
  }
  return result;
}

void ExpectSameStats(const sat::ScenarioStats& a, const sat::ScenarioStats& b) {
  EXPECT_EQ(a.processes_spawned, b.processes_spawned);
  EXPECT_EQ(a.processes_exited, b.processes_exited);
  EXPECT_EQ(a.processes_lost, b.processes_lost);
  EXPECT_EQ(a.pages_touched, b.pages_touched);
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.launches_incomplete, b.launches_incomplete);
  EXPECT_EQ(a.ipc_transactions, b.ipc_transactions);
  EXPECT_EQ(a.ticks_run, b.ticks_run);
}

void ExpectSameKernel(const sat::KernelCounters& a,
                      const sat::KernelCounters& b) {
#define PERFBENCH_EXPECT_FIELD(field) EXPECT_EQ(a.field, b.field) << #field;
  SAT_KERNEL_COUNTER_FIELDS(PERFBENCH_EXPECT_FIELD)
#undef PERFBENCH_EXPECT_FIELD
}

void ExpectSameCore(const sat::CoreCounters& a, const sat::CoreCounters& b) {
#define PERFBENCH_EXPECT_FIELD(field) EXPECT_EQ(a.field, b.field) << #field;
  SAT_CORE_COUNTER_FIELDS(PERFBENCH_EXPECT_FIELD)
#undef PERFBENCH_EXPECT_FIELD
}

class PinnedGraphTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PinnedGraphTest, MarksChangeNothingTheSimulatorComputes) {
  const ScenarioWorkload* workload = FindScenarioWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  MarkLog log;
  const ShardResult plain = RunFirstShard(*workload, false, nullptr);
  const ShardResult marked = RunFirstShard(*workload, true, &log);
  ASSERT_TRUE(plain.outcome.ok()) << plain.outcome.audit_report;
  ASSERT_TRUE(marked.outcome.ok()) << marked.outcome.audit_report;

  ExpectSameStats(plain.outcome.stats, marked.outcome.stats);
  ExpectSameKernel(plain.kernel, marked.kernel);
  ASSERT_EQ(plain.cores.size(), marked.cores.size());
  for (size_t i = 0; i < plain.cores.size(); ++i) {
    ExpectSameCore(plain.cores[i], marked.cores[i]);
  }
  // One mark before the first element and one after each element, every
  // tick.
  EXPECT_EQ(log.stamps().size(), marked.outcome.stats.ticks_run *
                                     (workload->element_names.size() + 1));
}

INSTANTIATE_TEST_SUITE_P(Workloads, PinnedGraphTest,
                         ::testing::Values("fork_storm", "swap_thrash",
                                           "diurnal"),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

TEST(SpanMarkTest, TickTouchesNeitherRngNorSystem) {
  MarkLog log;
  sat::System system(sat::ConfigByName("shared-ptp-tlb"));
  sat::ScenarioContext ctx(&system, /*rng_seed=*/99, /*shard_index=*/0,
                           /*shard_count=*/1, /*scale=*/1.0);
  SpanMark mark(&log);
  ASSERT_TRUE(mark.Configure(sat::ElementParams{}).ok());

  sat::ScenarioRng untouched = ctx.rng();
  const sat::KernelCounters kernel_before = system.kernel().counters();
  const sat::CoreCounters core_before = system.kernel().core().counters();
  for (uint32_t tick = 0; tick < 10; ++tick) {
    ctx.set_tick(tick);
    mark.Tick(ctx);
  }

  EXPECT_EQ(log.stamps().size(), 10u);
  EXPECT_EQ(ctx.rng().Next64(), untouched.Next64());
  ExpectSameStats(ctx.stats(), sat::ScenarioStats{});
  EXPECT_EQ(ctx.live_processes(), 0u);
  ExpectSameKernel(system.kernel().counters(), kernel_before);
  ExpectSameCore(system.kernel().core().counters(), core_before);
  EXPECT_TRUE(mark.Done(ctx));
  EXPECT_TRUE(mark.outputs().empty());
}

TEST(SpanMarkTest, RejectsParameters) {
  SpanMark mark(nullptr);
  sat::ElementParams params;
  params.items.push_back({"slot", "3", false});
  EXPECT_FALSE(mark.Configure(params).ok());
}

}  // namespace
}  // namespace perfbench
