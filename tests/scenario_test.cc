// Tests for the composable scenario engine (src/scenario): the DSL
// parser's round-trip and errno-style rejection behaviour, the element
// library's configuration validation, sharding arithmetic, and the
// determinism contract — a sharded scenario run is bit-identical whether
// its shard jobs run serially or on 4 workers.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/common.h"
#include "src/scenario/parser.h"
#include "src/scenario/registry.h"
#include "src/scenario/runner.h"

#ifndef SAT_SCENARIO_DIR
#define SAT_SCENARIO_DIR "scenarios"
#endif

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// Parser: round-trip, settings, chains, anonymous elements.
// ---------------------------------------------------------------------------

TEST(ScenarioParserTest, EveryCheckedInScenarioParsesAndRoundTrips) {
  const std::vector<std::string> paths = ScenarioFiles(SAT_SCENARIO_DIR);
  ASSERT_FALSE(paths.empty()) << "no .scn files in " << SAT_SCENARIO_DIR;
  for (const std::string& path : paths) {
    const ScenarioParseResult first =
        ParseScenarioFile(path, &ElementRegistry::Default());
    ASSERT_TRUE(first.ok()) << first.FormatError(path);
    EXPECT_FALSE(first.graph.elements.empty()) << path;

    // Print -> reparse -> print must be a fixed point: the canonical
    // form loses nothing the engine consumes.
    const std::string printed = first.graph.ToString();
    const ScenarioParseResult second = ParseScenario(
        printed, first.graph.name, &ElementRegistry::Default());
    ASSERT_TRUE(second.ok()) << path << " reparse: "
                             << second.FormatError("<printed>");
    EXPECT_EQ(printed, second.graph.ToString()) << path;
    ASSERT_EQ(first.graph.elements.size(), second.graph.elements.size());
    for (size_t i = 0; i < first.graph.elements.size(); ++i) {
      EXPECT_EQ(first.graph.elements[i].name, second.graph.elements[i].name);
      EXPECT_EQ(first.graph.elements[i].kind, second.graph.elements[i].kind);
    }
    ASSERT_EQ(first.graph.edges.size(), second.graph.edges.size());
    for (size_t i = 0; i < first.graph.edges.size(); ++i) {
      EXPECT_EQ(first.graph.edges[i].from, second.graph.edges[i].from);
      EXPECT_EQ(first.graph.edges[i].to, second.graph.edges[i].to);
    }
    ASSERT_EQ(first.graph.settings.size(), second.graph.settings.size());
    for (size_t i = 0; i < first.graph.settings.size(); ++i) {
      EXPECT_EQ(first.graph.settings[i].key, second.graph.settings[i].key);
      EXPECT_EQ(first.graph.settings[i].value,
                second.graph.settings[i].value);
    }
  }
}

TEST(ScenarioParserTest, ChainDeclaresAnonymousElementsInline) {
  const ScenarioParseResult result = ParseScenario(
      "storm :: SpawnStorm(count 8, rate 2);\n"
      "storm -> MemoryChurn(pages 16) -> SwapThrash(pages 8, procs 0);\n",
      "inline", &ElementRegistry::Default());
  ASSERT_TRUE(result.ok()) << result.FormatError("inline");
  ASSERT_EQ(result.graph.elements.size(), 3u);
  EXPECT_EQ(result.graph.elements[1].kind, "MemoryChurn");
  EXPECT_EQ(result.graph.elements[2].kind, "SwapThrash");
  ASSERT_EQ(result.graph.edges.size(), 2u);
  EXPECT_EQ(result.graph.edges[0].from, 0u);
  EXPECT_EQ(result.graph.edges[0].to, 1u);
  EXPECT_EQ(result.graph.edges[1].from, 1u);
  EXPECT_EQ(result.graph.edges[1].to, 2u);
}

TEST(ScenarioParserTest, UnknownElementKindIsEfaultWithPosition) {
  const ScenarioParseResult result =
      ParseScenario("x :: FrokStorm(count 8);\n", "bad",
                    &ElementRegistry::Default());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error, Errno::kEfault);
  EXPECT_EQ(result.line, 1);
  EXPECT_EQ(result.column, 6);
  EXPECT_NE(result.message.find("FrokStorm"), std::string::npos);
  // Known kinds are listed so a typo is a one-glance fix.
  EXPECT_NE(result.message.find("SpawnStorm"), std::string::npos);
  EXPECT_NE(result.FormatError("bad.scn").find("bad.scn:1:6"),
            std::string::npos);
  EXPECT_NE(result.FormatError("bad.scn").find("EFAULT"), std::string::npos);
}

TEST(ScenarioParserTest, UnknownParameterIsEinvalAtTheElementLine) {
  const ScenarioParseResult result = ParseScenario(
      "# comment\nx :: SpawnStorm(cout 8);\n", "bad",
      &ElementRegistry::Default());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error, Errno::kEinval);
  EXPECT_EQ(result.line, 2);
  EXPECT_NE(result.message.find("cout"), std::string::npos);
}

TEST(ScenarioParserTest, IllTypedParameterIsEinval) {
  const ScenarioParseResult result =
      ParseScenario("x :: SpawnStorm(count lots);\n", "bad",
                    &ElementRegistry::Default());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error, Errno::kEinval);
  EXPECT_NE(result.message.find("count"), std::string::npos);
}

TEST(ScenarioParserTest, ElementLevelValidationRejectsBadValues) {
  // ForkBomb rejects fanout 0; MemoryChurn rejects dirty outside [0,1];
  // LaunchReplay rejects apps not in the paper suite.
  EXPECT_EQ(ParseScenario("x :: ForkBomb(fanout 0);", "b",
                          &ElementRegistry::Default())
                .error,
            Errno::kEinval);
  EXPECT_EQ(ParseScenario("x :: MemoryChurn(dirty 1.5);", "b",
                          &ElementRegistry::Default())
                .error,
            Errno::kEinval);
  EXPECT_EQ(ParseScenario("x :: LaunchReplay(app NoSuchApp);", "b",
                          &ElementRegistry::Default())
                .error,
            Errno::kEfault);
}

TEST(ScenarioParserTest, UnknownSettingAndBadSettingValuesAreRejected) {
  const ElementRegistry& reg = ElementRegistry::Default();
  EXPECT_EQ(ParseScenario("set tiks 100;", "b", &reg).error, Errno::kEinval);
  EXPECT_EQ(ParseScenario("set ticks many;", "b", &reg).error,
            Errno::kEinval);
  EXPECT_EQ(ParseScenario("set config no-such-config;", "b", &reg).error,
            Errno::kEfault);
  EXPECT_EQ(ParseScenario("set ksm maybe;", "b", &reg).error, Errno::kEinval);

  // A bad word is reported at the value, by name, like every other
  // ill-typed setting value.
  const ScenarioParseResult shootdown =
      ParseScenario("set shootdown sometimes;", "b", &reg);
  EXPECT_EQ(shootdown.error, Errno::kEinval);
  EXPECT_EQ(shootdown.line, 1);
  EXPECT_EQ(shootdown.column, 15);
  EXPECT_EQ(shootdown.message,
            "setting 'shootdown' expects immediate or batched, got "
            "'sometimes'");
  const ScenarioParseResult placement =
      ParseScenario("set pt_placement sometimes;", "b", &reg);
  EXPECT_EQ(placement.error, Errno::kEinval);
  EXPECT_EQ(placement.line, 1);
  EXPECT_EQ(placement.column, 18);
  EXPECT_EQ(placement.message,
            "setting 'pt_placement' expects local, replicate, or migrate, "
            "got 'sometimes'");
}

TEST(ScenarioParserTest, SyntaxErrorsCarryLineAndColumn) {
  const ScenarioParseResult result = ParseScenario(
      "storm :: SpawnStorm(count 4);\nstorm -> ;\n", "bad",
      &ElementRegistry::Default());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error, Errno::kEinval);
  EXPECT_EQ(result.line, 2);
}

TEST(ScenarioParserTest, ChainToUndeclaredElementIsEfault) {
  const ScenarioParseResult result =
      ParseScenario("a :: SpawnStorm(count 4);\na -> b;\n", "bad",
                    &ElementRegistry::Default());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error, Errno::kEfault);
  EXPECT_NE(result.message.find("'b'"), std::string::npos);
}

TEST(ScenarioParserTest, DuplicateElementNameIsRejected) {
  const ScenarioParseResult result = ParseScenario(
      "a :: SpawnStorm(count 4);\na :: MemoryChurn(pages 8);\n", "bad",
      &ElementRegistry::Default());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error, Errno::kEinval);
}

TEST(ScenarioParserTest, MissingFileIsEfault) {
  const ScenarioParseResult result = ParseScenarioFile(
      "/no/such/dir/x.scn", &ElementRegistry::Default());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error, Errno::kEfault);
}

TEST(ScenarioParserTest, NameFromPathStripsDirectoryAndExtension) {
  EXPECT_EQ(ScenarioNameFromPath("scenarios/fork_storm_10k.scn"),
            "fork_storm_10k");
  EXPECT_EQ(ScenarioNameFromPath("chaos.scn"), "chaos");
  EXPECT_EQ(ScenarioNameFromPath("noext"), "noext");
}

// ---------------------------------------------------------------------------
// Settings reach the built SystemConfig.
// ---------------------------------------------------------------------------

TEST(ScenarioRunnerTest, SettingsShapeTheSystemConfig) {
  const ScenarioParseResult result = ParseScenario(
      "set config stock;\nset phys_mb 128;\nset swap_mb 64;\n"
      "set cores 4;\nset nodes 2;\nset shootdown batched;\n"
      "set ksm true;\nset seed 99;\nset shards 3;\n"
      "x :: SpawnStorm(count 4);\n",
      "cfg", &ElementRegistry::Default());
  ASSERT_TRUE(result.ok()) << result.FormatError("cfg");
  const SystemConfig config = ScenarioSystemConfig(result.graph);
  EXPECT_FALSE(config.vm.share_ptps);
  EXPECT_EQ(config.pt_placement, PtPlacement::kLocal);
  EXPECT_EQ(config.phys_bytes, 128ull * 1024 * 1024);
  EXPECT_EQ(config.swap_bytes, 64ull * 1024 * 1024);
  EXPECT_EQ(config.num_cores, 4u);
  EXPECT_EQ(config.num_nodes, 2u);
  EXPECT_EQ(config.shootdown_policy, ShootdownPolicy::kBatched);
  EXPECT_TRUE(config.ksm_enabled);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(ScenarioShardCount(result.graph), 3u);
}

// ---------------------------------------------------------------------------
// Sharding arithmetic.
// ---------------------------------------------------------------------------

TEST(ScenarioContextTest, ShardSharesSumToTheDeclaredTotal) {
  for (uint32_t shards : {1u, 2u, 3u, 4u, 7u}) {
    for (uint64_t total : {0ull, 1ull, 5ull, 100ull, 2400ull, 10007ull}) {
      uint64_t sum = 0;
      uint64_t max_share = 0, min_share = ~0ull;
      for (uint32_t i = 0; i < shards; ++i) {
        ScenarioContext ctx(nullptr, 1, i, shards, 1.0);
        const uint64_t share = ctx.ShardShare(total);
        sum += share;
        max_share = std::max(max_share, share);
        min_share = std::min(min_share, share);
      }
      EXPECT_EQ(sum, total) << shards << " shards of " << total;
      EXPECT_LE(max_share - min_share, 1u);
    }
  }
}

TEST(ScenarioContextTest, SmokeScalingNeverRoundsToZero) {
  ScenarioContext ctx(nullptr, 1, 0, 1, 0.05);
  EXPECT_EQ(ctx.Scaled(0), 0u);    // zero stays zero (feature off)
  EXPECT_EQ(ctx.Scaled(1), 1u);    // tiny populations survive
  EXPECT_EQ(ctx.Scaled(10000), 500u);
}

// ---------------------------------------------------------------------------
// End-to-end: a small graph runs, spawns, tears down audit-clean.
// ---------------------------------------------------------------------------

const char kSmallGraph[] =
    "set ticks 12;\n"
    "set shards 4;\n"
    "storm :: SpawnStorm(count 24, rate 4, lifetime 2, touch_pages 4);\n"
    "churn :: MemoryChurn(pages 32, touches 8, dirty 0.5, values 4);\n"
    "storm -> churn;\n";

TEST(ScenarioRunnerTest, SmallGraphRunsToCompletionAuditClean) {
  const ScenarioParseResult parsed =
      ParseScenario(kSmallGraph, "small", &ElementRegistry::Default());
  ASSERT_TRUE(parsed.ok()) << parsed.FormatError("small");
  System system(ScenarioSystemConfig(parsed.graph));
  ScenarioRunConfig run;
  run.shard_index = 0;
  run.shard_count = 1;
  run.rng_seed = 7;
  const ScenarioRunOutcome outcome = RunScenarioOnSystem(
      &system, parsed.graph, ElementRegistry::Default(), run);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.message;
  EXPECT_TRUE(outcome.audit_ok) << outcome.audit_report;
  EXPECT_GT(outcome.audit_checks, 0u);
  EXPECT_EQ(outcome.stats.processes_spawned, 24u);
  EXPECT_EQ(outcome.stats.processes_exited + outcome.stats.processes_lost,
            outcome.stats.processes_spawned);
  EXPECT_GT(outcome.stats.pages_touched, 0u);
}

TEST(ScenarioRunnerTest, UnknownKindAtRunTimeIsEfault) {
  // A graph parsed without registry validation can carry kinds the
  // runtime registry lacks; the runner must fail cleanly, not crash.
  const ScenarioParseResult parsed =
      ParseScenario("x :: NotARealElement(a 1);", "bad", nullptr);
  ASSERT_TRUE(parsed.ok());
  System system(ScenarioSystemConfig(parsed.graph));
  const ScenarioRunOutcome outcome = RunScenarioOnSystem(
      &system, parsed.graph, ElementRegistry::Default(), ScenarioRunConfig{});
  EXPECT_EQ(outcome.status.error, Errno::kEfault);
}

// ---------------------------------------------------------------------------
// The determinism contract: the sharded scenario run is bit-identical
// whether its shard jobs run serially or on 4 workers.
// ---------------------------------------------------------------------------

std::vector<JobRecord> RunShardedScenario(const ScenarioGraph& graph,
                                          uint32_t jobs) {
  BenchOptions options;
  options.jobs = jobs;
  Harness harness(graph.name, options);
  const uint32_t shards = ScenarioShardCount(graph);
  for (uint32_t shard = 0; shard < shards; ++shard) {
    const std::string job_name = "shard" + std::to_string(shard);
    harness.AddCustomJob(job_name, [&harness, graph, shard, shards,
                                    job_name](JobRecord& record) {
      const SystemConfig config =
          harness.Resolve(ScenarioSystemConfig(graph), job_name);
      System system(config);
      ScenarioRunConfig run;
      run.shard_index = shard;
      run.shard_count = shards;
      run.rng_seed = DeriveJobSeed(config.seed, graph.name, job_name);
      const ScenarioRunOutcome outcome = RunScenarioOnSystem(
          &system, graph, ElementRegistry::Default(), run);
      ASSERT_TRUE(outcome.ok()) << outcome.status.message
                                << outcome.audit_report;
      RecordScenarioStats(outcome.stats, &record);
      Harness::CaptureSystem(system, &record);
    });
  }
  EXPECT_TRUE(harness.Run());
  return harness.records();
}

TEST(ScenarioRunnerTest, ShardedRunIsBitIdenticalAcrossJobCounts) {
  const ScenarioParseResult parsed =
      ParseScenario(kSmallGraph, "small", &ElementRegistry::Default());
  ASSERT_TRUE(parsed.ok()) << parsed.FormatError("small");

  const std::vector<JobRecord> serial = RunShardedScenario(parsed.graph, 1);
  const std::vector<JobRecord> parallel = RunShardedScenario(parsed.graph, 4);

  ASSERT_EQ(serial.size(), 4u);
  // Every label and metric — scenario stats AND all captured kernel/core
  // counters — must match exactly.
  EXPECT_EQ(serial, parallel);
  uint64_t spawned_total = 0;
  for (const JobRecord& record : serial) {
    spawned_total += static_cast<uint64_t>(
        MetricOr(record, "scenario.processes_spawned"));
  }
  // The shards split the scenario-wide population exactly.
  EXPECT_EQ(spawned_total, 24u);
}

// ---------------------------------------------------------------------------
// The spawn source behind SpawnStorm and DiurnalLoad: a triangle-wave rate,
// and a flat storm that is the wave with peak == trough.
// ---------------------------------------------------------------------------

TEST(ScenarioElementTest, DiurnalLoadSpawnsATriangleWave) {
  System system(ConfigByName("shared-ptp-tlb"));
  ScenarioContext ctx(&system, /*rng_seed=*/7, 0, 1, 1.0);
  std::unique_ptr<WorkloadElement> day =
      ElementRegistry::Default().Create("DiurnalLoad");
  ASSERT_NE(day, nullptr);
  day->set_name("day");
  ElementParams params;
  params.items = {{"period", "8"}, {"peak", "4"}, {"trough", "0"},
                  {"lifetime", "2"}, {"touch_pages", "2"}};
  ASSERT_TRUE(day->Configure(params).ok());
  std::vector<uint64_t> spawned;
  for (uint32_t tick = 0; tick < 8; ++tick) {
    const uint64_t before = ctx.stats().processes_spawned;
    ctx.set_tick(tick);
    day->Tick(ctx);
    spawned.push_back(ctx.stats().processes_spawned - before);
  }
  EXPECT_EQ(spawned, (std::vector<uint64_t>{0, 1, 2, 3, 4, 3, 2, 1}));
  EXPECT_FALSE(day->Done(ctx));  // count 0: unbounded
  ctx.ExitAll();
  EXPECT_TRUE(system.kernel().AuditInvariants().ok());
}

// Runs `graph` as one shard and records its stats and every kernel and
// core counter.
JobRecord RunOneShard(const std::string& graph) {
  const ScenarioParseResult parsed =
      ParseScenario(graph, "one", &ElementRegistry::Default());
  EXPECT_TRUE(parsed.ok()) << parsed.FormatError("one");
  System system(ScenarioSystemConfig(parsed.graph));
  ScenarioRunConfig run;
  run.rng_seed = 11;
  const ScenarioRunOutcome outcome = RunScenarioOnSystem(
      &system, parsed.graph, ElementRegistry::Default(), run);
  EXPECT_TRUE(outcome.ok()) << outcome.status.message << outcome.audit_report;
  JobRecord record;
  RecordScenarioStats(outcome.stats, &record);
  Harness::CaptureSystem(system, &record);
  return record;
}

TEST(ScenarioElementTest, SpawnStormIsAFlatDiurnalLoad) {
  const std::string tail =
      "w -> MemoryChurn(pages 16, touches 8);\n"
      "set ticks 40;\nset cores 2;\n";
  const JobRecord storm = RunOneShard(
      "w :: SpawnStorm(count 30, rate 4, lifetime 3, touch_pages 8);\n" +
      tail);
  const JobRecord flat = RunOneShard(
      "w :: DiurnalLoad(period 2, peak 4, trough 4, count 30, lifetime 3, "
      "touch_pages 8);\n" +
      tail);
  EXPECT_EQ(MetricOr(storm, "scenario.processes_spawned"), 30.0);
  EXPECT_LT(MetricOr(storm, "scenario.ticks_run"), 40.0);  // ran to Done
  EXPECT_EQ(storm, flat);
}

// ---------------------------------------------------------------------------
// The NUMA fleet: SpawnStorm sharded across the cores places anon
// frames first-touch on the spawning core's node, NumaSweep feeds
// numad's placement policy, and the whole run stays bit-identical at
// any --jobs value — with the numa counters live in every record.
// ---------------------------------------------------------------------------

TEST(ScenarioRunnerTest, SpawnStormPlacesAnonFramesFirstTouchAcrossNodes) {
  SystemConfig config = ConfigByName("shared-ptp-tlb");
  config.num_cores = 8;
  config.num_nodes = 4;
  System system(config);
  PhysicalMemory& phys = system.kernel().phys();
  const uint64_t fallbacks_before = phys.numa_fallbacks();
  std::vector<uint64_t> before(phys.num_nodes());
  for (uint32_t n = 0; n < phys.num_nodes(); ++n) {
    before[n] = phys.free_frames_on_node(n);
  }

  ScenarioContext ctx(&system, /*rng_seed=*/7, 0, 1, 1.0);
  std::unique_ptr<WorkloadElement> storm =
      ElementRegistry::Default().Create("SpawnStorm");
  ASSERT_NE(storm, nullptr);
  storm->set_name("storm");
  ElementParams params;
  params.items = {{"count", "8"}, {"rate", "8"}, {"lifetime", "100"},
                  {"touch_pages", "8"}};
  ASSERT_TRUE(storm->Configure(params).ok());
  ctx.set_tick(0);
  storm->Tick(ctx);

  // Eight workers round-robin over eight cores = two per node, each
  // touching an 8-page heap: first-touch placement puts those frames
  // (and the PTPs behind them) on the touching core's node, so every
  // node's free count drops — not just node 0's — and no allocation had
  // to fall back to a remote node to get there.
  for (uint32_t n = 0; n < phys.num_nodes(); ++n) {
    EXPECT_LT(phys.free_frames_on_node(n), before[n]) << "node " << n;
  }
  EXPECT_EQ(phys.numa_fallbacks(), fallbacks_before);

  ctx.ExitAll();
  const AuditReport audit = system.kernel().AuditInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

const char kNumaGraph[] =
    "set config shared-ptp-tlb;\n"
    "set ticks 16;\n"
    "set shards 4;\n"
    "set cores 8;\n"
    "set nodes 4;\n"
    "set pt_placement replicate;\n"
    "storm :: SpawnStorm(count 48, rate 6, lifetime 2, touch_pages 8);\n"
    "sweep :: NumaSweep(procs 8, shared_pages 12, anon_pages 8, "
    "touches 16, numad_every 4);\n"
    "storm -> sweep;\n";

TEST(ScenarioRunnerTest, NumaFleetIsBitIdenticalAcrossJobCounts) {
  const ScenarioParseResult parsed =
      ParseScenario(kNumaGraph, "numa", &ElementRegistry::Default());
  ASSERT_TRUE(parsed.ok()) << parsed.FormatError("numa");

  const std::vector<JobRecord> serial = RunShardedScenario(parsed.graph, 1);
  const std::vector<JobRecord> parallel = RunShardedScenario(parsed.graph, 4);

  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(serial.size(), parallel.size());
  double walks = 0, promotions = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].config, parallel[i].config);
    ASSERT_EQ(serial[i].metrics.size(), parallel[i].metrics.size());
    for (size_t m = 0; m < serial[i].metrics.size(); ++m) {
      EXPECT_EQ(serial[i].metrics[m].first, parallel[i].metrics[m].first);
      EXPECT_EQ(serial[i].metrics[m].second, parallel[i].metrics[m].second)
          << serial[i].config << " " << serial[i].metrics[m].first;
    }
    walks += MetricOr(serial[i], "counters.numa_walks");
    promotions += MetricOr(serial[i], "counters.numa_replica_promotions");
  }
  // The numa counters made it into the records, and the fleet actually
  // exercised the replication machinery on every shard set.
  EXPECT_GT(walks, 0.0);
  EXPECT_GT(promotions, 0.0);
}

// ---------------------------------------------------------------------------
// The --scenario preconditioning hook in the shared harness parser.
// ---------------------------------------------------------------------------

TEST(HarnessScenarioTest, ParseHarnessArgsLoadsAndValidatesScenario) {
  const std::string path = std::string(SAT_SCENARIO_DIR) + "/chaos_soak.scn";
  std::string scenario_flag = "--scenario=" + path;
  std::string jobs_flag = "--jobs=1";
  char prog[] = "scenario_test";
  char* argv[] = {prog, scenario_flag.data(), jobs_flag.data(), nullptr};
  int argc = 3;
  const BenchOptions options = ParseHarnessArgs(&argc, argv);
  EXPECT_EQ(argc, 1);  // harness flags consumed
  ASSERT_TRUE(options.scenario_set);
  EXPECT_EQ(options.scenario_graph.name, "chaos_soak");
  EXPECT_FALSE(options.scenario_graph.elements.empty());
}

TEST(HarnessScenarioTest, SystemJobsRunTheScenarioAsPreconditioning) {
  BenchOptions options;
  options.jobs = 1;
  options.smoke = true;  // shrink the soak for test time
  const ScenarioParseResult parsed =
      ParseScenario(kSmallGraph, "small", &ElementRegistry::Default());
  ASSERT_TRUE(parsed.ok());
  options.scenario_graph = parsed.graph;
  options.scenario_set = true;
  Harness harness("scenario_precondition_test", options);
  harness.AddJob("stock", ConfigByName("stock"),
                 [](System& system, JobRecord& record) {
                   record.Metric("live_after",
                                 static_cast<double>(
                                     system.kernel().tasks().size()));
                 });
  ASSERT_TRUE(harness.Run());
  const JobRecord& record = harness.record(0);
  EXPECT_GT(MetricOr(record, "scenario.processes_spawned"), 0.0);
  EXPECT_EQ(MetricOr(record, "scenario.processes_spawned"),
            MetricOr(record, "scenario.processes_exited") +
                MetricOr(record, "scenario.processes_lost"));
}

}  // namespace
}  // namespace sat
