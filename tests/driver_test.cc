// Tests for the experiment driver: the worker threads' ordering and
// determinism contract (a parallel run's records and results file are
// identical to a serial run's), per-job seed derivation, and the
// structured results sink (JSON rendering, file round-trip).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/driver/results.h"
#include "src/driver/worker_pool.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// Worker threads and seeds.
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, HardwareJobsIsAtLeastOne) {
  EXPECT_GE(HardwareJobs(), 1u);
}

TEST(WorkerPoolTest, RunJobsExecutesEveryJobIntoItsOwnSlot) {
  for (const uint32_t jobs : {1u, 2u, 8u}) {
    std::vector<int> slots(37, -1);
    std::vector<std::function<void()>> work;
    for (int i = 0; i < 37; ++i) {
      work.push_back([&slots, i] { slots[static_cast<size_t>(i)] = i * i; });
    }
    RunJobs(std::move(work), jobs);
    for (int i = 0; i < 37; ++i) {
      EXPECT_EQ(slots[static_cast<size_t>(i)], i * i) << "jobs=" << jobs;
    }
  }
}

TEST(WorkerPoolTest, ScopedDeriveJobSeedHasNoConcatenationCollisions) {
  // The scope and the name are length-delimited: two jobs that differ
  // only in where the scope/name boundary falls must not share a seed.
  EXPECT_NE(DeriveJobSeed(7, "ab", "c"), DeriveJobSeed(7, "a", "bc"));
  EXPECT_NE(DeriveJobSeed(7, "storm", ""), DeriveJobSeed(7, "", "storm"));
  // Deterministic, nonzero, and distinct across every component.
  const uint64_t a = DeriveJobSeed(7, "fork_storm_10k", "shard0");
  EXPECT_EQ(a, DeriveJobSeed(7, "fork_storm_10k", "shard0"));
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, DeriveJobSeed(7, "fork_storm_10k", "shard1"));
  EXPECT_NE(a, DeriveJobSeed(7, "chaos_soak", "shard0"));
  EXPECT_NE(a, DeriveJobSeed(8, "fork_storm_10k", "shard0"));
}

// ---------------------------------------------------------------------------
// The determinism contract: serial and parallel harness runs produce
// identical records and results files (DESIGN.md section 5f).
// ---------------------------------------------------------------------------

BenchOptions TestOptions(uint32_t jobs) {
  BenchOptions options;
  options.jobs = jobs;
  return options;
}

// A small but non-trivial workload: boot a system, run one app, capture
// the counters. Every simulated metric must be independent of --jobs.
void AddAppJobs(Harness& harness) {
  for (const char* key : {"stock", "shared-ptp", "shared-ptp-tlb"}) {
    for (const char* app : {"Email", "Chrome"}) {
      harness.AddJob(std::string(key) + "/" + app, ConfigByName(key),
                     [name = std::string(app)](System& system,
                                               JobRecord& record) {
                       AppRunner runner(&system.android());
                       const AppFootprint fp = system.workload().Generate(
                           AppProfile::Named(name));
                       const AppRunStats stats = runner.Run(fp);
                       record.Metric("file_faults",
                                     static_cast<double>(stats.file_faults));
                     });
    }
  }
}

TEST(HarnessTest, ParallelRunIsBitIdenticalToSerialRun) {
  Harness serial("driver_test", TestOptions(1));
  AddAppJobs(serial);
  ASSERT_TRUE(serial.Run());

  Harness parallel("driver_test", TestOptions(8));
  AddAppJobs(parallel);
  ASSERT_TRUE(parallel.Run());

  // Submission order, every label and every metric — all kernel
  // counters, all core counters, the bench's own figures — match exactly.
  EXPECT_EQ(serial.records(), parallel.records());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(HarnessTest, JsonOutputIsByteIdenticalAcrossJobCounts) {
  std::vector<std::string> files;
  for (const uint32_t jobs : {1u, 8u}) {
    BenchOptions options = TestOptions(jobs);
    options.json_out = testing::TempDir() + "/driver_test_jobs" +
                       std::to_string(jobs) + ".json";
    Harness harness("driver_test", options);
    AddAppJobs(harness);
    ASSERT_TRUE(harness.Run());
    files.push_back(ReadFile(options.json_out));
    std::remove(options.json_out.c_str());
  }
  ASSERT_FALSE(files[0].empty());
  EXPECT_EQ(files[0], files[1]);
}

TEST(HarnessTest, CapturedRecordsIncludeCountersAndSystemLabel) {
  Harness harness("driver_test", TestOptions(2));
  AddAppJobs(harness);
  ASSERT_TRUE(harness.Run());
  const JobRecord& record = harness.records()[0];
  EXPECT_GT(MetricOr(record, "counters.faults_file_backed"), 0.0);
  EXPECT_GT(MetricOr(record, "core.cycles"), 0.0);
  bool has_system_label = false;
  for (const auto& [name, value] : record.labels) {
    if (name == "system") {
      has_system_label = true;
      EXPECT_EQ(value, "Stock Android");
    }
  }
  EXPECT_TRUE(has_system_label);
}

// One Email run per registry entry, named by its key, so every --config
// key selects a job.
void AddNamedConfigJobs(Harness& harness) {
  for (const NamedSystemConfig& entry : NamedConfigs()) {
    harness.AddJob(std::string(entry.key), entry.config,
                   [](System& system, JobRecord& record) {
                     AppRunner runner(&system.android());
                     const AppRunStats stats = runner.Run(
                         system.workload().Generate(AppProfile::Named("Email")));
                     record.Metric("file_faults",
                                   static_cast<double>(stats.file_faults));
                   });
  }
}

TEST(HarnessTest, ConfigFilterSkipsNonMatchingJobsAndClearsRanAll) {
  Harness unfiltered("driver_test", TestOptions(2));
  AddNamedConfigJobs(unfiltered);
  ASSERT_TRUE(unfiltered.Run());
  EXPECT_TRUE(unfiltered.ran_all());
  for (const NamedSystemConfig& entry : NamedConfigs()) {
    BenchOptions options = TestOptions(2);
    options.only_config = std::string(entry.key);
    Harness harness("driver_test", options);
    AddNamedConfigJobs(harness);
    ASSERT_TRUE(harness.Run());
    ASSERT_EQ(harness.records().size(), unfiltered.records().size());
    bool any_skipped = false;
    for (size_t i = 0; i < harness.records().size(); ++i) {
      const JobRecord& record = harness.records()[i];
      const JobRecord& reference = unfiltered.records()[i];
      ASSERT_EQ(record.config, reference.config);
      if (ConfigByName(record.config).Name() == entry.config.Name()) {
        // An executed job is bit-identical to its unfiltered run.
        EXPECT_EQ(record, reference) << entry.key;
        EXPECT_FALSE(record.metrics.empty()) << entry.key;
      } else {
        // A filtered-out job carries the skip label and nothing else.
        any_skipped = true;
        EXPECT_TRUE(record.metrics.empty()) << entry.key;
        ASSERT_EQ(record.labels.size(), 1u) << entry.key;
        EXPECT_EQ(record.labels[0].first, "skipped") << entry.key;
      }
    }
    EXPECT_EQ(harness.ran_all(), !any_skipped) << entry.key;
  }
}

TEST(HarnessTest, ExplicitSeedDerivesPerJobSeeds) {
  BenchOptions options = TestOptions(1);
  options.seed = 7;
  options.seed_set = true;
  const Harness harness("driver_test", options);
  const SystemConfig a = harness.Resolve(ConfigByName("stock"), "job_a");
  const SystemConfig b = harness.Resolve(ConfigByName("stock"), "job_b");
  EXPECT_EQ(a.seed, DeriveJobSeed(7, "driver_test", "job_a"));
  EXPECT_NE(a.seed, b.seed);
  // Without --seed the config keeps its own calibrated default.
  const Harness plain("driver_test", TestOptions(1));
  EXPECT_EQ(plain.Resolve(ConfigByName("stock"), "job_a").seed,
            ConfigByName("stock").seed);
}

TEST(HarnessTest, PhysAndSwapOverridesReachResolvedConfigs) {
  BenchOptions options = TestOptions(1);
  options.phys_mb = 96;
  options.swap_mb = 64;
  const Harness harness("driver_test", options);
  const SystemConfig resolved =
      harness.Resolve(ConfigByName("stock"), "job");
  EXPECT_EQ(resolved.phys_bytes, 96ull * 1024 * 1024);
  EXPECT_EQ(resolved.swap_bytes, 64ull * 1024 * 1024);
}

// ---------------------------------------------------------------------------
// Crash containment: job failures become status labels, not bench deaths.
// ---------------------------------------------------------------------------

std::string LabelOr(const JobRecord& record, std::string_view name) {
  for (const auto& [key, value] : record.labels) {
    if (key == name) {
      return value;
    }
  }
  return "";
}

TEST(HarnessTest, ThrowingJobIsContainedAndRetriedWithStatusLabels) {
  Harness harness("driver_test", TestOptions(2));
  harness.AddCustomJob("hopeless", [](JobRecord&) -> void {
    throw std::runtime_error("always down");
  });
  harness.AddCustomJob("healthy",
                       [](JobRecord& record) { record.Metric("final", 3); });
  ASSERT_TRUE(harness.Run());

  const JobRecord& hopeless = harness.records()[0];
  EXPECT_EQ(LabelOr(hopeless, "status"), "error");
  EXPECT_EQ(LabelOr(hopeless, "status_reason"), "always down");

  const JobRecord& healthy = harness.records()[1];
  EXPECT_EQ(LabelOr(healthy, "status"), "ok");
  EXPECT_EQ(LabelOr(healthy, "status_reason"), "");
  EXPECT_EQ(MetricOr(healthy, "final"), 3.0);
}

// ---------------------------------------------------------------------------
// Results sink.
// ---------------------------------------------------------------------------

TEST(ResultsTest, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape(std::string("a\nb\tc\x01")), "a\\nb\\tc\\u0001");
}

ExperimentResult SampleResult() {
  ExperimentResult result;
  result.bench = "unit";
  result.seed = 42;
  result.smoke = true;
  JobRecord record;
  record.config = "stock/\"quoted\"";
  record.Metric("counters.faults", 123);
  record.Metric("ratio", 0.375);
  record.Metric("bad", std::numeric_limits<double>::quiet_NaN());
  record.Label("system", "Stock Android");
  result.records.push_back(record);
  result.records.push_back(JobRecord{});  // empty record renders too
  return result;
}

TEST(ResultsTest, ToJsonOutputValidatesAndKeepsIntegersExact) {
  // The whole document, byte for byte: stable field order, escaped
  // strings, integral metrics without an exponent, NaN as null.
  EXPECT_EQ(ToJson(SampleResult()), R"({
  "bench": "unit",
  "seed": 42,
  "smoke": true,
  "configs": [
    {
      "config": "stock/\"quoted\"",
      "labels": {
        "system": "Stock Android"
      },
      "metrics": {
        "counters.faults": 123,
        "ratio": 0.375,
        "bad": null
      }
    },
    {
      "config": ""
    }
  ]
}
)");
}

TEST(ResultsTest, WriteJsonFileRoundTripsAndFailsLoudlyOnBadPath) {
  const std::string path = testing::TempDir() + "/sat_driver_test.json";
  std::string error;
  ASSERT_TRUE(WriteJsonFile(SampleResult(), path, &error)) << error;
  EXPECT_EQ(ReadFile(path), ToJson(SampleResult()));
  std::remove(path.c_str());

  error.clear();
  EXPECT_FALSE(WriteJsonFile(SampleResult(),
                             "/nonexistent-dir/x/y/out.json", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace sat
