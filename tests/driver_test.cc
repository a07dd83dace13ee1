// Tests for the experiment driver: the worker pool's ordering and
// determinism contract (a parallel run's records are bit-identical to a
// serial run's), per-job seed derivation, and the structured results sink
// (JSON rendering, validation, file round-trip).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/driver/results.h"
#include "src/driver/worker_pool.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// Worker pool.
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

TEST(WorkerPoolTest, WaitBlocksUntilAllSubmittedTasksFinish) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 64);
  // The pool is reusable after a Wait.
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(done.load(), 65);
}

TEST(WorkerPoolTest, WatchdogFiresOncePerExpiredJobOnly) {
  std::mutex mu;
  std::vector<size_t> fired;
  JobWatchdog dog(0.05, [&](size_t token) {
    std::lock_guard<std::mutex> lock(mu);
    fired.push_back(token);
  });
  ASSERT_TRUE(dog.enabled());
  dog.JobStarted(1);
  dog.JobStarted(2);
  dog.JobFinished(2);  // beats the deadline: must never fire
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  dog.JobFinished(1);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(fired, std::vector<size_t>{1});  // once, despite many polls
}

TEST(WorkerPoolTest, WatchdogWithZeroTimeoutIsInert) {
  JobWatchdog dog(0, [](size_t) { FAIL() << "must not fire"; });
  EXPECT_FALSE(dog.enabled());
  dog.JobStarted(1);  // no-op; the destructor must not hang either
}

TEST(WorkerPoolTest, DeriveJobSeedIsDeterministicAndDistinct) {
  const uint64_t a = DeriveJobSeed(42, "table1/Email");
  EXPECT_EQ(a, DeriveJobSeed(42, "table1/Email"));
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, DeriveJobSeed(42, "table1/Chrome"));
  EXPECT_NE(a, DeriveJobSeed(43, "table1/Email"));
}

TEST(WorkerPoolTest, ScopedDeriveJobSeedHasNoConcatenationCollisions) {
  // The scoped overload length-delimits its components: two jobs that
  // differ only in where the scope/name boundary falls must not share a
  // seed (the 2-arg form, fed pre-concatenated strings, collides here).
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
// identical records (DESIGN.md section 5f).
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

  ASSERT_EQ(serial.records().size(), parallel.records().size());
  for (size_t i = 0; i < serial.records().size(); ++i) {
    const JobRecord& s = serial.records()[i];
    const JobRecord& p = parallel.records()[i];
    EXPECT_EQ(s.config, p.config);  // submission order is preserved
    EXPECT_EQ(s.labels, p.labels);
    // Every metric — all kernel counters, all core counters, the bench's
    // own figures — must match exactly, name by name, bit by bit.
    ASSERT_EQ(s.metrics.size(), p.metrics.size()) << s.config;
    for (size_t m = 0; m < s.metrics.size(); ++m) {
      EXPECT_EQ(s.metrics[m].first, p.metrics[m].first) << s.config;
      EXPECT_EQ(s.metrics[m].second, p.metrics[m].second)
          << s.config << " metric " << s.metrics[m].first;
    }
  }
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
        EXPECT_EQ(record.labels, reference.labels) << entry.key;
        EXPECT_EQ(record.metrics, reference.metrics) << entry.key;
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
  BenchOptions options = TestOptions(2);
  options.retries = 1;
  Harness harness("driver_test", options);
  std::atomic<int> attempts{0};
  harness.AddCustomJob("flaky", [&attempts](JobRecord& record) {
    record.Metric("partial", 1);  // must not survive into the retry
    if (attempts.fetch_add(1) == 0) {
      throw std::runtime_error("injected job crash");
    }
    record.Metric("final", 2);
  });
  harness.AddCustomJob("hopeless", [](JobRecord&) -> void {
    throw std::runtime_error("always down");
  });
  harness.AddCustomJob("healthy",
                       [](JobRecord& record) { record.Metric("final", 3); });
  ASSERT_TRUE(harness.Run());

  const JobRecord& flaky = harness.records()[0];
  EXPECT_EQ(LabelOr(flaky, "status"), "ok");
  EXPECT_EQ(MetricOr(flaky, "driver.jobs_retried"), 1.0);
  EXPECT_EQ(MetricOr(flaky, "final"), 2.0);
  EXPECT_EQ(attempts.load(), 2);

  const JobRecord& hopeless = harness.records()[1];
  EXPECT_EQ(LabelOr(hopeless, "status"), "error");
  EXPECT_EQ(LabelOr(hopeless, "status_reason"), "always down");

  const JobRecord& healthy = harness.records()[2];
  EXPECT_EQ(LabelOr(healthy, "status"), "ok");
  EXPECT_EQ(LabelOr(healthy, "status_reason"), "");
  EXPECT_EQ(MetricOr(healthy, "driver.jobs_retried"), 0.0);
}

TEST(HarnessTest, JobExceedingItsDeadlineGetsTimeoutStatus) {
  BenchOptions options = TestOptions(1);
  options.job_timeout_s = 0.02;
  Harness harness("driver_test", options);
  harness.AddCustomJob("slow", [](JobRecord&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  });
  ASSERT_TRUE(harness.Run());
  const JobRecord& slow = harness.records()[0];
  EXPECT_EQ(LabelOr(slow, "status"), "timeout");
  EXPECT_NE(LabelOr(slow, "status_reason").find("--job-timeout"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Results sink.
// ---------------------------------------------------------------------------

TEST(ResultsTest, JsonEscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  const std::string escaped = JsonEscape(std::string("a\nb\tc\x01"));
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\x01'), std::string::npos);
  std::string error;
  EXPECT_TRUE(ValidateJsonSyntax("\"" + escaped + "\"", &error)) << error;
}

TEST(ResultsTest, ValidateJsonSyntaxAcceptsWellFormedDocuments) {
  std::string error;
  for (const char* json :
       {"{}", "[]", "null", "true", "-1.5e3",
        R"({"a": [1, 2.5, "x", {"b": null}], "c": false})",
        R"(["A", "\\", "\n"])"}) {
    EXPECT_TRUE(ValidateJsonSyntax(json, &error)) << json << ": " << error;
    error.clear();
  }
}

TEST(ResultsTest, ValidateJsonSyntaxRejectsMalformedDocuments) {
  for (const char* json :
       {"", "{", "}", "[1,]", R"({"a": })", R"({a: 1})", "[1] trailing",
        R"({"a" 1})", "nul", "[01]x", "\"unterminated"}) {
    std::string error;
    EXPECT_FALSE(ValidateJsonSyntax(json, &error)) << json;
    EXPECT_FALSE(error.empty()) << json;
  }
}

TEST(ResultsTest, ValidateJsonSyntaxCapsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += ']';
  std::string error;
  EXPECT_FALSE(ValidateJsonSyntax(deep, &error));
}

ExperimentResult SampleResult() {
  ExperimentResult result;
  result.bench = "unit";
  result.jobs = 4;
  result.seed = 42;
  result.smoke = true;
  result.host_ms = 12.5;
  JobRecord record;
  record.config = "stock/\"quoted\"";
  record.host_ms = 3.25;
  record.Metric("counters.faults", 123);
  record.Metric("ratio", 0.375);
  record.Metric("bad", std::numeric_limits<double>::quiet_NaN());
  record.Label("system", "Stock Android");
  result.records.push_back(record);
  result.records.push_back(JobRecord{});  // empty record renders too
  return result;
}

TEST(ResultsTest, ToJsonOutputValidatesAndKeepsIntegersExact) {
  const std::string json = ToJson(SampleResult());
  std::string error;
  EXPECT_TRUE(ValidateJsonSyntax(json, &error)) << error;
  // Integral metrics render without an exponent; NaN becomes null.
  EXPECT_NE(json.find("\"counters.faults\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\": 0.375"), std::string::npos);
  EXPECT_NE(json.find("\"bad\": null"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
}

TEST(ResultsTest, WriteJsonFileRoundTripsAndFailsLoudlyOnBadPath) {
  const std::string path = testing::TempDir() + "/sat_driver_test.json";
  std::string error;
  ASSERT_TRUE(WriteJsonFile(SampleResult(), path, &error)) << error;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), ToJson(SampleResult()));
  std::remove(path.c_str());

  error.clear();
  EXPECT_FALSE(WriteJsonFile(SampleResult(),
                             "/nonexistent-dir/x/y/out.json", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace sat
