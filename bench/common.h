// Shared helpers for the evaluation harness. Every bench binary reproduces
// one table or figure of the paper: it runs the experiment on the
// simulated machine, prints the same rows/series the paper reports, and
// emits "[shape]" lines comparing against the paper's published values.
//
// Absolute cycle counts are not expected to match a 2012 Nexus 7; the
// shape — who wins, by roughly what factor, where crossovers fall — is the
// reproduction target (see EXPERIMENTS.md).

#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "src/core/sat.h"
#include "src/driver/results.h"
#include "src/driver/worker_pool.h"
#include "src/scenario/runner.h"
#include "src/stats/summary.h"

namespace sat {

inline void PrintHeader(const std::string& id, const std::string& title) {
  std::cout << "==============================================================\n"
            << id << ": " << title << "\n"
            << "==============================================================\n";
}

// Applies a --phys-mb override to a config (no-op when mb == 0).
inline SystemConfig WithPhysMb(SystemConfig config, uint64_t phys_mb) {
  if (phys_mb > 0) {
    config.phys_bytes = phys_mb * 1024 * 1024;
  }
  return config;
}

// Applies a --swap-mb override to a config (no-op when mb == 0).
inline SystemConfig WithSwapMb(SystemConfig config, uint64_t swap_mb) {
  if (swap_mb > 0) {
    config.swap_bytes = swap_mb * 1024 * 1024;
  }
  return config;
}

// Exports `system`'s recorded trace as Chrome trace_event JSON (loadable
// in about:tracing / Perfetto) and prints the latency-histogram summary.
inline bool DumpTrace(System& system, const std::string& path) {
  if (!system.tracer().WriteChromeTraceFile(path)) {
    std::cerr << "error: could not write trace to " << path << "\n";
    return false;
  }
  std::cout << "\nwrote Chrome trace (" << system.tracer().total_recorded()
            << " events) to " << path << "\n"
            << system.tracer().SummaryText();
  return true;
}

// Looks up a numeric metric captured in a JobRecord; `fallback` when the
// record does not have it (e.g. the job was skipped by --config).
inline double MetricOr(const JobRecord& record, std::string_view name,
                       double fallback = 0.0) {
  for (const auto& metric : record.metrics) {
    if (metric.first == name) {
      return metric.second;
    }
  }
  return fallback;
}

// Prints the memory-pressure outcome of a finished job, read back from its
// captured counters: how often the allocate → reclaim → swap-out →
// OOM-kill chain ran. All zeros on the default 512 MB machine; nonzero
// under --phys-mb pressure runs. With --swap-mb the swap traffic and the
// achieved compression ratio are reported too.
inline void PrintPressureSummary(const JobRecord& record) {
  std::cout << "memory pressure [" << record.config
            << "]: " << MetricOr(record, "counters.direct_reclaims")
            << " direct reclaim(s), " << MetricOr(record, "counters.oom_kills")
            << " OOM kill(s), " << MetricOr(record, "counters.forks_failed")
            << " failed fork(s)\n";
  if (MetricOr(record, "swap.pages_stored", -1.0) >= 0.0) {
    std::cout << "  swap: " << MetricOr(record, "counters.swap_outs")
              << " out, " << MetricOr(record, "counters.swap_ins") << " in ("
              << MetricOr(record, "counters.swap_ins_cache_hit")
              << " cache hit(s)), "
              << MetricOr(record, "counters.swap_clean_drops")
              << " clean drop(s), " << MetricOr(record, "counters.kswapd_runs")
              << " kswapd run(s)";
    const double ratio = MetricOr(record, "swap.compression_ratio");
    if (ratio > 0) {
      std::cout << ", compression ratio " << FormatDouble(ratio, 2) << ":1";
    }
    std::cout << "\n";
  }
}

// ---------------------------------------------------------------------------
// The experiment harness: every bench binary parses BenchOptions, hands its
// independent measurement units to a Harness as jobs, and prints its tables
// and shape checks from the collected records after Run(). The driver
// (src/driver/) runs the jobs on --jobs workers; records come back in
// submission order, so parallel output is bit-identical to a serial run.
// ---------------------------------------------------------------------------

// Common command-line options, shared by every bench binary.
//
//   --jobs=N / --jobs N          worker threads (default: all host cores)
//   --json-out=PATH              write BENCH_<bench>.json; PATH ending in
//                                ".json" is the file, otherwise a directory
//   --config=KEY                 run only jobs whose configuration matches
//                                the named registry entry (see
//                                NamedConfigKeyList())
//   --smoke                      reduced footprints for CI smoke runs
//   --seed=S                     base seed; each job derives its own via
//                                DeriveJobSeed (default: per-config seeds)
//   --phys-mb=N / --swap-mb=N    simulated DRAM / zram size overrides
//   --trace-out=PATH             export a Chrome trace of a representative
//                                slice (bench-specific; tracing-off results
//                                are never affected)
//   --scenario=FILE.scn          precondition every System-backed job by
//                                running the scenario's element graph on
//                                its System first (fleet state — page
//                                cache, zram, KSM merges — before the
//                                bench's own measurement)
struct BenchOptions {
  uint32_t jobs = 0;  // 0 until parsed; ParseHarnessArgs defaults it
  std::string json_out;
  std::string only_config;
  bool smoke = false;
  uint64_t seed = 0;
  bool seed_set = false;
  uint64_t phys_mb = 0;
  uint64_t swap_mb = 0;
  std::string trace_out;
  std::string scenario;  // .scn path; empty = no preconditioning
  ScenarioGraph scenario_graph;
  bool scenario_set = false;
};

// --smoke shrink factor applied to scenario populations, rates, and ticks.
inline constexpr double kScenarioSmokeScale = 0.05;

// Every *.scn file in `dir`, sorted by name; empty when `dir` cannot be
// read. Over the repository's scenarios/ directory this is the
// checked-in suite that bench_scenario runs and the scenario tests parse.
inline std::vector<std::string> ScenarioFiles(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (entry.path().extension() == ".scn") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// Parses and REMOVES the harness flags from argv (so flags meant for other
// consumers pass through untouched). The single argument parser every bench binary shares: one
// flag vocabulary, one validation pass, one error style. Exits with a
// usage message on a malformed or unknown --config, and with the parser's
// file:line:column diagnostic on a bad --scenario file.
inline BenchOptions ParseHarnessArgs(int* argc, char** argv) {
  BenchOptions options;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    // Accepts both --flag=value and --flag value.
    const auto value = [&](const char* flag, std::string* v) {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *v = arg.substr(prefix.size());
        return true;
      }
      if (arg == flag && i + 1 < *argc) {
        *v = argv[++i];
        return true;
      }
      return false;
    };
    std::string v;
    if (value("--jobs", &v)) {
      options.jobs = static_cast<uint32_t>(std::stoul(v));
    } else if (value("--json-out", &v)) {
      options.json_out = v;
    } else if (value("--config", &v)) {
      options.only_config = v;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (value("--seed", &v)) {
      options.seed = std::stoull(v);
      options.seed_set = true;
    } else if (value("--phys-mb", &v)) {
      options.phys_mb = std::stoull(v);
    } else if (value("--swap-mb", &v)) {
      options.swap_mb = std::stoull(v);
    } else if (value("--trace-out", &v)) {
      options.trace_out = v;
    } else if (value("--scenario", &v)) {
      options.scenario = v;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[*argc] = nullptr;
  if (options.jobs == 0) {
    options.jobs = HardwareJobs();
  }
  if (!options.only_config.empty() &&
      !TryConfigByName(options.only_config).has_value()) {
    std::cerr << "error: unknown --config '" << options.only_config
              << "'; known configs: " << NamedConfigKeyList() << "\n";
    std::exit(2);
  }
  if (!options.scenario.empty()) {
    ScenarioParseResult parsed =
        ParseScenarioFile(options.scenario, &ElementRegistry::Default());
    if (!parsed.ok()) {
      std::cerr << parsed.FormatError(options.scenario) << "\n";
      std::exit(2);
    }
    options.scenario_graph = std::move(parsed.graph);
    options.scenario_set = true;
  }
  return options;
}

// Records a scenario run's workload-side stats into a job record,
// alongside the kernel counters CaptureSystem collects.
inline void RecordScenarioStats(const ScenarioStats& stats,
                                JobRecord* record) {
  record->Metric("scenario.processes_spawned",
                 static_cast<double>(stats.processes_spawned));
  record->Metric("scenario.processes_exited",
                 static_cast<double>(stats.processes_exited));
  record->Metric("scenario.processes_lost",
                 static_cast<double>(stats.processes_lost));
  record->Metric("scenario.pages_touched",
                 static_cast<double>(stats.pages_touched));
  record->Metric("scenario.launches", static_cast<double>(stats.launches));
  record->Metric("scenario.launches_incomplete",
                 static_cast<double>(stats.launches_incomplete));
  record->Metric("scenario.ipc_transactions",
                 static_cast<double>(stats.ipc_transactions));
  record->Metric("scenario.ticks_run", static_cast<double>(stats.ticks_run));
}

// Runs a bench's jobs through the driver and collects one JobRecord per
// job, in submission order. System-backed jobs get their System built on
// the worker thread (with --seed/--phys-mb/--swap-mb applied) and their
// kernel/core counters captured automatically; custom jobs fill their
// record themselves. Job bodies must not print — all output happens after
// Run(), from the records, so stdout is identical at any --jobs value.
class Harness {
 public:
  Harness(std::string bench, BenchOptions options)
      : bench_(std::move(bench)), options_(std::move(options)) {
    if (!options_.only_config.empty()) {
      only_name_ = ConfigByName(options_.only_config).Name();
    }
  }

  const BenchOptions& options() const { return options_; }
  bool smoke() const { return options_.smoke; }

  // A job that measures one System. The harness owns the System's
  // lifecycle; `body` runs the workload and may add bench-specific
  // metrics/labels to the record. With --scenario the parsed element
  // graph runs on the System first (fleet preconditioning), then `body`
  // measures the warmed machine.
  void AddJob(const std::string& job_name, const SystemConfig& config,
              std::function<void(System&, JobRecord&)> body) {
    const bool skip = !only_name_.empty() && config.Name() != only_name_;
    PendingJob job;
    job.name = job_name;
    job.skip = skip;
    if (skip) {
      skipped_++;
    } else {
      const SystemConfig resolved = Resolve(config, job_name);
      if (options_.scenario_set) {
        const ScenarioGraph graph = options_.scenario_graph;
        ScenarioRunConfig run;
        run.rng_seed = DeriveJobSeed(resolved.seed, graph.name, job_name);
        run.scale = options_.smoke ? kScenarioSmokeScale : 1.0;
        job.run = [resolved, graph, run,
                   body = std::move(body)](JobRecord* record) {
          System system(resolved);
          ApplyScenarioChaos(graph, &system);
          const ScenarioRunOutcome pre = RunScenarioOnSystem(
              &system, graph, ElementRegistry::Default(), run);
          record->Label("scenario", graph.name);
          RecordScenarioStats(pre.stats, record);
          if (!pre.ok()) {
            throw std::runtime_error(
                "scenario preconditioning failed: " +
                (pre.status.ok() ? pre.audit_report : pre.status.message));
          }
          body(system, *record);
          CaptureSystem(system, record);
        };
      } else {
        job.run = [resolved, body = std::move(body)](JobRecord* record) {
          System system(resolved);
          body(system, *record);
          CaptureSystem(system, record);
        };
      }
    }
    jobs_.push_back(std::move(job));
  }

  // A job that manages its own systems (multi-system comparisons,
  // raw-Kernel setups, factory-only work). Never filtered by --config.
  void AddCustomJob(const std::string& job_name,
                    std::function<void(JobRecord&)> body) {
    PendingJob job;
    job.name = job_name;
    job.run = [body = std::move(body)](JobRecord* record) { body(*record); };
    jobs_.push_back(std::move(job));
  }

  // Applies the harness overrides to a config, exactly as AddJob would —
  // for custom jobs that build their own Systems. The derived seed folds
  // the bench name in as a length-delimited scope, so two benches whose
  // job lists share config-key names still get decorrelated streams (and
  // "ab"+"c" vs "a"+"bc" concatenation collisions cannot happen).
  SystemConfig Resolve(const SystemConfig& config,
                       const std::string& job_name) const {
    SystemConfig resolved =
        WithSwapMb(WithPhysMb(config, options_.phys_mb), options_.swap_mb);
    if (options_.seed_set) {
      resolved.seed = DeriveJobSeed(options_.seed, bench_, job_name);
    }
    return resolved;
  }

  // Captures the standard per-System metrics into a record: every kernel
  // counter, every core-0 counter, and the swap/pressure summary fields.
  static void CaptureSystem(System& system, JobRecord* record) {
    record->Label("system", system.name());
    const KernelCounters& kernel = system.kernel().counters();
#define SAT_BENCH_CAPTURE(field) \
  record->Metric("counters." #field, static_cast<double>(kernel.field));
    SAT_KERNEL_COUNTER_FIELDS(SAT_BENCH_CAPTURE)
#undef SAT_BENCH_CAPTURE
    const CoreCounters& core = system.core().counters();
#define SAT_BENCH_CAPTURE(field) \
  record->Metric("core." #field, static_cast<double>(core.field));
    SAT_CORE_COUNTER_FIELDS(SAT_BENCH_CAPTURE)
#undef SAT_BENCH_CAPTURE
    const ZramStore& zram = system.kernel().zram();
    if (zram.enabled()) {
      record->Metric("swap.pages_stored",
                     static_cast<double>(zram.pages_stored_total()));
      record->Metric("swap.bytes_compressed",
                     static_cast<double>(zram.bytes_compressed_total()));
      if (zram.bytes_compressed_total() > 0) {
        record->Metric("swap.compression_ratio",
                       static_cast<double>(zram.pages_stored_total()) *
                           kPageSize /
                           static_cast<double>(zram.bytes_compressed_total()));
      }
    }
  }

  // Runs every non-skipped job on options().jobs workers and, when
  // --json-out is set, writes BENCH_<bench>.json. Returns false only if
  // the JSON write failed.
  //
  // Crash containment: a job body that throws is caught on its worker and
  // recorded with status "error" and a "status_reason" instead of taking
  // the whole bench down. Every executed job carries a "status" label;
  // skipped jobs keep only their "skipped" label.
  bool Run() {
    records_.assign(jobs_.size(), JobRecord{});
    std::vector<std::function<void()>> work;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      JobRecord* record = &records_[i];
      record->config = jobs_[i].name;
      if (jobs_[i].skip) {
        record->Label("skipped", "config-filter");
        continue;
      }
      work.push_back([record, run = std::move(jobs_[i].run)] {
        std::string status = "ok";
        std::string reason;
        try {
          run(record);
        } catch (const std::exception& e) {
          status = "error";
          reason = e.what();
        } catch (...) {
          status = "error";
          reason = "unknown exception";
        }
        record->Label("status", status);
        if (!reason.empty()) {
          record->Label("status_reason", reason);
        }
      });
    }
    RunJobs(std::move(work), options_.jobs);
    if (options_.json_out.empty()) {
      return true;
    }
    ExperimentResult result;
    result.bench = bench_;
    result.seed = options_.seed_set ? options_.seed : 0;
    result.smoke = options_.smoke;
    result.records = records_;
    std::string error;
    if (!WriteJsonFile(result, JsonPath(), &error)) {
      std::cerr << "error: writing " << JsonPath() << ": " << error << "\n";
      return false;
    }
    std::cout << "\nwrote " << JsonPath() << "\n";
    return true;
  }

  const std::vector<JobRecord>& records() const { return records_; }
  const JobRecord& record(size_t i) const { return records_[i]; }

  // False when --config filtered out jobs: cross-config tables and shape
  // checks are not meaningful on a partial run.
  bool ran_all() const { return skipped_ == 0; }

 private:
  struct PendingJob {
    std::string name;
    bool skip = false;
    std::function<void(JobRecord*)> run;
  };

  std::string JsonPath() const {
    const std::string& out = options_.json_out;
    if (out.size() >= 5 && out.substr(out.size() - 5) == ".json") {
      return out;
    }
    return out + "/BENCH_" + bench_ + ".json";
  }

  std::string bench_;
  BenchOptions options_;
  std::string only_name_;
  std::vector<PendingJob> jobs_;
  std::vector<JobRecord> records_;
  size_t skipped_ = 0;
};

// The output of a run that --config filtered: cross-config tables and
// shape checks are not meaningful on a partial run, so this prints each
// executed job's figure metrics instead, given as {metric, digits}.
inline void PrintPartialRun(
    const Harness& harness,
    const std::vector<std::pair<std::string, int>>& metrics) {
  std::vector<std::string> headers = {"Job"};
  for (const auto& metric : metrics) {
    headers.push_back(metric.first);
  }
  TablePrinter table(std::move(headers));
  for (const JobRecord& record : harness.records()) {
    if (record.metrics.empty()) {
      continue;  // skipped by --config
    }
    std::vector<std::string> row = {record.config};
    for (const auto& [name, digits] : metrics) {
      row.push_back(FormatDouble(MetricOr(record, name), digits));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "\n--config filter active: cross-config tables and shape "
               "checks skipped\n";
}

}  // namespace sat

#endif  // BENCH_COMMON_H_
