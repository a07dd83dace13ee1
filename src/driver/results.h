// The driver's structured results sink: every experiment produces one
// machine-readable BENCH_<bench>.json holding, per configuration, the
// simulated counters and cycle totals — the data the benchmark
// trajectory and regression tooling consume. A file depends only on the
// binary and its flags, so two runs match byte for byte.
//
// The writer is self-contained (no JSON library): records hold ordered
// name/value lists and ToJson() renders them.

#ifndef SRC_DRIVER_RESULTS_H_
#define SRC_DRIVER_RESULTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sat {

// One job's results: the configuration it ran and two ordered key/value
// lists — numeric metrics (simulated counters, cycle totals, derived
// figures) and string labels (display name, workload, notes). Order is
// preserved into the JSON output so files diff cleanly between runs.
struct JobRecord {
  std::string config;  // registry key or unique job name
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> labels;

  void Metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void Label(std::string name, std::string value) {
    labels.emplace_back(std::move(name), std::move(value));
  }

  bool operator==(const JobRecord&) const = default;
};

// A whole experiment: the bench name, the flags that shape its results,
// and the per-job records in submission order (identical for serial and
// parallel runs).
struct ExperimentResult {
  std::string bench;   // e.g. "launch" -> BENCH_launch.json
  uint64_t seed = 0;   // base seed (0 = per-config defaults)
  bool smoke = false;  // reduced CI footprints
  std::vector<JobRecord> records;
};

// "a\"b" -> "a\\\"b" (quotes, backslashes, control characters).
std::string JsonEscape(std::string_view text);

// Renders the result as pretty-printed JSON (stable field order).
std::string ToJson(const ExperimentResult& result);

// Writes ToJson(result) to `path`. False (with `error` set) on I/O
// failure.
bool WriteJsonFile(const ExperimentResult& result, const std::string& path,
                   std::string* error);

}  // namespace sat

#endif  // SRC_DRIVER_RESULTS_H_
