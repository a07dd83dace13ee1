// perfbench_run: runs one phase of one pinned workload in this process and
// prints one JSON report line on stdout.
//
//   perfbench_run --workload <launch|fleet> --seed <n> --units <n>
//                 [--trace] [--spans-out <path>]
//
// `--units` is the amount of timed work: launches for `launch`; for
// `fleet`, passes over the three pinned scenario graphs, where one pass
// runs every shard of every graph once, each on a freshly booted System.
// The run is a closed loop on one host thread, one op at a time; an op is
// one LaunchOnce or one tick of one shard. `--trace` switches the kernel
// Tracer on through SystemConfig::trace and keeps host spans in memory;
// `--spans-out` writes them, with the Tracer's histograms, when the run
// ends. perfbench/run.py sizes the runs and turns reports into metrics.
//
// Exit status: 0 when every op succeeded, 1 when any op failed (the report
// is still printed), 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/workloads.h"

namespace perfbench {
namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  uint32_t units = 0;
  bool trace = false;
  std::string spans_out;
};

// What a phase reads from one System: every counter it reports, with the
// per-core ones summed over all cores.
struct Snapshot {
  sat::KernelCounters kernel;
  sat::CoreCounters core;
  uint64_t tlb_lookups = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_inserts = 0;
  uint64_t tlb_flushes = 0;
  uint64_t zram_pages = 0;
  uint64_t zram_bytes = 0;
  uint64_t trace_events = 0;
  std::array<uint64_t, sat::kTraceEventTypeCount> hist_count{};
  std::array<uint64_t, sat::kTraceEventTypeCount> hist_sum{};
};

Snapshot Take(sat::System& system) {
  sat::Kernel& kernel = system.kernel();
  Snapshot s;
  s.kernel = kernel.counters();
  for (uint32_t i = 0; i < kernel.num_cores(); ++i) {
    sat::Core& core = kernel.core(i);
    s.core += core.counters();
    const sat::TlbStats& tlb = core.main_tlb().stats();
    s.tlb_lookups += tlb.lookups;
    s.tlb_hits += tlb.hits;
    s.tlb_inserts += tlb.insertions;
    s.tlb_flushes += tlb.flushes;
  }
  s.zram_pages = kernel.zram().pages_stored_total();
  s.zram_bytes = kernel.zram().bytes_compressed_total();
  const sat::Tracer& tracer = kernel.tracer();
  s.trace_events = tracer.total_recorded();
  for (uint32_t t = 0; t < sat::kTraceEventTypeCount; ++t) {
    const sat::LatencyHistogram& h =
        tracer.histogram(static_cast<sat::TraceEventType>(t));
    s.hist_count[t] = h.count();
    s.hist_sum[t] = h.sum();
  }
  return s;
}

// total += after - before, field by field.
void AddDelta(Snapshot* total, const Snapshot& after, const Snapshot& before) {
  total->kernel += after.kernel - before.kernel;
  total->core += after.core - before.core;
  total->tlb_lookups += after.tlb_lookups - before.tlb_lookups;
  total->tlb_hits += after.tlb_hits - before.tlb_hits;
  total->tlb_inserts += after.tlb_inserts - before.tlb_inserts;
  total->tlb_flushes += after.tlb_flushes - before.tlb_flushes;
  total->zram_pages += after.zram_pages - before.zram_pages;
  total->zram_bytes += after.zram_bytes - before.zram_bytes;
  total->trace_events += after.trace_events - before.trace_events;
  for (uint32_t t = 0; t < sat::kTraceEventTypeCount; ++t) {
    total->hist_count[t] += after.hist_count[t] - before.hist_count[t];
    total->hist_sum[t] += after.hist_sum[t] - before.hist_sum[t];
  }
}

// Host spans, kept in memory and written out when the run ends. Times are
// milliseconds since process start; spans of one op share its id (ops
// count from 1; 0 marks set-up and teardown spans).
constexpr int64_t kTopLevel = -1;  // parent of spans that have none

class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  // Returns the span's index (the parent handle of its children), or -1
  // when disabled.
  int64_t Add(std::string name, uint64_t op, int64_t parent,
              Clock::time_point start, Clock::time_point end) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back(Span{std::move(name), op, parent, Millis(start - origin_),
                          Millis(end - origin_)});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void WriteJson(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    uint64_t op = 0;
    int64_t parent = -1;
    double start_ms = 0;
    double end_ms = 0;
  };
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void SpanLog::WriteJson(std::ostream& os) const {
  os << "\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
       << ", \"name\": " << JsonString(s.name) << ", \"op\": " << s.op
       << ", \"parent\": " << s.parent
       << ", \"start_ms\": " << JsonNumber(s.start_ms)
       << ", \"end_ms\": " << JsonNumber(s.end_ms) << "}";
  }
  os << "]";
}

// An ordered name -> value list (JSON object order = insertion order).
using Metrics = std::vector<std::pair<std::string, double>>;

// Everything one phase measured.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  double setup_s = 0;
  double timed_s = 0;
  std::vector<double> op_ms;
  Snapshot delta;  // summed over every System, timed phase only
  uint32_t systems = 0;
  double tasks_total = 0;  // summed over Systems, at the end of each
  sat::ScenarioStats scenario;  // summed over shard runs
  Metrics host;  // host-time span metrics
};

double PerOp(uint64_t v, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(ops);
}
double Frac(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// The deterministic counts: simulated metrics and per-layer counters.
Metrics SimulatedMetrics(const Phase& p) {
  const uint64_t ops = p.attempted;
  const sat::KernelCounters& k = p.delta.kernel;
  const sat::CoreCounters& c = p.delta.core;
  return {
      {"sim_mcycles_per_op", PerOp(c.cycles, ops) / 1e6},
      {"sim_faults_per_op",
       PerOp(k.faults_file_backed + k.faults_anonymous + k.faults_cow, ops)},
      {"sim_ptps_per_op", PerOp(k.ptps_allocated, ops)},
      {"hw.fetch_lines", PerOp(c.inst_fetch_lines, ops)},
      {"hw.data_accesses", PerOp(c.data_accesses, ops)},
      {"hw.context_switches", PerOp(c.context_switches, ops)},
      {"hw.shootdown_ipis", PerOp(k.tlb_shootdown_ipis, ops)},
      {"cache.l1i_misses", PerOp(c.l1i_misses, ops)},
      {"cache.l1d_misses", PerOp(c.l1d_misses, ops)},
      {"cache.l2_misses", PerOp(c.l2_misses, ops)},
      {"cache.stall_mcycles",
       PerOp(c.icache_stall_cycles + c.dcache_stall_cycles, ops) / 1e6},
      {"tlb.main_lookups", PerOp(p.delta.tlb_lookups, ops)},
      {"tlb.main_hit_frac", Frac(p.delta.tlb_hits, p.delta.tlb_lookups)},
      {"tlb.main_inserts", PerOp(p.delta.tlb_inserts, ops)},
      {"tlb.micro_misses", PerOp(c.micro_tlb_misses, ops)},
      {"tlb.flushes", PerOp(p.delta.tlb_flushes, ops)},
      {"tlb.stall_mcycles",
       PerOp(c.itlb_stall_cycles + c.dtlb_stall_cycles, ops) / 1e6},
      {"pt.ptps_allocated", PerOp(k.ptps_allocated, ops)},
      {"pt.ptps_shared", PerOp(k.ptps_shared, ops)},
      {"pt.ptps_unshared", PerOp(k.ptps_unshared, ops)},
      {"pt.ptes_copied", PerOp(k.ptes_copied, ops)},
      {"vm.faults_file", PerOp(k.faults_file_backed, ops)},
      {"vm.faults_anon", PerOp(k.faults_anonymous, ops)},
      {"vm.faults_cow", PerOp(k.faults_cow, ops)},
      {"vm.direct_reclaims", PerOp(k.direct_reclaims, ops)},
      {"vm.lru_rotations", PerOp(k.lru_rotations, ops)},
      {"mem.swap_outs", PerOp(k.swap_outs, ops)},
      {"mem.swap_ins", PerOp(k.swap_ins, ops)},
      {"mem.swap_in_hit_frac", Frac(k.swap_ins_cache_hit, k.swap_ins)},
      {"mem.zram_ratio",
       Frac(p.delta.zram_pages * sat::kPageSize, p.delta.zram_bytes)},
      {"proc.forks", PerOp(k.forks, ops)},
      {"proc.oom_kills", PerOp(k.oom_kills, ops)},
      {"proc.tasks_total",
       p.systems == 0 ? 0.0 : p.tasks_total / p.systems},
      {"ksm.pages_scanned", PerOp(k.ksm_pages_scanned, ops)},
      {"ksm.pages_merged", PerOp(k.ksm_pages_merged, ops)},
      {"ksm.merge_frac", Frac(k.ksm_pages_merged, k.ksm_pages_scanned)},
      {"huge.pages_scanned", PerOp(k.huge_pages_scanned, ops)},
      {"huge.collapses", PerOp(k.huge_collapses, ops)},
      {"huge.splits", PerOp(k.huge_splits, ops)},
      {"huge.scan_yield",
       Frac(16 * k.huge_collapses, k.huge_pages_scanned)},
      {"scenario.processes_spawned",
       PerOp(p.scenario.processes_spawned, p.systems)},
      {"scenario.pages_touched", PerOp(p.scenario.pages_touched, p.systems)},
      {"scenario.processes_lost",
       PerOp(p.scenario.processes_lost, p.systems)},
  };
}

// Simulated metrics only the Tracer can give: events per op and mean
// simulated kcycles per event, over the timed phase.
Metrics TracerMetrics(const Phase& p) {
  using T = sat::TraceEventType;
  const std::pair<const char*, T> kinds[] = {
      {"trace.fork_kcycles_mean", T::kFork},
      {"trace.unshare_slot_kcycles_mean", T::kUnshareSlot},
      {"trace.fault_file_kcycles_mean", T::kFaultFile},
      {"trace.fault_anon_kcycles_mean", T::kFaultAnon},
      {"trace.tlb_shootdown_kcycles_mean", T::kTlbShootdown},
      {"trace.swap_out_kcycles_mean", T::kSwapOut},
      {"trace.swap_in_kcycles_mean", T::kSwapIn},
      {"trace.ksm_scan_kcycles_mean", T::kKsmScan},
      {"trace.huge_collapse_kcycles_mean", T::kHugeCollapse},
  };
  Metrics m = {{"trace.events_per_op",
                PerOp(p.delta.trace_events, p.attempted)}};
  for (const auto& [name, type] : kinds) {
    const size_t t = static_cast<size_t>(type);
    m.push_back({name, Frac(p.delta.hist_sum[t], p.delta.hist_count[t]) /
                           1000.0});
  }
  return m;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void RunLaunch(const Options& opt, Clock::time_point start, SpanLog* spans,
               Phase* p) {
  sat::SystemConfig config = LaunchSystemConfig(opt.seed);
  config.trace.enabled = opt.trace;
  const Clock::time_point t0 = Clock::now();
  sat::System system(config);
  const Clock::time_point t1 = Clock::now();
  sat::LaunchSimulator simulator(&system.android(), LaunchParamsFor(opt.seed));
  const Clock::time_point t2 = Clock::now();
  for (uint32_t round = 0; round < kLaunchWarmups; ++round) {
    simulator.LaunchOnce(round);
  }
  const Clock::time_point t3 = Clock::now();
  spans->Add("core.boot", 0, kTopLevel, t0, t1);
  spans->Add("workload.launch_path", 0, kTopLevel, t1, t2);
  spans->Add("workload.warmup", 0, kTopLevel, t2, t3);
  p->systems = 1;

  const Snapshot before = Take(system);
  p->setup_s = Seconds(Clock::now() - start);
  for (uint32_t i = 0; i < opt.units; ++i) {
    const Clock::time_point a = Clock::now();
    const sat::LaunchResult result = simulator.LaunchOnce(kLaunchWarmups + i);
    const Clock::time_point b = Clock::now();
    spans->Add("android.launch", i + 1, kTopLevel, a, b);
    p->op_ms.push_back(Millis(b - a));
    p->timed_s += Seconds(b - a);
    p->attempted++;
    // Audited outside the op's interval: a dirty audit fails this launch.
    const sat::AuditReport audit = system.kernel().AuditInvariants();
    if (!audit.ok() || result.exec_cycles == 0) {
      p->failed++;
      p->errors.push_back("launch " + std::to_string(i) + ": " +
                          (audit.ok() ? "no cycles executed"
                                      : "audit failed:\n" + audit.ToString()));
    }
  }
  AddDelta(&p->delta, Take(system), before);
  p->tasks_total = static_cast<double>(system.kernel().tasks().size());

  const uint64_t accesses =
      p->delta.core.inst_fetch_lines + p->delta.core.data_accesses;
  p->host = {
      {"core.boot_ms", Millis(t1 - t0)},
      {"workload.launch_path_ms", Millis(t2 - t1)},
      {"android.launch_ms", Mean(p->op_ms)},
      {"hw.host_ns_per_access",
       accesses == 0 ? 0.0 : p->timed_s * 1e9 / static_cast<double>(accesses)},
  };
}

// One pinned graph of the fleet workload and the host time its shard runs
// spent in each element.
struct FleetGraph {
  const ScenarioWorkload* workload = nullptr;
  sat::ScenarioGraph graph;
  uint32_t shard_count = 0;
  std::vector<double> element_ms;  // self time, summed over its ticks
  uint64_t ticks = 0;
};

void RunFleet(const Options& opt, Clock::time_point start, SpanLog* spans,
              Phase* p) {
  MarkLog log;
  const sat::ElementRegistry registry = MakeRegistry(&log);
  const Clock::time_point parse_start = Clock::now();
  std::vector<FleetGraph> graphs;
  for (const ScenarioWorkload& workload : ScenarioWorkloads()) {
    FleetGraph g;
    g.workload = &workload;
    g.graph = ParseWorkload(workload, /*with_marks=*/true, registry);
    g.shard_count = sat::ScenarioShardCount(g.graph);
    g.element_ms.assign(workload.element_names.size(), 0.0);
    graphs.push_back(std::move(g));
  }
  const Clock::time_point parse_end = Clock::now();
  spans->Add("scenario.parse", 0, kTopLevel, parse_start, parse_end);
  size_t max_marks = 0;
  for (const FleetGraph& g : graphs) {
    max_marks = std::max(max_marks, g.graph.SettingU64("ticks", 100) *
                                        (g.workload->element_names.size() + 1));
  }
  log.Reserve(max_marks);

  // Shard runs in order: every shard of every graph, pass after pass.
  std::vector<std::pair<FleetGraph*, uint32_t>> order;
  for (uint32_t pass = 0; pass < opt.units; ++pass) {
    for (FleetGraph& g : graphs) {
      for (uint32_t k = 0; k < g.shard_count; ++k) {
        order.push_back({&g, pass * g.shard_count + k});
      }
    }
  }

  std::vector<double> boot_ms;
  double teardown_ms = 0;
  double min_coverage = 1.0;
  double later_boots_s = 0;
  uint64_t op = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    FleetGraph& g = *order[i].first;
    const uint32_t run = order[i].second;
    const ScenarioWorkload& workload = *g.workload;
    const size_t elements = workload.element_names.size();
    const size_t marks_per_tick = elements + 1;
    const std::string shard_job = ShardJobName(run, g.shard_count);
    const std::string job = workload.name + "/" + shard_job;  // for errors
    sat::SystemConfig config = ShardSystemConfig(g.graph, opt.seed, shard_job);
    config.trace.enabled = opt.trace;
    const Clock::time_point b0 = Clock::now();
    auto system = std::make_unique<sat::System>(config);
    const Clock::time_point b1 = Clock::now();
    spans->Add("core.boot", 0, kTopLevel, b0, b1);
    boot_ms.push_back(Millis(b1 - b0));
    if (i > 0) {
      later_boots_s += Seconds(b1 - b0);
    }
    p->systems++;

    const Snapshot before = Take(*system);
    const sat::ScenarioRunConfig run_config =
        ShardRunConfig(g.graph, config, run, shard_job);
    log.Clear();
    const Clock::time_point s0 = Clock::now();
    if (i == 0) {
      p->setup_s = Seconds(s0 - start);
    }
    const sat::ScenarioRunOutcome outcome =
        sat::RunScenarioOnSystem(system.get(), g.graph, registry, run_config);
    const Clock::time_point s1 = Clock::now();
    p->timed_s += Seconds(s1 - s0);

    const uint32_t ticks = outcome.stats.ticks_run;
    const std::vector<Clock::time_point>& stamps = log.stamps();
    const int64_t shard = spans->Add("scenario.shard", 0, kTopLevel, s0, s1);
    double covered_ms = 0;
    if (stamps.size() != ticks * marks_per_tick) {
      p->errors.push_back(job + ": " + std::to_string(stamps.size()) +
                          " marks for " + std::to_string(ticks) + " ticks");
    } else {
      for (uint32_t t = 0; t < ticks; ++t) {
        const Clock::time_point* m = &stamps[t * marks_per_tick];
        ++op;
        const int64_t tick =
            spans->Add("scenario.tick", op, shard, m[0], m[elements]);
        p->op_ms.push_back(Millis(m[elements] - m[0]));
        for (size_t e = 0; e < elements; ++e) {
          spans->Add("scenario." + workload.element_names[e], op, tick,
                     m[e], m[e + 1]);
          g.element_ms[e] += Millis(m[e + 1] - m[e]);
          covered_ms += Millis(m[e + 1] - m[e]);
        }
      }
      g.ticks += ticks;
      const Clock::time_point last = ticks == 0 ? s0 : stamps.back();
      spans->Add("scenario.teardown", 0, shard, last, s1);
      teardown_ms += Millis(s1 - last);
      covered_ms += Millis(s1 - last);
    }
    min_coverage = std::min(min_coverage, covered_ms / Millis(s1 - s0));

    AddDelta(&p->delta, Take(*system), before);
    p->tasks_total += static_cast<double>(system->kernel().tasks().size());
    const sat::ScenarioStats& s = outcome.stats;
    p->scenario.processes_spawned += s.processes_spawned;
    p->scenario.processes_lost += s.processes_lost;
    p->scenario.pages_touched += s.pages_touched;

    // A shard that did not run cleanly fails every tick it ran (at
    // least one op, so a shard that never started still counts).
    const uint64_t shard_ops =
        outcome.ok() ? ticks : std::max<uint64_t>(ticks, 1);
    p->attempted += shard_ops;
    if (!outcome.ok()) {
      p->failed += shard_ops;
      p->errors.push_back(
          job + ": " +
          (outcome.status.ok() ? "audit failed:\n" + outcome.audit_report
                               : outcome.status.message));
    }
    system.reset();  // outside the timed phase
  }
  p->setup_s += later_boots_s;

  p->host = {
      {"core.boot_ms", Mean(boot_ms)},
      {"scenario.parse_ms", Millis(parse_end - parse_start)},
  };
  // Element self times per tick of the element's graph; teardown per
  // shard run.
  for (const FleetGraph& g : graphs) {
    for (size_t e = 0; e < g.element_ms.size(); ++e) {
      p->host.push_back(
          {"scenario." + g.workload->element_names[e] + "_ms",
           g.ticks == 0 ? 0.0 : g.element_ms[e] / static_cast<double>(g.ticks)});
    }
  }
  p->host.push_back({"scenario.teardown_ms", teardown_ms / p->systems});
  p->host.push_back({"scenario.span_coverage_frac", min_coverage});
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void WriteMetrics(std::ostream& os, const char* key, const Metrics& metrics) {
  os << ", " << JsonString(key) << ": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << JsonString(metrics[i].first) << ": "
       << JsonNumber(metrics[i].second);
  }
  os << "}";
}

void WriteReport(std::ostream& os, const Options& opt, const Phase& p) {
  os << "{\"workload\": " << JsonString(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"units\": " << opt.units
     << ", \"trace\": " << (opt.trace ? "true" : "false")
     << ", \"attempted\": " << p.attempted << ", \"failed\": " << p.failed
     << ", \"errors\": [";
  for (size_t i = 0; i < p.errors.size(); ++i) {
    os << (i == 0 ? "" : ", ") << JsonString(p.errors[i]);
  }
  os << "], \"setup_s\": " << JsonNumber(p.setup_s)
     << ", \"timed_s\": " << JsonNumber(p.timed_s)
     << ", \"peak_rss_mb\": " << JsonNumber(PeakRssMb()) << ", \"op_ms\": [";
  for (size_t i = 0; i < p.op_ms.size(); ++i) {
    os << (i == 0 ? "" : ", ") << JsonNumber(p.op_ms[i]);
  }
  os << "]";
  WriteMetrics(os, "counts", SimulatedMetrics(p));
  WriteMetrics(os, "tracer", opt.trace ? TracerMetrics(p) : Metrics{});
  WriteMetrics(os, "host", p.host);
  os << "}\n";
}

// Spans plus, per Tracer event type, the timed phase's event count and
// mean simulated cycles.
bool WriteSpans(const std::string& path, const SpanLog& spans,
                const Phase& p) {
  std::ofstream os(path);
  os << "{";
  spans.WriteJson(os);
  os << ",\n\"tracer_histograms\": {";
  for (uint32_t t = 0; t < sat::kTraceEventTypeCount; ++t) {
    os << (t == 0 ? "\n" : ",\n") << "  "
       << JsonString(sat::TraceEventTypeName(static_cast<sat::TraceEventType>(t)))
       << ": {\"count\": " << p.delta.hist_count[t]
       << ", \"mean_cycles\": "
       << JsonNumber(Frac(p.delta.hist_sum[t], p.delta.hist_count[t])) << "}";
  }
  os << "}}\n";
  return static_cast<bool>(os);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      opt->trace = true;
    } else if (arg == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--units" && has_value) {
      opt->units = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--spans-out" && has_value) {
      opt->spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return opt->units > 0 &&
         (opt->workload == "launch" || opt->workload == "fleet");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point start = Clock::now();
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::cerr << "usage: perfbench_run --workload <launch|fleet> --seed <n> "
                 "--units <n> [--trace] [--spans-out <path>]\n";
    return 2;
  }
  SpanLog spans(opt.trace && !opt.spans_out.empty(), start);
  Phase phase;
  if (opt.workload == "launch") {
    RunLaunch(opt, start, &spans, &phase);
  } else {
    RunFleet(opt, start, &spans, &phase);
  }
  if (!opt.spans_out.empty() && !WriteSpans(opt.spans_out, spans, phase)) {
    phase.errors.push_back("cannot write " + opt.spans_out);
  }
  WriteReport(std::cout, opt, phase);
  std::cout << std::flush;
  return phase.errors.empty() ? 0 : 1;
}
