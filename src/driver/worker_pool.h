// The experiment driver's worker threads: independent simulation jobs
// run concurrently on a few host threads.
//
// Each job is fully self-contained (one simulated System per job, no
// shared mutable state), so parallelism is free of simulation-level
// races by construction: a job writes only its own result slot, and the
// caller reads the slots back in submission order. The output of a
// parallel run is therefore bit-identical to a serial run of the same
// job list — the determinism contract of DESIGN.md section 5f.

#ifndef SRC_DRIVER_WORKER_POOL_H_
#define SRC_DRIVER_WORKER_POOL_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace sat {

// The default worker count: the host's hardware concurrency (at least 1).
uint32_t HardwareJobs();

// Deterministic per-job seed: folds a scope (the bench or scenario name)
// and the job name into `base_seed` with FNV-1a, as two *length-delimited*
// components, so ("ab", "c") and ("a", "bc") derive different seeds. The
// seed depends on what the job is, never on submission order, worker
// count or scheduling. The bench harness passes its bench name as the
// scope, so two benches sharing a config-key job list still get
// decorrelated streams.
uint64_t DeriveJobSeed(uint64_t base_seed, std::string_view scope,
                       std::string_view job_name);

// Runs every element of `work` and returns when all are done: up to
// `jobs` threads take indices from one shared counter. Jobs must be
// independent: each writes only its own output slot. With `jobs` <= 1
// the work runs inline on the calling thread, in order — the serial
// baseline the parallel runs must match.
void RunJobs(std::vector<std::function<void()>> work, uint32_t jobs);

}  // namespace sat

#endif  // SRC_DRIVER_WORKER_POOL_H_
