#include "src/driver/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace sat {

uint32_t HardwareJobs() {
  const uint32_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

uint64_t DeriveJobSeed(uint64_t base_seed, std::string_view scope,
                       std::string_view job_name) {
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](uint64_t byte) {
    hash ^= byte;
    hash *= 1099511628211ull;
  };
  const auto mix_u64 = [&mix](uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      mix((value >> shift) & 0xff);
    }
  };
  // Each string component is preceded by its length, so component
  // boundaries are unambiguous: ("ab","c") and ("a","bc") hash the byte
  // streams 2,a,b,1,c and 1,a,2,b,c — different, as required.
  mix_u64(base_seed);
  mix_u64(scope.size());
  for (const char c : scope) {
    mix(static_cast<unsigned char>(c));
  }
  mix_u64(job_name.size());
  for (const char c : job_name) {
    mix(static_cast<unsigned char>(c));
  }
  // Seed 0 is legal but some generators treat it specially; avoid it.
  return hash == 0 ? 1 : hash;
}

void RunJobs(std::vector<std::function<void()>> work, uint32_t jobs) {
  const size_t threads = std::min<size_t>(jobs, work.size());
  if (threads <= 1) {
    for (std::function<void()>& task : work) {
      task();
    }
    return;
  }
  std::atomic<size_t> next{0};
  const auto drain = [&work, &next] {
    for (size_t i = next++; i < work.size(); i = next++) {
      work[i]();
    }
  };
  // Declared after `next`, so every worker is joined before the counter
  // (and `work`) go away, on every exit path.
  std::vector<std::jthread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(drain);
  }
}

}  // namespace sat
