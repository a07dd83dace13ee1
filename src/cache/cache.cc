#include "src/cache/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace sat {

Cache::Cache(std::string name, uint32_t size_bytes, uint32_t line_size,
             uint32_t ways)
    : name_(std::move(name)),
      line_size_(line_size),
      line_shift_(static_cast<uint32_t>(std::countr_zero(line_size))),
      ways_(ways) {
  assert(line_size > 0 && (line_size & (line_size - 1)) == 0);
  assert(ways > 0 && ways <= 32 && "hit masks are 32 bits wide");
  assert(size_bytes % (line_size * ways) == 0);
  num_sets_ = size_bytes / (line_size * ways);
  assert((num_sets_ & (num_sets_ - 1)) == 0 && "set count must be a power of two");
  set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets_));
  keys_.resize(static_cast<size_t>(num_sets_) * ways_);
  stamps_.resize(keys_.size());
}

uint32_t Cache::KeyOf(uint64_t line_addr) const {
  const uint64_t tag = line_addr >> set_shift_;
  assert(tag < UINT32_MAX && "tag must fit a 32-bit key");
  return static_cast<uint32_t>(tag + 1);
}

template <uint32_t kWays>
uint32_t Cache::HitMask(size_t base, uint32_t key) const {
  const uint32_t ways = kWays != 0 ? kWays : ways_;
  const uint32_t* keys = &keys_[base];
  uint32_t mask = 0;
#pragma GCC unroll 16
  for (uint32_t w = 0; w < ways; ++w) {
    mask |= static_cast<uint32_t>(keys[w] == key) << w;
  }
  return mask;
}

template <uint32_t kWays>
uint32_t Cache::VictimWay(size_t base) const {
  const uint64_t* stamps = &stamps_[base];
  if constexpr (kWays != 0) {
    // Tournament argmin; a tie keeps the left (lower) way, so the result is
    // the first way holding the oldest stamp.
    uint32_t way[kWays];
    uint64_t stamp[kWays];
#pragma GCC unroll 16
    for (uint32_t w = 0; w < kWays; ++w) {
      way[w] = w;
      stamp[w] = stamps[w];
    }
#pragma GCC unroll 4
    for (uint32_t n = kWays; n > 1; n /= 2) {
#pragma GCC unroll 8
      for (uint32_t i = 0; i < n / 2; ++i) {
        const bool right = stamp[2 * i + 1] < stamp[2 * i];
        way[i] = right ? way[2 * i + 1] : way[2 * i];
        stamp[i] = right ? stamp[2 * i + 1] : stamp[2 * i];
      }
    }
    return way[0];
  } else {
    uint32_t oldest = 0;
    for (uint32_t w = 1; w < ways_; ++w) {
      oldest = stamps[w] < stamps[oldest] ? w : oldest;
    }
    return oldest;
  }
}

template <uint32_t kWays>
bool Cache::AccessSet(size_t base, uint32_t key) {
  const uint32_t hit = HitMask<kWays>(base, key);
  if (hit != 0) {
    stamps_[base + static_cast<uint32_t>(std::countr_zero(hit))] = clock_;
    return true;
  }
  stats_.misses++;
  const size_t victim = base + VictimWay<kWays>(base);
  keys_[victim] = key;
  stamps_[victim] = clock_;
  return false;
}

bool Cache::Access(PhysAddr pa) {
  stats_.accesses++;
  clock_++;
  const uint64_t line_addr = LineAddr(pa);
  const size_t base = SetBase(line_addr);
  const uint32_t key = KeyOf(line_addr);
  // The model's L1s are 4-way and its L2 16-way.
  switch (ways_) {
    case 4:
      return AccessSet<4>(base, key);
    case 16:
      return AccessSet<16>(base, key);
    default:
      return AccessSet<0>(base, key);
  }
}

bool Cache::Probe(PhysAddr pa) const {
  const uint64_t line_addr = LineAddr(pa);
  return HitMask<0>(SetBase(line_addr), KeyOf(line_addr)) != 0;
}

void Cache::InvalidateAll() {
  std::fill(keys_.begin(), keys_.end(), 0u);
  std::fill(stamps_.begin(), stamps_.end(), uint64_t{0});
}

CacheHierarchy::CacheHierarchy(const CostModel* costs, Cache* l2)
    : costs_(costs),
      l1i_("L1I", 32 * 1024, 32, 4),
      l1d_("L1D", 32 * 1024, 32, 4),
      l2_(l2) {
  assert(l2 != nullptr);
}

Cycles CacheHierarchy::AccessInst(PhysAddr pa, CoreCounters* counters) {
  if (l1i_.Access(pa)) {
    return costs_->l1_hit;
  }
  counters->l1i_misses++;
  Cycles stall;
  if (l2_->Access(pa)) {
    stall = costs_->l2_hit;
  } else {
    counters->l2_misses++;
    stall = costs_->l2_hit + costs_->dram;
  }
  counters->icache_stall_cycles += stall;
  return costs_->l1_hit + stall;
}

Cycles CacheHierarchy::AccessData(PhysAddr pa, CoreCounters* counters) {
  if (l1d_.Access(pa)) {
    return costs_->l1_hit;
  }
  counters->l1d_misses++;
  Cycles stall;
  if (l2_->Access(pa)) {
    stall = costs_->l2_hit;
  } else {
    counters->l2_misses++;
    stall = costs_->l2_hit + costs_->dram;
  }
  counters->dcache_stall_cycles += stall;
  return costs_->l1_hit + stall;
}

Cycles CacheHierarchy::AccessPtw(PhysAddr pa, CoreCounters* counters) {
  // The ARMv7 hardware walker allocates PTE fetches into L1D and L2; the
  // stall accounting is left to the caller (it shows up as TLB-miss stall
  // time, not as a data-cache stall).
  if (l1d_.Access(pa)) {
    return costs_->l1_hit;
  }
  counters->l1d_misses++;
  if (l2_->Access(pa)) {
    return costs_->l1_hit + costs_->l2_hit;
  }
  counters->l2_misses++;
  return costs_->l1_hit + costs_->l2_hit + costs_->dram;
}

void CacheHierarchy::InvalidateAll() {
  l1i_.InvalidateAll();
  l1d_.InvalidateAll();
  l2_->InvalidateAll();
}

}  // namespace sat
