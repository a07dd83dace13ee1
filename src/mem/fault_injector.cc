#include "src/mem/fault_injector.h"

#include "src/arch/check.h"

namespace sat {

const char* AllocSiteName(AllocSite site) {
  switch (site) {
    case AllocSite::kFrame:
      return "frame";
    case AllocSite::kContiguous:
      return "contiguous";
    case AllocSite::kPtp:
      return "ptp";
    case AllocSite::kZram:
      return "zram";
    case AllocSite::kCount:
      break;
  }
  SAT_CHECK(false && "invalid AllocSite");
}

const char* CorruptSiteName(CorruptSite site) {
  switch (site) {
    case CorruptSite::kPteWord:
      return "pte-word";
    case CorruptSite::kZramByte:
      return "zram-byte";
    case CorruptSite::kTlbTag:
      return "tlb-tag";
    case CorruptSite::kNumaReplica:
      return "numa-replica";
    case CorruptSite::kCount:
      break;
  }
  SAT_CHECK(false && "invalid CorruptSite");
}

void FaultInjector::Reset() {
  for (uint32_t i = 0; i < kNumSites; ++i) {
    rules_[i] = FaultRule{};
    attempts_[i] = 0;
    injected_[i] = 0;
  }
  for (uint32_t i = 0; i < kNumCorruptSites; ++i) {
    corrupt_rules_[i] = FaultRule{};
    corrupt_attempts_[i] = 0;
    corrupt_injected_[i] = 0;
  }
}

bool FaultInjector::ShouldFail(AllocSite site) {
  const uint32_t i = Index(site);
  SAT_CHECK(i < kNumSites);
  const uint64_t attempt = ++attempts_[i];
  const FaultRule& rule = rules_[i];
  bool fail = false;
  if (rule.fail_nth != 0 && attempt == rule.fail_nth) fail = true;
  if (rule.every_kth != 0 && attempt % rule.every_kth == 0) fail = true;
  if (rule.probability > 0.0) {
    if (rng_.Canonical() < rule.probability) fail = true;
  }
  if (fail) ++injected_[i];
  return fail;
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumSites; ++i) total += injected_[i];
  return total;
}

bool FaultInjector::ShouldCorrupt(CorruptSite site) {
  const uint32_t i = Index(site);
  SAT_CHECK(i < kNumCorruptSites);
  const uint64_t attempt = ++corrupt_attempts_[i];
  const FaultRule& rule = corrupt_rules_[i];
  bool corrupt = false;
  if (rule.fail_nth != 0 && attempt == rule.fail_nth) corrupt = true;
  if (rule.every_kth != 0 && attempt % rule.every_kth == 0) corrupt = true;
  if (rule.probability > 0.0) {
    if (rng_.Canonical() < rule.probability) corrupt = true;
  }
  if (corrupt) ++corrupt_injected_[i];
  return corrupt;
}

uint64_t FaultInjector::total_corruptions() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumCorruptSites; ++i) {
    total += corrupt_injected_[i];
  }
  return total;
}

}  // namespace sat
