#include "src/tlb/tlb.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/trace/trace.h"

namespace sat {

bool TlbFlush::Covers(const TlbEntry& entry) const {
  switch (kind) {
    case Kind::kAll:
      return true;
    case Kind::kAsid:
      return !entry.global && entry.asid == asid;
    case Kind::kVa:
      return entry.CoversVpn(VirtPageNumber(va));
  }
  return false;
}

bool EntriesConflict(const TlbEntry& lhs, const TlbEntry& rhs) {
  // Bitwise, not short-circuit: ScrubSet evaluates this for every way.
  const bool overlap = (lhs.vpn < rhs.vpn + rhs.size_pages) &
                       (rhs.vpn < lhs.vpn + lhs.size_pages);
  return lhs.valid & rhs.valid & overlap &
         (lhs.global | rhs.global | (lhs.asid == rhs.asid));
}

TlbResult CheckEntryAccess(const TlbEntry& entry, AccessType access,
                           const DomainAccessControl& dacr) {
  switch (dacr.Get(entry.domain)) {
    case DomainAccess::kNoAccess:
      return TlbResult::kDomainFault;
    case DomainAccess::kManager:
      return TlbResult::kHit;  // permission bits are bypassed
    case DomainAccess::kClient:
      break;
  }
  return PermitsAccess(entry.perm, entry.executable, access)
             ? TlbResult::kHit
             : TlbResult::kPermissionFault;
}

namespace {

bool IsPowerOfTwo(uint32_t x) { return x != 0 && (x & (x - 1)) == 0; }

// Index into MainTlb::live_ for an entry's page size.
constexpr uint32_t kSmall = 0;    // 4 KB
constexpr uint32_t kLarge = 1;    // 64 KB
constexpr uint32_t kSection = 2;  // 1 MB

uint32_t SizeClass(uint32_t size_pages) {
  return size_pages == 1 ? kSmall
                         : size_pages == kPtesPerLargePage ? kLarge : kSection;
}

// Counts a lookup that found a matching entry.
void CountResult(TlbResult result, TlbStats* stats) {
  switch (result) {
    case TlbResult::kHit:
      stats->hits++;
      break;
    case TlbResult::kDomainFault:
      stats->domain_faults++;
      break;
    case TlbResult::kPermissionFault:
      stats->permission_faults++;
      break;
    case TlbResult::kMiss:
      break;
  }
}

}  // namespace

MainTlb::MainTlb(uint32_t num_entries, uint32_t ways) : ways_(ways) {
  assert(ways > 0 && num_entries % ways == 0);
  num_sets_ = num_entries / ways;
  assert(IsPowerOfTwo(num_sets_));
  entries_.resize(num_entries);
  replace_cursor_.resize(num_sets_, 0);
}

TlbEntry* MainTlb::FindInSet(uint32_t set, uint32_t vpn, Asid asid) {
  // Every way is tested and the matches collected as a bit mask, so no
  // branch depends on which way (if any) holds the VPN; the lowest
  // matching way wins, as in a first-match scan.
  TlbEntry* ways = &entries_[set * ways_];
  uint32_t match = 0;
  for (uint32_t w = 0; w < ways_; ++w) {
    match |= static_cast<uint32_t>(ways[w].Matches(vpn, asid)) << w;
  }
  return match != 0 ? &ways[std::countr_zero(match)] : nullptr;
}

TlbResult MainTlb::Lookup(VirtAddr va, Asid asid, AccessType access,
                          const DomainAccessControl& dacr, TlbEntry* out) {
  stats_.lookups++;
  const uint32_t vpn = VirtPageNumber(va);
  const uint32_t large_vpn = vpn & ~(kPtesPerLargePage - 1);
  const uint32_t section_vpn = vpn & ~(kPtesPerSection - 1);
  TlbEntry* entry = FindInSet(SetIndexOf(vpn), vpn, asid);
  // A 64 KB entry lives in the set of its aligned base VPN (and so does a
  // 1 MB entry whose base shares that set). With neither live, nothing
  // there can match.
  if (entry == nullptr && live_[kLarge] + live_[kSection] != 0 &&
      SetIndexOf(large_vpn) != SetIndexOf(vpn)) {
    entry = FindInSet(SetIndexOf(large_vpn), vpn, asid);
    if (entry != nullptr && entry->size_pages == 1) {
      entry = nullptr;  // only large entries are valid matches there
    }
  }
  // A 1 MB section entry lives in the set of its section-aligned base.
  if (entry == nullptr && live_[kSection] != 0 &&
      SetIndexOf(section_vpn) != SetIndexOf(vpn) &&
      SetIndexOf(section_vpn) != SetIndexOf(large_vpn)) {
    entry = FindInSet(SetIndexOf(section_vpn), vpn, asid);
    if (entry != nullptr && entry->size_pages != kPtesPerSection) {
      entry = nullptr;  // only section entries are valid matches there
    }
  }
  if (entry == nullptr) {
    stats_.misses++;
    return TlbResult::kMiss;
  }
  const TlbResult result = CheckEntryAccess(*entry, access, dacr);
  if (out != nullptr) {
    *out = *entry;  // filled on faults too: the core models protection
                    // schemes that override the domain verdict
  }
  CountResult(result, &stats_);
  return result;
}

void MainTlb::Retire(TlbEntry& entry) {
  assert(entry.valid && live_[SizeClass(entry.size_pages)] > 0);
  entry.valid = false;
  live_[SizeClass(entry.size_pages)]--;
}

int32_t MainTlb::ScrubSet(uint32_t set, const TlbEntry& entry) {
  // One pass collects the conflicting ways and the already-invalid ones as
  // bit masks (both read before anything is retired), then the conflicts
  // are retired; the lowest bit of a mask is its first way.
  TlbEntry* ways = &entries_[set * ways_];
  uint32_t conflict = 0;
  uint32_t invalid = 0;
  for (uint32_t w = 0; w < ways_; ++w) {
    conflict |= static_cast<uint32_t>(EntriesConflict(ways[w], entry)) << w;
    invalid |= static_cast<uint32_t>(!ways[w].valid) << w;
  }
  for (uint32_t left = conflict; left != 0; left &= left - 1) {
    Retire(ways[std::countr_zero(left)]);
  }
  const uint32_t pick = conflict != 0 ? conflict : invalid;
  return pick != 0 ? std::countr_zero(pick) : -1;
}

void MainTlb::Insert(const TlbEntry& entry) {
  assert(entry.valid);
  assert((entry.size_pages == 1 || entry.size_pages == kPtesPerLargePage ||
          entry.size_pages == kPtesPerSection) &&
         "TLB entries are 4 KB, 64 KB or 1 MB");
  assert((entry.vpn & (entry.size_pages - 1)) == 0 &&
         "TLB entry base must be size-aligned");
  const uint32_t home = SetIndexOf(entry.vpn);

  // First scrub every existing entry a lookup could still find for any page
  // the new entry translates: matching attributes or not, two live entries
  // for one (vpn, asid) — or one global plus one per-ASID — would leave
  // FindInSet returning whichever way comes first. Re-inserting a VPN with a
  // changed attribute (the zygote global-bit promotion, a 4 KB→64 KB
  // upgrade, an ASID reused after rollover) must replace, never duplicate.
  // Conflicts can sit in the home set of any covered VPN or in the 64 KB /
  // 1 MB base-index sets that Lookup also probes. A 4 KB entry conflicts
  // outside its home set only with a live larger entry, or with one a
  // chaos flip moved; otherwise the home set is the only one to scrub.
  if (entry.size_pages > 1 || live_[kLarge] + live_[kSection] != 0 ||
      chaos_touched_) {
    const uint32_t large_set =
        SetIndexOf(entry.vpn & ~(kPtesPerLargePage - 1));
    const uint32_t section_set =
        SetIndexOf(entry.vpn & ~(kPtesPerSection - 1));
    if (large_set != home) {
      ScrubSet(large_set, entry);
    }
    if (section_set != home && section_set != large_set) {
      ScrubSet(section_set, entry);
    }
    // The covered VPNs' sets repeat every num_sets_ pages.
    const uint32_t span = std::min(entry.size_pages, num_sets_);
    for (uint32_t i = 1; i < span; ++i) {
      const uint32_t set = SetIndexOf(entry.vpn + i);
      if (set != home && set != large_set && set != section_set) {
        ScrubSet(set, entry);
      }
    }
  }

  // Then scrub the home set and pick the new entry's way in the same pass:
  // the way a duplicate vacated first (keeps exact re-inserts in place),
  // else the first invalid way, else round-robin.
  int32_t way = ScrubSet(home, entry);
  if (way < 0) {
    uint32_t& cursor = replace_cursor_[home];
    way = static_cast<int32_t>(cursor);
    cursor = cursor + 1 == ways_ ? 0 : cursor + 1;
    Retire(entries_[home * ways_ + static_cast<uint32_t>(way)]);
  }
  entries_[home * ways_ + static_cast<uint32_t>(way)] = entry;
  live_[SizeClass(entry.size_pages)]++;
  stats_.insertions++;
}

template <typename Pred>
void MainTlb::FlushWhere(FlushKind kind, Pred pred) {
  stats_.flushes++;
  uint64_t flushed = 0;
  if (ValidEntryCount() != 0) {
    for (TlbEntry& entry : entries_) {
      if (entry.valid && pred(entry)) {
        Retire(entry);
        flushed++;
      }
    }
  }
  stats_.entries_flushed += flushed;
  Tracer::Emit(tracer_, TraceEventType::kTlbFlush, 0, kind, flushed);
}

void MainTlb::FlushAll() {
  FlushWhere(kFlushKindAll, [](const TlbEntry&) { return true; });
  chaos_touched_ = false;
}

void MainTlb::FlushNonGlobal() {
  FlushWhere(kFlushKindNonGlobal,
             [](const TlbEntry& entry) { return !entry.global; });
}

void MainTlb::FlushGlobal() {
  FlushWhere(kFlushKindGlobal,
             [](const TlbEntry& entry) { return entry.global; });
}

void MainTlb::FlushAsid(Asid asid) {
  FlushWhere(kFlushKindAsid, [asid](const TlbEntry& entry) {
    return !entry.global && entry.asid == asid;
  });
}

void MainTlb::FlushVa(VirtAddr va) {
  const uint32_t vpn = VirtPageNumber(va);
  FlushWhere(kFlushKindVa,
             [vpn](const TlbEntry& entry) { return entry.CoversVpn(vpn); });
}

uint64_t MainTlb::ReachBytes() const {
  const uint64_t pages =
      live_[kSmall] + uint64_t{live_[kLarge]} * kPtesPerLargePage +
      uint64_t{live_[kSection]} * kPtesPerSection;
  return pages * kPageSize;
}

MicroTlb::MicroTlb(uint32_t num_entries) {
  assert(num_entries > 0 && num_entries <= kMaxEntries);
  entries_.resize(num_entries);
}

TlbResult MicroTlb::Lookup(VirtAddr va, Asid asid, AccessType access,
                           const DomainAccessControl& dacr, TlbEntry* out) {
  stats_.lookups++;
  const uint32_t vpn = VirtPageNumber(va);
  if (MayCover(vpn)) {
    for (TlbEntry& entry : entries_) {
      if (!entry.Matches(vpn, asid)) {
        continue;
      }
      const TlbResult result = CheckEntryAccess(entry, access, dacr);
      if (out != nullptr) {
        *out = entry;
      }
      CountResult(result, &stats_);
      return result;
    }
  }
  stats_.misses++;
  return TlbResult::kMiss;
}

void MicroTlb::Retire(TlbEntry& entry) {
  assert(entry.valid && live_ > 0);
  entry.valid = false;
  live_--;
  if (entry.size_pages == 1) {
    buckets_[entry.vpn % kBuckets]--;
  } else {
    large_live_--;
  }
}

void MicroTlb::Insert(const TlbEntry& entry) {
  assert(entry.valid);
  uint32_t slot = 0;
  if (live_ < num_entries()) {
    while (entries_[slot].valid) {
      slot++;  // the first invalid entry
    }
  } else {
    slot = fifo_cursor_;
    fifo_cursor_ = slot + 1 == num_entries() ? 0 : slot + 1;
    Retire(entries_[slot]);
  }
  entries_[slot] = entry;
  live_++;
  if (entry.size_pages == 1) {
    buckets_[entry.vpn % kBuckets]++;
  } else {
    large_live_++;
  }
  stats_.insertions++;
}

void MicroTlb::FlushAll() {
  stats_.flushes++;
  if (live_ == 0) {
    return;
  }
  for (TlbEntry& entry : entries_) {
    if (entry.valid) {
      Retire(entry);
      stats_.entries_flushed++;
    }
  }
}

void MicroTlb::FlushVa(VirtAddr va) {
  stats_.flushes++;
  const uint32_t vpn = VirtPageNumber(va);
  if (!MayCover(vpn)) {
    return;  // always the case on an empty TLB
  }
  for (TlbEntry& entry : entries_) {
    if (entry.CoversVpn(vpn)) {
      Retire(entry);
      stats_.entries_flushed++;
    }
  }
}

}  // namespace sat
