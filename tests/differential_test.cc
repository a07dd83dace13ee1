// Differential tests: the main TLB, the micro TLB and the cache against
// plain linear-scan reference copies of the same structures, an address
// space's region list against the ordered map it replaced, the reverse map
// against the frame-keyed hash map it replaced, and the simulator's random
// engine against the std::mt19937_64 it replaced.
//
// The production structures skip work the reference always does: the main
// TLB counts live entries per page size and probes or scrubs the 64 KB /
// 1 MB base sets only while such an entry (or a chaos flip) could be there,
// the micro TLB filters misses through per-VPN-bucket counts, and the
// cache packs each set into 32-bit keys searched without branches. Each of
// those shortcuts must be exact. Seeded op streams are replayed through
// both versions over narrow VPN and address ranges, so ops collide in
// sets and in filter buckets, and after every op the results, returned
// entries, stats and every stored entry must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/cache.h"
#include "src/pt/rmap.h"
#include "src/stats/rng.h"
#include "src/tlb/tlb.h"
#include "src/vm/mm.h"

namespace sat {
namespace {

// ---------------------------------------------------------------------------
// Reference structures: the linear-scan designs the production ones
// replaced, kept verbatim in behaviour.
// ---------------------------------------------------------------------------

class RefMainTlb {
 public:
  RefMainTlb(uint32_t num_entries, uint32_t ways)
      : ways_(ways), num_sets_(num_entries / ways) {
    entries_.resize(num_entries);
    replace_cursor_.resize(num_sets_, 0);
  }

  TlbResult Lookup(VirtAddr va, Asid asid, AccessType access,
                   const DomainAccessControl& dacr, TlbEntry* out) {
    stats_.lookups++;
    const uint32_t vpn = VirtPageNumber(va);
    TlbEntry* entry = FindInSet(SetIndexOf(vpn), vpn, asid);
    if (entry == nullptr) {
      const uint32_t large_vpn = vpn & ~(kPtesPerLargePage - 1);
      if (large_vpn != vpn || SetIndexOf(large_vpn) != SetIndexOf(vpn)) {
        entry = FindInSet(SetIndexOf(large_vpn), vpn, asid);
        if (entry != nullptr && entry->size_pages == 1) {
          entry = nullptr;
        }
      }
    }
    if (entry == nullptr) {
      const uint32_t section_vpn = vpn & ~(kPtesPerSection - 1);
      const uint32_t large_vpn = vpn & ~(kPtesPerLargePage - 1);
      if (SetIndexOf(section_vpn) != SetIndexOf(vpn) &&
          SetIndexOf(section_vpn) != SetIndexOf(large_vpn)) {
        entry = FindInSet(SetIndexOf(section_vpn), vpn, asid);
        if (entry != nullptr && entry->size_pages != kPtesPerSection) {
          entry = nullptr;
        }
      }
    }
    if (entry == nullptr) {
      stats_.misses++;
      return TlbResult::kMiss;
    }
    const TlbResult result = CheckEntryAccess(*entry, access, dacr);
    if (out != nullptr) {
      *out = *entry;
    }
    Count(result, &stats_);
    return result;
  }

  void Insert(const TlbEntry& entry) {
    const uint32_t home = SetIndexOf(entry.vpn);
    int64_t reuse_way = -1;
    const auto scrub = [&](uint32_t set) {
      for (uint32_t w = 0; w < ways_; ++w) {
        TlbEntry& candidate = entries_[set * ways_ + w];
        if (!EntriesConflict(candidate, entry)) {
          continue;
        }
        candidate.valid = false;
        if (set == home && reuse_way < 0) {
          reuse_way = w;
        }
      }
    };
    scrub(home);
    const uint32_t large_base = entry.vpn & ~(kPtesPerLargePage - 1);
    if (SetIndexOf(large_base) != home) {
      scrub(SetIndexOf(large_base));
    }
    const uint32_t section_base = entry.vpn & ~(kPtesPerSection - 1);
    if (SetIndexOf(section_base) != home &&
        SetIndexOf(section_base) != SetIndexOf(large_base)) {
      scrub(SetIndexOf(section_base));
    }
    for (uint32_t i = 1; i < entry.size_pages; ++i) {
      const uint32_t set = SetIndexOf(entry.vpn + i);
      if (set != home && set != SetIndexOf(large_base) &&
          set != SetIndexOf(section_base)) {
        scrub(set);
      }
    }
    stats_.insertions++;
    if (reuse_way >= 0) {
      entries_[home * ways_ + static_cast<uint32_t>(reuse_way)] = entry;
      return;
    }
    for (uint32_t w = 0; w < ways_; ++w) {
      TlbEntry& candidate = entries_[home * ways_ + w];
      if (!candidate.valid) {
        candidate = entry;
        return;
      }
    }
    const uint32_t victim = replace_cursor_[home];
    replace_cursor_[home] = (victim + 1) % ways_;
    entries_[home * ways_ + victim] = entry;
  }

  void FlushAll() {
    Flush([](const TlbEntry&) { return true; });
  }
  void FlushNonGlobal() {
    Flush([](const TlbEntry& entry) { return !entry.global; });
  }
  void FlushGlobal() {
    Flush([](const TlbEntry& entry) { return entry.global; });
  }
  void FlushAsid(Asid asid) {
    Flush([asid](const TlbEntry& entry) {
      return !entry.global && entry.asid == asid;
    });
  }
  void FlushVa(VirtAddr va) {
    const uint32_t vpn = VirtPageNumber(va);
    Flush([vpn](const TlbEntry& entry) { return entry.CoversVpn(vpn); });
  }

  const TlbStats& stats() const { return stats_; }
  uint32_t ValidEntryCount() const {
    uint32_t count = 0;
    for (const TlbEntry& entry : entries_) {
      count += entry.valid ? 1 : 0;
    }
    return count;
  }
  uint64_t ReachBytes() const {
    uint64_t bytes = 0;
    for (const TlbEntry& entry : entries_) {
      if (entry.valid) {
        bytes += static_cast<uint64_t>(entry.size_pages) * kPageSize;
      }
    }
    return bytes;
  }
  const TlbEntry& EntryAt(uint32_t set, uint32_t way) const {
    return entries_[set * ways_ + way];
  }
  TlbEntry& EntryAtForChaos(uint32_t set, uint32_t way) {
    return entries_[set * ways_ + way];
  }

  static void Count(TlbResult result, TlbStats* stats) {
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

 private:
  uint32_t SetIndexOf(uint32_t vpn) const { return vpn & (num_sets_ - 1); }
  TlbEntry* FindInSet(uint32_t set, uint32_t vpn, Asid asid) {
    for (uint32_t w = 0; w < ways_; ++w) {
      TlbEntry& entry = entries_[set * ways_ + w];
      if (entry.Matches(vpn, asid)) {
        return &entry;
      }
    }
    return nullptr;
  }
  template <typename Pred>
  void Flush(Pred pred) {
    stats_.flushes++;
    for (TlbEntry& entry : entries_) {
      if (entry.valid && pred(entry)) {
        entry.valid = false;
        stats_.entries_flushed++;
      }
    }
  }

  uint32_t ways_;
  uint32_t num_sets_;
  std::vector<TlbEntry> entries_;
  std::vector<uint32_t> replace_cursor_;
  TlbStats stats_;
};

class RefMicroTlb {
 public:
  explicit RefMicroTlb(uint32_t num_entries) { entries_.resize(num_entries); }

  TlbResult Lookup(VirtAddr va, Asid asid, AccessType access,
                   const DomainAccessControl& dacr, TlbEntry* out) {
    stats_.lookups++;
    const uint32_t vpn = VirtPageNumber(va);
    for (TlbEntry& entry : entries_) {
      if (!entry.Matches(vpn, asid)) {
        continue;
      }
      const TlbResult result = CheckEntryAccess(entry, access, dacr);
      if (out != nullptr) {
        *out = entry;
      }
      RefMainTlb::Count(result, &stats_);
      return result;
    }
    stats_.misses++;
    return TlbResult::kMiss;
  }

  void Insert(const TlbEntry& entry) {
    stats_.insertions++;
    for (TlbEntry& candidate : entries_) {
      if (!candidate.valid) {
        candidate = entry;
        return;
      }
    }
    entries_[fifo_cursor_] = entry;
    fifo_cursor_ = (fifo_cursor_ + 1) % static_cast<uint32_t>(entries_.size());
  }

  void FlushAll() {
    stats_.flushes++;
    for (TlbEntry& entry : entries_) {
      if (entry.valid) {
        entry.valid = false;
        stats_.entries_flushed++;
      }
    }
  }

  void FlushVa(VirtAddr va) {
    stats_.flushes++;
    const uint32_t vpn = VirtPageNumber(va);
    for (TlbEntry& entry : entries_) {
      if (entry.CoversVpn(vpn)) {
        entry.valid = false;
        stats_.entries_flushed++;
      }
    }
  }

  const TlbStats& stats() const { return stats_; }
  const TlbEntry& EntryAt(uint32_t index) const { return entries_[index]; }

 private:
  std::vector<TlbEntry> entries_;
  uint32_t fifo_cursor_ = 0;
  TlbStats stats_;
};

class RefCache {
 public:
  RefCache(uint32_t size_bytes, uint32_t line_size, uint32_t ways)
      : line_size_(line_size), ways_(ways) {
    num_sets_ = size_bytes / (line_size * ways);
    set_shift_ = 0;
    while ((1u << set_shift_) < num_sets_) {
      set_shift_++;
    }
    lines_.resize(static_cast<size_t>(num_sets_) * ways_);
  }

  bool Access(PhysAddr pa) {
    stats_.accesses++;
    clock_++;
    const uint64_t line_addr = pa / line_size_;
    const uint32_t set = static_cast<uint32_t>(line_addr & (num_sets_ - 1));
    const uint64_t tag = line_addr >> set_shift_;
    for (uint32_t w = 0; w < ways_; ++w) {
      Line& line = lines_[static_cast<size_t>(set) * ways_ + w];
      if (line.valid && line.tag == tag) {
        line.lru_stamp = clock_;
        return true;
      }
    }
    stats_.misses++;
    Line* victim = nullptr;
    for (uint32_t w = 0; w < ways_; ++w) {
      Line& line = lines_[static_cast<size_t>(set) * ways_ + w];
      if (!line.valid) {
        victim = &line;
        break;
      }
      if (victim == nullptr || line.lru_stamp < victim->lru_stamp) {
        victim = &line;
      }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru_stamp = clock_;
    return false;
  }

  bool Probe(PhysAddr pa) const {
    const uint64_t line_addr = pa / line_size_;
    const uint32_t set = static_cast<uint32_t>(line_addr & (num_sets_ - 1));
    const uint64_t tag = line_addr >> set_shift_;
    for (uint32_t w = 0; w < ways_; ++w) {
      const Line& line = lines_[static_cast<size_t>(set) * ways_ + w];
      if (line.valid && line.tag == tag) {
        return true;
      }
    }
    return false;
  }

  void InvalidateAll() {
    for (Line& line : lines_) {
      line.valid = false;
    }
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    bool valid = false;
    uint64_t tag = 0;
    uint64_t lru_stamp = 0;
  };

  uint32_t line_size_;
  uint32_t ways_;
  uint32_t num_sets_;
  uint32_t set_shift_;
  uint64_t clock_ = 0;
  std::vector<Line> lines_;
  CacheStats stats_;
};

// ---------------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------------

bool SameEntry(const TlbEntry& a, const TlbEntry& b) {
  return a.valid == b.valid && a.vpn == b.vpn &&
         a.size_pages == b.size_pages && a.asid == b.asid &&
         a.global == b.global && a.domain == b.domain && a.perm == b.perm &&
         a.executable == b.executable && a.frame == b.frame;
}

std::string Describe(const TlbEntry& e) {
  std::ostringstream out;
  out << "{valid " << e.valid << " vpn " << e.vpn << " size " << e.size_pages
      << " asid " << static_cast<int>(e.asid) << " global " << e.global
      << " domain " << static_cast<int>(e.domain) << " perm "
      << static_cast<int>(e.perm) << " x " << e.executable << " frame "
      << e.frame << "}";
  return out.str();
}

bool SameStats(const TlbStats& a, const TlbStats& b) {
  return a.lookups == b.lookups && a.hits == b.hits && a.misses == b.misses &&
         a.domain_faults == b.domain_faults &&
         a.permission_faults == b.permission_faults &&
         a.insertions == b.insertions && a.flushes == b.flushes &&
         a.entries_flushed == b.entries_flushed;
}

// Every stored entry, stats, live count and reach must agree.
::testing::AssertionResult SameState(const MainTlb& tlb, const RefMainTlb& ref) {
  if (!SameStats(tlb.stats(), ref.stats())) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  if (tlb.ValidEntryCount() != ref.ValidEntryCount()) {
    return ::testing::AssertionFailure()
           << "ValidEntryCount " << tlb.ValidEntryCount() << " vs "
           << ref.ValidEntryCount();
  }
  if (tlb.ReachBytes() != ref.ReachBytes()) {
    return ::testing::AssertionFailure() << "ReachBytes differ";
  }
  for (uint32_t set = 0; set < tlb.num_sets(); ++set) {
    for (uint32_t way = 0; way < tlb.ways(); ++way) {
      if (!SameEntry(tlb.EntryAt(set, way), ref.EntryAt(set, way))) {
        return ::testing::AssertionFailure()
               << "set " << set << " way " << way << ": "
               << Describe(tlb.EntryAt(set, way)) << " vs "
               << Describe(ref.EntryAt(set, way));
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameState(const MicroTlb& tlb,
                                     const RefMicroTlb& ref) {
  if (!SameStats(tlb.stats(), ref.stats())) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  for (uint32_t i = 0; i < tlb.num_entries(); ++i) {
    if (!SameEntry(tlb.EntryAt(i), ref.EntryAt(i))) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << Describe(tlb.EntryAt(i)) << " vs "
             << Describe(ref.EntryAt(i));
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Op-stream generators.
// ---------------------------------------------------------------------------

// How often a stream inserts 64 KB and 1 MB entries, in percent of inserts.
// With none, every 4 KB insert takes the home-set-only path.
struct SizeMix {
  uint32_t large_pct;
  uint32_t section_pct;
};

class OpGen {
 public:
  OpGen(uint64_t seed, uint32_t vpn_range) : rng_(seed), vpn_range_(vpn_range) {}

  uint32_t Roll(uint32_t n) { return static_cast<uint32_t>(rng_() % n); }

  uint32_t Vpn() { return Roll(vpn_range_); }
  Asid AnAsid() { return static_cast<Asid>(1 + Roll(4)); }

  AccessType Access() {
    switch (Roll(3)) {
      case 0:
        return AccessType::kRead;
      case 1:
        return AccessType::kWrite;
      default:
        return AccessType::kExecute;
    }
  }

  // Mostly the kernel's two DACRs; otherwise a random one, which can make
  // any of the first four domains no-access or manager.
  DomainAccessControl Dacr() {
    switch (Roll(4)) {
      case 0:
        return DomainAccessControl::StockDefault();
      case 1:
        return DomainAccessControl::ZygoteLike();
      default: {
        DomainAccessControl dacr;
        static constexpr DomainAccess kAccess[] = {
            DomainAccess::kNoAccess, DomainAccess::kClient,
            DomainAccess::kManager};
        for (DomainId d = 0; d < 4; ++d) {
          dacr.Set(d, kAccess[Roll(3)]);
        }
        return dacr;
      }
    }
  }

  TlbEntry Entry(const SizeMix& mix) {
    TlbEntry entry;
    entry.valid = true;
    const uint32_t size_roll = Roll(100);
    entry.size_pages = size_roll < mix.section_pct ? kPtesPerSection
                       : size_roll < mix.section_pct + mix.large_pct
                           ? kPtesPerLargePage
                           : 1;
    entry.vpn = Vpn() & ~(entry.size_pages - 1);
    entry.asid = AnAsid();
    entry.global = Roll(4) == 0;
    entry.domain = static_cast<DomainId>(Roll(4));
    static constexpr PtePerm kPerms[] = {PtePerm::kNone, PtePerm::kReadOnly,
                                         PtePerm::kReadWrite};
    entry.perm = kPerms[Roll(3)];
    entry.executable = Roll(2) == 0;
    entry.frame = static_cast<FrameNumber>(rng_() & 0xfffff);
    return entry;
  }

 private:
  std::mt19937_64 rng_;
  uint32_t vpn_range_;
};

// ---------------------------------------------------------------------------
// Main TLB.
// ---------------------------------------------------------------------------

struct MainCase {
  uint32_t entries;
  uint32_t ways;
  SizeMix mix;
  bool chaos;
  const char* name;
};

// The four in-place flips the chaos injector (Kernel::InjectChaos's
// kTlbTag site) makes, applied to the same slot in both TLBs.
void ChaosFlip(OpGen& gen, MainTlb& tlb, RefMainTlb& ref) {
  const uint32_t set = gen.Roll(tlb.num_sets());
  const uint32_t way = gen.Roll(tlb.ways());
  TlbEntry& entry = tlb.EntryAtForChaos(set, way);
  TlbEntry& mirror = ref.EntryAtForChaos(set, way);
  if (!entry.valid) {
    return;
  }
  switch (gen.Roll(4)) {
    case 0: {
      // Mostly low bits, so the flipped VPN stays in range and collides.
      const uint32_t bit = gen.Roll(4) == 0 ? gen.Roll(20) : gen.Roll(10);
      entry.vpn ^= 1u << bit;
      mirror.vpn ^= 1u << bit;
      break;
    }
    case 1: {
      const uint32_t bit = gen.Roll(8);
      entry.asid = static_cast<Asid>(entry.asid ^ (1u << bit));
      mirror.asid = static_cast<Asid>(mirror.asid ^ (1u << bit));
      break;
    }
    case 2:
      entry.global = !entry.global;
      mirror.global = !mirror.global;
      break;
    case 3: {
      const uint32_t bit = gen.Roll(16);
      entry.frame ^= 1u << bit;
      mirror.frame ^= 1u << bit;
      break;
    }
  }
}

class MainTlbDiffTest : public ::testing::TestWithParam<MainCase> {};

TEST_P(MainTlbDiffTest, SeededStreamsMatchReference) {
  const MainCase param = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    MainTlb tlb(param.entries, param.ways);
    RefMainTlb ref(param.entries, param.ways);
    // Three 1 MB sections' worth of VPNs: narrow enough that sets, 64 KB
    // bases and section bases all collide.
    OpGen gen(seed * 1000 + param.entries + param.ways, 3 * kPtesPerSection);
    for (int op = 0; op < 6000; ++op) {
      const uint32_t roll = gen.Roll(100);
      std::string what;
      if (roll < 45) {
        const VirtAddr va = (gen.Vpn() << kPageShift) | gen.Roll(kPageSize);
        const Asid asid = gen.AnAsid();
        const AccessType access = gen.Access();
        const DomainAccessControl dacr = gen.Dacr();
        TlbEntry out;
        TlbEntry ref_out;
        const TlbResult result = tlb.Lookup(va, asid, access, dacr, &out);
        const TlbResult ref_result = ref.Lookup(va, asid, access, dacr, &ref_out);
        ASSERT_EQ(result, ref_result) << "seed " << seed << " op " << op;
        ASSERT_TRUE(SameEntry(out, ref_out))
            << "seed " << seed << " op " << op << ": " << Describe(out)
            << " vs " << Describe(ref_out);
        what = "lookup";
      } else if (roll < 85) {
        const TlbEntry entry = gen.Entry(param.mix);
        tlb.Insert(entry);
        ref.Insert(entry);
        what = "insert " + Describe(entry);
      } else if (roll < 97 || !param.chaos) {
        switch (gen.Roll(10)) {
          case 0:
            tlb.FlushAll();
            ref.FlushAll();
            what = "flush all";
            break;
          case 1:
            tlb.FlushNonGlobal();
            ref.FlushNonGlobal();
            what = "flush non-global";
            break;
          case 2:
            tlb.FlushGlobal();
            ref.FlushGlobal();
            what = "flush global";
            break;
          case 3:
          case 4: {
            const Asid asid = gen.AnAsid();
            tlb.FlushAsid(asid);
            ref.FlushAsid(asid);
            what = "flush asid";
            break;
          }
          default: {
            const VirtAddr va = gen.Vpn() << kPageShift;
            tlb.FlushVa(va);
            ref.FlushVa(va);
            what = "flush va";
            break;
          }
        }
      } else {
        ChaosFlip(gen, tlb, ref);
        what = "chaos flip";
      }
      ASSERT_TRUE(SameState(tlb, ref))
          << "seed " << seed << " op " << op << " (" << what << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, MainTlbDiffTest,
    ::testing::Values(
        // The model's geometry (hw/core.cc), 4 KB only: the common case.
        MainCase{128, 4, {0, 0}, false, "e128w4_small"},
        MainCase{128, 4, {0, 0}, true, "e128w4_small_chaos"},
        MainCase{128, 4, {8, 2}, false, "e128w4_mixed"},
        MainCase{128, 4, {8, 2}, true, "e128w4_mixed_chaos"},
        MainCase{128, 4, {30, 10}, true, "e128w4_large_chaos"},
        MainCase{8, 2, {8, 2}, true, "e8w2_mixed_chaos"},
        MainCase{32, 1, {8, 2}, true, "e32w1_mixed_chaos"},
        MainCase{256, 2, {0, 0}, true, "e256w2_small_chaos"},
        MainCase{512, 4, {8, 2}, true, "e512w4_mixed_chaos"}),
    [](const ::testing::TestParamInfo<MainCase>& param_info) {
      return std::string(param_info.param.name);
    });

// A chaos VPN flip can leave an entry outside its home set. Inserting the
// flipped VPN must still scrub it wherever the reference's full scrub
// reaches, even with no large entry live; without the chaos flag the
// home-set-only path would keep a duplicate the reference removes.
TEST(MainTlbDiffTest, ChaosMovedEntryIsScrubbedOnInsert) {
  MainTlb tlb(128, 4);  // 32 sets
  RefMainTlb ref(128, 4);
  TlbEntry entry;
  entry.valid = true;
  entry.vpn = 32;  // home set 0
  entry.asid = 1;
  entry.domain = kDomainUser;
  entry.perm = PtePerm::kReadOnly;
  entry.frame = 7;
  tlb.Insert(entry);
  ref.Insert(entry);
  // VPN 33's home set is 1, but its 64 KB base (32) indexes set 0, which
  // the reference scrubs.
  tlb.EntryAtForChaos(0, 0).vpn ^= 1;
  ref.EntryAtForChaos(0, 0).vpn ^= 1;
  entry.vpn = 33;
  entry.frame = 8;
  tlb.Insert(entry);
  ref.Insert(entry);
  EXPECT_TRUE(SameState(tlb, ref));
  EXPECT_EQ(tlb.ValidEntryCount(), 1u);
  EXPECT_FALSE(tlb.EntryAt(0, 0).valid);

  // FlushAll clears every flipped entry and, with them, the flag.
  tlb.FlushAll();
  ref.FlushAll();
  for (uint32_t vpn : {32u, 33u, 48u, 64u}) {
    entry.vpn = vpn;
    tlb.Insert(entry);
    ref.Insert(entry);
    ASSERT_TRUE(SameState(tlb, ref));
  }
}

// Insert scrubs duplicates, so two ways of one set can translate the same
// VPN for the same ASID only after a chaos flip. A lookup must then return
// the lower way, as the reference's first-match scan does (FindInSet takes
// the lowest bit of its match mask).
TEST(MainTlbDiffTest, SameSetDuplicateReturnsTheLowerWay) {
  MainTlb tlb(128, 4);  // 32 sets
  RefMainTlb ref(128, 4);
  TlbEntry entry;
  entry.valid = true;
  entry.asid = 1;
  entry.domain = kDomainUser;
  entry.perm = PtePerm::kReadOnly;
  entry.executable = true;
  for (uint32_t way = 0; way < 3; ++way) {
    entry.vpn = way * 32;  // home set 0 each, filling ways 0, 1 and 2
    entry.frame = 10 + way;
    tlb.Insert(entry);
    ref.Insert(entry);
  }
  ASSERT_EQ(tlb.EntryAt(0, 2).frame, 12u);
  // Way 0's VPN 0 becomes 64, the VPN way 2 already translates.
  tlb.EntryAtForChaos(0, 0).vpn ^= 64;
  ref.EntryAtForChaos(0, 0).vpn ^= 64;
  const VirtAddr va = 64u << kPageShift;
  const DomainAccessControl dacr = DomainAccessControl::StockDefault();
  TlbEntry out;
  TlbEntry ref_out;
  EXPECT_EQ(tlb.Lookup(va, 1, AccessType::kExecute, dacr, &out),
            TlbResult::kHit);
  EXPECT_EQ(ref.Lookup(va, 1, AccessType::kExecute, dacr, &ref_out),
            TlbResult::kHit);
  EXPECT_EQ(out.frame, 10u);
  EXPECT_TRUE(SameEntry(out, ref_out));
  EXPECT_TRUE(SameState(tlb, ref));
}

// ---------------------------------------------------------------------------
// Micro TLB.
// ---------------------------------------------------------------------------

struct MicroCase {
  uint32_t entries;
  SizeMix mix;
  uint32_t vpn_range;
  const char* name;
};

class MicroTlbDiffTest : public ::testing::TestWithParam<MicroCase> {};

TEST_P(MicroTlbDiffTest, SeededStreamsMatchReference) {
  const MicroCase param = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    MicroTlb tlb(param.entries);
    RefMicroTlb ref(param.entries);
    OpGen gen(seed * 77 + param.entries, param.vpn_range);
    for (int op = 0; op < 6000; ++op) {
      const uint32_t roll = gen.Roll(100);
      if (roll < 55) {
        const VirtAddr va = (gen.Vpn() << kPageShift) | gen.Roll(kPageSize);
        const Asid asid = gen.AnAsid();
        const AccessType access = gen.Access();
        const DomainAccessControl dacr = gen.Dacr();
        TlbEntry out;
        TlbEntry ref_out;
        ASSERT_EQ(tlb.Lookup(va, asid, access, dacr, &out),
                  ref.Lookup(va, asid, access, dacr, &ref_out))
            << "seed " << seed << " op " << op;
        ASSERT_TRUE(SameEntry(out, ref_out)) << "seed " << seed << " op " << op;
      } else if (roll < 93) {
        const TlbEntry entry = gen.Entry(param.mix);
        tlb.Insert(entry);
        ref.Insert(entry);
      } else if (roll < 98) {
        const VirtAddr va = gen.Vpn() << kPageShift;
        tlb.FlushVa(va);
        ref.FlushVa(va);
      } else {
        tlb.FlushAll();
        ref.FlushAll();
      }
      ASSERT_TRUE(SameState(tlb, ref)) << "seed " << seed << " op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, MicroTlbDiffTest,
    ::testing::Values(
        // The model's size (hw/core.cc); 768 VPNs put three per bucket.
        MicroCase{32, {0, 0}, 3 * 256, "n32_small"},
        MicroCase{32, {8, 2}, 3 * 256, "n32_mixed"},
        MicroCase{4, {0, 0}, 1024, "n4_small"},
        MicroCase{8, {20, 5}, 3 * 256, "n8_large"},
        // The most the 8-bit bucket counts allow; a range of 4 * 256 VPNs
        // piles up to 255 entries into a handful of buckets.
        MicroCase{MicroTlb::kMaxEntries, {0, 0}, 4 * 256, "n255_small"},
        MicroCase{MicroTlb::kMaxEntries, {8, 2}, 3 * 256, "n255_mixed"}),
    [](const ::testing::TestParamInfo<MicroCase>& param_info) {
      return std::string(param_info.param.name);
    });

// Every entry in one bucket: the count reaches 255 without wrapping, and
// FIFO replacement keeps it there.
TEST(MicroTlbDiffTest, FullBucketAtMaximumSize) {
  MicroTlb tlb(MicroTlb::kMaxEntries);
  RefMicroTlb ref(MicroTlb::kMaxEntries);
  const DomainAccessControl dacr = DomainAccessControl::StockDefault();
  TlbEntry entry;
  entry.valid = true;
  entry.asid = 1;
  entry.domain = kDomainUser;
  entry.perm = PtePerm::kReadOnly;
  for (uint32_t i = 0; i < MicroTlb::kMaxEntries + 40; ++i) {
    entry.vpn = 5 + i * 256;  // all in bucket 5
    entry.frame = i;
    tlb.Insert(entry);
    ref.Insert(entry);
    const VirtAddr probe = (5 + (i / 2) * 256) << kPageShift;
    ASSERT_EQ(tlb.Lookup(probe, 1, AccessType::kRead, dacr, nullptr),
              ref.Lookup(probe, 1, AccessType::kRead, dacr, nullptr));
    ASSERT_TRUE(SameState(tlb, ref)) << "insert " << i;
  }
  // One more than a bucket count can hold is refused at construction.
  EXPECT_DEATH({ MicroTlb too_big(MicroTlb::kMaxEntries + 1); }, "kMaxEntries");
}

// ---------------------------------------------------------------------------
// Cache.
// ---------------------------------------------------------------------------

struct CacheCase {
  uint32_t size;
  uint32_t ways;
};

class CacheDiffTest : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheDiffTest, SeededStreamsMatchReference) {
  const CacheCase param = GetParam();
  constexpr uint32_t kLine = 32;
  const uint32_t sets = param.size / (kLine * param.ways);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Cache cache("diff", param.size, kLine, param.ways);
    RefCache ref(param.size, kLine, param.ways);
    std::mt19937_64 rng(seed * 31 + param.ways);
    // A pool three times the cache's capacity keeps every set under
    // replacement pressure; a few far addresses exercise wide tags.
    std::vector<PhysAddr> pool;
    for (uint32_t i = 0; i < 3 * sets * param.ways; ++i) {
      pool.push_back(static_cast<PhysAddr>(rng() % (3 * sets * param.ways)) *
                         kLine +
                     rng() % kLine);
    }
    for (int i = 0; i < 16; ++i) {
      pool.push_back(static_cast<PhysAddr>(rng() % (1ull << 35)));
    }
    for (int op = 0; op < 20000; ++op) {
      const uint32_t roll = static_cast<uint32_t>(rng() % 1000);
      const PhysAddr pa = pool[rng() % pool.size()];
      if (roll < 850) {
        ASSERT_EQ(cache.Access(pa), ref.Access(pa)) << "op " << op;
      } else if (roll < 998) {
        ASSERT_EQ(cache.Probe(pa), ref.Probe(pa)) << "op " << op;
      } else {
        cache.InvalidateAll();
        ref.InvalidateAll();
      }
      ASSERT_EQ(cache.stats().accesses, ref.stats().accesses);
      ASSERT_EQ(cache.stats().misses, ref.stats().misses);
    }
    for (PhysAddr pa : pool) {
      ASSERT_EQ(cache.Probe(pa), ref.Probe(pa)) << "final residency";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDiffTest,
    ::testing::Values(CacheCase{4096, 2}, CacheCase{32768, 4},
                      CacheCase{16384, 8}, CacheCase{1024 * 1024, 16},
                      CacheCase{8192, 16}),
    [](const ::testing::TestParamInfo<CacheCase>& param_info) {
      return "s" + std::to_string(param_info.param.size) + "w" +
             std::to_string(param_info.param.ways);
    });

// ---------------------------------------------------------------------------
// Region list.
// ---------------------------------------------------------------------------

// MmStruct's region list as an ordered map keyed by start address, the
// design the sorted vector replaced, kept verbatim in behaviour.
class RefRegionList {
 public:
  const VmArea* FindVma(VirtAddr va) const {
    auto it = vmas_.upper_bound(va);
    if (it == vmas_.begin()) {
      return nullptr;
    }
    --it;
    return it->second.Contains(va) ? &it->second : nullptr;
  }

  // The caller has checked that `vma` overlaps nothing.
  void InsertVma(const VmArea& vma) { vmas_.emplace(vma.start, vma); }

  std::vector<VmArea> RemoveRange(VirtAddr start, VirtAddr end) {
    std::vector<VmArea> removed;
    auto it = vmas_.upper_bound(start);
    if (it != vmas_.begin()) {
      --it;
    }
    while (it != vmas_.end() && it->second.start < end) {
      VmArea& vma = it->second;
      if (!vma.Overlaps(start, end)) {
        ++it;
        continue;
      }
      VmArea original = vma;
      it = vmas_.erase(it);
      if (original.start < start) {
        VmArea left = original;
        left.end = start;
        vmas_.emplace(left.start, left);
      }
      if (original.end > end) {
        VmArea right = original;
        right.start = end;
        if (IsFileBacked(right.kind)) {
          right.file_page_offset = original.file_page_offset +
                                   ((end - original.start) >> kPageShift);
        }
        it = vmas_.emplace(right.start, right).first;
        ++it;
      }
      VmArea middle = original;
      middle.start = std::max(original.start, start);
      middle.end = std::min(original.end, end);
      if (IsFileBacked(middle.kind)) {
        middle.file_page_offset =
            original.file_page_offset +
            ((middle.start - original.start) >> kPageShift);
      }
      removed.push_back(middle);
    }
    return removed;
  }

  std::vector<VmArea> VmasOverlapping(VirtAddr start, VirtAddr end) const {
    std::vector<VmArea> out;
    auto it = vmas_.upper_bound(start);
    if (it != vmas_.begin()) {
      --it;
    }
    for (; it != vmas_.end() && it->second.start < end; ++it) {
      if (it->second.Overlaps(start, end)) {
        out.push_back(it->second);
      }
    }
    return out;
  }

  std::optional<VirtAddr> FindFreeRange(uint32_t length, VirtAddr low,
                                        VirtAddr high) const {
    VirtAddr candidate = low;
    auto it = vmas_.upper_bound(low);
    if (it != vmas_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end > candidate) {
        candidate = prev->second.end;
      }
    }
    for (; it != vmas_.end() && candidate + length <= high; ++it) {
      if (it->second.start >= candidate &&
          it->second.start - candidate >= length) {
        return candidate;
      }
      if (it->second.end > candidate) {
        candidate = it->second.end;
      }
    }
    if (candidate + length <= high) {
      return candidate;
    }
    return std::nullopt;
  }

  std::optional<VirtAddr> FindFreeRangeAligned(uint32_t length,
                                               uint32_t alignment,
                                               VirtAddr low,
                                               VirtAddr high) const {
    const VirtAddr mask = alignment - 1;
    VirtAddr candidate = (low + mask) & ~mask;
    while (candidate + length <= high) {
      const auto overlapping = VmasOverlapping(candidate, candidate + length);
      if (overlapping.empty()) {
        return candidate;
      }
      candidate = (overlapping.back().end + mask) & ~mask;
      if (candidate == 0) {
        break;
      }
    }
    return std::nullopt;
  }

  std::vector<VmArea> All() const {
    std::vector<VmArea> out;
    for (const auto& [start, vma] : vmas_) {
      out.push_back(vma);
    }
    return out;
  }

 private:
  std::map<VirtAddr, VmArea> vmas_;
};

std::vector<VmArea> AllOf(const MmStruct& mm) {
  std::vector<VmArea> out;
  mm.ForEachVma([&](const VmArea& vma) { out.push_back(vma); });
  return out;
}

// Every field of a region as text, its name by content: VmArea::name is
// a shared pointer, and regions named alike by separate mmaps hold
// different ones.
std::string Fields(const VmArea& vma) {
  std::ostringstream os;
  os << std::hex << vma.start << "-" << vma.end << std::dec << " "
     << vma.prot.ToString() << " kind " << static_cast<int>(vma.kind)
     << " file " << vma.file << "+" << vma.file_page_offset << " flags "
     << vma.global << vma.is_stack << vma.use_large_pages
     << vma.zygote_preloaded << vma.inherited << vma.mergeable << " name "
     << (vma.name != nullptr ? "\"" + *vma.name + "\"" : "-");
  return os.str();
}

std::vector<std::string> Fields(std::span<const VmArea> vmas) {
  std::vector<std::string> out;
  for (const VmArea& vma : vmas) {
    out.push_back(Fields(vma));
  }
  return out;
}

// Seeded streams of inserts, removals and queries over an 8-slot window,
// so regions straddle PTP slots and removals split them at either end,
// cover them exactly or span several. After every op the returned values
// and the whole list must equal the reference's.
TEST(RegionListDiffTest, SeededStreamsMatchReference) {
  constexpr VirtAddr kBase = 0x40000000;
  constexpr uint32_t kWindowPages = 8 * kPtesPerPtp;
  const auto names = std::vector<std::shared_ptr<const std::string>>{
      nullptr, std::make_shared<const std::string>("libc.so:code"),
      std::make_shared<const std::string>("[anon:heap]")};
  PhysicalMemory phys(1024 * kPageSize);
  KernelCounters counters;
  PtpAllocator alloc(&phys, &counters);
  // How much of each op kind the streams exercised.
  uint32_t inserts = 0;
  uint32_t splits = 0;
  size_t longest = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    MmStruct mm(&alloc, &phys, &counters, kDomainUser);
    RefRegionList ref;
    OpGen gen(seed * 7919, kWindowPages);
    // A page-aligned address in the window, or its end.
    const auto page = [&](uint32_t index) {
      return static_cast<VirtAddr>(kBase + std::min(index, kWindowPages) *
                                               kPageSize);
    };
    // Mostly short lengths, sometimes long enough to span slots.
    const auto pages = [&] {
      return 1 + (gen.Roll(8) == 0 ? gen.Roll(3 * kPtesPerPtp) : gen.Roll(24));
    };
    for (int op = 0; op < 6000; ++op) {
      const uint32_t roll = gen.Roll(100);
      if (roll < 40) {
        VmArea vma;
        const uint32_t first = gen.Vpn();
        vma.start = page(first);
        vma.end = page(first + pages());
        if (vma.start == vma.end ||
            !ref.VmasOverlapping(vma.start, vma.end).empty()) {
          continue;
        }
        static constexpr VmKind kKinds[] = {
            VmKind::kFilePrivate, VmKind::kFileShared, VmKind::kAnonPrivate,
            VmKind::kAnonShared};
        vma.kind = kKinds[gen.Roll(4)];
        vma.prot = gen.Roll(2) == 0 ? VmProt::ReadWrite() : VmProt::ReadExec();
        if (IsFileBacked(vma.kind)) {
          vma.file = static_cast<FileId>(1 + gen.Roll(3));
          vma.file_page_offset = gen.Roll(1000);
        }
        vma.global = gen.Roll(4) == 0;
        vma.mergeable = gen.Roll(4) == 0;
        vma.name = names[gen.Roll(3)];
        mm.InsertVma(vma);
        ref.InsertVma(vma);
        inserts++;
      } else if (roll < 55) {
        // A random range, the exact bounds of one region, or the span
        // from inside one region to inside a later one.
        VirtAddr start;
        VirtAddr end;
        const std::vector<VmArea> all = ref.All();
        const uint32_t shape = gen.Roll(3);
        if (shape == 0 || all.empty()) {
          const uint32_t first = gen.Vpn();
          start = page(first);
          end = page(first + pages());
        } else {
          const VmArea& a = all[gen.Roll(static_cast<uint32_t>(all.size()))];
          const VmArea& b = all[gen.Roll(static_cast<uint32_t>(all.size()))];
          const VmArea& lo = a.start <= b.start ? a : b;
          const VmArea& hi = a.start <= b.start ? b : a;
          start = lo.start;
          end = hi.end;
          if (shape == 2) {
            start += gen.Roll(lo.PageCount()) * kPageSize;
            end -= gen.Roll(hi.PageCount()) * kPageSize;
          }
        }
        if (start >= end) {
          continue;
        }
        const size_t before = mm.vma_count();
        ASSERT_EQ(Fields(mm.RemoveRange(start, end)),
                  Fields(ref.RemoveRange(start, end)))
            << "op " << op;
        if (mm.vma_count() > before) {
          splits++;
        }
      } else if (roll < 65) {
        const VirtAddr va = page(gen.Vpn()) + gen.Roll(kPageSize);
        const VmArea* got = mm.FindVma(va);
        const VmArea* want = ref.FindVma(va);
        ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
        if (got != nullptr) {
          ASSERT_EQ(Fields(*got), Fields(*want)) << "op " << op;
        }
      } else if (roll < 75) {
        const uint32_t first = gen.Vpn();
        const VirtAddr start = page(first);
        const VirtAddr end = page(first + pages());
        if (start < end) {
          ASSERT_EQ(Fields(mm.VmasOverlapping(start, end)),
                    Fields(ref.VmasOverlapping(start, end)))
              << "op " << op;
        }
      } else if (roll < 85) {
        const uint32_t slot = PtpSlotIndex(kBase) + gen.Roll(9);
        const VirtAddr base = PtpSlotBase(slot);
        ASSERT_EQ(Fields(mm.VmasInSlot(slot)),
                  Fields(ref.VmasOverlapping(base, base + kPtpSpan)))
            << "op " << op;
      } else {
        const uint32_t length = pages() * kPageSize;
        VirtAddr low = page(gen.Vpn());
        VirtAddr high = page(gen.Vpn());
        if (low > high) {
          std::swap(low, high);
        }
        if (roll < 93) {
          ASSERT_EQ(mm.FindFreeRange(length, low, high),
                    ref.FindFreeRange(length, low, high))
              << "op " << op;
        } else {
          static constexpr uint32_t kAlignments[] = {
              kPageSize, kLargePageSize, kSectionSize, kPtpSpan};
          const uint32_t alignment = kAlignments[gen.Roll(4)];
          ASSERT_EQ(mm.FindFreeRangeAligned(length, alignment, low, high),
                    ref.FindFreeRangeAligned(length, alignment, low, high))
              << "op " << op;
        }
      }
      ASSERT_EQ(Fields(AllOf(mm)), Fields(ref.All())) << "op " << op;
      longest = std::max(longest, mm.vma_count());
    }
  }
  EXPECT_GT(inserts, 5000u);
  EXPECT_GT(splits, 100u);  // a removal inside one region leaves two
  EXPECT_GT(longest, 40u);
}

// ---------------------------------------------------------------------------
// Reverse map.
// ---------------------------------------------------------------------------

// ReverseMap as a hash map from frame to its mapping list, the design the
// frame-indexed lists replaced, kept verbatim in behaviour.
class RefReverseMap {
 public:
  void Add(FrameNumber frame, PtpId ptp, uint32_t index) {
    map_[frame].push_back(RmapEntry{ptp, static_cast<uint16_t>(index)});
    total_entries_++;
  }

  bool Remove(FrameNumber frame, PtpId ptp, uint32_t index) {
    const auto it = map_.find(frame);
    if (it == map_.end()) {
      return false;
    }
    std::vector<RmapEntry>& entries = it->second;
    const auto match = std::find(entries.begin(), entries.end(),
                                 RmapEntry{ptp, static_cast<uint16_t>(index)});
    if (match == entries.end()) {
      return false;
    }
    entries.erase(match);
    total_entries_--;
    if (entries.empty()) {
      map_.erase(it);
    }
    return true;
  }

  std::vector<RmapEntry> MappingsOf(FrameNumber frame) const {
    const auto it = map_.find(frame);
    return it == map_.end() ? std::vector<RmapEntry>{} : it->second;
  }

  bool HasSite(FrameNumber frame, PtpId ptp, uint32_t index) const {
    const std::vector<RmapEntry> entries = MappingsOf(frame);
    return std::find(entries.begin(), entries.end(),
                     RmapEntry{ptp, static_cast<uint16_t>(index)}) !=
           entries.end();
  }

  // Hash-map order: which frame wins for a site listed twice is arbitrary.
  std::optional<FrameNumber> FindAtSite(PtpId ptp, uint32_t index) const {
    for (const auto& [frame, entries] : map_) {
      for (const RmapEntry& entry : entries) {
        if (entry.ptp == ptp && entry.index == index) {
          return frame;
        }
      }
    }
    return std::nullopt;
  }

  uint64_t total_entries() const { return total_entries_; }

 private:
  std::unordered_map<FrameNumber, std::vector<RmapEntry>> map_;
  uint64_t total_entries_ = 0;
};

// Seeded streams of adds, removals (absent sites included) and lookups
// over 48 frames, 8 PTPs and 16 PTE indices, so a site repeats within a
// frame and across frames; now and then a frame far above the rest grows
// the index. After every op, each frame's mappings in order, the counts,
// HasSite at every listed site and the random lookups must equal the
// reference's. Order matters: reclaim,
// swap-out and ksmd shoot down in it, and the goldens depend on that.
// FindAtSite is compared for sites listed at most once; for a site listed
// under two frames (only rot does that) the reference answers in hash
// order, the production map lowest frame first.
TEST(RmapDiffTest, SeededStreamsMatchReference) {
  constexpr uint32_t kFrames = 48;
  constexpr uint32_t kPtps = 8;
  constexpr uint32_t kIndices = 16;
  uint32_t removed = 0;
  uint32_t absent = 0;
  uint32_t single_sites = 0;
  uint32_t repeated_sites = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ReverseMap rmap;
    RefReverseMap ref;
    OpGen gen(seed * 104729, kFrames);
    std::set<FrameNumber> named;  // every frame the stream has used
    const auto frame = [&] {
      const FrameNumber f = gen.Roll(50) == 0 ? kFrames + gen.Roll(1024)
                                              : gen.Vpn();
      named.insert(f);
      return f;
    };
    const auto ptp = [&] { return static_cast<PtpId>(gen.Roll(kPtps)); };
    for (int op = 0; op < 3000; ++op) {
      const uint32_t roll = gen.Roll(100);
      if (roll < 40) {
        const FrameNumber f = frame();
        const PtpId p = ptp();
        const uint32_t i = gen.Roll(kIndices);
        rmap.Add(f, p, i);
        ref.Add(f, p, i);
      } else if (roll < 75) {
        // Remove an entry the frame really has, when it has one.
        const FrameNumber f = frame();
        const std::vector<RmapEntry> entries = ref.MappingsOf(f);
        if (entries.empty()) {
          continue;
        }
        const RmapEntry& e =
            entries[gen.Roll(static_cast<uint32_t>(entries.size()))];
        ASSERT_TRUE(rmap.Remove(f, e.ptp, e.index)) << "op " << op;
        ASSERT_TRUE(ref.Remove(f, e.ptp, e.index));
        removed++;
      } else if (roll < 88) {
        // Any site: often not mapped by the frame named (the rotted-
        // descriptor teardown path).
        const FrameNumber f = frame();
        const PtpId p = ptp();
        const uint32_t i = gen.Roll(kIndices);
        const bool want = ref.Remove(f, p, i);
        ASSERT_EQ(rmap.Remove(f, p, i), want) << "op " << op;
        absent += want ? 0 : 1;
      } else {
        const FrameNumber f = frame();
        const PtpId p = ptp();
        const uint32_t i = gen.Roll(kIndices);
        ASSERT_EQ(rmap.HasSite(f, p, i), ref.HasSite(f, p, i)) << "op " << op;
      }
      ASSERT_EQ(rmap.total_entries(), ref.total_entries()) << "op " << op;
      std::vector<uint32_t> listed(kPtps * kIndices, 0);
      for (const FrameNumber f : named) {
        const std::vector<RmapEntry> want = ref.MappingsOf(f);
        const std::span<const RmapEntry> got = rmap.Mappings(f);
        ASSERT_EQ(std::vector<RmapEntry>(got.begin(), got.end()), want)
            << "op " << op << " frame " << f;
        ASSERT_EQ(rmap.MapCount(f), want.size());
        for (const RmapEntry& e : want) {
          ASSERT_TRUE(rmap.HasSite(f, e.ptp, e.index)) << "op " << op;
          listed[static_cast<uint32_t>(e.ptp) * kIndices + e.index]++;
        }
      }
      ASSERT_TRUE(rmap.Mappings(kFrames + 5000).empty());
      for (PtpId p = 0; p < static_cast<PtpId>(kPtps); ++p) {
        for (uint32_t i = 0; i < kIndices; ++i) {
          const uint32_t count =
              listed[static_cast<uint32_t>(p) * kIndices + i];
          if (count > 1) {
            repeated_sites++;
            continue;
          }
          single_sites += count;
          ASSERT_EQ(rmap.FindAtSite(p, i), ref.FindAtSite(p, i))
              << "op " << op << " site " << p << ":" << i;
        }
      }
    }
  }
  // How much of each shape the streams exercised.
  EXPECT_GT(removed, 3000u);
  EXPECT_GT(absent, 1000u);
  EXPECT_GT(single_sites, 100000u);  // FindAtSite compared at a listed site
  EXPECT_GT(repeated_sites, 100000u);
}

// ---------------------------------------------------------------------------
// Random-number engine.
// ---------------------------------------------------------------------------

// Rng (src/stats/rng.h) replaced std::mt19937_64 at every site in the
// simulator, and every seeded workload and golden depends on it emitting
// the same stream. std::mt19937_64 stays here as the reference.
TEST(RngDiffTest, StreamMatchesMt19937) {
  for (const uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{7}, ~uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 10'000'000; ++i) {
      const uint64_t got = rng();
      const uint64_t want = ref();
      if (got != want) {
        FAIL() << "seed " << seed << " draw " << i << ": " << got << " vs "
               << want;
      }
    }
  }
}

// Canonical() is std::uniform_real_distribution<double>(0, 1) over the same
// draws. About one draw in 4,096 has its top bit set and bits 10..1 equal
// to 1000000000, where the halved conversion's sticky bit decides the
// rounding; 1M draws meet a few hundred of them.
TEST(RngDiffTest, CanonicalMatchesUniformRealDistribution) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    for (int i = 0; i < 1'000'000; ++i) {
      const double got = rng.Canonical();
      const double want = uniform(ref);
      if (std::bit_cast<uint64_t>(got) != std::bit_cast<uint64_t>(want)) {
        FAIL() << "seed " << seed << " draw " << i << ": " << got << " vs "
               << want;
      }
    }
  }
}

// The library algorithms the simulator runs on the engine consume it draw
// for draw as they consume std::mt19937_64.
TEST(RngDiffTest, ShuffleAndDistributionsMatch) {
  Rng rng(42);
  std::mt19937_64 ref(42);
  std::vector<int> shuffled(2000);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  std::vector<int> ref_shuffled = shuffled;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  std::shuffle(ref_shuffled.begin(), ref_shuffled.end(), ref);
  EXPECT_EQ(shuffled, ref_shuffled);

  // The distributions footprint.cc draws from, then one raw draw to show
  // both engines consumed the same number of words.
  const auto draws = [](auto& engine) {
    std::uniform_int_distribution<uint32_t> pages(0, 1849);
    std::geometric_distribution<uint32_t> tail(0.45);
    std::uniform_real_distribution<double> jitter(0.8, 1.2);
    std::vector<double> out;
    for (int i = 0; i < 10'000; ++i) {
      out.push_back(pages(engine));
      out.push_back(tail(engine));
      out.push_back(jitter(engine));
    }
    out.push_back(static_cast<double>(engine() >> 11));
    return out;
  };
  EXPECT_EQ(draws(rng), draws(ref));
}

// A generator that always returns one chosen value, to feed
// std::generate_canonical a single 64-bit draw.
struct OneValue {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return value; }
  uint64_t value;
};

// The bits-to-double step against libstdc++'s own, at the edges: exact
// small values, the 2^53 rounding boundary, both sides of the top bit, a
// draw whose rounding only the sticky bit gets right, and the largest
// draw, which rounds to 1 and must clamp to the double below it.
TEST(RngDiffTest, BitsToDoubleMatchesGenerateCanonical) {
  constexpr uint64_t kTop = uint64_t{1} << 63;
  constexpr uint64_t k53 = uint64_t{1} << 53;
  for (const uint64_t v : {uint64_t{0}, uint64_t{1}, k53 - 1, k53 + 1, kTop - 1, kTop,
                           kTop + 1, kTop + (uint64_t{1} << 10) + 1, ~uint64_t{0}}) {
    OneValue draw{v};
    const double want = std::generate_canonical<double, 53>(draw);
    EXPECT_EQ(std::bit_cast<uint64_t>(Rng::ToCanonical(v)),
              std::bit_cast<uint64_t>(want))
        << "v = " << v;
  }
  EXPECT_EQ(Rng::ToCanonical(~uint64_t{0}), std::nextafter(1.0, 0.0));
}

}  // namespace
}  // namespace sat
