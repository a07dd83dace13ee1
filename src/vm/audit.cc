#include "src/vm/audit.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/arch/check.h"
#include "src/arch/pte.h"
#include "src/mem/zram.h"
#include "src/pt/page_table.h"
#include "src/vm/swap.h"

namespace sat {

namespace {

// Accumulates the audit state one pass builds for the next to consume.
class Auditor {
 public:
  explicit Auditor(const AuditInput& input) : in_(input) {
    SAT_CHECK(in_.phys != nullptr && in_.ptps != nullptr);
    pte_maps_.assign(in_.phys->total_frames(), 0);
  }

  AuditReport Run() {
    CollectSwapCache();
    RecountPtps();
    CheckFrames();
    CheckSwapStore();
    CheckKsm();
    CheckNumaReplicas();
    CheckPtpSharers();
    CheckSpaces();
    CheckTlb();
    return std::move(report_);
  }

 private:
  void Fail(const char* check, const std::string& detail) {
    report_.violations.push_back(AuditViolation{check, detail});
  }

  // One verified fact. Returns `fact` so call sites read as assertions.
  bool Checked(bool fact) {
    report_.checks++;
    return fact;
  }

  // -------------------------------------------------------------------
  // Pass 0: snapshot the swap cache (frame -> slot) so the frame pass can
  // count cache references; the cache's own bidirectionality is verified
  // in CheckSwapStore.
  // -------------------------------------------------------------------
  void CollectSwapCache() {
    if (in_.zram == nullptr) {
      return;
    }
    in_.zram->ForEachSlot([&](SwapSlotId id, uint32_t /*ref_count*/,
                              uint32_t /*bytes*/, FrameNumber cached) {
      if (cached == ZramStore::kNoFrame) {
        return;
      }
      if (!Checked(swap_cache_frames_.emplace(cached, id).second)) {
        Fail("swap-cache-duplicate",
             "frame " + std::to_string(cached) +
                 " is the swap-cache residence of two slots");
      }
    });
  }

  // -------------------------------------------------------------------
  // Pass 1: walk every live PTP, recounting present entries and frame
  // mappings from the raw descriptors.
  // -------------------------------------------------------------------
  void RecountPtps() {
    in_.ptps->ForEachLive([&](const PageTablePage& ptp) {
      uint32_t present = 0;
      for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
        const HwPte& hw = ptp.hw(i);
        const LinuxPte& sw = ptp.sw(i);
        if (!Checked(hw.valid() == sw.present())) {
          Fail("shadow-desync",
               "ptp " + std::to_string(ptp.id()) + " index " +
                   std::to_string(i) + ": hw valid=" +
                   std::to_string(hw.valid()) +
                   " but sw present=" + std::to_string(sw.present()));
        }
        if (sw.is_swap()) {
          // A swap entry is strictly a non-present software PTE: the
          // hardware descriptor must be invalid (enforced redundantly
          // with shadow-desync above, since present implies valid).
          if (!Checked(!sw.present())) {
            Fail("swap-pte-present",
                 "ptp " + std::to_string(ptp.id()) + " index " +
                     std::to_string(i) + ": swap entry for slot " +
                     std::to_string(sw.swap_slot()) + " is marked present");
          }
          if (!Checked(!hw.valid())) {
            Fail("swap-pte-mapped",
                 "ptp " + std::to_string(ptp.id()) + " index " +
                     std::to_string(i) + ": swap entry for slot " +
                     std::to_string(sw.swap_slot()) +
                     " coexists with a valid hardware PTE");
          }
          if (!Checked(in_.zram != nullptr)) {
            Fail("swap-pte-no-store",
                 "ptp " + std::to_string(ptp.id()) + " index " +
                     std::to_string(i) +
                     " holds a swap entry but no zram store was audited");
          } else if (!Checked(in_.zram->SlotLive(sw.swap_slot()))) {
            Fail("swap-pte-dead-slot",
                 "ptp " + std::to_string(ptp.id()) + " index " +
                     std::to_string(i) + " references freed swap slot " +
                     std::to_string(sw.swap_slot()));
          } else {
            swap_pte_refs_[sw.swap_slot()]++;
          }
        }
        if (!hw.valid()) {
          continue;
        }
        present++;
        if (hw.large() &&
            !Checked(hw.frame() % kPtesPerLargePage == 0)) {
          Fail("large-misaligned",
               "ptp " + std::to_string(ptp.id()) + " index " +
                   std::to_string(i) + ": large-page base frame " +
                   std::to_string(hw.frame()) + " not 64 KB aligned");
        }
        const FrameNumber frame = MappedFrameOf(hw, i);
        if (!Checked(frame < pte_maps_.size())) {
          Fail("pte-frame-range",
               "ptp " + std::to_string(ptp.id()) + " index " +
                   std::to_string(i) + " maps frame " +
                   std::to_string(frame) + " beyond physical memory");
          continue;
        }
        pte_maps_[frame]++;
        // A KSM stable frame is shared by content: a writable mapping
        // would let one sharer corrupt every other's "bytes". This is the
        // analogue of NEED_COPY write protection, and it is unconditional
        // (even under the hw-L1-write-protect ablation the daemon
        // downgrades the PTE itself).
        if (in_.phys->frame(frame).ksm_stable &&
            !Checked(hw.perm() != PtePerm::kReadWrite)) {
          Fail("ksm-stable-writable",
               "ptp " + std::to_string(ptp.id()) + " index " +
                   std::to_string(i) + " maps KSM stable frame " +
                   std::to_string(frame) + " hardware-writable");
        }
      }
      if (!Checked(present == ptp.present_count())) {
        Fail("present-count",
             "ptp " + std::to_string(ptp.id()) + ": present_count says " +
                 std::to_string(ptp.present_count()) + ", recount found " +
                 std::to_string(present));
      }
      // The all-16-or-none replica invariant: promotion and demotion
      // rewrite every word of a 64 KB block identically, and no PTE path
      // (reclaim, swap-out, clear) touches a single replica — so a run
      // with some-but-not-all large words, or large words that disagree,
      // is torn (only chaos can do that, and scrubd's vote repairs it).
      for (uint32_t run = 0; run < kPtesPerPtp; run += kPtesPerLargePage) {
        uint32_t large_words = 0;
        bool identical = true;
        for (uint32_t i = run; i < run + kPtesPerLargePage; ++i) {
          const HwPte& word = ptp.hw(i);
          if (!word.valid() || !word.large()) {
            continue;
          }
          if (large_words > 0 && !(word == ptp.hw(run))) {
            identical = false;
          }
          large_words++;
        }
        if (large_words == 0) {
          continue;
        }
        if (!Checked(large_words == kPtesPerLargePage)) {
          Fail("large-run-torn",
               "ptp " + std::to_string(ptp.id()) + " run at index " +
                   std::to_string(run) + ": " + std::to_string(large_words) +
                   " of " + std::to_string(kPtesPerLargePage) +
                   " words are large replicas");
        } else if (!Checked(identical)) {
          Fail("large-run-nonuniform",
               "ptp " + std::to_string(ptp.id()) + " run at index " +
                   std::to_string(run) +
                   ": large replicas are not bit-identical");
        }
      }
    });
  }

  // -------------------------------------------------------------------
  // Pass 2: every frame's metadata against the mappings found in pass 1
  // and the page cache's residency.
  // -------------------------------------------------------------------
  void CheckFrames() {
    // Residency: frame -> (file, page) from the cache's own map, with the
    // per-frame back-pointers verified on the way.
    std::unordered_set<FrameNumber> resident;
    if (in_.page_cache != nullptr) {
      in_.page_cache->ForEach([&](FileId file, uint32_t page_index,
                                  FrameNumber frame) {
        const PageFrame& meta = in_.phys->frame(frame);
        if (!Checked(meta.kind == FrameKind::kFileCache)) {
          Fail("cache-kind", "cache entry (" + std::to_string(file) + ", " +
                                 std::to_string(page_index) +
                                 ") names frame " + std::to_string(frame) +
                                 " of kind " + FrameKindName(meta.kind));
        }
        if (!Checked(meta.file == file && meta.file_page_index == page_index)) {
          Fail("cache-backpointer",
               "frame " + std::to_string(frame) + " says (" +
                   std::to_string(meta.file) + ", " +
                   std::to_string(meta.file_page_index) +
                   ") but the cache holds it as (" + std::to_string(file) +
                   ", " + std::to_string(page_index) + ")");
        }
        if (!Checked(resident.insert(frame).second)) {
          Fail("cache-duplicate", "frame " + std::to_string(frame) +
                                      " cached under two (file, page) keys");
        }
      });
    }

    uint64_t free_frames = 0;
    for (FrameNumber f = 0; f < pte_maps_.size(); ++f) {
      const PageFrame& meta = in_.phys->frame(f);
      const uint32_t maps = pte_maps_[f];
      const bool cached = resident.count(f) != 0;
      if (meta.swap_cache_slot != kNoSwapSlot) {
        swap_cache_links_++;
      }
      if (meta.ksm_stable) {
        ksm_stable_frames_++;
        if (!Checked(meta.kind == FrameKind::kAnon)) {
          Fail("ksm-stable-kind",
               std::string(FrameKindName(meta.kind)) + " frame " +
                   std::to_string(f) + " is marked ksm_stable");
        }
      }
      switch (meta.kind) {
        case FrameKind::kFree: {
          free_frames++;
          if (!Checked(meta.ref_count == 0)) {
            Fail("free-refcount", "free frame " + std::to_string(f) +
                                      " has ref_count " +
                                      std::to_string(meta.ref_count));
          }
          if (!Checked(maps == 0)) {
            Fail("free-mapped", "free frame " + std::to_string(f) +
                                    " is mapped by " + std::to_string(maps) +
                                    " PTE(s)");
          }
          if (!Checked(!cached)) {
            Fail("free-cached",
                 "free frame " + std::to_string(f) + " is page-cache resident");
          }
          break;
        }
        case FrameKind::kAnon:
        case FrameKind::kFileCache: {
          const bool swap_cached = swap_cache_frames_.count(f) != 0;
          if (meta.kind == FrameKind::kFileCache && !Checked(!swap_cached)) {
            Fail("swap-cache-file",
                 "file-cache frame " + std::to_string(f) +
                     " is swap-cache resident");
          }
          const uint32_t expected =
              maps + (cached ? 1u : 0u) + (swap_cached ? 1u : 0u);
          if (!Checked(meta.ref_count == expected)) {
            Fail("frame-refcount",
                 std::string(FrameKindName(meta.kind)) + " frame " +
                     std::to_string(f) + ": ref_count " +
                     std::to_string(meta.ref_count) + ", but " +
                     std::to_string(maps) + " PTE mapping(s) + " +
                     (cached ? "1" : "0") + " page-cache + " +
                     (swap_cached ? "1" : "0") + " swap-cache reference");
          }
          if (!Checked(expected > 0)) {
            Fail("frame-leak", std::string(FrameKindName(meta.kind)) +
                                   " frame " + std::to_string(f) +
                                   " has no mapping and no cache reference");
          }
          if (meta.kind == FrameKind::kAnon && !Checked(!cached)) {
            Fail("anon-cached",
                 "anon frame " + std::to_string(f) + " is page-cache resident");
          }
          if (in_.rmap_maintained && in_.rmap != nullptr) {
            const uint32_t rmap_maps = in_.rmap->MapCount(f);
            if (!Checked(rmap_maps == maps)) {
              Fail("rmap-count", "frame " + std::to_string(f) + ": rmap has " +
                                     std::to_string(rmap_maps) +
                                     " entries, page tables hold " +
                                     std::to_string(maps) + " PTE(s)");
            }
          }
          break;
        }
        case FrameKind::kPageTable: {
          if (!Checked(meta.ref_count == 1)) {
            Fail("ptp-frame-refcount",
                 "page-table frame " + std::to_string(f) + " has ref_count " +
                     std::to_string(meta.ref_count) + " (expected 1)");
          }
          if (!Checked(maps == 0)) {
            Fail("ptp-frame-mapped",
                 "page-table frame " + std::to_string(f) + " is mapped by " +
                     std::to_string(maps) + " user PTE(s)");
          }
          break;
        }
        case FrameKind::kZram: {
          zram_frame_count_++;
          // Pool frames belong to the store alone: one reference (the
          // pool's), never user-mapped, never cache-resident.
          if (!Checked(meta.ref_count == 1 && maps == 0 && !cached &&
                       swap_cache_frames_.count(f) == 0)) {
            Fail("zram-frame",
                 "zram pool frame " + std::to_string(f) + " has ref_count " +
                     std::to_string(meta.ref_count) + ", " +
                     std::to_string(maps) + " PTE mapping(s), cached=" +
                     std::to_string(cached));
          }
          break;
        }
        case FrameKind::kZero: {
          if (!Checked(f == in_.phys->zero_frame() && meta.ref_count == 1)) {
            Fail("zero-frame", "zero frame " + std::to_string(f) +
                                   " has ref_count " +
                                   std::to_string(meta.ref_count));
          }
          break;
        }
        case FrameKind::kQuarantined: {
          // Condemned by the oops/scrub path: held out of circulation
          // until reboot — no references, no mappings, no cache presence,
          // and (checked against free_frames() below) not counted free.
          if (!Checked(meta.ref_count == 0 && maps == 0 && !cached &&
                       swap_cache_frames_.count(f) == 0)) {
            Fail("quarantined-frame",
                 "quarantined frame " + std::to_string(f) + " has ref_count " +
                     std::to_string(meta.ref_count) + ", " +
                     std::to_string(maps) + " PTE mapping(s), cached=" +
                     std::to_string(cached));
          }
          break;
        }
        case FrameKind::kKernel:
          break;  // permanent, unrefcounted, never user-mapped by policy
      }
      if (in_.lru != nullptr) {
        const LruList list = in_.lru->ListOf(f);
        lru_counts_[static_cast<uint32_t>(list)]++;
        bool list_ok;
        switch (meta.kind) {
          case FrameKind::kAnon:
            list_ok = list == LruList::kAnonActive ||
                      list == LruList::kAnonInactive;
            break;
          case FrameKind::kFileCache:
            list_ok = list == LruList::kFile;
            break;
          default:
            list_ok = list == LruList::kNone;
            break;
        }
        if (!Checked(list_ok)) {
          Fail("lru-membership",
               std::string(FrameKindName(meta.kind)) + " frame " +
                   std::to_string(f) + " is on LRU list " +
                   std::to_string(static_cast<int>(list)));
        }
      }
    }
    if (!Checked(free_frames == in_.phys->free_frames())) {
      Fail("free-count", "free_frames() says " +
                             std::to_string(in_.phys->free_frames()) +
                             ", recount found " + std::to_string(free_frames));
    }
    if (in_.lru != nullptr) {
      for (const LruList list : {LruList::kAnonActive, LruList::kAnonInactive,
                                 LruList::kFile}) {
        const uint32_t index = static_cast<uint32_t>(list);
        if (!Checked(lru_counts_[index] == in_.lru->size(list))) {
          Fail("lru-size", "LRU list " + std::to_string(index) + " says " +
                               std::to_string(in_.lru->size(list)) +
                               " frame(s), recount found " +
                               std::to_string(lru_counts_[index]));
        }
      }
    }
  }

  // -------------------------------------------------------------------
  // Pass 2b: the compressed store — every slot's reference count against
  // the swap PTEs and swap-cache entries that justify it, plus the
  // byte/pool accounting.
  // -------------------------------------------------------------------
  void CheckSwapStore() {
    if (in_.zram == nullptr) {
      return;
    }
    uint64_t live = 0;
    uint64_t stored = 0;
    in_.zram->ForEachSlot([&](SwapSlotId id, uint32_t ref_count,
                              uint32_t bytes, FrameNumber cached) {
      live++;
      stored += bytes;
      if (!Checked(bytes > 0 && bytes <= kPageSize)) {
        Fail("swap-slot-bytes", "slot " + std::to_string(id) + " stores " +
                                    std::to_string(bytes) + " bytes");
      }
      const auto it = swap_pte_refs_.find(id);
      const uint32_t pte_refs = it == swap_pte_refs_.end() ? 0 : it->second;
      const uint32_t expected = pte_refs + (cached != ZramStore::kNoFrame);
      if (!Checked(ref_count == expected)) {
        Fail("swap-slot-refcount",
             "slot " + std::to_string(id) + ": ref_count " +
                 std::to_string(ref_count) + ", but " +
                 std::to_string(pte_refs) + " swap PTE(s) + " +
                 (cached != ZramStore::kNoFrame ? "1" : "0") +
                 " swap-cache reference");
      }
      if (!Checked(expected > 0)) {
        Fail("swap-slot-leak",
             "live slot " + std::to_string(id) +
                 " has no swap PTE and no swap-cache entry");
      }
      if (cached != ZramStore::kNoFrame) {
        // The cached copy must be a live anonymous frame, and the cache's
        // reverse direction (the frame's own record) must agree.
        const bool in_range = cached < in_.phys->total_frames();
        if (!Checked(in_range &&
                     in_.phys->frame(cached).kind == FrameKind::kAnon)) {
          Fail("swap-cache-kind",
               "slot " + std::to_string(id) + " is cached in frame " +
                   std::to_string(cached) + " of kind " +
                   (in_range ? FrameKindName(in_.phys->frame(cached).kind)
                             : "out-of-range"));
        }
        const auto back =
            in_range ? in_.zram->CacheSlotOf(cached) : std::nullopt;
        if (!Checked(back.has_value() && *back == id)) {
          Fail("swap-cache-backpointer",
               "slot " + std::to_string(id) + " caches frame " +
                   std::to_string(cached) +
                   " but the frame index disagrees");
        }
      }
    });
    // PTEs must not reference slots the store does not list as live (the
    // per-PTE pass already flagged dead slots; this catches a map that is
    // internally inconsistent about liveness).
    for (const auto& [slot, refs] : swap_pte_refs_) {
      if (!Checked(in_.zram->SlotLive(slot))) {
        Fail("swap-pte-untracked",
             std::to_string(refs) + " swap PTE(s) reference slot " +
                 std::to_string(slot) + ", which the store has freed");
      }
    }
    if (!Checked(live == in_.zram->live_slots())) {
      Fail("swap-live-count", "live_slots() says " +
                                  std::to_string(in_.zram->live_slots()) +
                                  ", recount found " + std::to_string(live));
    }
    if (!Checked(stored == in_.zram->stored_bytes())) {
      Fail("swap-stored-bytes",
           "stored_bytes() says " + std::to_string(in_.zram->stored_bytes()) +
               ", recount found " + std::to_string(stored));
    }
    const uint64_t pool_needed = (stored + kPageSize - 1) / kPageSize;
    if (!Checked(in_.zram->pool_frame_count() == pool_needed)) {
      Fail("swap-pool-size",
           "pool holds " + std::to_string(in_.zram->pool_frame_count()) +
               " frame(s) for " + std::to_string(stored) +
               " stored bytes (expected " + std::to_string(pool_needed) + ")");
    }
    if (!Checked(in_.zram->pool_frame_count() == zram_frame_count_)) {
      Fail("swap-pool-frames",
           "pool claims " + std::to_string(in_.zram->pool_frame_count()) +
               " frame(s), physical memory holds " +
               std::to_string(zram_frame_count_) + " kZram frame(s)");
    }
    // With swap-cache-backpointer: no frame names a slot that is not its.
    if (!Checked(in_.zram->cached_entries() == swap_cache_frames_.size() &&
                 swap_cache_links_ == swap_cache_frames_.size())) {
      Fail("swap-cache-count",
           "cache count says " + std::to_string(in_.zram->cached_entries()) +
               ", slots list " + std::to_string(swap_cache_frames_.size()) +
               " cached frame(s), " + std::to_string(swap_cache_links_) +
               " frame(s) name a swap-cache slot");
    }
  }

  // -------------------------------------------------------------------
  // Pass 2c: the KSM stable tree against the frames it names.
  // -------------------------------------------------------------------
  void CheckKsm() {
    if (!in_.ksm_audited) {
      return;
    }
    std::unordered_set<FrameNumber> seen;
    for (const auto& [content, frame] : in_.ksm_stable) {
      const std::string node = "stable-tree node (content " +
                               std::to_string(content) + ", frame " +
                               std::to_string(frame) + ")";
      if (!Checked(frame < in_.phys->total_frames())) {
        Fail("ksm-node-range", node + " is beyond physical memory");
        continue;
      }
      const PageFrame& meta = in_.phys->frame(frame);
      if (!Checked(meta.kind == FrameKind::kAnon && meta.ksm_stable)) {
        Fail("ksm-node-frame",
             node + " names a " + FrameKindName(meta.kind) +
                 " frame with ksm_stable=" + std::to_string(meta.ksm_stable));
      }
      if (!Checked(meta.content == content)) {
        Fail("ksm-node-content",
             node + ": the frame's content is " + std::to_string(meta.content));
      }
      if (!Checked(seen.insert(frame).second)) {
        Fail("ksm-node-duplicate", node + ": frame appears under two keys");
      }
    }
    // Together with ksm-node-frame this makes tree <-> frames a bijection:
    // every node names a distinct ksm_stable frame, and the counts match.
    if (!Checked(in_.ksm_stable.size() == ksm_stable_frames_)) {
      Fail("ksm-tree-size",
           "stable tree holds " + std::to_string(in_.ksm_stable.size()) +
               " node(s), physical memory holds " +
               std::to_string(ksm_stable_frames_) + " ksm_stable frame(s)");
    }
  }

  // -------------------------------------------------------------------
  // Pass 2d: NUMA page-table replicas against the masters they mirror.
  // -------------------------------------------------------------------
  void CheckNumaReplicas() {
    if (!in_.numa_audited) {
      return;
    }
    std::unordered_set<uint64_t> seen_nodes;  // (ptp << 8) | node
    for (const AuditReplica& r : in_.replicas) {
      const std::string who = "replica of ptp " + std::to_string(r.ptp) +
                              " on node " + std::to_string(r.node);
      const PageTablePage* master = in_.ptps->GetIfLive(r.ptp);
      if (!Checked(master != nullptr)) {
        Fail("replica-stale", who + " outlives its master PTP");
        continue;
      }
      if (!Checked(seen_nodes
                       .insert((static_cast<uint64_t>(
                                    static_cast<uint32_t>(r.ptp))
                                << 8) |
                               r.node)
                       .second)) {
        Fail("replica-duplicate", who + " appears twice");
      }
      if (!Checked(r.frame < in_.phys->total_frames())) {
        Fail("replica-frame", who + ": frame " + std::to_string(r.frame) +
                                  " is beyond physical memory");
        continue;
      }
      const PageFrame& meta = in_.phys->frame(r.frame);
      if (!Checked(meta.kind == FrameKind::kPageTable &&
                   meta.ref_count == 1)) {
        Fail("replica-frame",
             who + ": frame " + std::to_string(r.frame) + " is " +
                 FrameKindName(meta.kind) + " with ref_count " +
                 std::to_string(meta.ref_count));
      }
      if (!Checked(r.frame != master->frame())) {
        Fail("replica-frame",
             who + " shares frame " + std::to_string(r.frame) +
                 " with its master");
      }
      if (!Checked(in_.phys->NodeOfFrame(r.frame) == r.node)) {
        Fail("replica-node",
             who + ": frame " + std::to_string(r.frame) + " lives on node " +
                 std::to_string(in_.phys->NodeOfFrame(r.frame)));
      }
      if (!Checked(in_.phys->NodeOfFrame(master->frame()) != r.node)) {
        Fail("replica-home",
             who + " duplicates the master's own home node");
      }
      if (!Checked(r.hw_raw.size() == kPtesPerPtp)) {
        Fail("replica-desync",
             who + " snapshots " + std::to_string(r.hw_raw.size()) +
                 " words (expected " + std::to_string(kPtesPerPtp) + ")");
        continue;
      }
      // Write-through coherence: every replica word bit-identical to the
      // master's hardware table.
      for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
        if (!Checked(r.hw_raw[i] == master->hw(i).raw())) {
          Fail("replica-desync",
               who + " index " + std::to_string(i) + ": replica word " +
                   std::to_string(r.hw_raw[i]) + " vs master " +
                   std::to_string(master->hw(i).raw()));
          break;
        }
      }
    }
  }

  // -------------------------------------------------------------------
  // Pass 3: each PTP's sharer list against the L1 entries naming it.
  // -------------------------------------------------------------------
  struct PtpRefs {
    std::vector<const PageTable*> tables;  // audited tables whose L1 names it
    uint32_t need_copy = 0;
    DomainId domain = 0;
    bool domain_mixed = false;
    // Some table names the PTP at a slot other than the one it serves.
    bool off_slot = false;
  };

  // "pid 3, pid 7" for a set of page tables (their owners).
  static std::string Owners(const std::vector<const PageTable*>& tables) {
    std::string out;
    for (const PageTable* table : tables) {
      out += (out.empty() ? "pid " : ", pid ") +
             std::to_string(table->owner());
    }
    return out.empty() ? "none" : out;
  }

  void CheckPtpSharers() {
    std::unordered_map<PtpId, PtpRefs> refs;
    for (const AuditSpace& space : in_.spaces) {
      const PageTable& pt = space.mm->page_table();
      for (uint32_t slot = 0; slot < kUserPtpSlots; ++slot) {
        const L1Entry& entry = pt.l1(slot);
        if (!entry.present()) {
          continue;
        }
        const PageTablePage* ptp = in_.ptps->GetIfLive(entry.ptp);
        if (!Checked(ptp != nullptr)) {
          Fail("l1-dangling", "pid " + std::to_string(space.pid) + " slot " +
                                  std::to_string(slot) +
                                  " references dead ptp " +
                                  std::to_string(entry.ptp));
          continue;
        }
        PtpRefs& r = refs[entry.ptp];
        r.off_slot |= slot != ptp->slot();
        if (r.tables.empty()) {
          r.domain = entry.domain;
        } else if (r.domain != entry.domain) {
          r.domain_mixed = true;
        }
        r.tables.push_back(&pt);
        if (entry.need_copy) {
          r.need_copy++;
        }
      }
    }

    in_.ptps->ForEachLive([&](const PageTablePage& ptp) {
      const auto it = refs.find(ptp.id());
      const PtpRefs r = it == refs.end() ? PtpRefs{} : it->second;
      // The same tables, not only the same number of them — each naming
      // the PTP at the slot it serves (the daemons' shootdowns derive the
      // virtual address from it), listed in ascending pid order (the
      // order oops kills follow).
      const std::vector<const PageTable*>& listed = ptp.sharers();
      const bool in_pid_order = std::is_sorted(
          listed.begin(), listed.end(),
          [](const PageTable* a, const PageTable* b) {
            return a->owner() < b->owner();
          });
      std::vector<const PageTable*> listed_set = listed;
      std::vector<const PageTable*> named_set = r.tables;
      std::sort(listed_set.begin(), listed_set.end());
      std::sort(named_set.begin(), named_set.end());
      if (!Checked(listed_set == named_set && !r.off_slot && in_pid_order)) {
        Fail("ptp-sharers", "ptp " + std::to_string(ptp.id()) + " (slot " +
                                std::to_string(ptp.slot()) +
                                "): sharer list holds " + Owners(listed) +
                                "; L1 entries of " + Owners(r.tables) +
                                " reference it" +
                                (r.off_slot ? ", some at another slot" : ""));
      }
      if (!Checked(!r.tables.empty())) {
        Fail("ptp-orphan", "live ptp " + std::to_string(ptp.id()) +
                               " is referenced by no audited address space");
      }
      // Shared by two or more: every reference must carry NEED_COPY —
      // that flag is the only thing standing between a sharer's write and
      // every other sharer's address space.
      if (r.tables.size() >= 2 && !Checked(r.need_copy == r.tables.size())) {
        Fail("need-copy-missing",
             "ptp " + std::to_string(ptp.id()) + " has " +
                 std::to_string(r.tables.size()) + " sharers but only " +
                 std::to_string(r.need_copy) + " NEED_COPY reference(s)");
      }
      if (!Checked(!r.domain_mixed)) {
        Fail("ptp-domain-mixed", "ptp " + std::to_string(ptp.id()) +
                                     " is referenced under differing domains");
      }
      // A NEED_COPY (COW-shared) PTP must hold no hardware-writable PTE,
      // or a sharer's store would skip the unshare. The hw-L1-write-
      // protect ablation enforces this in the walker instead.
      if (r.need_copy > 0 && !in_.hw_l1_write_protect) {
        for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
          const HwPte& hw = ptp.hw(i);
          if (hw.valid() &&
              !Checked(hw.perm() != PtePerm::kReadWrite)) {
            Fail("need-copy-writable",
                 "ptp " + std::to_string(ptp.id()) + " index " +
                     std::to_string(i) +
                     " is hardware-writable inside a NEED_COPY PTP");
          }
        }
      }
    });
  }

  // -------------------------------------------------------------------
  // Pass 4: per-space task-state consistency (domains, DACR, ASIDs).
  // -------------------------------------------------------------------
  void CheckSpaces() {
    std::unordered_map<uint32_t, Pid> asid_owner;
    for (const AuditSpace& space : in_.spaces) {
      const std::string who = "pid " + std::to_string(space.pid);
      if (!Checked(space.mm != nullptr)) {
        Fail("space-no-mm", who + " audited without an address space");
        continue;
      }
      const auto [it, fresh] = asid_owner.emplace(space.asid, space.pid);
      if (!Checked(fresh)) {
        Fail("asid-duplicate", who + " and pid " + std::to_string(it->second) +
                                   " both hold ASID " +
                                   std::to_string(space.asid));
      }
      if (!Checked(space.asid != 0)) {
        Fail("asid-zero", who + " holds the reserved ASID 0");
      }

      // The zygote triple: flag, DACR grant, and user-domain assignment
      // stand or fall together (Section 3.2.2).
      const bool grants_zygote =
          space.dacr.Get(kDomainZygote) == DomainAccess::kClient;
      const bool in_zygote_domain =
          space.mm->user_domain() == kDomainZygote;
      if (!Checked(space.zygote_like == grants_zygote)) {
        Fail("dacr-zygote", who + (space.zygote_like
                                       ? " is zygote-like without DACR access "
                                         "to the zygote domain"
                                       : " has DACR access to the zygote "
                                         "domain without being zygote-like"));
      }
      if (!Checked(space.zygote_like == in_zygote_domain)) {
        Fail("domain-zygote",
             who + ": zygote_like=" + std::to_string(space.zygote_like) +
                 " but user domain is " +
                 std::to_string(space.mm->user_domain()));
      }
      if (!Checked(space.dacr.Get(kDomainKernel) == DomainAccess::kClient &&
                   space.dacr.Get(kDomainUser) == DomainAccess::kClient)) {
        Fail("dacr-base", who + " lost client access to the kernel or user "
                                "domain (DACR " +
                              space.dacr.ToString() + ")");
      }

      const PageTable& pt = space.mm->page_table();
      for (uint32_t slot = 0; slot < kUserPtpSlots; ++slot) {
        const L1Entry& entry = pt.l1(slot);
        // Exit, fork and the RSS sum visit only used slots, so a filled
        // slot without its bit would leak or go uncopied. Extra bits are
        // legal. The mask is host-side bookkeeping with no simulated
        // counterpart, so this check adds nothing to `checks`, a figure
        // of the simulated state that the bench results record.
        if ((entry.present() || entry.any_section()) && !pt.SlotUsed(slot)) {
          Fail("l1-used-mask", who + " slot " + std::to_string(slot) +
                                   " holds a " +
                                   (entry.present() ? "PTP" : "section") +
                                   " but its used bit is clear");
        }
        if (entry.present() &&
            !Checked(entry.domain == space.mm->user_domain())) {
          Fail("l1-domain", who + " slot " + std::to_string(slot) +
                                " is in domain " +
                                std::to_string(entry.domain) +
                                " but the space's user domain is " +
                                std::to_string(space.mm->user_domain()));
        }
        for (uint32_t half = 0; half < 2; ++half) {
          const SectionDesc& section = entry.section[half];
          if (!section.present()) {
            continue;
          }
          const VirtAddr section_va = static_cast<VirtAddr>(
              PtpSlotBase(slot) + half * kSectionSize);
          const std::string where =
              who + " section at va " + std::to_string(section_va);
          if (!Checked(section.base % kPtesPerSection == 0) ||
              !Checked(static_cast<uint64_t>(section.base) + kPtesPerSection <=
                       in_.phys->total_frames())) {
            Fail("section-base", where + ": base frame " +
                                     std::to_string(section.base) +
                                     " misaligned or out of range");
            continue;
          }
          // Sections map permanent kernel-owned frames only; they carry
          // no references, so anything reclaimable underneath would be a
          // use-after-free waiting to happen.
          for (uint32_t i = 0; i < kPtesPerSection; ++i) {
            if (!Checked(in_.phys->frame(section.base + i).kind ==
                         FrameKind::kKernel)) {
              Fail("section-frame-kind",
                   where + ": frame " + std::to_string(section.base + i) +
                       " is not a kernel frame");
              break;
            }
          }
          // No valid PTE may hide under a live section: the walker never
          // reaches the second level there, so such a PTE would pin its
          // frame invisibly forever.
          if (entry.present()) {
            for (uint32_t i = 0; i < kPtesPerSection; ++i) {
              const auto ref =
                  pt.FindPte(section_va + i * kPageSize);
              if (ref.has_value() &&
                  !Checked(!ref->ptp->hw(ref->index).valid())) {
                Fail("section-shadowed-pte",
                     where + ": valid PTE at index " +
                         std::to_string(ref->index) +
                         " hides under the section");
                break;
              }
            }
          }
        }
      }
    }
  }

  // -------------------------------------------------------------------
  // Pass 5: every valid TLB entry against the page tables it caches.
  // -------------------------------------------------------------------
  void CheckTlb() {
    std::unordered_map<uint32_t, const AuditSpace*> by_asid;
    for (const AuditSpace& space : in_.spaces) {
      by_asid.emplace(space.asid, &space);
    }

    for (const AuditTlbEntry& snap : in_.tlb_entries) {
      const TlbEntry& e = snap.entry;
      if (!e.valid) {
        continue;
      }
      const std::string where = std::string(snap.which) + " TLB of core " +
                                std::to_string(snap.core) + ", vpn " +
                                std::to_string(e.vpn);
      if (!Checked(e.size_pages == 1 || e.size_pages == 16 ||
                   e.size_pages == kPtesPerSection) ||
          !Checked(e.vpn % e.size_pages == 0)) {
        Fail("tlb-geometry", where + ": size_pages " +
                                 std::to_string(e.size_pages) +
                                 " / misaligned base");
        continue;
      }
      // Under the batched shootdown policy an entry may disagree with the
      // page tables while a covering flush sits undelivered in a pending
      // queue — the kernel has issued the invalidation, the IPI just has
      // not fired yet. Such entries are exempt from the staleness checks.
      if (PendingFlushCovers(snap.core, e)) {
        Checked(true);
        continue;
      }
      const VirtAddr va = e.vpn << kPageShift;
      if (e.global) {
        // Only zygote-preloaded shared code is ever marked global, and it
        // lives in the zygote domain — that is the whole protection story.
        if (!Checked(e.domain == kDomainZygote)) {
          Fail("tlb-global-domain",
               where + ": global entry in domain " + std::to_string(e.domain));
        }
        // A global entry may outlive its sharers, never its frame: each
        // frame it names must still hold shared code, in the page cache
        // (a permanent kernel frame under a 1 MB section).
        const FrameKind code = e.size_pages == kPtesPerSection
                                   ? FrameKind::kKernel
                                   : FrameKind::kFileCache;
        const uint64_t end = uint64_t{e.frame} + e.size_pages;
        uint64_t f = e.frame;
        while (f < end && f < in_.phys->total_frames() &&
               in_.phys->frame(static_cast<FrameNumber>(f)).kind == code) {
          f++;
        }
        if (!Checked(f == end)) {
          Fail("tlb-global-frame", where + ": frame " + std::to_string(f) +
                                       " is not a " + FrameKindName(code) +
                                       " frame");
        }
        // A global entry left behind by exited sharers is legal (domains
        // quarantine it); one that *contradicts* a live sharer's page
        // table is not.
        bool any_backing = false;
        bool any_match = false;
        for (const AuditSpace& space : in_.spaces) {
          if (!space.zygote_like) {
            continue;
          }
          if (e.size_pages == kPtesPerSection) {
            // A section entry is backed by a first-level descriptor, not
            // a PTE.
            const SectionDesc* section = space.mm->page_table().SectionAt(va);
            if (section == nullptr) {
              continue;
            }
            any_backing = true;
            if (EntryMatchesSection(e, *section)) {
              any_match = true;
              break;
            }
            continue;
          }
          const HwPte* hw = HwPteAt(space, va);
          if (hw == nullptr) {
            continue;
          }
          any_backing = true;
          if (EntryMatchesPte(e, *hw)) {
            any_match = true;
            break;
          }
        }
        if (any_backing && !Checked(any_match)) {
          Fail("tlb-global-mismatch",
               where + ": global entry matches no zygote-like space's "
                       "current PTE");
        }
        continue;
      }

      const auto it = by_asid.find(e.asid);
      if (!Checked(it != by_asid.end())) {
        Fail("tlb-stale-asid", where + ": entry for ASID " +
                                   std::to_string(e.asid) +
                                   ", which no live task holds");
        continue;
      }
      const AuditSpace& space = *it->second;
      if (e.size_pages == kPtesPerSection) {
        const SectionDesc* section = space.mm->page_table().SectionAt(va);
        if (!Checked(section != nullptr)) {
          Fail("tlb-section-unbacked",
               where + ": section entry with no section descriptor at va " +
                   std::to_string(va) + " in pid " +
                   std::to_string(space.pid));
          continue;
        }
        if (!EntryMatchesSection(e, *section)) {
          Fail("tlb-section-mismatch",
               where + ": section entry (frame " + std::to_string(e.frame) +
                   ") contradicts the first-level descriptor (base " +
                   std::to_string(section->base) + ")");
        }
        const L1Entry& sl1 = space.mm->page_table().l1(PtpSlotIndex(va));
        if (!Checked(e.domain == sl1.domain)) {
          Fail("tlb-domain", where + ": entry domain " +
                                 std::to_string(e.domain) +
                                 " vs first-level domain " +
                                 std::to_string(sl1.domain));
        }
        continue;
      }
      // A smaller entry must not shadow a live section: the walker serves
      // the section, so a 4 KB/64 KB entry for the same range is a relic
      // of a mapping the section replaced.
      if (!Checked(space.mm->page_table().SectionAt(va) == nullptr)) {
        Fail("tlb-shadows-section",
             where + ": " + std::to_string(e.size_pages) +
                 "-page entry shadows a live 1 MB section");
        continue;
      }
      const HwPte* hw = HwPteAt(space, va);
      if (!Checked(hw != nullptr)) {
        Fail("tlb-unbacked", where + ": no valid PTE at va " +
                                 std::to_string(va) + " in pid " +
                                 std::to_string(space.pid));
        continue;
      }
      // The explicit no-shadowing invariant: a 4 KB entry whose backing
      // PTE is (now) a large replica is stale — promotion flushed the run,
      // so one that survived would double-translate the block.
      if (e.size_pages == 1 && hw->large()) {
        Fail("tlb-shadows-large",
             where + ": 4 KB entry shadows a live 64 KB large PTE");
        continue;
      }
      if (!EntryMatchesPte(e, *hw)) {
        Fail("tlb-pte-mismatch",
             where + ": entry (frame " + std::to_string(e.frame) +
                 ", size " + std::to_string(e.size_pages) + ", perm " +
                 std::to_string(static_cast<int>(e.perm)) +
                 ") contradicts PTE " + hw->ToString());
      }
      const L1Entry& l1 = space.mm->page_table().l1(PtpSlotIndex(va));
      if (!Checked(l1.present() && e.domain == l1.domain)) {
        Fail("tlb-domain", where + ": entry domain " +
                               std::to_string(e.domain) +
                               " vs first-level domain " +
                               std::to_string(l1.domain));
      }
    }
  }

  // Does an undelivered pending flush targeting `core` cover this entry?
  bool PendingFlushCovers(uint32_t core, const TlbEntry& e) const {
    for (const PendingFlush& p : in_.pending_flushes) {
      if ((p.mask & (uint64_t{1} << core)) != 0 && p.flush.Covers(e)) {
        return true;
      }
    }
    return false;
  }

  // The valid hardware PTE backing `va` in `space`, or nullptr.
  static const HwPte* HwPteAt(const AuditSpace& space, VirtAddr va) {
    const auto ref = space.mm->page_table().FindPte(va);
    if (!ref.has_value() || !ref->ptp->hw(ref->index).valid()) {
      return nullptr;
    }
    return &ref->ptp->hw(ref->index);
  }

  // Does the current PTE justify this TLB entry? The entry must name the
  // right frame and granularity and must not grant rights the PTE lacks
  // (equal-or-weaker permissions are fine: a benignly stale read-only
  // entry after a COW upgrade only causes an extra fault).
  // Does the first-level descriptor justify this section entry? Sections
  // are read-only by construction, so the permission bound is fixed.
  bool EntryMatchesSection(const TlbEntry& e, const SectionDesc& s) {
    const bool frame_ok = Checked(e.frame == s.base);
    const bool perm_ok = Checked(static_cast<uint8_t>(e.perm) <=
                                 static_cast<uint8_t>(PtePerm::kReadOnly));
    const bool exec_ok = Checked(!e.executable || s.executable);
    const bool global_ok = Checked(e.global == s.global);
    return frame_ok && perm_ok && exec_ok && global_ok;
  }

  bool EntryMatchesPte(const TlbEntry& e, const HwPte& hw) {
    const bool size_ok =
        Checked((e.size_pages == 16) == hw.large());
    const bool frame_ok =
        Checked(e.size_pages == 16
                    ? e.frame == hw.frame()
                    : e.frame == MappedFrameOf(hw, PteIndexInPtp(
                                                       e.vpn << kPageShift)));
    const bool perm_ok = Checked(static_cast<uint8_t>(e.perm) <=
                                 static_cast<uint8_t>(hw.perm()));
    const bool exec_ok = Checked(!e.executable || hw.executable());
    return size_ok && frame_ok && perm_ok && exec_ok;
  }

  const AuditInput& in_;
  AuditReport report_;
  // PTE mappings per frame, recounted from the raw descriptors.
  std::vector<uint32_t> pte_maps_;
  // Swap PTE references per slot, recounted in pass 1.
  std::unordered_map<SwapSlotId, uint32_t> swap_pte_refs_;
  // frame -> slot snapshot of the swap cache (pass 0).
  std::unordered_map<FrameNumber, SwapSlotId> swap_cache_frames_;
  // Frames whose record names a swap-cache slot, seen in pass 2.
  uint64_t swap_cache_links_ = 0;
  // kZram frames seen in pass 2, and frames per LRU list.
  uint64_t zram_frame_count_ = 0;
  uint64_t lru_counts_[4] = {};
  // ksm_stable frames seen in pass 2 (for the tree-size cross-check).
  uint64_t ksm_stable_frames_ = 0;
};

}  // namespace

std::string AuditReport::ToString() const {
  std::ostringstream os;
  os << "audit: " << violations.size() << " violation(s) over " << checks
     << " checks";
  for (const AuditViolation& v : violations) {
    os << "\n  [" << v.check << "] " << v.detail;
  }
  return os.str();
}

AuditReport AuditInvariants(const AuditInput& input) {
  return Auditor(input).Run();
}

}  // namespace sat
