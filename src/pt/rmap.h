// Reverse mapping: frame -> the page-table entries mapping it (the
// analogue of Linux's rmap, which page reclaim uses to unmap a victim
// page from every address space).
//
// The unit of an rmap entry is a *PTE in a PTP*, not a process. That is
// the point: when a PTP is shared by N processes, the frame has ONE rmap
// entry for it, and one PTE clear unmaps the page from all N sharers at
// once. Under the stock kernel the same page costs N entries and N
// clears. bench_reclaim measures exactly this (the introduction's
// "overhead grows linearly with the number of processes" claim, from the
// reclaim side).
//
// Each frame's mappings live in a list indexed by frame number, as Linux
// hangs them off the frame's `struct page`. The index grows to the
// highest frame ever mapped, so the map needs no PhysicalMemory.

#ifndef SRC_PT_RMAP_H_
#define SRC_PT_RMAP_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/arch/pte.h"
#include "src/arch/types.h"

namespace sat {

// The mapped virtual address is the PTP's (PageTablePage::VaOf): every
// sharer maps a PTP at the same slot.
struct RmapEntry {
  PtpId ptp = kNoPtp;
  uint16_t index = 0;   // PTE index within the PTP

  bool operator==(const RmapEntry&) const = default;
};

class ReverseMap {
 public:
  ReverseMap() = default;

  ReverseMap(const ReverseMap&) = delete;
  ReverseMap& operator=(const ReverseMap&) = delete;

  void Add(FrameNumber frame, PtpId ptp, uint32_t index);

  // Removes one (ptp, index) mapping of `frame`. Returns whether an entry
  // was actually there — false is the O(1) tell that the PTE's frame bits
  // and the rmap disagree (corruption), since every legal teardown removes
  // an entry its install added.
  bool Remove(FrameNumber frame, PtpId ptp, uint32_t index);

  // Number of PTEs mapping `frame` (NOT the number of processes — a
  // shared PTP contributes one).
  uint32_t MapCount(FrameNumber frame) const {
    return static_cast<uint32_t>(Mappings(frame).size());
  }

  // Every mapping of `frame`, oldest first. Reclaim, swap-out and ksmd
  // shoot down in this order. The span is valid until the next Add or
  // Remove on `frame`, so a walker that unmaps as it goes copies it first.
  std::span<const RmapEntry> Mappings(FrameNumber frame) const {
    return frame < by_frame_.size() ? std::span(by_frame_[frame])
                                    : std::span<const RmapEntry>();
  }

  // Does the rmap record `frame` as mapped at (ptp, index)? The cross-check
  // that vets a suspect descriptor's frame bits.
  bool HasSite(FrameNumber frame, PtpId ptp, uint32_t index) const;

  // Which frame does the rmap believe is mapped at (ptp, index)? Linear
  // scan over all frames, lowest first — only used by scrub repair and
  // rotted-descriptor teardown, where the hardware PTE's frame bits are
  // suspect and the rmap is the surviving copy of the truth. Returns
  // nullopt when no entry names the site.
  std::optional<FrameNumber> FindAtSite(PtpId ptp, uint32_t index) const;

  uint64_t total_entries() const { return total_entries_; }

 private:
  std::vector<std::vector<RmapEntry>> by_frame_;
  uint64_t total_entries_ = 0;
};

}  // namespace sat

#endif  // SRC_PT_RMAP_H_
