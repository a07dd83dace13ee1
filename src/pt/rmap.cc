#include "src/pt/rmap.h"

#include <algorithm>

namespace sat {

void ReverseMap::Add(FrameNumber frame, PtpId ptp, uint32_t index) {
  if (frame >= by_frame_.size()) {
    by_frame_.resize(static_cast<size_t>(frame) + 1);
  }
  by_frame_[frame].push_back(RmapEntry{ptp, static_cast<uint16_t>(index)});
  total_entries_++;
}

bool ReverseMap::Remove(FrameNumber frame, PtpId ptp, uint32_t index) {
  if (frame >= by_frame_.size()) {
    return false;
  }
  std::vector<RmapEntry>& entries = by_frame_[frame];
  const auto match = std::find(entries.begin(), entries.end(),
                               RmapEntry{ptp, static_cast<uint16_t>(index)});
  if (match == entries.end()) {
    return false;
  }
  entries.erase(match);
  total_entries_--;
  return true;
}

bool ReverseMap::HasSite(FrameNumber frame, PtpId ptp, uint32_t index) const {
  const std::span<const RmapEntry> entries = Mappings(frame);
  return std::ranges::find(entries,
                           RmapEntry{ptp, static_cast<uint16_t>(index)}) !=
         entries.end();
}

std::optional<FrameNumber> ReverseMap::FindAtSite(PtpId ptp,
                                                  uint32_t index) const {
  const RmapEntry site{ptp, static_cast<uint16_t>(index)};
  for (FrameNumber frame = 0; frame < by_frame_.size(); ++frame) {
    if (std::ranges::find(by_frame_[frame], site) != by_frame_[frame].end()) {
      return frame;
    }
  }
  return std::nullopt;
}

}  // namespace sat
