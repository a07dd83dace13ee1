#include "src/pt/rmap.h"

#include <algorithm>
#include <cassert>

namespace sat {

void ReverseMap::Add(FrameNumber frame, PtpId ptp, uint32_t index) {
  map_[frame].push_back(RmapEntry{ptp, static_cast<uint16_t>(index)});
  total_entries_++;
}

bool ReverseMap::Remove(FrameNumber frame, PtpId ptp, uint32_t index) {
  const auto it = map_.find(frame);
  if (it == map_.end()) {
    return false;
  }
  auto& entries = it->second;
  const auto match = std::find_if(
      entries.begin(), entries.end(), [&](const RmapEntry& entry) {
        return entry.ptp == ptp && entry.index == index;
      });
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

uint32_t ReverseMap::MapCount(FrameNumber frame) const {
  const auto it = map_.find(frame);
  return it == map_.end() ? 0 : static_cast<uint32_t>(it->second.size());
}

void ReverseMap::ForEach(
    FrameNumber frame, const std::function<void(const RmapEntry&)>& fn) const {
  const auto it = map_.find(frame);
  if (it == map_.end()) {
    return;
  }
  for (const RmapEntry& entry : it->second) {
    fn(entry);
  }
}

std::vector<RmapEntry> ReverseMap::MappingsOf(FrameNumber frame) const {
  const auto it = map_.find(frame);
  return it == map_.end() ? std::vector<RmapEntry>{} : it->second;
}

bool ReverseMap::HasSite(FrameNumber frame, PtpId ptp, uint32_t index) const {
  const auto it = map_.find(frame);
  return it != map_.end() &&
         std::find(it->second.begin(), it->second.end(),
                   RmapEntry{ptp, static_cast<uint16_t>(index)}) !=
             it->second.end();
}

std::optional<FrameNumber> ReverseMap::FindAtSite(PtpId ptp,
                                                  uint32_t index) const {
  for (const auto& [frame, entries] : map_) {
    for (const RmapEntry& entry : entries) {
      if (entry.ptp == ptp && entry.index == index) {
        return frame;
      }
    }
  }
  return std::nullopt;
}

}  // namespace sat
