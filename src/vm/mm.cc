#include "src/vm/mm.h"

#include <cassert>
#include <utility>

#include "src/arch/check.h"

namespace sat {

const VmArea* MmStruct::FindVma(VirtAddr va) const {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) {
    return nullptr;
  }
  --it;
  return it->second.Contains(va) ? &it->second : nullptr;
}

void MmStruct::InsertVma(VmArea vma) {
  SAT_CHECK(IsPageAligned(vma.start) && IsPageAligned(vma.end));
  SAT_CHECK(vma.start < vma.end);
  SAT_CHECK(vma.end <= kUserSpaceEnd);
  // Overlap check against neighbours.
  auto next = vmas_.lower_bound(vma.start);
  if (next != vmas_.end()) {
    SAT_CHECK(next->second.start >= vma.end && "overlapping vma insert");
  }
  if (next != vmas_.begin()) {
    auto prev = std::prev(next);
    SAT_CHECK(prev->second.end <= vma.start && "overlapping vma insert");
  }
  const VirtAddr start = vma.start;
  vmas_.emplace(start, std::move(vma));
}

std::vector<VmArea> MmStruct::RemoveRange(VirtAddr start, VirtAddr end) {
  assert(IsPageAligned(start) && IsPageAligned(end) && start < end);
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

    // Left remainder.
    if (original.start < start) {
      VmArea left = original;
      left.end = start;
      vmas_.emplace(left.start, left);
    }
    // Right remainder.
    if (original.end > end) {
      VmArea right = original;
      right.start = end;
      if (IsFileBacked(right.kind)) {
        right.file_page_offset =
            original.file_page_offset + ((end - original.start) >> kPageShift);
      }
      it = vmas_.emplace(right.start, right).first;
      ++it;
    }
    // The removed middle.
    VmArea middle = original;
    middle.start = std::max(original.start, start);
    middle.end = std::min(original.end, end);
    if (IsFileBacked(middle.kind)) {
      middle.file_page_offset =
          original.file_page_offset + ((middle.start - original.start) >> kPageShift);
    }
    removed.push_back(std::move(middle));
  }
  return removed;
}

std::vector<const VmArea*> MmStruct::VmasOverlapping(VirtAddr start,
                                                     VirtAddr end) const {
  std::vector<const VmArea*> out;
  auto it = vmas_.upper_bound(start);
  if (it != vmas_.begin()) {
    --it;
  }
  for (; it != vmas_.end() && it->second.start < end; ++it) {
    if (it->second.Overlaps(start, end)) {
      out.push_back(&it->second);
    }
  }
  return out;
}

std::vector<const VmArea*> MmStruct::VmasInSlot(uint32_t slot) const {
  const VirtAddr base = PtpSlotBase(slot);
  return VmasOverlapping(base, base + kPtpSpan);
}

std::optional<VirtAddr> MmStruct::FindFreeRange(uint32_t length, VirtAddr low,
                                                VirtAddr high) const {
  assert(IsPageAligned(length) && length > 0);
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

std::optional<VirtAddr> MmStruct::FindFreeRangeAligned(uint32_t length,
                                                       uint32_t alignment,
                                                       VirtAddr low,
                                                       VirtAddr high) const {
  assert(alignment >= kPageSize && (alignment & (alignment - 1)) == 0);
  const VirtAddr mask = alignment - 1;
  VirtAddr candidate = (low + mask) & ~mask;
  while (candidate + length <= high) {
    const auto overlapping = VmasOverlapping(candidate, candidate + length);
    if (overlapping.empty()) {
      return candidate;
    }
    // Jump past the last overlapping region and re-align.
    const VirtAddr next = overlapping.back()->end;
    candidate = (next + mask) & ~mask;
    if (candidate == 0) {
      break;  // wrapped
    }
  }
  return std::nullopt;
}

void MmStruct::ForEachVma(const std::function<void(const VmArea&)>& fn) const {
  for (const auto& [start, vma] : vmas_) {
    fn(vma);
  }
}

uint64_t MmStruct::MappedBytes() const {
  uint64_t total = 0;
  for (const auto& [start, vma] : vmas_) {
    total += vma.end - vma.start;
  }
  return total;
}

}  // namespace sat
