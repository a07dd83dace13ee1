#include "src/vm/mm.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/arch/check.h"

namespace sat {

namespace {

// Index of the first region ending above `va`. The list is sorted and
// non-overlapping, so region ends ascend with their starts.
size_t FirstEndingAbove(const std::vector<VmArea>& vmas, VirtAddr va) {
  return static_cast<size_t>(
      std::partition_point(vmas.begin(), vmas.end(),
                           [va](const VmArea& vma) { return vma.end <= va; }) -
      vmas.begin());
}

// Index of the first region starting at or above `va`.
size_t FirstStartingAtOrAbove(const std::vector<VmArea>& vmas, VirtAddr va) {
  return static_cast<size_t>(
      std::partition_point(vmas.begin(), vmas.end(),
                           [va](const VmArea& vma) { return vma.start < va; }) -
      vmas.begin());
}

}  // namespace

const VmArea* MmStruct::FindVma(VirtAddr va) const {
  const size_t i = FirstEndingAbove(vmas_, va);
  return i < vmas_.size() && vmas_[i].start <= va ? &vmas_[i] : nullptr;
}

void MmStruct::InsertVma(VmArea vma) {
  SAT_CHECK(IsPageAligned(vma.start) && IsPageAligned(vma.end));
  SAT_CHECK(vma.start < vma.end);
  SAT_CHECK(vma.end <= kUserSpaceEnd);
  // Overlap check against neighbours.
  const size_t next = FirstStartingAtOrAbove(vmas_, vma.start);
  if (next < vmas_.size()) {
    SAT_CHECK(vmas_[next].start >= vma.end && "overlapping vma insert");
  }
  if (next > 0) {
    SAT_CHECK(vmas_[next - 1].end <= vma.start && "overlapping vma insert");
  }
  vmas_.insert(vmas_.begin() + static_cast<std::ptrdiff_t>(next),
               std::move(vma));
}

void MmStruct::InheritVmas(const MmStruct& parent) {
  SAT_CHECK(vmas_.empty() && "fork into a populated address space");
  // A child maps a few regions of its own soon after fork (heap, app
  // code). Room for them keeps its first mmap from doubling the whole
  // list, which would leave a hole in the host heap per fork.
  constexpr size_t kRoomAfterFork = 16;
  vmas_.reserve(parent.vmas_.size() + kRoomAfterFork);
  vmas_.assign(parent.vmas_.begin(), parent.vmas_.end());
  for (VmArea& vma : vmas_) {
    vma.inherited = true;
  }
}

std::vector<VmArea> MmStruct::RemoveRange(VirtAddr start, VirtAddr end) {
  assert(IsPageAligned(start) && IsPageAligned(end) && start < end);
  const std::span<const VmArea> run = VmasOverlapping(start, end);
  std::vector<VmArea> removed;
  if (run.empty()) {
    return removed;
  }
  removed.reserve(run.size());
  for (const VmArea& vma : run) {
    VmArea middle = vma;
    middle.start = std::max(vma.start, start);
    middle.end = std::min(vma.end, end);
    if (IsFileBacked(middle.kind)) {
      middle.file_page_offset = vma.FilePageFor(middle.start);
    }
    removed.push_back(std::move(middle));
  }

  // The regions at either end of the run may stick out of the range; their
  // outer parts stay.
  VmArea left = run.front();
  VmArea right = run.back();
  const bool keep_left = left.start < start;
  const bool keep_right = right.end > end;
  const auto first = vmas_.begin() + (run.data() - vmas_.data());
  auto it = vmas_.erase(first, first + static_cast<std::ptrdiff_t>(run.size()));
  if (keep_right) {
    if (IsFileBacked(right.kind)) {
      right.file_page_offset = right.FilePageFor(end);
    }
    right.start = end;
    it = vmas_.insert(it, std::move(right));
  }
  if (keep_left) {
    left.end = start;
    vmas_.insert(it, std::move(left));
  }
  return removed;
}

std::span<const VmArea> MmStruct::VmasOverlapping(VirtAddr start,
                                                  VirtAddr end) const {
  const size_t first = FirstEndingAbove(vmas_, start);
  const size_t last = FirstStartingAtOrAbove(vmas_, end);
  return std::span<const VmArea>(vmas_).subspan(
      first, last > first ? last - first : 0);
}

std::span<const VmArea> MmStruct::VmasInSlot(uint32_t slot) const {
  const VirtAddr base = PtpSlotBase(slot);
  return VmasOverlapping(base, base + kPtpSpan);
}

std::optional<VirtAddr> MmStruct::FindFreeRange(uint32_t length, VirtAddr low,
                                                VirtAddr high) const {
  assert(IsPageAligned(length) && length > 0);
  VirtAddr candidate = low;
  size_t i = FirstEndingAbove(vmas_, low);
  if (i < vmas_.size() && vmas_[i].start <= low) {
    candidate = vmas_[i].end;  // `low` itself is mapped
    ++i;
  }
  for (; i < vmas_.size() && candidate + length <= high; ++i) {
    const VmArea& vma = vmas_[i];
    if (vma.start >= candidate && vma.start - candidate >= length) {
      return candidate;
    }
    if (vma.end > candidate) {
      candidate = vma.end;
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
    const VirtAddr next = overlapping.back().end;
    candidate = (next + mask) & ~mask;
    if (candidate == 0) {
      break;  // wrapped
    }
  }
  return std::nullopt;
}

uint64_t MmStruct::MappedBytes() const {
  uint64_t total = 0;
  for (const VmArea& vma : vmas_) {
    total += vma.end - vma.start;
  }
  return total;
}

}  // namespace sat
