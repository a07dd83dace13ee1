#include "src/mem/phys_memory.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "src/arch/check.h"
#include "src/mem/fault_injector.h"

namespace sat {

PhysicalMemory::PhysicalMemory(uint64_t size_bytes, uint32_t num_nodes)
    : num_nodes_(num_nodes) {
  assert(size_bytes % kPageSize == 0 && "physical memory must be page-sized");
  const uint64_t n = size_bytes / kPageSize;
  assert(n >= 2 && "need at least a zero frame and one usable frame");
  SAT_CHECK(num_nodes >= 1 && "at least one NUMA node");
  frames_.resize(n);
  free_listed_.assign(n, false);
  frames_per_node_ = (n + num_nodes - 1) / num_nodes;
  SAT_CHECK(frames_per_node_ >= 1 && "more NUMA nodes than frames");
  free_lists_.resize(num_nodes);
  // Push high frames first so low frame numbers are handed out first
  // (within each node), which keeps test expectations simple and
  // deterministic. On a single-node machine this is the classic global
  // free list, bit for bit.
  free_count_per_node_.assign(num_nodes, 0);
  for (uint64_t i = n; i-- > 1;) {
    const uint32_t node = NodeOfFrame(static_cast<FrameNumber>(i));
    free_lists_[node].push_back(static_cast<FrameNumber>(i));
    free_listed_[i] = true;
    free_count_per_node_[node]++;
  }
  free_count_ = n - 1;
  // Frame 0 is the permanent shared zero page.
  zero_frame_ = 0;
  frames_[0].kind = FrameKind::kZero;
  frames_[0].ref_count = 1;
}

std::optional<FrameNumber> PhysicalMemory::PopFreeFrame(uint32_t node) {
  std::vector<FrameNumber>& free_list = free_lists_[node];
  // Drop entries claimed out-of-band by TryAllocContiguousFrames.
  while (!free_list.empty() &&
         frames_[free_list.back()].kind != FrameKind::kFree) {
    free_listed_[free_list.back()] = false;
    free_list.pop_back();
  }
  if (free_list.empty()) {
    return std::nullopt;
  }
  const FrameNumber number = free_list.back();
  free_list.pop_back();
  free_listed_[number] = false;
  return number;
}

std::optional<FrameNumber> PhysicalMemory::TryAllocFrame(FrameKind kind) {
  SAT_CHECK(kind != FrameKind::kFree && kind != FrameKind::kZero &&
            kind != FrameKind::kQuarantined);
  if (injector_ != nullptr) {
    const AllocSite site = kind == FrameKind::kPageTable ? AllocSite::kPtp
                           : kind == FrameKind::kZram    ? AllocSite::kZram
                                                         : AllocSite::kFrame;
    if (injector_->ShouldFail(site)) {
      return std::nullopt;
    }
  }
  // First-touch placement: the preferred node first, then the others in
  // ascending order (an off-node fallback beats an allocation failure).
  const uint32_t wanted = preferred_node_ < num_nodes_ ? preferred_node_ : 0;
  std::optional<FrameNumber> popped = PopFreeFrame(wanted);
  for (uint32_t node = 0; !popped.has_value() && node < num_nodes_; ++node) {
    if (node == preferred_node_) {
      continue;
    }
    popped = PopFreeFrame(node);
    if (popped.has_value()) {
      numa_fallbacks_++;
    }
  }
  if (!popped.has_value()) {
    return std::nullopt;
  }
  FinishAlloc(*popped, kind);
  return *popped;
}

std::optional<FrameNumber> PhysicalMemory::TryAllocFrameOnNode(
    uint32_t node, FrameKind kind) {
  SAT_CHECK(node < num_nodes_);
  SAT_CHECK(kind != FrameKind::kFree && kind != FrameKind::kZero &&
            kind != FrameKind::kQuarantined);
  if (injector_ != nullptr) {
    const AllocSite site = kind == FrameKind::kPageTable ? AllocSite::kPtp
                           : kind == FrameKind::kZram    ? AllocSite::kZram
                                                         : AllocSite::kFrame;
    if (injector_->ShouldFail(site)) {
      return std::nullopt;
    }
  }
  const std::optional<FrameNumber> popped = PopFreeFrame(node);
  if (!popped.has_value()) {
    return std::nullopt;  // node-strict: exhaustion here never goes remote
  }
  FinishAlloc(*popped, kind);
  return *popped;
}

void PhysicalMemory::FinishAlloc(FrameNumber number, FrameKind kind) {
  free_count_--;
  free_count_per_node_[NodeOfFrame(number)]--;
  frames_[number] = PageFrame{.ref_count = 1, .kind = kind};
  for (FrameLifecycleObserver* observer : observers_) {
    observer->OnFrameAllocated(number, kind);
  }
}

std::optional<FrameNumber> PhysicalMemory::TryAllocContiguousFrames(
    uint32_t count, FrameKind kind) {
  SAT_CHECK(count > 0 && (count & (count - 1)) == 0 &&
            "count must be a power of two");
  SAT_CHECK(kind != FrameKind::kFree && kind != FrameKind::kZero &&
            kind != FrameKind::kQuarantined);
  if (injector_ != nullptr &&
      injector_->ShouldFail(AllocSite::kContiguous)) {
    return std::nullopt;
  }
  const auto claim_run = [this, count, kind](FrameNumber base) {
    for (uint32_t i = 0; i < count; ++i) {
      frames_[base + i] = PageFrame{.ref_count = 1, .kind = kind};
      free_count_per_node_[NodeOfFrame(base + i)]--;
      // Remove from the free list lazily: TryAllocFrame skips non-free
      // entries it pops.
      for (FrameLifecycleObserver* observer : observers_) {
        observer->OnFrameAllocated(base + i, kind);
      }
    }
    free_count_ -= count;
  };
  // Node-preferred pass (huged's migration-collapse wants its 64 KB run on
  // the faulting core's node): naturally aligned candidates fully inside
  // the preferred node's frame range.
  if (num_nodes_ > 1) {
    const uint32_t wanted = preferred_node_ < num_nodes_ ? preferred_node_ : 0;
    const uint64_t node_begin = wanted * frames_per_node_;
    const uint64_t node_end =
        std::min<uint64_t>(node_begin + frames_per_node_, frames_.size());
    // Round up to natural alignment; frame 0 is the zero page.
    uint64_t base = std::max<uint64_t>(node_begin, count);
    base = (base + count - 1) / count * count;
    for (; base + count <= node_end; base += count) {
      if (RunIsFree(base, count)) {
        claim_run(static_cast<FrameNumber>(base));
        return static_cast<FrameNumber>(base);
      }
    }
  }
  // Global first-fit scan over naturally aligned candidate runs. Frame 0
  // is the zero page, so candidates start at `count`.
  for (uint64_t base = count; base + count <= frames_.size(); base += count) {
    if (!RunIsFree(base, count)) {
      continue;
    }
    if (num_nodes_ > 1 &&
        NodeOfFrame(static_cast<FrameNumber>(base)) !=
            NodeOfFrame(static_cast<FrameNumber>(base + count - 1))) {
      numa_cross_node_runs_++;
    }
    claim_run(static_cast<FrameNumber>(base));
    return static_cast<FrameNumber>(base);
  }
  return std::nullopt;
}

bool PhysicalMemory::RunIsFree(uint64_t base, uint32_t count) const {
  for (uint32_t i = 0; i < count; ++i) {
    if (frames_[base + i].kind != FrameKind::kFree) {
      return false;
    }
  }
  return true;
}

FrameNumber PhysicalMemory::AllocFrame(FrameKind kind) {
  std::optional<FrameNumber> number = TryAllocFrame(kind);
  SAT_CHECK(number.has_value() &&
            "simulated machine out of physical memory");
  return *number;
}

FrameNumber PhysicalMemory::AllocContiguousFrames(uint32_t count,
                                                  FrameKind kind) {
  std::optional<FrameNumber> base = TryAllocContiguousFrames(count, kind);
  SAT_CHECK(base.has_value() && "no contiguous physical run available");
  return *base;
}

bool PhysicalMemory::UnrefFrame(FrameNumber number) {
  PageFrame& f = frame(number);
  if (f.kind == FrameKind::kZero || f.kind == FrameKind::kKernel) {
    return false;  // permanent frames are never freed
  }
  SAT_CHECK(f.ref_count > 0 && "unref of a dead frame");
  if (--f.ref_count > 0) {
    return false;
  }
  // Observers see the record before the reset (FrameLifecycleObserver).
  for (FrameLifecycleObserver* observer : observers_) {
    observer->OnFrameFreed(number, f.kind);
  }
  const bool condemned = f.quarantine_on_free;
  f = PageFrame{.kind = condemned ? FrameKind::kQuarantined
                                  : FrameKind::kFree};
  if (condemned) {
    // Never re-enters the free list (a stale free-list entry, if any, is
    // skipped and dropped by PopFreeFrame); counted as used forever.
    quarantined_count_++;
  } else {
    if (!free_listed_[number]) {
      free_lists_[NodeOfFrame(number)].push_back(number);
      free_listed_[number] = true;
    }
    free_count_++;
    free_count_per_node_[NodeOfFrame(number)]++;
  }
  return true;
}

bool PhysicalMemory::QuarantineFrame(FrameNumber number) {
  PageFrame& f = frame(number);
  if (f.kind == FrameKind::kZero || f.kind == FrameKind::kKernel) {
    return false;  // permanent frames cannot leave circulation
  }
  if (f.kind == FrameKind::kQuarantined || f.quarantine_on_free) {
    return false;  // already condemned
  }
  if (f.kind == FrameKind::kFree) {
    f.kind = FrameKind::kQuarantined;
    free_count_--;
    free_count_per_node_[NodeOfFrame(number)]--;
    quarantined_count_++;
    return true;
  }
  f.quarantine_on_free = true;
  return true;
}

void PhysicalMemory::RefFrame(FrameNumber number) {
  PageFrame& f = frame(number);
  SAT_CHECK(f.kind != FrameKind::kFree && "ref of a free frame");
  SAT_CHECK(f.kind != FrameKind::kQuarantined &&
            "ref of a quarantined frame");
  if (f.kind == FrameKind::kZero || f.kind == FrameKind::kKernel) {
    return;  // permanent frames are not reference counted (see UnrefFrame)
  }
  f.ref_count++;
}

PageFrame& PhysicalMemory::frame(FrameNumber number) {
  assert(number < frames_.size());
  return frames_[number];
}

const PageFrame& PhysicalMemory::frame(FrameNumber number) const {
  assert(number < frames_.size());
  return frames_[number];
}

uint64_t PhysicalMemory::CountFrames(FrameKind kind) const {
  uint64_t count = 0;
  for (const PageFrame& f : frames_) {
    if (f.kind == kind) {
      count++;
    }
  }
  return count;
}

std::string PhysicalMemory::ToString() const {
  std::ostringstream os;
  os << "PhysicalMemory{" << used_frames() << "/" << total_frames()
     << " frames used; anon=" << CountFrames(FrameKind::kAnon)
     << " file=" << CountFrames(FrameKind::kFileCache)
     << " pt=" << CountFrames(FrameKind::kPageTable) << "}";
  return os.str();
}

}  // namespace sat
