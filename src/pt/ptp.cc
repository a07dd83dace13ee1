#include "src/pt/ptp.h"

#include <algorithm>
#include <cassert>

#include "src/arch/check.h"

namespace sat {

void PageTablePage::Set(uint32_t index, HwPte hw_pte, LinuxPte sw_pte) {
  assert(index < kPtesPerPtp);
  if (!hw_[index].valid() && hw_pte.valid()) {
    present_count_++;
  } else if (hw_[index].valid() && !hw_pte.valid()) {
    assert(present_count_ > 0);
    present_count_--;
  }
  hw_[index] = hw_pte;
  sw_[index] = sw_pte;
  NotifyHwWrite(index);
}

void PageTablePage::Clear(uint32_t index) {
  assert(index < kPtesPerPtp);
  if (hw_[index].valid()) {
    assert(present_count_ > 0);
    present_count_--;
  }
  hw_[index].Clear();
  sw_[index].Clear();
  NotifyHwWrite(index);
}

void PageTablePage::UpdateFlags(uint32_t index, HwPte hw_pte, LinuxPte sw_pte) {
  assert(index < kPtesPerPtp);
  assert(hw_[index].valid() == hw_pte.valid() &&
         "UpdateFlags cannot change entry validity");
  hw_[index] = hw_pte;
  sw_[index] = sw_pte;
  NotifyHwWrite(index);
}

void PageTablePage::CorruptHwForChaos(uint32_t index, uint32_t xor_mask) {
  SAT_CHECK(index < kPtesPerPtp);
  SAT_CHECK(xor_mask != 0 && "corruption must change something");
  hw_[index] = HwPte::FromRaw(hw_[index].raw() ^ xor_mask);
}

void PageTablePage::RepairHw(uint32_t index, HwPte hw_pte) {
  SAT_CHECK(index < kPtesPerPtp);
  hw_[index] = hw_pte;
  RecountPresentForScrub();
  NotifyHwWrite(index);
}

uint32_t PageTablePage::RecountPresentForScrub() {
  uint32_t count = 0;
  for (uint32_t i = 0; i < kPtesPerPtp; ++i) {
    if (hw_[i].valid()) {
      count++;
    }
  }
  present_count_ = count;
  return count;
}

std::optional<PtpId> PtpAllocator::TryAlloc(const PageTable* table,
                                            uint32_t slot) {
  const std::optional<FrameNumber> frame =
      phys_->TryAllocFrame(FrameKind::kPageTable);
  if (!frame.has_value()) {
    return std::nullopt;
  }
  PtpId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<PtpId>(slab_.size());
    slab_.emplace_back();
  }
  auto& ptp = slab_[static_cast<size_t>(id)];
  ptp = std::make_unique<PageTablePage>(id, *frame, slot);
  ptp->sharers_.push_back(table);
  ptp->set_write_observer(write_observer_);
  counters_->ptps_allocated++;
  live_count_++;
  return id;
}

void PtpAllocator::set_write_observer(PtpWriteObserver* observer) {
  write_observer_ = observer;
  for (const auto& ptp : slab_) {
    if (ptp != nullptr) {
      ptp->set_write_observer(observer);
    }
  }
}

PageTablePage& PtpAllocator::Get(PtpId id) {
  assert(id >= 0 && static_cast<size_t>(id) < slab_.size());
  assert(slab_[static_cast<size_t>(id)] != nullptr && "use of freed PTP");
  return *slab_[static_cast<size_t>(id)];
}

const PageTablePage& PtpAllocator::Get(PtpId id) const {
  assert(id >= 0 && static_cast<size_t>(id) < slab_.size());
  assert(slab_[static_cast<size_t>(id)] != nullptr && "use of freed PTP");
  return *slab_[static_cast<size_t>(id)];
}

const PageTablePage* PtpAllocator::GetIfLive(PtpId id) const {
  if (id < 0 || static_cast<size_t>(id) >= slab_.size()) {
    return nullptr;
  }
  return slab_[static_cast<size_t>(id)].get();
}

std::optional<PtpId> PtpAllocator::AnyLiveId(uint64_t rand) const {
  if (slab_.empty()) {
    return std::nullopt;
  }
  const size_t n = slab_.size();
  const size_t start = static_cast<size_t>(rand % n);
  for (size_t k = 0; k < n; ++k) {
    const size_t i = (start + k) % n;
    if (slab_[i] != nullptr) {
      return static_cast<PtpId>(i);
    }
  }
  return std::nullopt;
}

void PtpAllocator::AddSharer(PtpId id, const PageTable* table) {
  Get(id).sharers_.push_back(table);
}

bool PtpAllocator::DropSharer(PtpId id, const PageTable* table) {
  PageTablePage& ptp = Get(id);
  const auto it = std::find(ptp.sharers_.begin(), ptp.sharers_.end(), table);
  SAT_CHECK(it != ptp.sharers_.end() && "dropping a table that is no sharer");
  ptp.sharers_.erase(it);
  if (!ptp.sharers_.empty()) {
    return false;
  }
  if (write_observer_ != nullptr) {
    write_observer_->OnPtpDestroyed(id);
  }
  phys_->UnrefFrame(ptp.frame());
  slab_[static_cast<size_t>(id)].reset();
  free_ids_.push_back(id);
  assert(live_count_ > 0);
  live_count_--;
  return true;
}

}  // namespace sat
