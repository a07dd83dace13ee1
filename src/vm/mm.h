// MmStruct: one user address space — the region list plus the page table
// (the mm_struct analogue).

#ifndef SRC_VM_MM_H_
#define SRC_VM_MM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/arch/domain.h"
#include "src/pt/page_table.h"
#include "src/vm/vm_area.h"

namespace sat {

class MmStruct {
 public:
  MmStruct(PtpAllocator* alloc, PhysicalMemory* phys, KernelCounters* counters,
           DomainId user_domain, ReverseMap* rmap = nullptr)
      : page_table_(alloc, phys, counters, rmap), user_domain_(user_domain) {}

  MmStruct(const MmStruct&) = delete;
  MmStruct& operator=(const MmStruct&) = delete;

  PageTable& page_table() { return page_table_; }
  const PageTable& page_table() const { return page_table_; }

  // The ARM domain this address space's user mappings live in: kDomainUser
  // normally, kDomainZygote for zygote-like processes (Section 3.2.3).
  DomainId user_domain() const { return user_domain_; }
  void set_user_domain(DomainId domain) { user_domain_ = domain; }

  // -------------------------------------------------------------------------
  // Region list.
  // -------------------------------------------------------------------------

  const VmArea* FindVma(VirtAddr va) const;

  // Inserts a region; asserts it is page aligned and non-overlapping.
  void InsertVma(VmArea vma);

  // Fork: copies every region of `parent` into this empty list, marked
  // inherited.
  void InheritVmas(const MmStruct& parent);

  // Removes [start, end) from the region list, splitting partially covered
  // regions. Returns the removed pieces (for the caller to clear PTEs of).
  std::vector<VmArea> RemoveRange(VirtAddr start, VirtAddr end);

  // All regions overlapping [start, end), in address order: one
  // contiguous run of the region list. Valid until the list next changes.
  std::span<const VmArea> VmasOverlapping(VirtAddr start, VirtAddr end) const;

  // Regions overlapping a 2 MB PTP slot.
  std::span<const VmArea> VmasInSlot(uint32_t slot) const;

  // Lowest gap of `length` bytes within [low, high); nullopt if none.
  std::optional<VirtAddr> FindFreeRange(uint32_t length, VirtAddr low,
                                        VirtAddr high) const;

  // As FindFreeRange, but the returned address is `alignment`-aligned
  // (alignment must be a power of two ≥ the page size). Used by the 2 MB
  // mapping policy for shared-library code segments.
  std::optional<VirtAddr> FindFreeRangeAligned(uint32_t length,
                                               uint32_t alignment,
                                               VirtAddr low,
                                               VirtAddr high) const;

  template <typename Fn>
  void ForEachVma(Fn&& fn) const {
    for (const VmArea& vma : vmas_) {
      fn(vma);
    }
  }

  // Drops every region without touching the page table (exit path; the
  // caller releases the page table separately).
  void RemoveAllVmas() { vmas_.clear(); }

  size_t vma_count() const { return vmas_.size(); }

  // Total mapped bytes.
  uint64_t MappedBytes() const;

 private:
  PageTable page_table_;
  DomainId user_domain_;
  // Sorted by start address, non-overlapping: fork copies the list in one
  // allocation and a range query is one contiguous run.
  std::vector<VmArea> vmas_;
};

}  // namespace sat

#endif  // SRC_VM_MM_H_
