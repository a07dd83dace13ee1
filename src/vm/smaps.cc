#include "src/vm/smaps.h"

#include <sstream>

namespace sat {

namespace {

// Number of processes mapping `frame`: the sum over its rmap entries of
// each mapping PTP's sharer count (a shared PTP's single PTE stands for
// all of its sharers).
uint32_t ProcessMapCount(FrameNumber frame, const PtpAllocator& ptps,
                         const ReverseMap* rmap) {
  if (rmap == nullptr) {
    return 1;
  }
  uint32_t count = 0;
  for (const RmapEntry& entry : rmap->Mappings(frame)) {
    count += ptps.Get(entry.ptp).SharerCount();
  }
  return count == 0 ? 1 : count;
}

}  // namespace

SmapsReport GenerateSmaps(const MmStruct& mm, const PtpAllocator& ptps,
                          const ReverseMap* rmap,
                          const PhysicalMemory* phys) {
  SmapsReport report;
  const PageTable& pt = mm.page_table();

  mm.ForEachVma([&](const VmArea& vma) {
    VmaReport row;
    row.name = vma.name == nullptr ? vma.ToString() : *vma.name;
    row.start = vma.start;
    row.end = vma.end;
    row.size_kb = (vma.end - vma.start) / 1024;

    // The sharer count of the vma's own mapping PTP, per page.
    for (uint64_t va64 = vma.start; va64 < vma.end; va64 += kPageSize) {
      const auto va = static_cast<VirtAddr>(va64);
      if (pt.SectionAt(va) != nullptr) {
        // Translated by a 1 MB section: resident and huge, but the frames
        // are permanent kernel text shared by the whole zygote group, so
        // — like the vdso — they charge no process's PSS and count as
        // shared.
        row.rss_kb += 4;
        row.huge_kb += 4;
        row.shared_clean_kb += 4;
        continue;
      }
      const auto ref = pt.FindPte(va);
      if (!ref || !ref->ptp->hw(ref->index).valid()) {
        continue;
      }
      row.rss_kb += 4;
      const HwPte hw = ref->ptp->hw(ref->index);
      if (hw.large()) {
        // A 64 KB replica. PSS stays fractional the same way as for 4 KB
        // pages: the replica's frame has one rmap entry per mapping PTP,
        // each standing for that PTP's sharers.
        row.huge_kb += 4;
      }
      const FrameNumber frame = MappedFrameOf(hw, ref->index);
      const uint32_t mappers = ProcessMapCount(frame, ptps, rmap);
      row.pss_kb += 4.0 / mappers;
      if (mappers > 1) {
        row.shared_clean_kb += 4;
      } else {
        row.private_kb += 4;
      }
      if (phys != nullptr && phys->frame(frame).ksm_stable) {
        row.ksm_merged_kb += 4;
      }
    }

    report.total_size_kb += row.size_kb;
    report.total_rss_kb += row.rss_kb;
    report.total_pss_kb += row.pss_kb;
    report.total_ksm_merged_kb += row.ksm_merged_kb;
    report.total_huge_kb += row.huge_kb;
    report.vmas.push_back(std::move(row));
  });

  for (uint32_t slot = pt.NextUsedSlot(0); slot < kUserPtpSlots;
       slot = pt.NextUsedSlot(slot + 1)) {
    if (!pt.l1(slot).present()) {
      continue;
    }
    report.page_table_kb += 4;
    const uint32_t sharers = ptps.Get(pt.l1(slot).ptp).SharerCount();
    report.page_table_pss_kb += 4.0 / sharers;
    if (pt.l1(slot).need_copy) {
      report.shared_ptps++;
    }
  }
  return report;
}

std::string SmapsReport::ToString() const {
  std::ostringstream os;
  for (const VmaReport& vma : vmas) {
    os << std::hex << vma.start << "-" << vma.end << std::dec << " "
       << vma.name << "\n"
       << "  Size: " << vma.size_kb << " kB  Rss: " << vma.rss_kb
       << " kB  Pss: " << vma.pss_kb << " kB  Shared_Clean: "
       << vma.shared_clean_kb << " kB  Private: " << vma.private_kb
       << " kB  KsmMerged: " << vma.ksm_merged_kb
       << " kB  HugePages: " << vma.huge_kb << " kB\n";
  }
  os << "Total: Size " << total_size_kb << " kB, Rss " << total_rss_kb
     << " kB, Pss " << total_pss_kb << " kB, KsmMerged "
     << total_ksm_merged_kb << " kB, HugePages " << total_huge_kb << " kB\n"
     << "PageTables: " << page_table_kb << " kB (Pss " << page_table_pss_kb
     << " kB, " << shared_ptps << " shared PTPs)\n";
  return os.str();
}

}  // namespace sat
