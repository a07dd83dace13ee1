// Memory regions (the vm_area_struct analogue).

#ifndef SRC_VM_VM_AREA_H_
#define SRC_VM_VM_AREA_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/arch/types.h"

namespace sat {

struct VmProt {
  bool read = false;
  bool write = false;
  bool execute = false;

  bool operator==(const VmProt&) const = default;

  static constexpr VmProt ReadOnly() { return {true, false, false}; }
  static constexpr VmProt ReadWrite() { return {true, true, false}; }
  static constexpr VmProt ReadExec() { return {true, false, true}; }

  std::string ToString() const {
    std::string s;
    s += read ? 'r' : '-';
    s += write ? 'w' : '-';
    s += execute ? 'x' : '-';
    return s;
  }
};

enum class VmKind : uint8_t {
  kFilePrivate,  // MAP_PRIVATE file mapping (library code/data): COW
  kFileShared,   // MAP_SHARED file mapping (ashmem-style)
  kAnonPrivate,  // heap, stack, COW copies
  kAnonShared,   // shared anonymous memory
};

constexpr bool IsFileBacked(VmKind kind) {
  return kind == VmKind::kFilePrivate || kind == VmKind::kFileShared;
}

constexpr bool IsPrivate(VmKind kind) {
  return kind == VmKind::kFilePrivate || kind == VmKind::kAnonPrivate;
}

// A contiguous region of user virtual address space with uniform
// protection and backing. [start, end) are page aligned.
struct VmArea {
  VirtAddr start = 0;
  VirtAddr end = 0;
  VmProt prot;
  VmKind kind = VmKind::kAnonPrivate;
  FileId file = kNoFile;
  // File page index backing `start` (pages; not bytes).
  uint32_t file_page_offset = 0;

  // The paper's new vm_area_struct flag: set by mmap when the zygote maps
  // the code segment of a shared library, inherited across fork. Pages of
  // global regions get the global bit in their PTEs so their TLB entries
  // are shared by all zygote-descended processes (Section 3.2.2).
  bool global = false;

  // The stack is excluded from PTP sharing as a design choice (Section
  // 4.2.1): it is modified immediately after the child is scheduled.
  bool is_stack = false;

  // Map this region with 64 KB large pages where possible (the paper's
  // complement discussion, Section 2.3.3). Only meaningful for read-only/
  // executable file mappings; faults fall back to 4 KB pages at the
  // region's unaligned edges.
  bool use_large_pages = false;

  // Mapped by the zygote during preload (any segment, code or data). The
  // "Copied PTEs" comparison kernel keys off this together with
  // prot.execute to decide which PTEs to copy at fork.
  bool zygote_preloaded = false;

  // Set on regions copied into a child at fork (as opposed to regions the
  // process mapped itself afterwards). A fault on a *non*-inherited region
  // inside a shared PTP must unshare first — under the default eager
  // policy mmap already unshared, so this only matters for the
  // lazy-unshare ablation.
  bool inherited = false;

  // Registered with KSM via madvise(MADV_MERGEABLE) (or at mmap). Like
  // Linux's VM_MERGEABLE the flag rides along at fork — regions are copied
  // wholesale into the child — so zygote-advised heaps stay mergeable in
  // every app. Only anonymous private pages are ever merge candidates.
  bool mergeable = false;

  // Shared and immutable, so copying a region (fork, splits) allocates
  // nothing. Null for an unnamed region.
  std::shared_ptr<const std::string> name;

  uint32_t PageCount() const { return (end - start) / kPageSize; }

  bool Contains(VirtAddr va) const { return va >= start && va < end; }

  bool Overlaps(VirtAddr lo, VirtAddr hi) const { return start < hi && lo < end; }

  // File page index backing virtual address `va` (must be inside).
  uint32_t FilePageFor(VirtAddr va) const {
    return file_page_offset + ((va - start) >> kPageShift);
  }

  std::string ToString() const;
};

}  // namespace sat

#endif  // SRC_VM_VM_AREA_H_
