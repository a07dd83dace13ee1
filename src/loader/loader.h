// The dynamic loader: maps library segments into a task's address space
// under one of two mapping policies.
//
//   kOriginal     — the stock Android/ARM layout: a library's rw- data
//                   segment is placed immediately after its r-x code
//                   segment, so both usually land in the same 2 MB
//                   page-table page. A write to the data segment then
//                   unshares the code segment's translations too — the
//                   lost-sharing problem of Section 3.1.3.
//   kTwoMbAligned — the paper's remedy: code segments are mapped at 2 MB
//                   boundaries and data segments at separate 2 MB-aligned
//                   addresses, so code and data never share a PTP (the
//                   x86-64 ABI already separates code and data by 2 MB).

#ifndef SRC_LOADER_LOADER_H_
#define SRC_LOADER_LOADER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/loader/library.h"
#include "src/proc/kernel.h"
#include "src/proc/task.h"

namespace sat {

enum class MappingPolicy : uint8_t {
  kOriginal = 0,
  kTwoMbAligned,
};

struct MappedLibrary {
  LibraryId lib = -1;
  VirtAddr code_base = 0;
  VirtAddr data_base = 0;
};

class DynamicLoader {
 public:
  // Default placement windows.
  static constexpr VirtAddr kPreloadRegionLow = 0x40000000;
  static constexpr VirtAddr kPreloadRegionHigh = 0x9F000000;
  static constexpr VirtAddr kAppLibRegionLow = 0x9F000000;
  static constexpr VirtAddr kAppLibRegionHigh = 0xAF000000;

  DynamicLoader(Kernel* kernel, const LibraryCatalog* catalog,
                MappingPolicy policy)
      : kernel_(kernel), catalog_(catalog), policy_(policy) {}

  MappingPolicy policy() const { return policy_; }

  // Map code segments with 64 KB large pages (the Section 2.3.3
  // complement experiment). Code bases are then 64 KB-aligned.
  void set_large_code_pages(bool on) { large_code_pages_ = on; }
  bool large_code_pages() const { return large_code_pages_; }
  const LibraryCatalog& catalog() const { return *catalog_; }

  // Maps `lib`'s code (r-x) and data (rw-, private COW) segments for
  // `task` inside [low, high). Returns the placement (both bases 0 for a
  // dead task, which has no address space).
  MappedLibrary MapLibrary(Task& task, LibraryId lib, VirtAddr low,
                           VirtAddr high);

  // Maps an app-specific/platform library in the app window.
  MappedLibrary MapAppLibrary(Task& task, LibraryId lib) {
    return MapLibrary(task, lib, kAppLibRegionLow, kAppLibRegionHigh);
  }

  // Preloads the whole zygote set into `zygote` (which must carry the
  // zygote flag so the kernel applies the global-region policy). Records
  // and returns the canonical layout that every forked app inherits.
  const std::vector<MappedLibrary>& PreloadAll(Task& zygote);

  // The canonical zygote layout (valid after PreloadAll).
  const std::vector<MappedLibrary>& zygote_layout() const {
    return zygote_layout_;
  }
  const MappedLibrary* FindZygoteMapping(LibraryId lib) const;

 private:
  Kernel* kernel_;
  const LibraryCatalog* catalog_;
  MappingPolicy policy_;
  bool large_code_pages_ = false;
  std::vector<MappedLibrary> zygote_layout_;
  std::unordered_map<LibraryId, size_t> zygote_index_;
};

}  // namespace sat

#endif  // SRC_LOADER_LOADER_H_
