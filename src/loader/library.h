// Shared-library images and the library catalog.
//
// The catalog is the simulation's stand-in for the on-disk library set of
// the paper's Nexus 7 (Android KitKat + ART): 88 zygote-preloaded
// libraries — the dynamic loader and .so files, the AOT-compiled Java boot
// image, and the app_process program binary — plus platform-specific and
// app-private libraries registered by the workload layer. Sizes are
// representative of the real platform (the paper reports preloaded shared
// code ranging from 4 KB to ~35 MB per object).

#ifndef SRC_LOADER_LIBRARY_H_
#define SRC_LOADER_LIBRARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/types.h"

namespace sat {

using LibraryId = int32_t;

// The instruction-footprint categories of Figures 2 and 3.
enum class CodeCategory : uint8_t {
  kPrivateCode = 0,       // the application's own code
  kOtherSharedLib,        // app-specific + platform-specific dynamic libs
  kZygoteProgramBinary,   // app_process
  kZygoteJavaLib,         // AOT-compiled Java shared libraries (boot image)
  kZygoteDynamicLib,      // zygote-preloaded .so files
};

constexpr bool IsZygotePreloadedCategory(CodeCategory category) {
  return category == CodeCategory::kZygoteProgramBinary ||
         category == CodeCategory::kZygoteJavaLib ||
         category == CodeCategory::kZygoteDynamicLib;
}

constexpr bool IsSharedCodeCategory(CodeCategory category) {
  return category != CodeCategory::kPrivateCode;
}

struct LibraryImage {
  LibraryId id = -1;
  std::string name;
  CodeCategory category = CodeCategory::kZygoteDynamicLib;
  FileId file = kNoFile;       // backing "file"; data follows code in it
  uint32_t code_pages = 0;     // r-x segment size
  uint32_t data_pages = 0;     // rw- segment size (COW private)

  uint32_t code_bytes() const { return code_pages * kPageSize; }
  uint32_t data_bytes() const { return data_pages * kPageSize; }
};

class LibraryCatalog {
 public:
  LibraryCatalog() = default;

  LibraryId Register(std::string name, CodeCategory category,
                     uint32_t code_pages, uint32_t data_pages);

  const LibraryImage& Get(LibraryId id) const;
  const LibraryImage* FindByName(const std::string& name) const;

  size_t size() const { return libs_.size(); }

  // Every library the zygote preloads, in preload order (app_process
  // first, then the Java boot image, then the native libraries).
  std::vector<LibraryId> ZygotePreloadSet() const;

  uint64_t TotalPreloadedCodePages() const;

  // The Android-flavoured default: 88 zygote-preloaded objects.
  static LibraryCatalog AndroidDefault();

 private:
  std::vector<LibraryImage> libs_;
};

}  // namespace sat

#endif  // SRC_LOADER_LIBRARY_H_
