#include "src/loader/loader.h"

#include <cassert>

namespace sat {

MappedLibrary DynamicLoader::MapLibrary(Task& task, LibraryId lib,
                                        VirtAddr low, VirtAddr high) {
  const LibraryImage& image = catalog_->Get(lib);
  MappedLibrary mapped;
  mapped.lib = lib;
  if (!task.alive) {
    return mapped;  // no address space to map into: both bases stay 0
  }
  MmStruct& mm = *task.mm;

  const uint32_t code_bytes = image.code_pages * kPageSize;
  const uint32_t data_bytes = image.data_pages * kPageSize;

  if (policy_ == MappingPolicy::kOriginal) {
    // Stock layout: data immediately follows code in one reservation.
    if (large_code_pages_) {
      // 64 KB mappings need 64 KB-aligned virtual bases.
      const auto base = mm.FindFreeRangeAligned(code_bytes + data_bytes,
                                                kLargePageSize, low, high);
      assert(base.has_value() && "library window exhausted");
      mapped.code_base = *base;
      mapped.data_base = *base + ((code_bytes + kLargePageSize - 1) &
                                  ~(kLargePageSize - 1));
    } else {
      const auto base = mm.FindFreeRange(code_bytes + data_bytes, low, high);
      assert(base.has_value() && "library window exhausted");
      mapped.code_base = *base;
      mapped.data_base = *base + code_bytes;
    }
  } else {
    // 2 MB policy: code at a 2 MB boundary; the data segment in its own
    // 2 MB-aligned reservation so it can never share a PTP with any code.
    const auto code = mm.FindFreeRangeAligned(code_bytes, kPtpSpan, low, high);
    assert(code.has_value() && "library window exhausted");
    mapped.code_base = *code;
    if (data_bytes > 0) {
      // Reserve from beyond the code segment so the data search does not
      // land inside the code PTP span.
      const VirtAddr data_low =
          (mapped.code_base + code_bytes + kPtpSpan - 1) & ~(kPtpSpan - 1);
      const auto data =
          mm.FindFreeRangeAligned(data_bytes, kPtpSpan, data_low, high);
      assert(data.has_value() && "library window exhausted");
      mapped.data_base = *data;
    }
  }

  MmapRequest code_request;
  code_request.use_large_pages = large_code_pages_;
  code_request.length = code_bytes;
  code_request.prot = VmProt::ReadExec();
  code_request.kind = VmKind::kFilePrivate;
  code_request.file = image.file;
  code_request.file_page_offset = 0;
  code_request.fixed_address = mapped.code_base;
  code_request.name = image.name + ":code";
  const VirtAddr code_at = kernel_->Mmap(task, code_request).value;
  assert(code_at == mapped.code_base);
  (void)code_at;

  if (data_bytes > 0) {
    MmapRequest data_request;
    data_request.length = data_bytes;
    data_request.prot = VmProt::ReadWrite();
    data_request.kind = VmKind::kFilePrivate;
    data_request.file = image.file;
    data_request.file_page_offset = image.code_pages;  // data follows code
    data_request.fixed_address = mapped.data_base;
    data_request.name = image.name + ":data";
    const VirtAddr data_at = kernel_->Mmap(task, data_request).value;
    assert(data_at == mapped.data_base);
    (void)data_at;
  }
  return mapped;
}

const std::vector<MappedLibrary>& DynamicLoader::PreloadAll(Task& zygote) {
  assert(zygote.zygote && "preload target must carry the zygote flag");
  zygote_layout_.clear();
  zygote_index_.clear();
  for (LibraryId lib : catalog_->ZygotePreloadSet()) {
    MappedLibrary mapped =
        MapLibrary(zygote, lib, kPreloadRegionLow, kPreloadRegionHigh);
    zygote_index_[lib] = zygote_layout_.size();
    zygote_layout_.push_back(mapped);
  }
  return zygote_layout_;
}

const MappedLibrary* DynamicLoader::FindZygoteMapping(LibraryId lib) const {
  const auto it = zygote_index_.find(lib);
  if (it == zygote_index_.end()) {
    return nullptr;
  }
  return &zygote_layout_[it->second];
}

}  // namespace sat
