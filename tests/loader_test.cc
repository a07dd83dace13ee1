// Unit tests for the library catalog and the dynamic loader's two mapping
// policies.

#include <gtest/gtest.h>

#include "src/loader/library.h"
#include "src/loader/loader.h"
#include "src/proc/kernel.h"

namespace sat {
namespace {

TEST(CatalogTest, AndroidDefaultHas88PreloadedObjects) {
  const LibraryCatalog catalog = LibraryCatalog::AndroidDefault();
  EXPECT_EQ(catalog.ZygotePreloadSet().size(), 88u);
  EXPECT_NE(catalog.FindByName("libc.so"), nullptr);
  EXPECT_NE(catalog.FindByName("libbinder.so"), nullptr);
  EXPECT_NE(catalog.FindByName("app_process"), nullptr);
  EXPECT_NE(catalog.FindByName("boot.oat"), nullptr);
  EXPECT_EQ(catalog.FindByName("libnothere.so"), nullptr);
}

TEST(CatalogTest, PreloadedCodeSizesMatchPaperRange) {
  // The paper: preloaded shared code objects range from 4 KB to ~35 MB,
  // with a total large enough that per-app footprints of 2.7-30 MB are
  // subsets.
  const LibraryCatalog catalog = LibraryCatalog::AndroidDefault();
  uint32_t max_pages = 0;
  uint32_t min_pages = UINT32_MAX;
  for (LibraryId lib : catalog.ZygotePreloadSet()) {
    max_pages = std::max(max_pages, catalog.Get(lib).code_pages);
    min_pages = std::min(min_pages, catalog.Get(lib).code_pages);
  }
  EXPECT_LE(min_pages, 4u);                      // ~16 KB floor
  EXPECT_GE(max_pages, 7000u);                   // tens of MB ceiling
  EXPECT_GT(catalog.TotalPreloadedCodePages(), 20000u);  // > 80 MB total
  EXPECT_LT(catalog.TotalPreloadedCodePages(), 35000u);  // < 140 MB total
}

TEST(CatalogTest, RegisterAssignsSequentialIdsAndFiles) {
  LibraryCatalog catalog;
  const LibraryId a = catalog.Register("a.so", CodeCategory::kOtherSharedLib, 10, 2);
  const LibraryId b = catalog.Register("b.so", CodeCategory::kPrivateCode, 20, 0);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(catalog.Get(a).file, static_cast<FileId>(a));
  EXPECT_EQ(catalog.Get(b).code_pages, 20u);
  EXPECT_TRUE(catalog.ZygotePreloadSet().empty());
}

class LoaderTest : public ::testing::Test {
 protected:
  LoaderTest() : catalog_(LibraryCatalog::AndroidDefault()) {
    kernel_ = std::make_unique<Kernel>(KernelParams{});
    zygote_ = kernel_->CreateTask("zygote");
    kernel_->Exec(*zygote_, "app_process", /*is_zygote=*/true);
  }

  LibraryCatalog catalog_;
  std::unique_ptr<Kernel> kernel_;
  Task* zygote_;
};

TEST_F(LoaderTest, OriginalPolicyPlacesDataRightAfterCode) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kOriginal);
  const LibraryImage* libc = catalog_.FindByName("libc.so");
  const MappedLibrary mapped =
      loader.MapLibrary(*zygote_, libc->id, DynamicLoader::kPreloadRegionLow,
                        DynamicLoader::kPreloadRegionHigh);
  EXPECT_EQ(mapped.data_base, mapped.code_base + libc->code_pages * kPageSize);
  // Code and data typically share a PTP: the paper's lost-sharing hazard.
  EXPECT_EQ(PtpSlotIndex(mapped.data_base),
            PtpSlotIndex(mapped.data_base - kPageSize));
}

TEST_F(LoaderTest, TwoMbPolicySeparatesCodeAndDataSlots) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kTwoMbAligned);
  const LibraryImage* libc = catalog_.FindByName("libc.so");
  const MappedLibrary mapped =
      loader.MapLibrary(*zygote_, libc->id, DynamicLoader::kPreloadRegionLow,
                        DynamicLoader::kPreloadRegionHigh);
  EXPECT_EQ(mapped.code_base % kPtpSpan, 0u);
  EXPECT_EQ(mapped.data_base % kPtpSpan, 0u);
  // No 2 MB slot holds both code and data.
  const uint32_t code_last_slot =
      PtpSlotIndex(mapped.code_base + libc->code_pages * kPageSize - 1);
  EXPECT_GT(PtpSlotIndex(mapped.data_base), code_last_slot);
}

TEST_F(LoaderTest, MappedSegmentsHaveExpectedProtections) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kOriginal);
  const LibraryImage* libc = catalog_.FindByName("libc.so");
  const MappedLibrary mapped =
      loader.MapLibrary(*zygote_, libc->id, DynamicLoader::kPreloadRegionLow,
                        DynamicLoader::kPreloadRegionHigh);
  const VmArea* code = zygote_->mm->FindVma(mapped.code_base);
  const VmArea* data = zygote_->mm->FindVma(mapped.data_base);
  ASSERT_NE(code, nullptr);
  ASSERT_NE(data, nullptr);
  EXPECT_TRUE(code->prot.execute);
  EXPECT_FALSE(code->prot.write);
  EXPECT_TRUE(data->prot.write);
  EXPECT_FALSE(data->prot.execute);
  EXPECT_EQ(code->kind, VmKind::kFilePrivate);
  // Data follows code within the library's backing file.
  EXPECT_EQ(data->file, code->file);
  EXPECT_EQ(data->file_page_offset, libc->code_pages);
}

TEST_F(LoaderTest, PreloadAllMapsEveryObjectAndRecordsLayout) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kOriginal);
  const auto& layout = loader.PreloadAll(*zygote_);
  EXPECT_EQ(layout.size(), 88u);
  // Every preloaded library is findable and non-overlapping.
  for (const MappedLibrary& mapped : layout) {
    EXPECT_EQ(loader.FindZygoteMapping(mapped.lib)->code_base,
              mapped.code_base);
    EXPECT_NE(zygote_->mm->FindVma(mapped.code_base), nullptr);
  }
  EXPECT_EQ(loader.FindZygoteMapping(99999), nullptr);
}

TEST_F(LoaderTest, PreloadedCodeIsGlobalPreloadedDataIsNot) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kOriginal);
  loader.PreloadAll(*zygote_);
  const MappedLibrary* libc =
      loader.FindZygoteMapping(catalog_.FindByName("libc.so")->id);
  EXPECT_TRUE(zygote_->mm->FindVma(libc->code_base)->global);
  EXPECT_FALSE(zygote_->mm->FindVma(libc->data_base)->global);
  EXPECT_TRUE(zygote_->mm->FindVma(libc->data_base)->zygote_preloaded);
}

TEST_F(LoaderTest, TwoMbPolicyUsesMoreAddressSpace) {
  DynamicLoader original(kernel_.get(), &catalog_, MappingPolicy::kOriginal);
  original.PreloadAll(*zygote_);
  const uint64_t original_span = zygote_->mm->MappedBytes();

  Kernel kernel2{KernelParams{}};
  Task* zygote2 = kernel2.CreateTask("zygote");
  kernel2.Exec(*zygote2, "app_process", true);
  DynamicLoader aligned(&kernel2, &catalog_, MappingPolicy::kTwoMbAligned);
  aligned.PreloadAll(*zygote2);

  // Mapped bytes are identical; it is the *span* (gaps included) that
  // grows. Compare the highest mapped address instead.
  EXPECT_EQ(zygote2->mm->MappedBytes(), original_span);
  VirtAddr original_top = 0;
  VirtAddr aligned_top = 0;
  zygote_->mm->ForEachVma(
      [&](const VmArea& vma) { original_top = std::max(original_top, vma.end); });
  zygote2->mm->ForEachVma(
      [&](const VmArea& vma) { aligned_top = std::max(aligned_top, vma.end); });
  EXPECT_GT(aligned_top, original_top);
}

TEST_F(LoaderTest, LargeCodePagesAlignCodeBases) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kOriginal);
  loader.set_large_code_pages(true);
  const LibraryImage* libc = catalog_.FindByName("libc.so");
  const MappedLibrary mapped =
      loader.MapLibrary(*zygote_, libc->id, DynamicLoader::kPreloadRegionLow,
                        DynamicLoader::kPreloadRegionHigh);
  EXPECT_EQ(mapped.code_base % kLargePageSize, 0u);
  EXPECT_TRUE(zygote_->mm->FindVma(mapped.code_base)->use_large_pages);
  EXPECT_FALSE(zygote_->mm->FindVma(mapped.data_base)->use_large_pages);
  // Data sits beyond the code at a 64 KB boundary (never inside a block).
  EXPECT_EQ(mapped.data_base % kLargePageSize, 0u);
  EXPECT_GE(mapped.data_base, mapped.code_base + libc->code_pages * kPageSize);
}

TEST_F(LoaderTest, TwoMbPolicyComposesWithLargeCodePages) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kTwoMbAligned);
  loader.set_large_code_pages(true);
  const LibraryImage* libm = catalog_.FindByName("libm.so");
  const MappedLibrary mapped =
      loader.MapLibrary(*zygote_, libm->id, DynamicLoader::kPreloadRegionLow,
                        DynamicLoader::kPreloadRegionHigh);
  // 2 MB alignment subsumes 64 KB alignment.
  EXPECT_EQ(mapped.code_base % kPtpSpan, 0u);
  EXPECT_TRUE(zygote_->mm->FindVma(mapped.code_base)->use_large_pages);
}

TEST_F(LoaderTest, AppLibraryWindowIsSeparate) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kOriginal);
  loader.PreloadAll(*zygote_);
  Task* app = kernel_->Fork(*zygote_, "app").child;
  LibraryCatalog& catalog = catalog_;
  const LibraryId own = catalog.Register("own.so", CodeCategory::kOtherSharedLib,
                                         16, 4);
  const MappedLibrary mapped = loader.MapAppLibrary(*app, own);
  EXPECT_GE(mapped.code_base, DynamicLoader::kAppLibRegionLow);
  EXPECT_LT(mapped.code_base, DynamicLoader::kAppLibRegionHigh);
}

TEST_F(LoaderTest, DeadTaskGetsAnEmptyPlacement) {
  DynamicLoader loader(kernel_.get(), &catalog_, MappingPolicy::kOriginal);
  loader.PreloadAll(*zygote_);
  Task* app = kernel_->Fork(*zygote_, "app").child;
  kernel_->Exit(*app);
  const LibraryId own =
      catalog_.Register("own.so", CodeCategory::kOtherSharedLib, 16, 4);
  const MappedLibrary mapped = loader.MapAppLibrary(*app, own);
  EXPECT_EQ(mapped.lib, own);
  EXPECT_EQ(mapped.code_base, 0u);
  EXPECT_EQ(mapped.data_base, 0u);
}

}  // namespace
}  // namespace sat
