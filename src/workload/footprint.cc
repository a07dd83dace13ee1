#include "src/workload/footprint.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>
#include <set>

#include "src/stats/rng.h"

namespace sat {

namespace {

uint64_t PageKey(LibraryId lib, uint32_t page) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(lib)) << 32) | page;
}

// Zipf-like weight for popularity rank r (0 = hottest).
double RankWeight(size_t rank) {
  return 1.0 / std::pow(static_cast<double>(rank) + 1.0, 0.8);
}

}  // namespace

uint32_t AppFootprint::PagesOf(CodeCategory category) const {
  uint32_t count = 0;
  for (const TouchedPage& page : pages) {
    if (page.category == category) {
      count++;
    }
  }
  return count;
}

double AppFootprint::FetchShareOf(CodeCategory category) const {
  double share = 0;
  for (const TouchedPage& page : pages) {
    if (page.category == category) {
      share += page.fetch_weight;
    }
  }
  return share;
}

std::vector<uint64_t> AppFootprint::SharedPageKeys(
    bool zygote_preloaded_only) const {
  std::vector<uint64_t> keys;
  for (const TouchedPage& page : pages) {
    const bool include = zygote_preloaded_only
                             ? IsZygotePreloadedCategory(page.category)
                             : IsSharedCodeCategory(page.category);
    if (include) {
      keys.push_back(PageKey(page.lib, page.page_index));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

WorkloadFactory::WorkloadFactory(LibraryCatalog* catalog) : catalog_(catalog) {
  // The shared platform-specific libraries (GPU driver stack etc.): not
  // preloaded by the zygote, but linked by many apps — the gap between
  // Table 2's "zygote-preloaded" and "all shared code" numbers.
  static constexpr struct {
    const char* name;
    uint32_t code_pages;
    uint32_t data_pages;
  } kPlatformLibs[] = {
      {"libnvgr.so", 220, 16},          {"libGLESv2_tegra.so", 760, 40},
      {"libnvrm.so", 130, 12},          {"libnvos.so", 60, 8},
      {"libnvddk_2d_v2.so", 90, 8},     {"libnvmm.so", 340, 24},
  };
  for (const auto& lib : kPlatformLibs) {
    platform_libs_.push_back(catalog_->Register(
        lib.name, CodeCategory::kOtherSharedLib, lib.code_pages, lib.data_pages));
  }
}

const std::vector<uint32_t>& WorkloadFactory::HotAnchors(LibraryId lib) {
  auto it = anchor_cache_.find(lib);
  if (it != anchor_cache_.end()) {
    return it->second;
  }
  const LibraryImage& image = catalog_->Get(lib);
  // One anchor per ~8 pages of code, scattered uniformly, in a
  // library-seeded popularity order identical for every consumer.
  const uint32_t count = std::max(1u, image.code_pages / 8);
  Rng rng(0x9E3779B97F4A7C15ull ^ (static_cast<uint64_t>(lib) << 17));
  std::uniform_int_distribution<uint32_t> dist(0, image.code_pages - 1);
  std::vector<uint32_t> anchors;
  anchors.reserve(count);
  std::set<uint32_t> seen;
  while (anchors.size() < count) {
    const uint32_t anchor = dist(rng);
    if (seen.insert(anchor).second) {
      anchors.push_back(anchor);
    }
  }
  return anchor_cache_.emplace(lib, std::move(anchors)).first->second;
}

void WorkloadFactory::PickLibraryPages(LibraryId lib, CodeCategory category,
                                       uint32_t target, double common_bias,
                                       uint64_t rng_seed,
                                       std::vector<TouchedPage>* out,
                                       double skip_probability) {
  const LibraryImage& image = catalog_->Get(lib);
  if (image.code_pages == 0 || target == 0) {
    return;
  }
  const uint32_t capped_target = std::min(target, image.code_pages);
  const std::vector<uint32_t>& anchors = HotAnchors(lib);

  Rng rng(rng_seed * 0x2545F4914F6CDD1Dull +
                      static_cast<uint64_t>(static_cast<uint32_t>(lib)));
  std::uniform_int_distribution<uint32_t> page_dist(0, image.code_pages - 1);
  std::geometric_distribution<uint32_t> cluster_tail(0.45);

  // Anchor clusters have a *deterministic* length, the same for every
  // consumer: two applications hitting the same hot anchor touch the
  // identical page run (a function group has one size). The heavy-tailed
  // length distribution produces the mix of sparse and dense 64 KB chunks
  // behind Figure 4.
  static constexpr uint32_t kAnchorLengths[] = {1, 1, 2, 2, 3, 3,
                                                4, 6, 8, 12, 16};
  auto anchor_length = [](uint32_t anchor) {
    const uint32_t h = anchor * 2654435761u;
    return kAnchorLengths[(h >> 7) % std::size(kAnchorLengths)];
  };

  std::set<uint32_t> picked;
  // Common picks walk the popularity-ordered anchor list *sequentially*
  // with occasional per-app skips: every consumer of the library covers
  // nearly the same prefix of hot anchors (diverging only by the skips
  // and by how deep its page budget reaches), which is what produces the
  // strong cross-application footprint overlap of Table 2. App-specific
  // picks land anywhere.
  size_t anchor_cursor = 0;
  // Bounded attempts: tiny libraries can saturate before reaching target.
  const uint32_t max_attempts = capped_target * 8 + 64;
  for (uint32_t attempt = 0;
       attempt < max_attempts && picked.size() < capped_target; ++attempt) {
    uint32_t start;
    uint32_t len;
    if (rng.Canonical() < common_bias && anchor_cursor < anchors.size()) {
      while (anchor_cursor < anchors.size() &&
             rng.Canonical() < skip_probability) {
        anchor_cursor++;
      }
      if (anchor_cursor >= anchors.size()) {
        continue;
      }
      start = anchors[anchor_cursor++];
      len = anchor_length(start);
    } else {
      start = page_dist(rng);
      len = std::min(1 + cluster_tail(rng), 4u);
    }
    for (uint32_t i = 0; i < len && start + i < image.code_pages; ++i) {
      picked.insert(start + i);
      if (picked.size() >= capped_target) {
        break;
      }
    }
  }

  for (uint32_t page : picked) {
    TouchedPage touched;
    touched.lib = lib;
    touched.category = category;
    touched.page_index = page;
    touched.fetch_weight = 0;  // assigned by Generate
    out->push_back(touched);
  }
}

AppFootprint WorkloadFactory::Generate(const AppProfile& profile) {
  AppFootprint fp;
  fp.app_name = profile.name;
  fp.kernel_fraction = profile.kernel_fraction;
  fp.anon_pages = profile.anon_pages_touched;
  fp.private_file_pages = profile.private_file_pages;

  Rng rng(profile.seed);

  // ------------------------------------------------------------------
  // Which zygote-preloaded .so objects does this app invoke? The catalog
  // lists the platform's most important libraries first; a core set is
  // used by everything, the tail is app-dependent.
  // ------------------------------------------------------------------
  std::vector<LibraryId> preload_sos;
  LibraryId app_process = -1;
  std::vector<LibraryId> java_libs;
  for (LibraryId lib : catalog_->ZygotePreloadSet()) {
    switch (catalog_->Get(lib).category) {
      case CodeCategory::kZygoteDynamicLib:
        preload_sos.push_back(lib);
        break;
      case CodeCategory::kZygoteJavaLib:
        java_libs.push_back(lib);
        break;
      case CodeCategory::kZygoteProgramBinary:
        app_process = lib;
        break;
      default:
        break;
    }
  }
  assert(app_process >= 0 && !java_libs.empty());

  const uint32_t core_count = 28;
  const uint32_t want =
      std::min<uint32_t>(profile.num_zygote_libs,
                         static_cast<uint32_t>(preload_sos.size()));
  const auto core_take = static_cast<std::ptrdiff_t>(
      std::min<size_t>(core_count, preload_sos.size()));
  std::vector<LibraryId> used(preload_sos.begin(),
                              preload_sos.begin() + core_take);
  {
    std::vector<LibraryId> tail(
        preload_sos.begin() + static_cast<std::ptrdiff_t>(used.size()),
        preload_sos.end());
    std::shuffle(tail.begin(), tail.end(), rng);
    for (LibraryId lib : tail) {
      if (used.size() >= want) {
        break;
      }
      used.push_back(lib);
    }
  }
  fp.zygote_libs_used = used;

  // ------------------------------------------------------------------
  // Zygote-preloaded .so pages: distribute the target across the used
  // libraries proportionally to code size (with jitter).
  // ------------------------------------------------------------------
  {
    uint64_t total_size = 0;
    for (LibraryId lib : used) {
      total_size += catalog_->Get(lib).code_pages;
    }
    std::uniform_real_distribution<double> jitter(0.8, 1.2);
    for (LibraryId lib : used) {
      const double share = static_cast<double>(catalog_->Get(lib).code_pages) /
                           static_cast<double>(total_size);
      const auto target = static_cast<uint32_t>(
          share * profile.zygote_so_pages * jitter(rng) + 1.0);
      PickLibraryPages(lib, CodeCategory::kZygoteDynamicLib, target,
                       profile.common_page_bias, profile.seed, &fp.pages);
    }
  }

  // Java boot image pages.
  {
    uint64_t total_size = 0;
    for (LibraryId lib : java_libs) {
      total_size += catalog_->Get(lib).code_pages;
    }
    for (LibraryId lib : java_libs) {
      const double share = static_cast<double>(catalog_->Get(lib).code_pages) /
                           static_cast<double>(total_size);
      const auto target =
          static_cast<uint32_t>(share * profile.zygote_java_pages + 0.5);
      PickLibraryPages(lib, CodeCategory::kZygoteJavaLib, target,
                       profile.common_page_bias, profile.seed, &fp.pages);
    }
  }

  // app_process pages: tiny and fully common.
  PickLibraryPages(app_process, CodeCategory::kZygoteProgramBinary,
                   profile.app_process_pages, 1.0, /*rng_seed=*/7, &fp.pages);

  // ------------------------------------------------------------------
  // Other shared libraries: a couple of the shared platform libs plus
  // app-private ones registered here.
  // ------------------------------------------------------------------
  {
    std::vector<LibraryId> others;
    const uint32_t platform_used = std::min<uint32_t>(
        2 + static_cast<uint32_t>(rng() % 3),
        static_cast<uint32_t>(platform_libs_.size()));
    for (uint32_t i = 0; i < platform_used; ++i) {
      others.push_back(platform_libs_[i]);
    }
    const uint32_t private_libs =
        profile.num_other_libs > platform_used
            ? profile.num_other_libs - platform_used
            : 0;
    std::uniform_int_distribution<uint32_t> lib_pages(40, 600);
    for (uint32_t i = 0; i < private_libs; ++i) {
      const uint32_t code_pages = lib_pages(rng);
      others.push_back(catalog_->Register(
          profile.name + ":lib" + std::to_string(i) + ".so",
          CodeCategory::kOtherSharedLib, code_pages,
          std::max(2u, code_pages / 12)));
    }
    fp.other_libs = others;

    uint64_t total_size = 0;
    for (LibraryId lib : others) {
      total_size += catalog_->Get(lib).code_pages;
    }
    for (LibraryId lib : others) {
      const double share = static_cast<double>(catalog_->Get(lib).code_pages) /
                           static_cast<double>(total_size);
      const auto target =
          static_cast<uint32_t>(share * profile.other_lib_pages + 0.5);
      // Platform libs keep the common-anchor structure (shared across
      // apps); app-private libs are inherently app-specific.
      const bool platform = std::find(platform_libs_.begin(), platform_libs_.end(),
                                      lib) != platform_libs_.end();
      PickLibraryPages(lib, CodeCategory::kOtherSharedLib, target,
                       platform ? profile.common_page_bias : 0.0,
                       profile.seed + 13, &fp.pages);
    }
  }

  // The app's own code.
  {
    fp.private_code_lib = catalog_->Register(
        profile.name + ":base.odex", CodeCategory::kPrivateCode,
        std::max(profile.private_pages * 2, 8u), 8);
    PickLibraryPages(fp.private_code_lib, CodeCategory::kPrivateCode,
                     profile.private_pages, 0.0, profile.seed + 29, &fp.pages);
  }

  // ------------------------------------------------------------------
  // Fetch weights: zipf within each category, scaled to the profile's
  // category shares.
  // ------------------------------------------------------------------
  {
    double category_share[5] = {};
    category_share[static_cast<int>(CodeCategory::kPrivateCode)] =
        profile.fetch_share_private;
    category_share[static_cast<int>(CodeCategory::kOtherSharedLib)] =
        profile.fetch_share_other;
    category_share[static_cast<int>(CodeCategory::kZygoteJavaLib)] =
        profile.fetch_share_java;
    category_share[static_cast<int>(CodeCategory::kZygoteDynamicLib)] =
        profile.fetch_share_zygote_so;
    category_share[static_cast<int>(CodeCategory::kZygoteProgramBinary)] =
        std::max(0.0, 1.0 - profile.fetch_share_private -
                          profile.fetch_share_other - profile.fetch_share_java -
                          profile.fetch_share_zygote_so);

    // Rank pages within each category deterministically (shuffled by the
    // app seed) and weight by rank.
    std::vector<size_t> indices(fp.pages.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      indices[i] = i;
    }
    std::shuffle(indices.begin(), indices.end(), rng);
    size_t rank_in_category[5] = {};
    double total_weight[5] = {};
    for (size_t idx : indices) {
      const int c = static_cast<int>(fp.pages[idx].category);
      fp.pages[idx].fetch_weight = RankWeight(rank_in_category[c]++);
      total_weight[c] += fp.pages[idx].fetch_weight;
    }
    for (TouchedPage& page : fp.pages) {
      const int c = static_cast<int>(page.category);
      if (total_weight[c] > 0) {
        page.fetch_weight =
            page.fetch_weight / total_weight[c] * category_share[c];
      }
    }
  }

  // ------------------------------------------------------------------
  // Steady-state data writes: concentrated in the most-used libraries.
  // ------------------------------------------------------------------
  {
    std::vector<LibraryId> dirty_candidates = fp.zygote_libs_used;
    const uint32_t dirty =
        std::min<uint32_t>(profile.dirty_libs,
                           static_cast<uint32_t>(dirty_candidates.size()));
    uint32_t remaining = profile.data_pages_written;
    for (uint32_t i = 0; i < dirty && remaining > 0; ++i) {
      const LibraryImage& image = catalog_->Get(dirty_candidates[i]);
      if (image.data_pages == 0) {
        continue;
      }
      const uint32_t here =
          std::min<uint32_t>(std::max(1u, remaining / (dirty - i)),
                             image.data_pages);
      std::set<uint32_t> pages;
      std::uniform_int_distribution<uint32_t> dist(0, image.data_pages - 1);
      while (pages.size() < here) {
        pages.insert(dist(rng));
      }
      for (uint32_t page : pages) {
        fp.data_writes.push_back(DataWrite{dirty_candidates[i], page});
      }
      remaining -= here;
    }
  }

  return fp;
}

AppFootprint WorkloadFactory::GenerateZygoteFootprint(uint32_t target_pages,
                                                      uint64_t seed) {
  AppFootprint fp;
  fp.app_name = "zygote";
  fp.kernel_fraction = 0.1;

  const auto preload = catalog_->ZygotePreloadSet();
  uint64_t total_size = 0;
  for (LibraryId lib : preload) {
    total_size += catalog_->Get(lib).code_pages;
  }
  for (LibraryId lib : preload) {
    const LibraryImage& image = catalog_->Get(lib);
    const double share =
        static_cast<double>(image.code_pages) / static_cast<double>(total_size);
    const auto target = static_cast<uint32_t>(share * target_pages + 1.0);
    // The zygote's boot work runs the very hottest paths of every library
    // (class preloading, resource decoding): fully head-biased, but it is
    // one workload, not the union of all of them — it covers the hot
    // prefix sparsely (higher skip rate), so a typical app inherits
    // roughly half of its own hot set from the boot work (Table 3's
    // cold-start column).
    PickLibraryPages(lib, image.category, target, /*common_bias=*/1.0, seed,
                     &fp.pages, /*skip_probability=*/0.45);
    fp.zygote_libs_used.push_back(lib);
  }
  return fp;
}

}  // namespace sat
