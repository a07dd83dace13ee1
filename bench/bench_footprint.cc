// Table 1, Figures 2-4 and Table 2: the instruction footprints of the 11
// paper apps, the calibrated inputs of the system results. One
// WorkloadFactory pass generates every footprint and feeds every table:
//
// - Table 1, the % of instructions fetched in user versus kernel space.
//   The kernel share is a property of each app's I/O behaviour, measured
//   by the paper with 100 Hz perf sampling; each footprint carries it as
//   its profile's calibrated kernel_fraction, and the checks pin that
//   calibration against the published values.
// - Figure 2, the instruction pages each app accesses, by code category
//   (private code / non-preloaded shared libs / zygote program binary /
//   zygote Java libs / zygote dynamic libs).
// - Figure 3, the share of instruction fetches per category, normalized
//   to the total user-mode instructions executed.
// - Table 2, pairwise intersection of instruction footprints: the % of
//   all instruction pages the row app accesses whose zygote-preloaded
//   (all shared, in brackets) code pages the column app also accesses,
//   plus the all-apps averages (paper: 37.9% / 45.7%).
// - Figure 4, the CDF of 4 KB pages untouched within each 64 KB page of
//   zygote-preloaded shared code: the sparsity argument against simply
//   using 64 KB large pages for code.
//
// The factory's random stream is order-dependent across apps, so the
// whole pass runs as a single harness job (the numbers must not depend on
// --jobs).

#include <string>
#include <vector>

#include "bench/common.h"
#include "src/workload/analysis.h"

namespace sat {
namespace {

// Table 1's published user-space shares, in AppProfile::PaperBenchmarks()
// order.
struct Table1Row {
  const char* name;
  double user_pct;
};

constexpr Table1Row kTable1Paper[] = {
    {"Angrybirds", 92.2},     {"Adobe Reader", 93.3},
    {"Android Browser", 85.8}, {"Chrome", 85.3},
    {"Chrome Sandbox", 88.8},  {"Chrome Privilege", 27.9},
    {"Email", 87.1 /* paper prints 87.1/13.0 */},
    {"Google Calendar", 96.2}, {"MX Player", 59.3},
    {"Laya Music Player", 82.6}, {"WPS", 47.1},
};

struct Footprints {
  std::vector<AppFootprint> apps;
  std::vector<CategoryBreakdown> categories;
  std::vector<SparsityResult> sparsity;
  SparsityResult union_sparsity;
};

double FractionOverNine(const SparsityResult& sparsity) {
  if (sparsity.untouched_per_chunk.empty()) {
    return 0;
  }
  uint32_t over = 0;
  for (uint32_t untouched : sparsity.untouched_per_chunk) {
    if (untouched > 9) {
      over++;
    }
  }
  return static_cast<double>(over) /
         static_cast<double>(sparsity.untouched_per_chunk.size());
}

double Ratio64kTo4k(const SparsityResult& sparsity) {
  return sparsity.MemoryBytes64k() / sparsity.MemoryBytes4k();
}

void Generate(Footprints* out, JobRecord* record) {
  LibraryCatalog catalog = LibraryCatalog::AndroidDefault();
  WorkloadFactory factory(&catalog);
  for (const AppProfile& app : AppProfile::PaperBenchmarks()) {
    out->apps.push_back(factory.Generate(app));
    out->categories.push_back(AnalyzeCategories(out->apps.back()));
    out->sparsity.push_back(AnalyzeSparsity(out->apps.back()));
  }
  out->union_sparsity = AnalyzeSparsityUnion(out->apps);

  const auto n = static_cast<double>(out->apps.size());
  double page_sum = 0;
  double fetch_sum = 0;
  double over9_sum = 0;
  double ratio_sum = 0;
  for (size_t i = 0; i < out->apps.size(); ++i) {
    page_sum += out->categories[i].SharedCodePageFraction();
    fetch_sum += out->categories[i].SharedCodeFetchFraction();
    over9_sum += FractionOverNine(out->sparsity[i]);
    ratio_sum += Ratio64kTo4k(out->sparsity[i]);
  }
  double zygote_sum = 0;
  double all_sum = 0;
  uint32_t pairs = 0;
  for (const AppFootprint& row : out->apps) {
    for (const AppFootprint& col : out->apps) {
      if (&row == &col) {
        continue;
      }
      zygote_sum += IntersectionFraction(row, col, true);
      all_sum += IntersectionFraction(row, col, false);
      pairs++;
    }
  }
  record->Metric("apps", n);
  record->Metric("pairs", pairs);
  record->Metric("avg.shared_code_page_pct", page_sum / n * 100);
  record->Metric("avg.shared_code_fetch_pct", fetch_sum / n * 100);
  record->Metric("avg.zygote_intersection_pct", zygote_sum / pairs * 100);
  record->Metric("avg.all_shared_intersection_pct", all_sum / pairs * 100);
  record->Metric("avg.over9_pct", over9_sum / n * 100);
  record->Metric("avg.ratio_64k_4k", ratio_sum / n);
  record->Metric("union.ratio_64k_4k", Ratio64kTo4k(out->union_sparsity));
}

int Run(const BenchOptions& options) {
  Footprints fps;
  Harness harness("footprint", options);
  harness.AddCustomJob("footprints", [&fps](JobRecord& record) {
    Generate(&fps, &record);
  });
  if (!harness.Run()) {
    return 1;
  }
  const JobRecord& record = harness.record(0);
  const auto n = static_cast<double>(fps.apps.size());
  const auto category = [](CodeCategory c) { return static_cast<int>(c); };
  bool ok = true;

  PrintHeader("Table 1", "% of instructions fetched (user vs kernel space)");
  TablePrinter table1({"Benchmark", "User space (%)", "Kernel space (%)",
                       "paper user (%)"});
  double user_sum = 0;
  double paper_user_sum = 0;
  uint32_t over80 = 0;
  for (size_t i = 0; i < fps.apps.size(); ++i) {
    const Table1Row& row = kTable1Paper[i];
    const double user = (1.0 - fps.apps[i].kernel_fraction) * 100.0;
    table1.AddRow({row.name, FormatDouble(user, 1),
                   FormatDouble(100.0 - user, 1),
                   FormatDouble(row.user_pct, 1)});
    user_sum += user;
    paper_user_sum += row.user_pct;
    if (user > 80.0) {
      over80++;
    }
  }
  table1.Print(std::cout);
  std::cout << "\n";
  ok &= ShapeCheck(std::cout, "mean user-space fetch %", paper_user_sum / n,
                   user_sum / n, 0.10);
  // The qualitative claim: >80% user for the majority, except the three
  // I/O-heavy programs.
  ok &= ShapeCheck(std::cout, "# apps with >80% user-space fetches", 8, over80,
                   0.15);

  std::cout << "\n";
  PrintHeader("Figure 2", "Breakdown of the instruction pages accessed");
  TablePrinter fig2_table({"Benchmark", "total", "private", "other .so",
                          "app_process", "zygote Java", "zygote .so"});
  double page_share_sum[5] = {};
  for (size_t i = 0; i < fps.apps.size(); ++i) {
    const CategoryBreakdown& b = fps.categories[i];
    const auto pages = [&](CodeCategory c) {
      return std::to_string(b.pages[category(c)]);
    };
    fig2_table.AddRow({fps.apps[i].app_name, std::to_string(b.TotalPages()),
                      pages(CodeCategory::kPrivateCode),
                      pages(CodeCategory::kOtherSharedLib),
                      pages(CodeCategory::kZygoteProgramBinary),
                      pages(CodeCategory::kZygoteJavaLib),
                      pages(CodeCategory::kZygoteDynamicLib)});
    for (int c = 0; c < 5; ++c) {
      page_share_sum[c] +=
          static_cast<double>(b.pages[c]) / static_cast<double>(b.TotalPages());
    }
  }
  fig2_table.Print(std::cout);
  const auto page_share = [&](CodeCategory c) {
    return page_share_sum[category(c)] / n * 100;
  };
  std::cout << "\nAverage shares of the instruction-page footprint:\n";
  // Paper averages (Section 2.3.1): shared code 92.8% of the footprint,
  // of which 35.4% zygote .so, 32.4% zygote Java, 0.1% app_process,
  // 24.9% other shared libraries.
  ok &= ShapeCheck(std::cout, "shared code % of inst pages", 92.8,
                   MetricOr(record, "avg.shared_code_page_pct"), 0.08);
  ok &= ShapeCheck(std::cout, "zygote-preloaded .so %", 35.4,
                   page_share(CodeCategory::kZygoteDynamicLib), 0.25);
  ok &= ShapeCheck(std::cout, "zygote Java libs %", 32.4,
                   page_share(CodeCategory::kZygoteJavaLib), 0.25);
  ok &= ShapeCheck(std::cout, "other shared libs %", 24.9,
                   page_share(CodeCategory::kOtherSharedLib), 0.25);
  ok &= ShapeCheck(std::cout, "app_process %", 0.1,
                   page_share(CodeCategory::kZygoteProgramBinary), 1.0);

  std::cout << "\n";
  PrintHeader("Figure 3", "Breakdown of % of instructions fetched");
  TablePrinter fig3_table({"Benchmark", "private", "other .so", "app_process",
                          "zygote Java", "zygote .so", "shared total"});
  double fetch_share_sum[5] = {};
  for (size_t i = 0; i < fps.apps.size(); ++i) {
    const CategoryBreakdown& b = fps.categories[i];
    const auto pct = [&](CodeCategory c) {
      return FormatPercent(b.fetch_share[category(c)]);
    };
    fig3_table.AddRow({fps.apps[i].app_name, pct(CodeCategory::kPrivateCode),
                      pct(CodeCategory::kOtherSharedLib),
                      pct(CodeCategory::kZygoteProgramBinary),
                      pct(CodeCategory::kZygoteJavaLib),
                      pct(CodeCategory::kZygoteDynamicLib),
                      FormatPercent(b.SharedCodeFetchFraction())});
    for (int c = 0; c < 5; ++c) {
      fetch_share_sum[c] += b.fetch_share[c];
    }
  }
  fig3_table.Print(std::cout);
  const auto fetch_share = [&](CodeCategory c) {
    return fetch_share_sum[category(c)] / n * 100;
  };
  std::cout << "\nAverage fetch shares (paper: shared 98%, zygote .so 61%, "
               "Java 11%, other 26%):\n";
  ok &= ShapeCheck(std::cout, "shared code % of fetches", 98.0,
                   MetricOr(record, "avg.shared_code_fetch_pct"), 0.05);
  ok &= ShapeCheck(std::cout, "zygote-preloaded .so fetch %", 61.0,
                   fetch_share(CodeCategory::kZygoteDynamicLib), 0.15);
  ok &= ShapeCheck(std::cout, "zygote Java fetch %", 11.0,
                   fetch_share(CodeCategory::kZygoteJavaLib), 0.3);
  ok &= ShapeCheck(std::cout, "other shared lib fetch %", 26.0,
                   fetch_share(CodeCategory::kOtherSharedLib), 0.2);

  std::cout << "\n";
  PrintHeader("Table 2",
              "% of row app's instruction footprint intersecting column app: "
              "zygote-preloaded (all shared code)");
  // The 4-app matrix the paper prints.
  const char* const kShown[] = {"Adobe Reader", "Android Browser",
                                "MX Player", "Laya Music Player"};
  const auto footprint = [&fps](const std::string& name)
      -> const AppFootprint* {
    for (const AppFootprint& fp : fps.apps) {
      if (fp.app_name == name) {
        return &fp;
      }
    }
    return nullptr;
  };
  TablePrinter matrix({"", kShown[0], kShown[1], kShown[2], kShown[3]});
  for (const char* row_name : kShown) {
    std::vector<std::string> cells = {row_name};
    const AppFootprint* row = footprint(row_name);
    for (const char* col_name : kShown) {
      const AppFootprint* col = footprint(col_name);
      if (row == col) {
        cells.push_back("-");
        continue;
      }
      cells.push_back(
          FormatDouble(IntersectionFraction(*row, *col, true) * 100, 2) +
          " (" + FormatDouble(IntersectionFraction(*row, *col, false) * 100, 2) +
          ")");
    }
    matrix.AddRow(cells);
  }
  matrix.Print(std::cout);
  std::cout << "\n";
  ok &= ShapeCheck(std::cout, "avg zygote-preloaded intersection %", 37.9,
                   MetricOr(record, "avg.zygote_intersection_pct"), 0.25);
  ok &= ShapeCheck(std::cout, "avg all-shared-code intersection %", 45.7,
                   MetricOr(record, "avg.all_shared_intersection_pct"), 0.25);

  std::cout << "\n";
  PrintHeader("Figure 4",
              "CDF of # of 4KB pages untouched within a 64KB page of the "
              "zygote-preloaded shared code");
  TablePrinter fig4_table({"Benchmark", ">9 untouched", "4KB mem (MB)",
                          "64KB mem (MB)", "64KB/4KB"});
  const auto sparsity_row = [&fig4_table](const std::string& name,
                                          const SparsityResult& s) {
    fig4_table.AddRow({name, FormatPercent(FractionOverNine(s)),
                      FormatDouble(s.MemoryBytes4k() / 1048576.0, 1),
                      FormatDouble(s.MemoryBytes64k() / 1048576.0, 1),
                      FormatDouble(Ratio64kTo4k(s), 2)});
  };
  for (size_t i = 0; i < fps.apps.size(); ++i) {
    sparsity_row(fps.apps[i].app_name, fps.sparsity[i]);
  }
  sparsity_row("Union", fps.union_sparsity);
  fig4_table.Print(std::cout);
  // One full CDF series (the figure's x axis runs 15 -> 0).
  std::cout << "\nCDF for " << fps.apps[1].app_name
            << " (P[untouched <= x]), x = 0..15:\n  ";
  for (double p : EmpiricalCdf(fps.sparsity[1].untouched_per_chunk, 15)) {
    std::cout << FormatDouble(p * 100, 0) << "% ";
  }
  std::cout << "\n\n";
  // Paper: in 60% of cases more than 9 of 16 pages are untouched; 64 KB
  // pages cost ~2.6x the memory per app; even the union wastes most of
  // each 64 KB page ("7+ pages untouched the majority of the time",
  // 36 MB vs 18 MB => ~2x for the union).
  ok &= ShapeCheck(std::cout, "% of 64KB chunks with >9 pages untouched", 60.0,
                   MetricOr(record, "avg.over9_pct"), 0.35);
  ok &= ShapeCheck(std::cout, "64KB/4KB memory ratio (per app avg)", 2.6,
                   MetricOr(record, "avg.ratio_64k_4k"), 0.40);
  ok &= ShapeCheck(std::cout, "64KB/4KB memory ratio (union)", 2.0,
                   MetricOr(record, "union.ratio_64k_4k"), 0.40);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sat

int main(int argc, char** argv) {
  const sat::BenchOptions options = sat::ParseHarnessArgs(&argc, argv);
  return sat::Run(options);
}
