#include "src/android/profiler.h"

#include <sstream>

namespace sat {

PerfSampler::PerfSampler(ZygoteSystem* system, uint32_t core_index,
                         Cycles interval)
    : system_(system), core_index_(core_index) {
  system_->kernel().core(core_index_).SetSampler(
      interval, [this](VirtAddr va, bool kernel) {
        samples_.push_back(Sample{va, kernel});
      });
}

PerfSampler::~PerfSampler() {
  system_->kernel().core(core_index_).SetSampler(0, nullptr);
}

SampleBreakdown PerfSampler::Analyze(Task& task) const {
  SampleBreakdown breakdown;
  const LibraryCatalog& catalog = system_->catalog();
  for (const Sample& sample : samples_) {
    breakdown.total++;
    if (sample.kernel) {
      breakdown.kernel++;
      continue;
    }
    // A dead task has no address space: its user samples are unmapped.
    const VmArea* vma = task.alive ? task.mm->FindVma(sample.va) : nullptr;
    if (vma == nullptr || vma->file == kNoFile) {
      breakdown.unmapped++;
      continue;
    }
    // Catalog-backed files carry their library's category; everything
    // else (apk/oat resource files) is the app's private code.
    CodeCategory category = CodeCategory::kPrivateCode;
    if (vma->file >= 0 && static_cast<size_t>(vma->file) < catalog.size()) {
      category = catalog.Get(static_cast<LibraryId>(vma->file)).category;
    }
    breakdown.user[static_cast<int>(category)]++;
  }
  return breakdown;
}

std::string SampleBreakdown::ToString() const {
  std::ostringstream os;
  os << "samples=" << total << " kernel=" << kernel;
  for (int c = 0; c < 5; ++c) {
    os << " " << CodeCategoryName(static_cast<CodeCategory>(c)) << "="
       << user[c];
  }
  os << " unmapped=" << unmapped;
  return os.str();
}

}  // namespace sat
